"""Ground truth for small inputs.

An independent reference for the walk/certificate fast path, in tests and `frob3 verify`:
oracle_frobenius and oracle_representable read a Brauer–Shockley residue table, and
oracle_least_multiple tests each candidate multiple with Sylvester's two-generator criterion,
where the walk develops a continued fraction. The two share a library inverse, not logic.
Combinations here have coefficients >= 0; one with every coefficient >= 1 is such a
combination plus the generator sum, so f_pos = oracle_frobenius(gens) + sum(gens).

The domain is the package's: at least two generators, pairwise coprime (errors.check_generators).
One guard bounds every loop here: once the inputs are checked, a table or scan modulus above
MAX_MODULUS raises OracleBoundExceeded.
"""

from .errors import InvalidInputError, InvariantViolation, OracleBoundExceeded, check_generators
from .walk import MultipleCertificate

# the one guard: the most turns of any oracle loop, so the largest table modulus a1
# (residue_table) and the largest scan modulus y (oracle_least_multiple)
MAX_MODULUS = 10**6


def _checked_generators(generators) -> list:
    """The generators in ascending order, once checked: at least two, pairwise coprime."""
    gens = sorted(generators)
    if len(gens) < 2:
        raise InvalidInputError("need at least two generators")
    check_generators(*gens)
    return gens


def residue_table(generators) -> list:
    """Brauer–Shockley table mod a1 = min(generators): entry r is the least nonnegative
    combination of the generators congruent to r mod a1.  The generators must be at least
    two and pairwise coprime, and a1 at most MAX_MODULUS."""
    return _table(_checked_generators(generators))


def _table(gens: list) -> list:
    """residue_table of checked, sorted generators, with the guard on a1.  With a2 alone,
    class k*a2 mod a1 first holds k*a2 (k < a1). Each further generator a then takes one
    round-robin pass (Böcker and Lipták 2007): as a is prime to a1, r -> r + a mod a1 is
    one cycle through every class, and the pass relaxes t[r + a] = min(t[r + a], t[r] + a)
    around it from class 0. t[0] = 0 is the least entry, which no other entry plus a can
    lower, so each entry the pass reaches is already final."""
    a1, a2, *further = gens
    if a1 > MAX_MODULUS:
        raise OracleBoundExceeded(f"table modulus {a1} exceeds oracle guard {MAX_MODULUS}")
    table = [0] * a1
    for k in range(1, a1):
        table[k * a2 % a1] = k * a2
    for a in further:
        step = a % a1
        r = n = 0
        for _ in range(a1 - 1):
            r += step
            if r >= a1:
                r -= a1
            n += a
            least = table[r]
            if n < least:
                table[r] = n
            else:
                n = least
    return table


def oracle_frobenius(generators) -> int:
    """Largest integer that is no nonnegative combination of the generators: the largest
    table entry minus the modulus a1, since every table entry t is the least representable
    number of its class and t - a1 the largest one that is not; residue_table checks the
    generators and the guard."""
    gens = sorted(generators)
    if len(gens) != 3:
        raise InvalidInputError("oracle_frobenius expects exactly three generators")
    return max(residue_table(gens)) - gens[0]


def oracle_least_multiple(target: int, pair) -> MultipleCertificate:
    """Least m >= 1 with m*target = u*x + w*y, u, w >= 1, for the pair x < y, and its least u.

    Sylvester's criterion (1884) tests each n = m*target: let u = (n*x^-1 - 1) mod y + 1,
    the least u >= 1 with u*x = n (mod y). Any solution u' >= 1 of n = u'*x + w'*y has
    u' = u (mod y), so u' >= u and n - u*x = w'*y + (u' - u)*x >= y; conversely
    n - u*x >= y makes w = (n - u*x)/y >= 1. So n is a positive combination of x and y
    iff n - u*x >= y, and then this u is the least of any such combination.

    The least m is below y. m0 = x*target^-1 mod y lies in [1, y), as y does not divide x,
    and m0*target = x + w*y for some w. w != 0, as target >= 2 is coprime to x and does not
    divide it, and w >= 1, as m0*target > 0 > x - y. So m0 passes with u = 1, and the scan
    modulus y, at most MAX_MODULUS, bounds the scan."""
    if len(pair) != 2:
        raise InvalidInputError("oracle_least_multiple expects a pair of two generators")
    x, y = sorted(pair)
    check_generators(target, x, y)
    if y > MAX_MODULUS:
        raise OracleBoundExceeded(f"scan modulus {y} exceeds oracle guard {MAX_MODULUS}")
    x_inv = pow(x, -1, y)
    for m in range(1, y):
        n = m * target
        u = (n * x_inv - 1) % y + 1
        if n - u * x >= y:
            return MultipleCertificate(m=m, u=u, w=(n - u * x) // y,
                                       target=target, pair_a=x, pair_c=y)
    raise InvariantViolation(f"no multiple of {target} below {y} is representable by ({x}, {y})")


def oracle_representable(n: int, generators) -> bool:
    """Whether n is a nonnegative combination of the generators: iff n >= table[n mod a1]."""
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    gens = _checked_generators(generators)
    if n < gens[0]:
        # below a1 only 0, the empty sum, is representable; no table is built
        return n == 0
    return n >= _table(gens)[n % gens[0]]
