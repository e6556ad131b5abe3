"""Ground truth for small inputs.

Everything here is read off a Brauer–Shockley residue table or, for a pair, its
two-generator closed form (Sylvester's criterion). It exists so that the walk/certificate
fast path can be validated against an independent reference in tests and `frob3 verify`:
oracle_least_multiple tests each candidate multiple against the definition, where the
walk develops a continued fraction. The two share a library inverse, not logic.
"""

import math

from .errors import InvalidInputError, InvariantViolation, OracleBoundExceeded, check_generators
from .walk import MultipleCertificate

# oracle_frobenius refuses a least generator (the table's modulus) above this
MAX_MODULUS = 10**6
# oracle_least_multiple refuses a pair product above this; its scan stops below the larger
# element, and the guard keeps its value so that every input is accepted or refused as before
MAX_PAIR_PRODUCT = 10**8

NONNEG = "nonneg"
POSITIVE = "positive"


def _table_generators(generators) -> list:
    """The generators in ascending order, once each is checked: at least one, all >= 2."""
    gens = sorted(generators)
    if not gens:
        raise InvalidInputError("need at least one generator")
    for g in gens:
        if g < 2:
            raise InvalidInputError(f"generators must be >= 2, got {g}")
    return gens


def residue_table(generators) -> list:
    """Brauer–Shockley table mod a1 = min(generators): entry r is the least nonnegative
    combination of the generators congruent to r mod a1, or None if no combination is.

    Round robin (Böcker and Lipták 2007): for each further generator a, the residues
    fall into gcd(a, a1) cycles of r -> r + a mod a1. One pass around a cycle relaxes
    t[r + a] = min(t[r + a], t[r] + a). It starts at the cycle's least reached entry,
    which no other entry plus a can lower, so each entry it reaches is already final."""
    gens = _table_generators(generators)
    a1 = gens[0]
    table = [None] * a1
    table[0] = 0
    for a in gens[1:]:
        step = a % a1
        cycles = math.gcd(step, a1)
        for c in range(cycles):
            reached = [r for r in range(c, a1, cycles) if table[r] is not None]
            if not reached:
                continue
            r = min(reached, key=table.__getitem__)
            n = table[r]
            for _ in range(a1 // cycles - 1):
                r += step
                if r >= a1:
                    r -= a1
                n += a
                least = table[r]
                if least is None or n < least:
                    table[r] = n
                else:
                    n = least
    return table


def oracle_frobenius(generators, convention: str = NONNEG) -> int:
    """Largest non-representable integer: the largest table entry minus the modulus a1,
    since every table entry t is the least representable number of its class and
    t - a1 the largest one that is not."""
    gens = tuple(sorted(generators))
    if len(gens) != 3:
        raise InvalidInputError("oracle_frobenius expects exactly three generators")
    check_generators(*gens)
    if convention not in (NONNEG, POSITIVE):
        raise InvalidInputError(f"unknown convention {convention!r}")
    if gens[0] > MAX_MODULUS:
        raise OracleBoundExceeded(
            f"least generator {gens[0]} exceeds oracle guard {MAX_MODULUS}")
    g = max(residue_table(gens)) - gens[0]
    # n is positive-representable iff n - total is nonneg-representable
    return g + sum(gens) if convention == POSITIVE else g


def oracle_least_multiple(target: int, pair) -> MultipleCertificate:
    """Least m >= 1 with m*target = u*x + w*y, u, w >= 1, for the pair x < y, and its least u.

    Sylvester's criterion (1884) tests each n = m*target: let u = (n*x^-1 - 1) mod y + 1,
    the least u >= 1 with u*x = n (mod y). Any solution u' >= 1 of n = u'*x + w'*y has
    u' = u (mod y), so u' >= u and n - u*x = w'*y + (u' - u)*x >= y; conversely
    n - u*x >= y makes w = (n - u*x)/y >= 1. So n is a positive combination of x and y
    iff n - u*x >= y, and then this u is the least of any such combination.

    The least m is below y. m0 = x*target^-1 mod y lies in [1, y), as y does not divide x,
    and m0*target = x + w*y for some w. w != 0, as target >= 2 is coprime to x and does not
    divide it, and w >= 1, as m0*target > 0 > x - y. So m0 passes with u = 1."""
    if len(pair) != 2:
        raise InvalidInputError("oracle_least_multiple expects a pair of two generators")
    x, y = sorted(pair)
    check_generators(target, x, y)
    if x * y > MAX_PAIR_PRODUCT:
        raise OracleBoundExceeded(f"pair product {x * y} exceeds oracle guard")
    x_inv = pow(x, -1, y)
    for m in range(1, y):
        n = m * target
        u = (n * x_inv - 1) % y + 1
        if n - u * x >= y:
            return MultipleCertificate(m=m, u=u, w=(n - u * x) // y,
                                       target=target, pair_a=x, pair_c=y)
    raise InvariantViolation(f"no multiple of {target} below {y} is representable by ({x}, {y})")


def oracle_representable(n: int, generators, convention: str = NONNEG) -> bool:
    """Exact representability check: n is representable iff n >= table[n mod a1]."""
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    gens = _table_generators(generators)
    if convention == POSITIVE:
        # n is positive-representable iff n - total is nonneg-representable
        n -= sum(gens)
    elif convention != NONNEG:
        raise InvalidInputError(f"unknown convention {convention!r}")
    if n < gens[0]:
        # below a1 only 0, the empty sum, is representable; this keeps the table no longer than n
        return n == 0
    table = residue_table(gens)
    least = table[n % gens[0]]
    return least is not None and n >= least
