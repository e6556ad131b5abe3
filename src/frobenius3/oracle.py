"""Brute-force ground truth for small inputs.

Everything here is computed by sieving or exhaustive search and shares no
logic with the walk/certificate fast path; it exists so that the fast path can be
validated against an independent reference in tests and `frob3 verify`.
"""

import math

from .errors import InvalidInputError, InvariantViolation, OracleBoundExceeded
from .walk import MultipleCertificate

# sieve sizes beyond this are refused; the oracle is for small inputs only
MAX_PAIR_PRODUCT = 10**8

NONNEG = "nonneg"
POSITIVE = "positive"


def build_sieve(generators, bound: int) -> bytearray:
    """Reachability table over [0, bound]: table[n] is 1 iff n is a nonnegative
    combination of the generators, else 0."""
    gens = tuple(sorted(generators))
    for g in gens:
        if g < 2:
            raise InvalidInputError(f"generators must be >= 2, got {g}")
    table = bytearray(bound + 1)
    table[0] = 1
    # one pass per generator: within each residue class mod g, once a
    # reachable entry appears every later entry is reachable too
    for g in gens:
        for r in range(min(g, bound + 1)):
            i = table[r::g].find(1)
            if i >= 0:
                start = r + i * g
                table[start::g] = b"\x01" * ((bound - start) // g + 1)
    return table


def _check_pairwise_coprime(gens):
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if math.gcd(gens[i], gens[j]) != 1:
                raise InvalidInputError(
                    f"oracle requires pairwise-coprime generators, got {gens}")


def oracle_frobenius(generators, convention: str = NONNEG) -> int:
    """Largest non-representable integer, by direct sieve.

    Sieve bound: the best pair's product plus the generator sum, which always
    exceeds the answer in either convention."""
    gens = tuple(sorted(generators))
    if len(gens) != 3:
        raise InvalidInputError("oracle_frobenius expects exactly three generators")
    _check_pairwise_coprime(gens)
    min_pair_product = min(gens[0] * gens[1], gens[0] * gens[2], gens[1] * gens[2])
    if min_pair_product > MAX_PAIR_PRODUCT:
        raise OracleBoundExceeded(
            f"min pair product {min_pair_product} exceeds oracle guard {MAX_PAIR_PRODUCT}")
    total = sum(gens)
    bound = min_pair_product + total
    g = build_sieve(gens, bound).rfind(0)
    if g < 0:
        raise InvariantViolation("sieve found no gaps; bound logic broken")
    if convention == NONNEG:
        return g
    if convention == POSITIVE:
        # n is positive-representable iff n - total is nonneg-representable
        return g + total
    raise InvalidInputError(f"unknown convention {convention!r}")


def _positive_pair_decomposition(n: int, x: int, y: int):
    """Smallest-u solution of n = u*x + w*y with u, w >= 1, or None. Pure search."""
    u = 1
    while u * x + y <= n:
        if (n - u * x) % y == 0:
            return u, (n - u * x) // y
        u += 1
    return None


def oracle_least_multiple(target: int, pair) -> MultipleCertificate:
    """Scan m = 1, 2, ... for the first m*target positively representable by the pair."""
    x, y = sorted(pair)
    if x * y > MAX_PAIR_PRODUCT:
        raise OracleBoundExceeded(f"pair product {x * y} exceeds oracle guard")
    _check_pairwise_coprime((target, x, y))
    for m in range(1, x * y + 1):
        hit = _positive_pair_decomposition(m * target, x, y)
        if hit is not None:
            u, w = hit
            return MultipleCertificate(m=m, u=u, w=w, target=target, pair_a=x, pair_c=y)
    raise InvariantViolation(
        f"no multiple of {target} representable by ({x}, {y}) within the pair bound")


def oracle_representable(n: int, generators, convention: str = NONNEG) -> bool:
    """Exact representability check by sieve lookup."""
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    gens = tuple(sorted(generators))
    if convention == POSITIVE:
        shifted = n - sum(gens)
        if shifted < 0:
            return False
        return oracle_representable(shifted, gens, NONNEG)
    if convention != NONNEG:
        raise InvalidInputError(f"unknown convention {convention!r}")
    if n == 0:
        return True
    return bool(build_sieve(gens, n)[n])
