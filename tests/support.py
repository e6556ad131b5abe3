"""Helpers the test modules share: one coprimality predicate, the triple enumerator, the
seeded sampler of coprime tuples, the CRT reference the candidates are checked against,
representability with positive coefficients, Euclid's remainders, and the certificates of a
least-multiple problem by their definition."""

import itertools
import math

from frobenius3.oracle import oracle_representable
from frobenius3.walk import MultipleCertificate


def pairwise_coprime(values) -> bool:
    return all(math.gcd(x, y) == 1 for x, y in itertools.combinations(values, 2))


def coprime_triples(limit):
    """Every pairwise-coprime a1 < a2 < a3 <= limit with a1 >= 2, in lexicographic order."""
    return filter(pairwise_coprime, itertools.combinations(range(2, limit + 1), 3))


def coprime_draws(rng, *ranges):
    """Pairwise-coprime tuples without end: value i is rng.randrange(*ranges[i]), and a draw
    that is not pairwise coprime is skipped."""
    while True:
        values = tuple(rng.randrange(*r) for r in ranges)
        if pairwise_coprime(values):
            yield values


def crt(residues, moduli):
    """Least x >= 0 with x = r (mod m) for each (r, m); the moduli pairwise coprime."""
    modulus = math.prod(moduli)
    return sum(r * (modulus // m) * pow(modulus // m, -1, m)
               for r, m in zip(residues, moduli)) % modulus


def positive_representable(n, generators) -> bool:
    """n is a combination of the generators with every coefficient >= 1: n minus their sum is
    a nonnegative one, so no n below that sum is."""
    n -= sum(generators)
    return n >= 0 and oracle_representable(n, generators)


def euclid_remainders(x, y):
    """Remainders r0 = x, r1 = y, r2, ... of Euclid on (x, y), down to the last nonzero one;
    Euclid takes one division per remainder after r0."""
    rs = [x]
    while y:
        x, y = y, x % y
        rs.append(x)
    return rs


def certificates(target, x, y):
    """Every m*target = u*x + w*y with m, u, w >= 1, by search in (m, u) order, without end:
    the first is the least multiple with its least u."""
    for m in itertools.count(1):
        for u in range(1, (m * target - y) // x + 1):
            if (m * target - u * x) % y == 0:
                yield MultipleCertificate(m, u, (m * target - u * x) // y, target, x, y)
