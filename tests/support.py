"""Helpers the test modules share: one coprimality predicate, the triple enumerator, the CRT
reference the candidates are checked against, and representability with positive coefficients."""

import itertools
import math

from frobenius3.oracle import oracle_representable


def pairwise_coprime(values) -> bool:
    return all(math.gcd(x, y) == 1 for x, y in itertools.combinations(values, 2))


def coprime_triples(limit):
    """Every pairwise-coprime a1 < a2 < a3 <= limit with a1 >= 2, in lexicographic order."""
    return filter(pairwise_coprime, itertools.combinations(range(2, limit + 1), 3))


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
