"""Arbitrary-precision CRT on Python ints: a public helper and the tests'
reference for the two cyclic systems, whose solutions the solver pipeline
reads off the certificates without calling this module.
"""

import math
from dataclasses import dataclass

from .errors import InvalidInputError, NotPairwiseCoprimeError


@dataclass(frozen=True)
class Congruence:
    """x = residue (mod modulus), residue canonicalized to [0, modulus)."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidInputError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)


def crt_combine(congruences: list[Congruence] | tuple[Congruence, ...]) -> tuple[int, int]:
    """Solve a system of congruences with pairwise-coprime moduli.

    Returns (x, M) with 0 <= x < M = product of the moduli and
    x = residue_i (mod modulus_i) for every input congruence.
    Congruences are folded pairwise left-to-right, so intermediate
    values are reproducible across runs.
    """
    if not congruences:
        raise InvalidInputError("crt_combine needs at least one congruence")
    x, m = congruences[0].residue, congruences[0].modulus
    for cong in congruences[1:]:
        r2, m2 = cong.residue, cong.modulus
        g = math.gcd(m, m2)
        if g != 1:
            raise NotPairwiseCoprimeError(m, m2, g)
        diff = ((r2 - x) * pow(m, -1, m2)) % m2
        x = x + m * diff
        m = m * m2
    return x, m
