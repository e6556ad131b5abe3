"""Exception hierarchy shared by all frobenius3 modules, and the generator check."""

import itertools
import math


class Frobenius3Error(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(Frobenius3Error, ValueError):
    """Caller passed arguments violating a documented precondition."""


class NotPairwiseCoprimeError(InvalidInputError):
    """Two of the given integers share a common factor; names the pair."""

    def __init__(self, x: int, y: int, gcd: int):
        super().__init__(f"({x}, {y}) share common factor {gcd}; inputs must be pairwise coprime")
        self.pair = (x, y)
        self.gcd = gcd


class InvariantViolation(Frobenius3Error, RuntimeError):
    """An internal exact-arithmetic identity failed; indicates a bug, not bad input."""


class StepBudgetExceeded(Frobenius3Error, RuntimeError):
    """The walk ran past its step budget, a heuristic bound that valid inputs exceed."""


class OracleBoundExceeded(Frobenius3Error, ValueError):
    """Input too large for the brute-force oracle: its table modulus or search range."""


def check_generators(*values: int) -> None:
    """Require every value >= 2 and the values pairwise coprime (equal values share themselves).

    Raises InvalidInputError for the first value below 2, else NotPairwiseCoprimeError for the
    first pair, in itertools.combinations order, with a common factor."""
    for v in values:
        if v < 2:
            raise InvalidInputError(f"generators must be >= 2, got {v}")
    for x, y in itertools.combinations(values, 2):
        g = math.gcd(x, y)
        if g != 1:
            raise NotPairwiseCoprimeError(x, y, g)
