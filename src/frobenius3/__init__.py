"""Frobenius numbers of three pairwise-coprime generators.

Certified fast path (least-multiple walk, solutions read off the certificates),
brute-force oracle, benchmark harness, and CLI.
"""

from .errors import (
    Frobenius3Error,
    InvalidInputError,
    InvariantViolation,
    NotPairwiseCoprimeError,
    OracleBoundExceeded,
    StepBudgetExceeded,
    TripleGenerationError,
)
from .modarith import Congruence, crt_combine
from .oracle import oracle_frobenius, oracle_least_multiple, oracle_representable
from .solver import (
    FrobeniusResult,
    ValidatedTriple,
    frobenius,
    result_to_json,
    validate_triple,
)
from .walk import (
    MultipleCertificate,
    WalkInput,
    WalkTrace,
    find_least_multiple,
)

__all__ = [
    "Frobenius3Error", "InvalidInputError", "InvariantViolation", "NotPairwiseCoprimeError",
    "OracleBoundExceeded", "StepBudgetExceeded", "TripleGenerationError",
    "Congruence", "crt_combine",
    "oracle_frobenius", "oracle_least_multiple", "oracle_representable",
    "FrobeniusResult", "ValidatedTriple", "frobenius", "result_to_json",
    "validate_triple",
    "MultipleCertificate", "WalkInput", "WalkTrace", "find_least_multiple",
]
