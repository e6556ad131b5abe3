"""Frobenius numbers of three pairwise-coprime generators.

Certified fast path (`walk`: the least-multiple walk; `solver`: one walk per
triple, both CRT solutions read off its certificates, no CRT computed),
residue-table oracle (`oracle`), benchmark harness (`bench`) and CLI (`cli`).
`modarith` holds no code; its docstring says why the file is still there.
"""

from .errors import (
    Frobenius3Error,
    InvalidInputError,
    InvariantViolation,
    NotPairwiseCoprimeError,
    OracleBoundExceeded,
    StepBudgetExceeded,
)
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
    "OracleBoundExceeded", "StepBudgetExceeded",
    "oracle_frobenius", "oracle_least_multiple", "oracle_representable",
    "FrobeniusResult", "ValidatedTriple", "frobenius", "result_to_json",
    "validate_triple",
    "MultipleCertificate", "WalkInput", "WalkTrace", "find_least_multiple",
]
