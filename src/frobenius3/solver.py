"""Frobenius numbers of three pairwise-coprime generators.

Pipeline: validate the triple, compute the least multiple of each
generator over the other two (walk module), place the three values into
the two cyclic congruence systems, solve both by CRT, and take the
maximum as f_pos (largest integer with no all-positive representation).
The classical Frobenius number is g = f_pos - (a1 + a2 + a3).

Every result carries the three certificates and the three decompositions
of f_pos; all identities are re-checked exactly before the result is
returned.
"""

import math
from dataclasses import dataclass

from .errors import InvalidInputError, InvariantViolation, NotPairwiseCoprimeError
from .modarith import Congruence, crt_combine
from .walk import MultipleCertificate, WalkInput, WalkTrace, find_least_multiple, pair_representable


@dataclass(frozen=True)
class ValidatedTriple:
    """Sorted pairwise-coprime generators; degenerate_member indexes a generator
    that is positively representable by the other two (only a3 can be)."""

    a1: int
    a2: int
    a3: int
    degenerate_member: int | None = None

    @property
    def generators(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    @property
    def total(self) -> int:
        return self.a1 + self.a2 + self.a3

    @property
    def degenerate(self) -> bool:
        return self.degenerate_member is not None


@dataclass(frozen=True)
class Decomposition:
    """f_pos = multiplier*generator + partner_coeff*partner, both coefficients >= 1.

    multiplier*generator is the least multiple of `generator` representable
    by the other two (the certificate value)."""

    generator: int
    multiplier: int
    partner: int
    partner_coeff: int


@dataclass(frozen=True)
class FrobeniusResult:
    a1: int
    a2: int
    a3: int
    g: int
    f_pos: int
    candidate_a: int | None = None
    candidate_b: int | None = None
    certificates: tuple[MultipleCertificate, MultipleCertificate, MultipleCertificate] | None = None
    decompositions: tuple[Decomposition, Decomposition, Decomposition] | None = None
    degenerate_member: int | None = None

    @property
    def degenerate(self) -> bool:
        return self.degenerate_member is not None


def validate_triple(x1: int, x2: int, x3: int) -> ValidatedTriple:
    """Sort, check pairwise coprimality, and flag a degenerate member."""
    vals = sorted((x1, x2, x3))
    for v in vals:
        if v < 2:
            raise InvalidInputError(f"generators must be >= 2, got {v}")
    if len(set(vals)) != 3:
        raise InvalidInputError(f"generators must be distinct, got {tuple(vals)}")
    a1, a2, a3 = vals
    for x, y in ((a1, a2), (a1, a3), (a2, a3)):
        g = math.gcd(x, y)
        if g != 1:
            raise NotPairwiseCoprimeError(x, y, g)
    # a1, a2 can never be positive combinations of the two larger ones
    degenerate = 2 if pair_representable(a3, a1, a2) else None
    return ValidatedTriple(a1, a2, a3, degenerate_member=degenerate)


def pair_frobenius(x: int, y: int) -> int:
    """Classical two-generator Frobenius number x*y - x - y (Sylvester)."""
    if x < 2 or y < 2:
        raise InvalidInputError("generators must be >= 2")
    g = math.gcd(x, y)
    if g != 1:
        raise NotPairwiseCoprimeError(x, y, g)
    return x * y - x - y


def least_multiples_all(t: ValidatedTriple) -> tuple[
        tuple[MultipleCertificate, MultipleCertificate, MultipleCertificate],
        tuple[WalkTrace, WalkTrace, WalkTrace]]:
    """Least multiple of each generator over the other two, with traces."""
    if t.degenerate:
        raise InvalidInputError("least multiples are only defined for non-degenerate triples")
    certs, traces = [], []
    for i in range(3):
        target = t.generators[i]
        a, c = (g for j, g in enumerate(t.generators) if j != i)
        cert, trace = find_least_multiple(WalkInput(b=target, a=a, c=c))
        certs.append(cert)
        traces.append(trace)
    return tuple(certs), tuple(traces)


# modulus paired with each certificate, per system, as (index into generators):
# the two cyclic residue systems whose CRT solutions are the f_pos candidates.
# System A: x = L1 mod a3, x = L2 mod a1, x = L3 mod a2.
# System B: x = L1 mod a2, x = L2 mod a3, x = L3 mod a1.
_SYSTEM_A_MODULI = (2, 0, 1)
_SYSTEM_B_MODULI = (1, 2, 0)


def assemble_result(t: ValidatedTriple,
                    certs: tuple[MultipleCertificate, MultipleCertificate, MultipleCertificate]
                    ) -> FrobeniusResult:
    """CRT both systems, pick the max, derive g and the decompositions, check everything."""
    (cand_a, prod_a), (cand_b, prod_b) = (
        crt_combine([Congruence(cert.value, t.generators[i]) for cert, i in zip(certs, moduli)])
        for moduli in (_SYSTEM_A_MODULI, _SYSTEM_B_MODULI))
    modulus = t.a1 * t.a2 * t.a3
    if prod_a != modulus or prod_b != modulus:
        raise InvariantViolation("CRT modulus product mismatch")
    f_pos = max(cand_a, cand_b)
    g = f_pos - t.total
    if g < 1:
        raise InvariantViolation(f"f_pos <= a1+a2+a3 for {t.generators}")

    winner = _SYSTEM_A_MODULI if cand_a >= cand_b else _SYSTEM_B_MODULI
    decomps = []
    for cert, mod_idx in zip(certs, winner):
        partner = t.generators[mod_idx]
        q, rem = divmod(f_pos - cert.value, partner)
        if rem != 0 or q < 1:
            raise InvariantViolation(
                f"decomposition of f_pos={f_pos} via {cert.target} fails: q={q}, rem={rem}")
        decomps.append(Decomposition(generator=cert.target, multiplier=cert.m,
                                     partner=partner, partner_coeff=q))
    return FrobeniusResult(
        a1=t.a1, a2=t.a2, a3=t.a3, g=g, f_pos=f_pos,
        candidate_a=cand_a, candidate_b=cand_b,
        certificates=certs, decompositions=tuple(decomps),
    )


def frobenius(x1: int, x2: int, x3: int) -> FrobeniusResult:
    """Top-level entry: validate, reduce degenerate triples to the pair formula,
    otherwise run the certified three-generator computation."""
    t = validate_triple(x1, x2, x3)
    if t.degenerate:
        # a3 is a positive combination of (a1, a2): the semigroup is unchanged
        g = pair_frobenius(t.a1, t.a2)
        return FrobeniusResult(a1=t.a1, a2=t.a2, a3=t.a3,
                               g=g, f_pos=g + t.total,
                               degenerate_member=t.degenerate_member)
    certs, _ = least_multiples_all(t)
    return assemble_result(t, certs)


def result_to_json(res: FrobeniusResult) -> dict:
    """JSON-friendly result dict; all big integers as decimal strings."""
    out = {
        "input": [str(res.a1), str(res.a2), str(res.a3)],
        "g": str(res.g),
        "f_pos": str(res.f_pos),
        "candidate_A": None if res.candidate_a is None else str(res.candidate_a),
        "candidate_B": None if res.candidate_b is None else str(res.candidate_b),
        "degenerate_member": res.degenerate_member,
        "certificates": None,
        "decompositions": None,
    }
    if res.certificates is not None:
        out["certificates"] = [
            {"target": str(c.target), "m": str(c.m), "u": str(c.u), "w": str(c.w),
             "pair": [str(c.pair_a), str(c.pair_c)]}
            for c in res.certificates
        ]
    if res.decompositions is not None:
        out["decompositions"] = [
            {"generator": str(d.generator), "multiplier": str(d.multiplier),
             "partner": str(d.partner), "partner_coeff": str(d.partner_coeff)}
            for d in res.decompositions
        ]
    return out
