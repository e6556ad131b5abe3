"""Frobenius numbers of three pairwise-coprime generators.

Pipeline: validate the triple, compute the least multiple L_i of each
generator over the other two (walk module), and read the least solutions
of two cyclic congruence systems in L1, L2, L3 off the certificates; the
larger is f_pos (largest integer with no all-positive representation).
The classical Frobenius number is g = f_pos - (a1 + a2 + a3).

Every result carries the three certificates and the three decompositions
of f_pos, all re-checked with exact arithmetic before it is returned.
"""

import math
from dataclasses import dataclass

from .errors import InvalidInputError, InvariantViolation, NotPairwiseCoprimeError
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
    a1, a2, a3 = t.generators
    return tuple(zip(*(find_least_multiple(WalkInput(b=b, a=a, c=c))
                       for b, a, c in ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2)))))


# index of the modulus paired with L1, L2, L3 in systems A and B (see assemble_result)
_SYSTEM_A_MODULI = (2, 0, 1)
_SYSTEM_B_MODULI = (1, 2, 0)


def assemble_result(t: ValidatedTriple,
                    certs: tuple[MultipleCertificate, MultipleCertificate, MultipleCertificate]
                    ) -> FrobeniusResult:
    """Read both cyclic systems' least solutions off the certificates; f_pos is the larger.

    System A is x = L1 mod a3, L2 mod a1, L3 mod a2; B is x = L1 mod a2, L2 mod a3, L3 mod a1.
    Write the certificate of a_i over a_j < a_k as m_i*a_i = u_i*a_j + w_i*a_k.  If e is the
    coefficient of L_i's modulus a_p in the third certificate, L_i + e*a_p = L_i (mod a_p):
        A: x = L1 + w2*a3 = L2 + u3*a1 = L3 + u1*a2
        B: x = L1 + w3*a2 = L2 + w1*a3 = L3 + u2*a1
    Each system's forms agree by Herzog's relations between the least multiples of a
    pairwise-coprime, non-degenerate triple (Herzog 1970; Johnson 1960): m1 = u2 + u3 and
    m2 = u1 + w3 equate A's (L1 + w2*a3 = (u2 + u3)*a1 + w2*a3 = L2 + u3*a1, and so on), m2
    and m3 = w1 + w2 equate B's.  As m1, m2 < a3 (a least multiplier is below the larger of
    its pair), w1 < a1 and w2 < a2, so x_A = L1 + w2*a3 and x_B = L2 + w1*a3 are below
    a3*(a1 + a2) <= a1*a2*a3: x is the least CRT solution, and its decompositions take the
    e (>= 1) as partner_coeff.  Both facts are checked, not assumed: a certificate with a valid
    identity but a non-least m fails them (InvariantViolation); passing proves no minimality."""
    solutions = []
    for moduli in (_SYSTEM_A_MODULI, _SYSTEM_B_MODULI):
        decomps = []
        for i, p in enumerate(moduli):
            partner, third = t.generators[p], certs[3 - i - p]
            e = third.u if third.pair_a == partner else third.w
            decomps.append(Decomposition(certs[i].target, certs[i].m, partner, e))
        forms = {cert.value + d.partner_coeff * d.partner for cert, d in zip(certs, decomps)}
        if len(forms) != 1 or not 0 <= min(forms) < t.a1 * t.a2 * t.a3:
            raise InvariantViolation(f"system forms disagree or exceed a1*a2*a3 for {t.generators}")
        solutions.append((forms.pop(), tuple(decomps)))
    (cand_a, decomps_a), (cand_b, decomps_b) = solutions
    f_pos = max(cand_a, cand_b)
    g = f_pos - t.total
    if g < 1:
        raise InvariantViolation(f"f_pos <= a1+a2+a3 for {t.generators}")
    return FrobeniusResult(
        a1=t.a1, a2=t.a2, a3=t.a3, g=g, f_pos=f_pos,
        candidate_a=cand_a, candidate_b=cand_b,
        certificates=certs, decompositions=decomps_a if cand_a >= cand_b else decomps_b,
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
