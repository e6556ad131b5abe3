"""Frobenius numbers of three pairwise-coprime generators.

Pipeline: validate the triple, read the least multiple L_i of each generator
over the other two off the last two rows of one walk (walk module), prove
them least, and read the least solutions of two cyclic congruence systems in
L1, L2, L3 off the certificates; the larger is f_pos (largest integer with no
all-positive representation).  The classical Frobenius number is
g = f_pos - (a1 + a2 + a3).

Every result carries the three certificates and the three decompositions of
f_pos.  Before a result is returned, one exact check in assemble_result proves
the certificates' identities and that the multiples are least: their roles and
signs, Herzog's relations and the 2x2 minors.
"""

from collections import namedtuple

from .errors import InvalidInputError, InvariantViolation, check_generators
from .walk import (MultipleCertificate, WalkInput, WalkTrace, certificate_to_json,
                   find_least_multiple)


class ValidatedTriple(namedtuple("ValidatedTriple", "a1 a2 a3 degenerate inv_a3")):
    """Sorted pairwise-coprime generators; whether a3 is degenerate, a positive combination
    of a1 and a2 (only a3 can be); and inv_a3 = a3^-1 mod a1, which starts the walk."""

    __slots__ = ()

    @property
    def generators(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)


class Decomposition(namedtuple("Decomposition", "generator multiplier partner partner_coeff")):
    """f_pos = multiplier*generator + partner_coeff*partner, both coefficients >= 1.

    multiplier*generator is the least multiple of `generator` representable
    by the other two (the certificate value)."""

    __slots__ = ()


# certificates and decompositions hold three each, in generator order; a degenerate triple
# sets only a1, a2, a3, g, f_pos and degenerate_member
class FrobeniusResult(namedtuple(
        "FrobeniusResult", "a1 a2 a3 g f_pos candidate_a candidate_b certificates decompositions "
        "degenerate_member", defaults=(None,) * 5)):
    __slots__ = ()

    @property
    def degenerate(self) -> bool:
        return self.degenerate_member is not None


def validate_triple(x1: int, x2: int, x3: int) -> ValidatedTriple:
    """Sort, check pairwise coprimality, flag a degenerate member, and invert a3 mod a1.

    One inverse, z = (a2*a3)^-1 mod a1, gives a3^-1 = a2*z and a2^-1 = a3*z (Montgomery's
    trick).  Only a3 can be u*a1 + w*a2 with u, w >= 1: the least w >= 1 with w*a2 = a3
    (mod a1) is a3^2*z mod a1, and a3 is one iff a3 - w*a2 >= a1 (Sylvester's criterion;
    oracle_least_multiple keeps its own copy, as a reference shares no code with the path)."""
    a1, a2, a3 = sorted((x1, x2, x3))
    check_generators(a1, a2, a3)
    z = pow(a2 * a3, -1, a1)
    degenerate = a3 >= a1 + a2 and a3 - a3 * a3 * z % a1 * a2 >= a1
    return ValidatedTriple(a1, a2, a3, degenerate, a2 * z % a1)


def least_multiples_all(t: ValidatedTriple) -> tuple[
        tuple[MultipleCertificate, MultipleCertificate, MultipleCertificate], WalkTrace]:
    """Least multiple of each generator over the other two, from one walk, with its trace.

    The walk of a2 over (a1, a3) has rows p_i*a1 - v_i*a2 = q_i*a3 and stops at row n
    with q_n < 0 <= q_{n-1}.  Its last two rows hold all three certificates:
        a1 over (a2, a3), row n-1:        p_{n-1}*a1 = v_{n-1}*a2 + q_{n-1}*a3
        a2 over (a1, a3), row n:          v_n*a2 = p_n*a1 + (-q_n)*a3
        a3 over (a1, a2), their difference:
            (q_{n-1} - q_n)*a3 = (p_{n-1} - p_n)*a1 + (v_n - v_{n-1})*a2
    (Rodseth 1978 reads g off the same two rows.)  assemble_result proves them least."""
    if t.degenerate:
        raise InvalidInputError("least multiples are only defined for non-degenerate triples")
    a1, a2, a3, _, inv_a3 = t
    c2, trace = find_least_multiple(WalkInput._make((a2, a1, a3)), inv_a3)  # t is validated
    p, v, q = trace.penultimate
    m2, u2, w2, _, _, _ = c2
    certs = (MultipleCertificate(p, v, q, a1, a2, a3), c2,
             MultipleCertificate(q + w2, p - u2, m2 - v, a3, a1, a2))
    return certs, trace


def assemble_result(t: ValidatedTriple,
                    certs: tuple[MultipleCertificate, MultipleCertificate, MultipleCertificate]
                    ) -> FrobeniusResult:
    """Prove the certificates least, then read both cyclic systems' least solutions off them.

    certs are the certificates of a1, a2, a3 in that order, each over its pair in ascending
    order: m1*a1 = u1*a2 + w1*a3, m2*a2 = u2*a1 + w2*a3, m3*a3 = u3*a1 + w3*a2, all m, u,
    w >= 1.  As relation vectors (r.a = 0 for a = (a1, a2, a3)) they are r1 = (m1, -u1, -w1),
    r2 = (-u2, m2, -w2) and r3 = (-u3, -w3, m3).  The check, InvariantViolation otherwise:
      - each certificate's (target, pair_a, pair_c) is its slot's: (a1, a2, a3),
        (a2, a1, a3), (a3, a1, a2), and all nine m, u, w are >= 1;
      - r1 + r2 + r3 = 0, Herzog's relations m1 = u2 + u3, m2 = u1 + w3, m3 = w1 + w2
        (Herzog 1970; Johnson 1960);
      - r1 x r2 = (u1*w2 + w1*m2, w1*u2 + m1*w2, m1*m2 - u1*u2) = a.
    The identities need no check of their own: r1.(r1 x r2) = r2.(r1 x r2) = 0, so
    r1 x r2 = a gives r1.a = r2.a = 0, and r3 = -r1 - r2 gives r3.a = 0.
    Passing proves each m least:
      1. The relations of the primitive vector a form a rank-2 lattice whose bases have
         cross product +-a, and a sublattice of index d has +-d*a; so r1 x r2 = a makes
         (r1, r2) a basis.
      2. Any certificate of a1 is a relation (m', -u', -w') with m', u', w' >= 1; write it
         alpha*r1 + beta*r2.  If beta <= 0, then w' = alpha*w1 + beta*w2 >= 1 forces
         alpha >= 1, and m' = alpha*m1 - beta*u2 >= m1.  If alpha <= 0 < beta, its second
         coordinate -alpha*u1 + beta*m2 is positive, not -u'.  If alpha, beta >= 1, it is
         (alpha - beta)*r1 - beta*r3: for alpha > beta, m' = (alpha - beta)*m1 + beta*u3 > m1;
         for alpha <= beta, the second coordinate (beta - alpha)*u1 + beta*w3 is positive.
      3. r2 x r3 = r3 x r1 = r1 x r2, so (r2, r3) and (r3, r1) are bases with the same sign
         pattern, and step 2 read cyclically proves m2 and m3 least.
    By Herzog's relations each system's residues agree on one form (L_i = m_i*a_i):
        A: x = L1 mod a3, L2 mod a1, L3 mod a2;  x_A = L1 + w2*a3 = L2 + u3*a1 = L3 + u1*a2
        B: x = L1 mod a2, L2 mod a3, L3 mod a1;  x_B = L1 + w3*a2 = L2 + w1*a3 = L3 + u2*a1
    m1, m2 < a3, because v = a_j*a_i^-1 mod a3 gives v*a_i = a_j + w*a3 with w >= 1 (a_j < a3);
    so w1 < a1, w2 < a2, and x_A = L1 + w2*a3 and x_B = L2 + w1*a3 are below
    a3*(a1 + a2) <= a1*a2*a3: each is its system's least solution.  f_pos is the larger, and
    the winning system's three forms are its decompositions."""
    # each certificate unpacks as (m, u, w, target, x, y)
    (m1, u1, w1, b1, x1, y1), (m2, u2, w2, b2, x2, y2), (m3, u3, w3, b3, x3, y3) = certs
    a1, a2, a3, _, _ = t
    if ((b1, x1, y1, b2, x2, y2, b3, x3, y3) != (a1, a2, a3, a2, a1, a3, a3, a1, a2)
            or min(m1, u1, w1, m2, u2, w2, m3, u3, w3) < 1
            or (m1, m2, m3) != (u2 + u3, u1 + w3, w1 + w2)
            or (u1 * w2 + w1 * m2, w1 * u2 + m1 * w2, m1 * m2 - u1 * u2) != (a1, a2, a3)):
        raise InvariantViolation(f"certificates are not the least multiples of {t.generators}")
    cand_a, cand_b = m1 * a1 + w2 * a3, m2 * a2 + w1 * a3
    f_pos = max(cand_a, cand_b)
    g = f_pos - a1 - a2 - a3
    if g < 1:
        raise InvariantViolation(f"f_pos <= a1+a2+a3 for {t.generators}")
    decomps = _decompositions(cand_a >= cand_b, (a1, a2, a3),
                              ((m1, u1, w1), (m2, u2, w2), (m3, u3, w3)))
    return FrobeniusResult(a1, a2, a3, g, f_pos, cand_a, cand_b, certs,
                           tuple(map(Decomposition._make, decomps)))


def _decompositions(system_a, generators, coeffs):
    """The winning system's three forms of f_pos, each (generator, multiplier, partner,
    partner_coeff), from the generators and the certificates' (m, u, w) in generator
    order: as numbers for assemble_result, as decimal strings for result_to_json."""
    (a1, a2, a3), ((m1, u1, w1), (m2, u2, w2), (m3, u3, w3)) = generators, coeffs
    if system_a:
        return ((a1, m1, a3, w2), (a2, m2, a1, u3), (a3, m3, a2, u1))
    return ((a1, m1, a2, w3), (a2, m2, a3, w1), (a3, m3, a1, u2))


def frobenius(x1: int, x2: int, x3: int) -> FrobeniusResult:
    """Top-level entry: validate, reduce degenerate triples to the pair formula,
    otherwise run the certified three-generator computation."""
    t = validate_triple(x1, x2, x3)
    if t.degenerate:
        # a3 is a positive combination of (a1, a2): the semigroup is unchanged (Sylvester)
        a1, a2, a3, _, _ = t
        g = a1 * a2 - a1 - a2
        return FrobeniusResult(a1, a2, a3, g, g + a1 + a2 + a3, None, None, None, None, 2)
    certs, _ = least_multiples_all(t)
    return assemble_result(t, certs)


def result_to_json(res: FrobeniusResult) -> dict:
    """JSON-friendly result dict; all big integers as decimal strings.  f_pos has about 1.5
    times the generators' digits: past 4,300 digits str() raises ValueError unless the caller
    has run sys.set_int_max_str_digits(0), as frob3 does (the library leaves it alone).

    Each of the document's 15 distinct values is converted once, and its string is shared
    where the document repeats it: the generators in every certificate and decomposition
    (in the roles that assemble_result proved), f_pos as the larger candidate, and the
    certificates' coefficients in the decompositions."""
    gens = [str(res.a1), str(res.a2), str(res.a3)]
    out = {"input": gens, "g": str(res.g), "f_pos": None, "candidate_A": None,
           "candidate_B": None, "degenerate_member": res.degenerate_member,
           "certificates": None, "decompositions": None}
    if res.degenerate:
        out["f_pos"] = str(res.f_pos)
        return out
    system_a = res.f_pos == res.candidate_a
    cand_a, cand_b = str(res.candidate_a), str(res.candidate_b)
    out.update(f_pos=cand_a if system_a else cand_b, candidate_A=cand_a, candidate_B=cand_b)
    coeffs = [(str(c.m), str(c.u), str(c.w)) for c in res.certificates]
    a1, a2, a3 = gens
    out["certificates"] = [certificate_to_json(*muw, *role) for muw, role
                           in zip(coeffs, ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2)))]
    out["decompositions"] = [
        {"generator": g, "multiplier": m, "partner": p, "partner_coeff": k}
        for g, m, p, k in _decompositions(system_a, gens, coeffs)]
    return out
