"""Least-multiple walk.

Given pairwise-coprime (a, b, c), find the least multiplier m such that
m*b = u*a + w*c with u, w >= 1.  A Euclid-like walk (Rodseth's ceiling
continued fraction) from the p0 with p0*a = b + t0*c, 1 <= t0 < a,
develops rows (p_i, v_i, q_i = (p_i*a - v_i*b)/c) on the three-term
recurrence x_i = k_i*x_{i-1} - x_{i-2} until q_i < 0; then m = v_i,
u = p_i and w = -q_i.
The walk is Euclid on (d, p) with d = p_{i-1} - p_i: each pass divides d by p, which sets
one row's k, and then reaches the run of k = 2 rows after it, where p, v and q move by fixed
differences, with one more division.  While p has more than 2*W bits, whole passes are read
off the leading W bits of (d, p) and applied in Lehmer batches (_walk gives the argument).
WalkInput stores the pair as a < c, and the certificate and the trace follow that
order.  find_least_multiple counts the steps against the budget and checks the
certificate it returns with exact arithmetic.  The trace keeps the passes and the row
before the last; solver.least_multiples_all reads the least multiples of a and c
off the two rows.
"""

from collections import namedtuple

from .errors import InvariantViolation, StepBudgetExceeded, check_generators

# bits of d that a Lehmer batch reads; batches run while p has more than 2*W bits
W = 124


class WalkInput(namedtuple("WalkInput", "b a c")):
    """Target b and the pair (a, c) it must be combined from; all pairwise coprime.

    The pair is stored in ascending order, a < c, so the walk's modulus c is the
    larger element and the least multiplier lies below it."""

    __slots__ = ()

    def __new__(cls, b: int, a: int, c: int):
        a, c = sorted((a, c))
        check_generators(a, b, c)
        return super().__new__(cls, b, a, c)


WalkStep = namedtuple("WalkStep", "k p v q")


class WalkTrace(namedtuple("WalkTrace", "input t0 p0 passes penultimate")):
    """Initialization values, passes and next-to-last row of a finished walk.

    `passes` are _walk's (x, j): j rows, the first with k = x + 2 and the rest a k = 2 run.
    The counts are read off them; `iterations` is one per k != 2 row and one per k = 2 run.
    `penultimate` is the (p, v, q) of row n_steps - 1, the last with q >= 0 (row 0 is
    (p0, 1, t0)); the other rows are not stored, and `steps` expands the passes on request."""

    __slots__ = ()

    @property
    def n_steps(self) -> int:
        return sum(j for _, j in self.passes)

    @property
    def iterations(self) -> int:
        return sum((x != 0) + (j > (x != 0)) for x, j in self.passes)

    @property
    def k2_run_max(self) -> int:
        return max((j - (x != 0) for x, j in self.passes), default=0)

    @property
    def inv_p0(self) -> int:
        """p0^-1 mod c; v_i = p_i*inv_p0 mod c on every row."""
        return pow(self.p0, -1, self.input.c)

    @property
    def steps(self) -> tuple[WalkStep, ...]:
        # each pass (x, j) sets D -= x*P, visits the rows P - m*D for m = 1..j, and sets
        # P -= j*D: the walk's own updates, by multiplication only
        (p, v, q), (d, e, f) = _start(self.input, self.t0, self.p0)
        rows = []
        for x, j in self.passes:
            d, e, f = d - x * p, e - x * v, f - x * q
            rows += (WalkStep(x + 2 if m == 1 else 2, p - m * d, v - m * e, q - m * f)
                     for m in range(1, j + 1))
            p, v, q = p - j * d, v - j * e, q - j * f
        return tuple(rows)


class MultipleCertificate(namedtuple("MultipleCertificate", "m u w target pair_a pair_c")):
    """Witness that m*target = u*pair_a + w*pair_c with m, u, w >= 1; a plain record.
    find_least_multiple checks the one it returns but does not prove it least;
    solver.assemble_result proves a triple's three least, identities included."""

    __slots__ = ()

    @property
    def value(self) -> int:
        """The least multiple itself, m*target."""
        return self.m * self.target


def default_step_budget(c: int) -> int:
    # A heuristic, not a proven bound: valid inputs with long runs of k = 2
    # steps exceed it (ROADMAP item 1 gates its removal).
    return 100 * c.bit_length() + 100


def _start(inp: WalkInput, t0: int, p0: int):
    """Row 0, P = (p0, 1, t0), and D = row_{-1} - row_0, with row -1 scaled by
    s = max(1, p0 // c).

    The start is scaled (p0 > c) exactly when m = 1, that is, when b itself is u*a + w*c
    with u, w >= 1: r = p0 mod c is the least u >= 1 with u*a = b (mod c), so by Sylvester's
    criterion b is one iff b - r*a >= c, and b - r*a = c*(s*a - t0) with s = p0 // c, which
    is >= c iff s >= 1, as 1 <= t0 < a."""
    s = p0 // inp.c or 1
    return (p0, 1, t0), (s * inp.c - p0, -1, s * inp.a - t0)


def _walk(inp: WalkInput, t0: int, p0: int):
    """Return the walk's passes, [(x, j), ...], and its last two rows, the (p, v, q) of
    rows n - 1 and n, where q_{n-1} >= 0 > q_n.  A pass visits j rows: the first has
    k = x + 2 and the rest k = 2.

    p, v and q = (p*a - v*b)/c each follow x_i = k_i*x_{i-1} - x_{i-2} from
    (x_{-1}, x_0) = (s*c, p0), (0, 1), (s*a, t0), with k_i = 1 + p_{i-2} // p_{i-1}
    and row -1 scaled once by s = max(1, p0 // c): Rodseth's p_i = k_i*p_{i-1} mod p_{i-2}
    with p_{-1} = c.  When p0 > c, s*c < p0 (p0 is prime to c), so k_1 = 1 and
    p_1 = p0 - s*c = p0 mod c, and as q_1 = t0 - s*a < 0 (t0 < a) the walk stops there.
    The stop test q < 0 is p*a < v*b (w = 0 does not stop it).
    With a < c it stops at p = 1 at the latest (there v*b = a + w*c with v < c).

    The walk keeps row n, P = (p, v, q), and D = row_{n-1} - row_n = (d, e, f).  Then
    k = 1 + p_{n-1} // p = 2 + d // p, and row n+1 = k*P - (P + D) = P - (D - x*P) with
    x = d // p: a pass takes x, d = divmod(d, p) and D -= x*P (d = 0 only at p = 1, where
    the walk would repeat forever).  While k = 2 the difference stays D, so the rows
    P - m*D follow, and row m + 1 has k = 2 exactly when (m + 1)*d < p: a run lasts while
    m*d < p, the pass visits j = (p - 1) // d rows, and the next pass opens with d >= p,
    so x >= 1.  Only the first pass can have x < 1: x = -1 on a scaled start (k = 1), and
    x = 0 when it opens with a k = 2 run.  The stop is the first m with q - m*f < 0, which
    is m = q // f + 1 <= j when q < j*f (so f > 0).  As p - j*d = p mod d unless that is 0,
    each pass is two divisions of Euclid on (d, p): d runs through every other remainder
    of Euclid on (c, p0), or on (s*c, p0 - s*c) after a scaled start.

    Batches (Lehmer 1938; Knuth, TAOCP vol. 2, 4.5.2, Algorithm L).  After the first pass,
    whose d may be negative, and while p has more than 2*W bits, whole passes are read off
    the leading bits: with sh = bitlen(d) - W, d = 2^sh*(dh + ed) and p = 2^sh*(ph + ep),
    with ed and ep in [0, 1).  A batch runs passes on (dh, ph) and keeps their matrix,
    (d, p) -> (A*d + B*p, C*d + D*p), the identity at first.  The true pair over 2^sh is
    then (dh + A*ed + B*ep, ph + C*ed + D*ep), in [dh + B, dh + A) x [ph + C, ph + D), as
    A, D >= 1 and B, C <= 0.  A pass takes x, dn = divmod(dh, ph) and j, pn = divmod(ph, dn),
    so j >= 1, and (An, Bn) = (A - x*C, B - x*D), (Cn, Dn) = (C - j*An, D - j*Bn), which
    keep the signs.  It is kept only while
        pn > -Cn, so the true p' = p - j*d', with d' = d - x*p, is > pn + Cn > 0, and
        dn - pn >= Dn - Bn, so the true d' - p' > (dn - pn) + (Bn - Dn) >= 0.
    Then 0 < p' < d', and p = p' + j*d' > d', so 0 < d' < p gives x = d // p, and
    1 <= p' < d' gives j = p // d' = (p - 1) // d': (x, j) is the exact pass's.  (The
    bounds dn > -Bn and ph - dn >= An - C, which certify x alone, follow from these two.)
    The matrix moves (d, p), (e, v) and (f, q), and the batch is kept only if q >= 0 at its
    end.  q strictly falls along the rows, as f = (d*a - e*b)/c > 0 with d > 0 and e <= 0
    (v never falls after row 0), so then no row of the batch stopped the walk and no pass
    was cut.  A batch that certifies no pass (a partial quotient near 2^(W/2) or more, such
    as a long k = 2 run) leaves that pass to the exact step, and batches resume after it; a
    batch that ends with q < 0 leaves the rest of the walk to the exact pass."""
    (p, v, q), (d, e, f) = _start(inp, t0, p0)
    passes = []
    batches = True
    while q >= 0:
        if batches and passes and p.bit_length() > 2 * W:
            batch, (A, B, C, D) = _leading_passes(d, p)
            q_end = C * f + D * q
            if batch and q_end >= 0:
                d, p = A * d + B * p, C * d + D * p
                e, v = A * e + B * v, C * e + D * v
                f, q = A * f + B * q, q_end
                passes += batch
                continue
            batches = not batch  # after an empty batch, one exact pass and then another batch
        x, d = divmod(d, p)
        if d == 0:
            raise InvariantViolation(f"walk reached p = 1 without stopping for {inp}")
        e, f = e - x * v, f - x * q
        j = (p - 1) // d
        if q < j * f:
            j = q // f + 1
        p, v, q = p - j * d, v - j * e, q - j * f
        passes.append((x, j))
    return passes, ((p + d, v + e, q + f), (p, v, q))


def _leading_passes(d: int, p: int):
    """The passes of Euclid on (d, p), d >= p, that the leading W bits of d and the same
    shift of p certify, and their matrix (A, B, C, D); _walk gives the argument."""
    sh = d.bit_length() - W
    dh, ph = d >> sh, p >> sh
    A, B, C, D = 1, 0, 0, 1
    batch = []
    while ph:  # 0 only at the start, when x >= 2^(W-1)
        x, dn = divmod(dh, ph)
        if not dn:
            break
        j, pn = divmod(ph, dn)
        An, Bn = A - x * C, B - x * D
        Cn, Dn = C - j * An, D - j * Bn
        if pn <= -Cn or dn - pn < Dn - Bn:
            break
        batch.append((x, j))
        dh, ph, A, B, C, D = dn, pn, An, Bn, Cn, Dn
    return batch, (A, B, C, D)


def find_least_multiple(inp: WalkInput, inv_c=None) -> tuple[MultipleCertificate, WalkTrace]:
    """Run the walk to termination; return the certificate and the trace, both in
    inp's pair order (a < c).  inv_c is c^-1 mod a if the caller has it (solver does).

    The trace's n_steps (the passes' j summed) are checked against default_step_budget(c)
    once the walk ends, as its passes are at most about half of Euclid's divisions on
    (c, p0): StepBudgetExceeded is raised exactly when one step at a time would go over.
    The certificate is checked once, at the end (m, u, w >= 1, v*b = p*a - q*c), and that
    covers p0 = (b + c*t0) // a too: the defect δ_i = p_i*a - v_i*b - q_i*c follows the
    walk's recurrence from δ_{-1} = 0 and δ_0 = -rem, as v does from (0, 1), so
    δ_n = v_n·δ_0 with v_n >= 1, and any nonzero remainder rem fails the check.
    """
    b, a, c = inp
    # t0 = (-b * c^-1) mod a and p0 = (b + c*t0)/a, so p0*a = b (mod c)
    t0 = -b * (pow(c, -1, a) if inv_c is None else inv_c) % a
    p0 = (b + c * t0) // a
    # row 0 is (p0, 1, t0) with t0 >= 1 (a does not divide b): the walk takes a step
    passes, (penultimate, (p, v, q)) = _walk(inp, t0, p0)
    trace = WalkTrace(inp, t0, p0, tuple(passes), penultimate)
    max_steps = default_step_budget(c)
    if trace.n_steps > max_steps:
        raise StepBudgetExceeded(f"walk exceeded {max_steps} steps for (b={b}, a={a}, c={c})")
    if min(v, p, -q) < 1 or v * b != p * a - q * c:
        raise InvariantViolation(f"walk certificate fails for {inp}: need m, u, w >= 1 and "
                                 f"{v}*{b} = {p}*{a} + {-q}*{c}")
    return MultipleCertificate(v, p, -q, b, a, c), trace


def trace_rows(trace: WalkTrace) -> list[tuple[int, int | None, int, int, int]]:
    """Rows (i, k_i, p_i, v_i, (p_i*a - v_i*b)/c), starting at the i=0 row (k=None)."""
    rows = [(0, None, trace.p0, 1, trace.t0)]
    rows += ((i, s.k, s.p, s.v, s.q) for i, s in enumerate(trace.steps, start=1))
    return rows


def trace_table(trace: WalkTrace) -> str:
    """Aligned-text table of the trace, columns: step, k, v, p, (p*a - v*b)/c."""
    rows = trace_rows(trace)
    header = ("step", "k", "v", "p", "(p*a-v*b)/c")
    cells = [header] + [
        (str(i), "-" if k is None else str(k), str(v), str(p), str(q))
        for i, k, p, v, q in rows
    ]
    widths = [max(len(r[j]) for r in cells) for j in range(5)]
    lines = ["  ".join(r[j].rjust(widths[j]) for j in range(5)) for r in cells]
    return "\n".join(lines)


def certificate_to_json(m: str, u: str, w: str, target: str, pair_a: str, pair_c: str) -> dict:
    """JSON-friendly certificate from its fields' decimal strings, in MultipleCertificate
    order: certificate_to_json(*map(str, cert)).  The caller converts, so that a document
    that repeats a value converts it once."""
    return {"target": target, "m": m, "u": u, "w": w, "pair": [pair_a, pair_c]}


def trace_to_json(trace: WalkTrace) -> dict:
    """JSON-friendly trace; all integers as decimal strings.  Past 4,300 digits str()
    raises ValueError unless the caller has run sys.set_int_max_str_digits(0), as frob3 does."""
    return {
        "input": {"b": str(trace.input.b), "a": str(trace.input.a), "c": str(trace.input.c)},
        "t0": str(trace.t0),
        "p0": str(trace.p0),
        "inv_p0": str(trace.inv_p0),
        "terminated": True,
        "rows": [
            {"step": i, "k": None if k is None else str(k),
             "p": str(p), "v": str(v), "quotient": str(q)}
            for i, k, p, v, q in trace_rows(trace)
        ],
    }
