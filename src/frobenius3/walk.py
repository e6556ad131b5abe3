"""Least-multiple walk.

Given pairwise-coprime (a, b, c), find the least multiplier m such that
m*b = u*a + w*c with u, w >= 1.  A Euclid-like walk (Rodseth's ceiling
continued fraction) from the p0 with p0*a = b + t0*c, 1 <= t0 < a,
develops rows (p_i, v_i, q_i = (p_i*a - v_i*b)/c) on the three-term
recurrence x_i = k_i*x_{i-1} - x_{i-2} until q_i < 0; then m = v_i,
u = p_i and w = -q_i.
The walk is Euclid on (d, p) with d = p_{i-1} - p_i: each pass divides d by p, which sets
one row's k, and then reaches the run of k = 2 rows after it, where p, v and q move by fixed
differences, with one more division (_walk gives the argument).
WalkInput stores the pair as a < c, and the certificate and the trace follow that
order.  find_least_multiple counts the steps against the budget and checks the
certificate it returns with exact arithmetic.  The trace keeps the row
before the last; solver.least_multiples_all reads the least multiples of a and c
off the two rows.
"""

from collections import namedtuple

from .errors import InvariantViolation, StepBudgetExceeded, check_generators


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


class WalkTrace(namedtuple("WalkTrace", "input t0 p0 n_steps penultimate iterations k2_run_max")):
    """Initialization values, counts and next-to-last row of a finished walk.

    `penultimate` is the (p, v, q) of row n_steps - 1, the last row with q >= 0
    (row 0 is (p0, 1, t0)).  `iterations` counts one per k != 2 row and one per k = 2 run,
    not the walk's passes, and `k2_run_max` is the longest run's step count.  The other
    (k_i, p_i, v_i, q_i) rows are not stored: `steps` replays the walk from `input`, `t0`
    and `p0` and expands each pass into its rows when a caller asks for them."""

    __slots__ = ()

    @property
    def inv_p0(self) -> int:
        """p0^-1 mod c; v_i = p_i*inv_p0 mod c on every row."""
        return pow(self.p0, -1, self.input.c)

    @property
    def steps(self) -> tuple[WalkStep, ...]:
        # a pass's j rows, of its k and then k = 2, end at the two it yields by a fixed step
        return tuple(
            WalkStep(k if i == j - 1 else 2,
                     p + i * (p_prev - p), v + i * (v_prev - v), q + i * (q_prev - q))
            for k, j, p_prev, p, v_prev, v, q_prev, q
            in _walk(self.input, self.t0, self.p0)
            for i in range(j - 1, -1, -1))


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


def _walk(inp: WalkInput, t0: int, p0: int):
    """Yield (k, j, p_{n-1}, p_n, v_{n-1}, v_n, q_{n-1}, q_n) once per Euclid pass, for the
    j rows it visits, ending at row n, while q >= 0: the first row has k and the rest k = 2.

    p, v and q = (p*a - v*b)/c each follow x_i = k_i*x_{i-1} - x_{i-2} from
    (x_{-1}, x_0) = (s*c, p0), (0, 1), (s*a, t0), with k_i = 1 + p_{i-2} // p_{i-1}
    and row -1 scaled once by s = max(1, p0 // c): Rodseth's p_i = k_i*p_{i-1} mod p_{i-2}
    with p_{-1} = c.  When p0 > c, s*c < p0 (p0 is prime to c), so k_1 = 1 and
    p_1 = p0 - s*c = p0 mod c.  The stop test q < 0 is p*a < v*b (w = 0 does not stop it).
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
    of Euclid on (c, p0), or on (s*c, p0 - s*c) after a scaled start.  The walk counts
    nothing; find_least_multiple adds up the j."""
    s = p0 // inp.c or 1
    p, v, q = p0, 1, t0
    d, e, f = s * inp.c - p0, -1, s * inp.a - t0
    while q >= 0:
        x, d = divmod(d, p)
        if d == 0:
            raise InvariantViolation(f"walk reached p = 1 without stopping for {inp}")
        e, f = e - x * v, f - x * q
        j = (p - 1) // d
        if q < j * f:
            j = q // f + 1
        p, v, q = p - j * d, v - j * e, q - j * f
        yield x + 2, j, p + d, p, v + e, v, q + f, q


def find_least_multiple(inp: WalkInput) -> tuple[MultipleCertificate, WalkTrace]:
    """Run the walk to termination; return the certificate and the trace, both in
    inp's pair order (a < c).

    The steps are counted here, j for each yielded pass, against
    default_step_budget(c): StepBudgetExceeded is raised exactly when one step at
    a time would have taken more steps than the budget.
    The certificate is checked once, at the end (m, u, w >= 1, v*b = p*a - q*c), and that
    covers p0 = (b + c*t0) // a too: the defect δ_i = p_i*a - v_i*b - q_i*c follows the
    walk's recurrence from δ_{-1} = 0 and δ_0 = -rem, as v does from (0, 1), so
    δ_n = v_n·δ_0 with v_n >= 1, and any nonzero remainder rem fails the check.
    """
    b, a, c = inp.b, inp.a, inp.c
    # t0 = (-b * c^-1) mod a and p0 = (b + c*t0)/a, so p0*a = b (mod c)
    t0 = -b * pow(c, -1, a) % a
    p0 = (b + c * t0) // a
    # row 0 is (p0, 1, t0) with t0 >= 1 (a does not divide b): the walk takes a step
    max_steps = default_step_budget(c)
    n = iterations = k2_run_max = 0
    for k, j, p_prev, p, v_prev, v, q_prev, q in _walk(inp, t0, p0):
        n += j
        if n > max_steps:
            raise StepBudgetExceeded(f"walk exceeded {max_steps} steps for (b={b}, a={a}, c={c})")
        # the pass's first row is one iteration unless its k is 2; the rest are a k = 2 run
        run = j - (k != 2)
        iterations += (k != 2) + (run > 0)
        if run > k2_run_max:
            k2_run_max = run
    if min(v, p, -q) < 1 or v * b != p * a - q * c:
        raise InvariantViolation(f"walk certificate fails for {inp}: need m, u, w >= 1 and "
                                 f"{v}*{b} = {p}*{a} + {-q}*{c}")
    cert = MultipleCertificate(m=v, u=p, w=-q, target=b, pair_a=a, pair_c=c)
    return cert, WalkTrace(input=inp, t0=t0, p0=p0, n_steps=n,
                           penultimate=(p_prev, v_prev, q_prev),
                           iterations=iterations, k2_run_max=k2_run_max)


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


def certificate_to_json(cert: MultipleCertificate) -> dict:
    """JSON-friendly certificate; all integers as decimal strings."""
    return {"target": str(cert.target), "m": str(cert.m), "u": str(cert.u), "w": str(cert.w),
            "pair": [str(cert.pair_a), str(cert.pair_c)]}


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
