"""Least-multiple walk.

Given pairwise-coprime (a, b, c), find the least multiplier m such that
m*b = u*a + w*c with u, w >= 1.  A Euclid-like walk (Rodseth's ceiling
continued fraction) from the p0 with p0*a = b + t0*c, 1 <= t0 < a,
develops rows (p_i, v_i, q_i = (p_i*a - v_i*b)/c) on the three-term
recurrence x_i = k_i*x_{i-1} - x_{i-2} until q_i < 0; then m = v_i,
u = p_i and w = -q_i.
The walk takes one iteration per partial quotient k_i.  Most steps have k = 2,
and in a run of them x_i - x_{i-1} is constant, so p, v and q move by fixed
differences.  One division finds the step where k leaves 2 or q first turns
negative, and the walk jumps there (_walk gives the argument).
WalkInput stores the pair as a < c, and the certificate and the trace follow that
order.  find_least_multiple counts the steps against the budget.  Every answer
carries a certificate checked by exact arithmetic.  The trace keeps the row
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
    (row 0 is (p0, 1, t0)).  `iterations` counts the walk's partial quotients, one
    per k = 2 run, and `k2_run_max` is the longest run's step count.  The other
    (k_i, p_i, v_i, q_i) rows are not stored: `steps` replays the walk from `input`,
    `t0` and `p0` and expands each run into its rows when a caller asks for them."""

    __slots__ = ()

    @property
    def inv_p0(self) -> int:
        """p0^-1 mod c; v_i = p_i*inv_p0 mod c on every row."""
        return pow(self.p0, -1, self.input.c)

    @property
    def steps(self) -> tuple[WalkStep, ...]:
        # an iteration's j rows end at the two it yields; in a run they step by a fixed difference
        return tuple(
            WalkStep(k, p + i * (p_prev - p), v - i * (v - v_prev), q + i * (q_prev - q))
            for k, j, p_prev, p, v_prev, v, q_prev, q
            in _walk(self.input, self.t0, self.p0)
            for i in range(j - 1, -1, -1))


class MultipleCertificate(namedtuple("MultipleCertificate", "m u w target pair_a pair_c")):
    """Witness that m*target = u*pair_a + w*pair_c with u, w >= 1.

    The identity is re-checked with exact arithmetic at construction.  The
    three certificates of a triple are proved least by solver.assemble_result's
    relation and minor check; a lone certificate (frob3 least-multiple) is not
    proved least.
    """

    __slots__ = ()

    def __new__(cls, m: int, u: int, w: int, target: int, pair_a: int, pair_c: int):
        if m < 1 or u < 1 or w < 1:
            raise InvariantViolation(f"certificate coefficients must be >= 1: m={m}, u={u}, w={w}")
        if m * target != u * pair_a + w * pair_c:
            raise InvariantViolation(
                f"certificate identity fails: {m}*{target} != {u}*{pair_a} + {w}*{pair_c}")
        return super().__new__(cls, m, u, w, target, pair_a, pair_c)

    @property
    def value(self) -> int:
        """The least multiple itself, m*target."""
        return self.m * self.target


def default_step_budget(c: int) -> int:
    # A heuristic, not a proven bound: valid inputs with long runs of k = 2
    # steps exceed it (ROADMAP item 1 gates its removal).
    return 100 * c.bit_length() + 100


def _walk(inp: WalkInput, t0: int, p0: int):
    """Yield (k, j, p_{n-1}, p_n, v_{n-1}, v_n, q_{n-1}, q_n) once per partial quotient k,
    for the j steps it takes, ending at row n, while q >= 0.

    p, v and q = (p*a - v*b)/c each follow x_i = k_i*x_{i-1} - x_{i-2} from
    (x_{-1}, x_0) = (s*c, p0), (0, 1), (s*a, t0), with k_i = 1 + p_{i-2} // p_{i-1}
    and row -1 scaled once by s = max(1, p0 // c).  This is Rodseth's
    p_i = k_i*p_{i-1} mod p_{i-2} with p_{-1} = c: while p_{i-1} < p_{i-2},
    k_i*p_{i-1} lies in (p_{i-2}, p_{i-2} + p_{i-1}], below 2*p_{i-2}, so one
    subtraction of p_{i-2} leaves the remainder.  That holds on every step after
    the first, and on the first when p0 < c.  When p0 > c, s*c < p0 (p0 is prime
    to c), so k_1 = 1 and row 1 is (p0 - s*c, 1, t0 - s*a) with p0 - s*c = p0 mod c.
    The stop test q < 0 is p*a < v*b; q == 0 (w = 0) does not stop the walk.
    With a < c it stops at p = 1 at the latest (there v*b = a + w*c with v < c);
    p = 1 without a stop would repeat forever.

    A run of k = 2 is crossed with one division.  With k = 2, x_i - x_{i-1} =
    x_{i-1} - x_{i-2}: while k stays 2, p falls by d = p_{n-1} - p_n, v rises by
    e = v_n - v_{n-1} and q falls by f = q_{n-1} - q_n on every step.  Step m of the
    run (from row n) has p_{n+m-2} < 2*p_{n+m-1}, k = 2, exactly when m*d < p_n, so
    the run lasts j = (p_n - 1) // d steps, and p > 1 on every row but perhaps its
    last.  When f > 0, q_n - m*f < 0 first at m = q_n // f + 1, where the walk stops.
    The walk counts nothing: find_least_multiple adds up the j and checks the budget."""
    s = p0 // inp.c or 1
    p_prev, p, v_prev, v, q_prev, q = s * inp.c, p0, 0, 1, s * inp.a, t0
    while q >= 0:
        if p == 1:
            raise InvariantViolation(f"walk reached p = 1 without stopping for {inp}")
        k = 1 + p_prev // p
        if k == 2:
            d, e, f = p_prev - p, v - v_prev, q_prev - q
            j = (p - 1) // d
            if f > 0:
                j = min(j, q // f + 1)
            p_prev, v_prev, q_prev = p - (j - 1) * d, v + (j - 1) * e, q - (j - 1) * f
            p, v, q = p_prev - d, v_prev + e, q_prev - f
        else:
            j = 1
            p_prev, p = p, k * p - p_prev
            v_prev, v = v, k * v - v_prev
            q_prev, q = q, k * q - q_prev
        yield k, j, p_prev, p, v_prev, v, q_prev, q


def find_least_multiple(inp: WalkInput) -> tuple[MultipleCertificate, WalkTrace]:
    """Run the walk to termination; return the certificate and the trace, both in
    inp's pair order (a < c).

    The steps are counted here, j for each yielded run, against
    default_step_budget(c): StepBudgetExceeded is raised exactly when one step at
    a time would have taken more steps than the budget.
    """
    b, a, c = inp.b, inp.a, inp.c
    # t0 = (-b * c^-1) mod a and p0 = (b + c*t0)/a, so p0*a = b (mod c)
    t0 = -b * pow(c, -1, a) % a
    p0, rem = divmod(b + c * t0, a)
    if rem != 0:
        raise InvariantViolation(f"(b + c*t0) not divisible by a for {inp}")
    # row 0 is (p0, 1, t0) with t0 >= 1 (a does not divide b): the walk takes a step
    max_steps = default_step_budget(c)
    n = iterations = k2_run_max = 0
    for k, j, p_prev, p, v_prev, v, q_prev, q in _walk(inp, t0, p0):
        n += j
        if n > max_steps:
            raise StepBudgetExceeded(f"walk exceeded {max_steps} steps for (b={b}, a={a}, c={c})")
        iterations += 1
        if k == 2 and j > k2_run_max:
            k2_run_max = j
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
