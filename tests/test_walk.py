import itertools
import math
import random

import pytest

from frobenius3 import walk
from frobenius3.errors import InvariantViolation, StepBudgetExceeded
from frobenius3.oracle import oracle_least_multiple
from frobenius3.walk import (
    WalkInput,
    default_step_budget,
    find_least_multiple,
    trace_rows,
)
from support import coprime_draws, coprime_triples, euclid_remainders, pairwise_coprime

GOLDEN = WalkInput(b=8231, a=7523, c=9533)


def reference_walk(inp, keep_rows=True):
    """find_least_multiple one step at a time: the plain three-term recurrence and its budget.

    Returns ((m, u, w, t0, p0, n_steps, penultimate), rows) with rows the tuple of
    (k_i, p_i, v_i, q_i), or with the rows' count in place of the rows when keep_rows is false."""
    b, a, c = inp.b, inp.a, inp.c
    budget = default_step_budget(c)
    t0 = -b * pow(c, -1, a) % a
    p0 = (b + c * t0) // a
    s = p0 // c or 1
    p_prev, p, v_prev, v, q_prev, q = s * c, p0, 0, 1, s * a, t0
    rows, n = [], 0
    while q >= 0:
        if p == 1:
            raise InvariantViolation(inp)
        if n >= budget:
            raise StepBudgetExceeded(inp)
        k = 1 + p_prev // p
        p_prev, p = p, k * p - p_prev
        v_prev, v = v, k * v - v_prev
        q_prev, q = q, k * q - q_prev
        n += 1
        if keep_rows:
            rows.append((k, p, v, q))
    return (v, p, -q, t0, p0, n, (p_prev, v_prev, q_prev)), tuple(rows) if keep_rows else n


def outcome(walk, inp):
    try:
        return walk(inp)
    except (InvariantViolation, StepBudgetExceeded) as exc:
        return type(exc)


def collapsed(cert, tr):
    """A walk's result and rows in reference_walk's form, once its counts match its rows."""
    rows = tr.steps
    # iterations: one per k != 2 step and one per maximal run of k = 2 steps
    runs = [len(list(g)) for k, g in itertools.groupby(s.k for s in rows) if k == 2]
    assert tr.iterations == len(rows) - sum(runs) + len(runs)
    assert tr.k2_run_max == max(runs, default=0)
    return (cert.m, cert.u, cert.w, tr.t0, tr.p0, tr.n_steps, tr.penultimate), rows


def collapsed_walk(inp):
    return collapsed(*find_least_multiple(inp))


class TestWalkInput:
    def test_stores_pair_ascending(self):
        inp = WalkInput(b=11, a=3, c=2)
        assert (inp.b, inp.a, inp.c) == (11, 2, 3)
        assert inp == WalkInput(b=11, a=2, c=3)
        inp = WalkInput(b=5, a=7, c=3)
        assert (inp.b, inp.a, inp.c) == (5, 3, 7)


class TestFindLeastMultiple:
    def test_pair_sum_closed_form(self):
        # (A+1)*B = (B-1)*A + 1*(A+B), and no smaller multiple of B is a positive combination
        checked = 0
        for a in range(2, 1001):
            for b in {a - 1, a + 1, 2 * a + 1, 3 * a - 1}:
                if b < 2 or math.gcd(a, b) != 1:
                    continue
                cert, _ = find_least_multiple(WalkInput(b=b, a=a, c=a + b))
                assert (cert.m, cert.u, cert.w) == (a + 1, b - 1, 1)
                checked += 1
        assert checked == 3994

    def test_minimality_vs_oracle_small(self):
        for a1, a2, a3 in coprime_triples(30):
            for target, x, y in ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2)):
                cert, _ = find_least_multiple(WalkInput(b=target, a=x, c=y))
                assert cert.m == oracle_least_multiple(target, (x, y)).m


@pytest.fixture(scope="module")
def small_sweep():
    """Walk each input with c < 90, and b < 200 if c < 70 else b < 90, once, and return
    {check: (inputs checked, AssertionErrors)}: "reference" compares each walk with c, b < 90
    with reference_walk, and "euclid" runs passes_follow_euclid where c < 70."""
    checked = {"reference": [], "euclid": []}

    def check(name, assertion, *args):
        try:
            checked[name].append(assertion(*args))
        except AssertionError as exc:
            checked[name].append(exc)

    def matches_reference(inp, walked):
        got = collapsed(*walked) if walked is not StepBudgetExceeded else walked
        assert got == outcome(reference_walk, inp), inp

    for c in range(3, 90):
        for a in range(2, c):
            if math.gcd(a, c) != 1:
                continue
            for b in range(2, 200 if c < 70 else 90):
                if not pairwise_coprime((b, a, c)):
                    continue
                inp = WalkInput(b=b, a=a, c=c)
                walked = outcome(find_least_multiple, inp)
                if b < 90:
                    check("reference", matches_reference, inp, walked)
                if c < 70 and walked is not StepBudgetExceeded:
                    check("euclid", passes_follow_euclid, inp, *walked)
    return {name: (len(got), [e for e in got if e]) for name, got in checked.items()}


class TestCollapsedRuns:
    # each pass reaches its k = 2 run by division; the result, every row and the budget
    # must match the walk taken one step at a time
    def test_matches_reference_small(self, small_sweep):
        assert small_sweep["reference"] == (97428, [])

    def test_matches_reference_at_budget_edge(self):
        # A+1 over (A, 2A+1) takes A steps against a budget of 1,300 for 1024 <= A < 2048
        over = []
        for big in range(1290, 1311):
            inp = WalkInput(b=big + 1, a=big, c=2 * big + 1)
            got = outcome(collapsed_walk, inp)
            assert got == outcome(reference_walk, inp), inp
            over.append(got is StepBudgetExceeded)
        assert over == [False] * 11 + [True] * 10
        over = []
        for big in range(1400, 1601):
            values = (big - 1, big, big + 1, 2 * big + 1)
            for b, a, c in itertools.permutations(values, 3):
                if pairwise_coprime((b, a, c)):
                    inp = WalkInput(b=b, a=a, c=c)
                    got = outcome(collapsed_walk, inp)
                    assert got == outcome(reference_walk, inp), inp
                    over.append(got is StepBudgetExceeded)
        assert (len(over), sum(over)) == (3018, 804)


def random_inputs(digits, count, seed):
    """count seeded pairwise-coprime inputs of the given number of digits."""
    span = (10 ** (digits - 1), 10 ** digits)
    draws = coprime_draws(random.Random(seed), span, span, span)
    return itertools.starmap(WalkInput, itertools.islice(draws, count))


def input_from_quotients(quotients, rng):
    """An input whose walk runs Euclid on (c, p0) with exactly these quotients, the last >= 2.

    c/p0 is the continued fraction [q0; q1, ...], so pass i >= 1 has x = q_{2i} and
    j = q_{2i+1}.  a < c is random, t0, b = divmod(p0*a, c), so b/a is near 1 and the walk
    stops about halfway through."""
    c, p0 = 1, 0
    for q in reversed(quotients):
        c, p0 = q * c + p0, c
    while True:
        a = rng.randrange(c // 2, c)
        t0, b = divmod(p0 * a, c)
        if b >= 2 and math.gcd(a, c) == math.gcd(t0, a) == 1:
            return WalkInput(b=b, a=a, c=c)


@pytest.fixture
def batched(monkeypatch):
    """The number of passes each Lehmer batch of the test certifies."""
    counts = []
    leading_passes = walk._leading_passes

    def spy(d, p):
        batch, matrix = leading_passes(d, p)
        counts.append(len(batch))
        return batch, matrix

    monkeypatch.setattr(walk, "_leading_passes", spy)
    return counts


class TestLehmerBatches:
    # above 2*W bits the passes come from the leading bits of (d, p); the result, every row
    # and the budget must match the walk taken one step at a time
    @pytest.mark.parametrize("digits, count", [(300, 12), (1000, 3), (3000, 1)])
    def test_matches_reference_random(self, batched, digits, count):
        # one 3000-digit walk: its 12,787 rows take tens of MB on each side
        for inp in random_inputs(digits, count, seed=digits):
            assert outcome(collapsed_walk, inp) == outcome(reference_walk, inp), inp
        assert sum(batched) > 0

    def test_batch_is_exact_at_the_corners(self):
        # the leading bits cannot see ed, ep in [0, 1): every pass a batch keeps must be
        # Euclid's on (d, p) at each corner of that box, and its matrix must give the pair
        rng = random.Random(124)
        sh, batches = walk.W + 5, 0
        pairs = [(3 << (walk.W - 3), 1 << (walk.W - 3))]  # dh = 3*ph: its first dn is 0
        pairs += (sorted(rng.randrange(2 ** (walk.W - 9), 2 ** walk.W) for _ in range(2))[::-1]
                  for _ in range(1500))
        for dh, ph in pairs:
            for d, p in itertools.product((dh << sh, (dh + 1 << sh) - 1),
                                          (ph << sh, (ph + 1 << sh) - 1)):
                batch, (A, B, C, D) = walk._leading_passes(d, p)
                d_end, p_end = A * d + B * p, C * d + D * p
                for x, j in batch:
                    assert x == d // p, (d, p)
                    d -= x * p
                    assert j == (p - 1) // d, (d, p)
                    p -= j * d
                assert 1 <= p < d and (d, p) == (d_end, p_end)
                batches += len(batch) > 0
        assert batches > 5000

    def test_scaled_start(self, batched):
        # t0 = a - 1 and p0 = c + r > c.  A scaled start stops at row 1, since
        # q_1 = t0 - s*a < 0 (m = 1): its one pass is exact and no batch runs.
        rng = random.Random(301)
        walks = 0
        while walks < 4:
            a, c = sorted(rng.randrange(10 ** 299, 10 ** 300) for _ in range(2))
            r = rng.randrange(10 ** 99, 10 ** 299)
            if math.gcd(a, c) == math.gcd(r, c) == 1:
                inp = WalkInput(b=a * r + c, a=a, c=c)
                got = outcome(collapsed_walk, inp)
                assert got == outcome(reference_walk, inp), inp
                assert got == ((1, r, 1, a - 1, c + r, 1, (c + r, 1, a - 1)),
                               ((1, r, 1, -1),))
                walks += 1
        assert batched == []

    @pytest.mark.parametrize("at, big", [(2, 2 ** (walk.W + 6) + 1), (10, 2 ** (walk.W + 6) + 1),
                                         (2, 2 ** 200 + 1)], ids=["2", "10", "2-2^200"])
    def test_quotient_above_two_to_the_w(self, batched, at, big):
        # x = big on pass at // 2, far above 2*W bits.  At 2 the first batch finds p's
        # leading bits 0; at 10 a batch stops short of the pass before it, whose p is below
        # the batch's precision.  Either way a batch certifies no pass, the exact pass takes
        # that pass, and the batches resume after it: the walk's last batch certifies passes.
        rng = random.Random(at)
        quotients = [1] + [rng.randint(1, 4) for _ in range(at - 1)] + [big]
        quotients += [rng.randint(1, 4) for _ in range(700)] + [2]
        inp = input_from_quotients(quotients, rng)
        got = outcome(collapsed_walk, inp)
        assert got == outcome(reference_walk, inp), inp
        assert big + 2 in [k for k, *_ in got[1]]
        assert (at == 2) == (batched[0] == 0) and 0 in batched and batched[-1] > 0

    @pytest.mark.parametrize("bits", [2 * walk.W - 2, 2 * walk.W, 2 * walk.W + 1,
                                      2 * walk.W + 3, 2 * walk.W + 16])
    def test_operands_near_two_w_bits(self, batched, bits):
        span = (2 ** (bits - 1), 2 ** bits)
        draws = coprime_draws(random.Random(bits), span, span, span)
        for inp in itertools.starmap(WalkInput, itertools.islice(draws, 40)):
            assert outcome(collapsed_walk, inp) == outcome(reference_walk, inp), inp
        # after the first pass p < c/2, and a batch runs only while p has more than 2*W bits
        assert (len(batched) > 0) == (bits > 2 * walk.W + 1)

    def test_over_budget_after_batches(self, batched):
        # j = 2^(W+6) + 1 on pass 6: the walk goes over its budget of 100*bitlen(c) + 100
        # steps there, after its batches, and raises as the walk one step at a time does
        rng = random.Random(6)
        quotients = [1] + [rng.randint(1, 4) for _ in range(200)]
        quotients[13] = 2 ** (walk.W + 6) + 1
        quotients += [rng.randint(1, 4) for _ in range(1000)] + [2]
        inp = input_from_quotients(quotients, rng)
        assert inp.c.bit_length() > 1000
        budget = default_step_budget(inp.c)
        with pytest.raises(StepBudgetExceeded,
                           match=rf"walk exceeded {budget} steps for \(b={inp.b}, a={inp.a}, "):
            find_least_multiple(inp)
        assert outcome(lambda i: reference_walk(i, keep_rows=False), inp) is StepBudgetExceeded
        assert sum(batched) > 0


def passes_follow_euclid(inp, cert, tr):
    """Each pass of the walk (cert, tr) of inp leaves d = p_{n-1} - p_n at the next
    even-indexed remainder of Euclid."""
    p0, c = tr.p0, inp.c
    s = p0 // c or 1
    # a scaled start is exactly a target that is itself a positive combination of the pair
    assert (p0 > c) == (cert.m == 1), inp
    # replay the stored quotients on (d, p) from row -1 scaled by s, taking d after each x;
    # the last row's p is the certificate's u
    d, p, ds = s * c - p0, p0, []
    for x, j in tr.passes:
        d -= x * p
        ds.append(d)
        p -= j * d
    if p0 > c:
        # one pass: row 1 has k = 1 and q_1 = t0 - s*a < 0
        assert tr.passes == ((-1, 1),), inp
    else:
        assert ds == euclid_remainders(c, p0)[2::2][:len(ds)], inp
    assert (tr.penultimate[0], cert.u) == (p + d, p), inp


class TestEuclidCore:
    def test_exhaustive_small(self, small_sweep):
        # every walk within its budget where c < 70 (b < 200)
        assert small_sweep["euclid"] == (128756, [])

    @pytest.mark.parametrize("digits, count", [(10, 300), (100, 60), (1000, 10)])
    def test_random(self, digits, count):
        # count walks within the budget; an over-budget walk takes the next draw
        span = (10 ** (digits - 1), 10 ** digits)
        walks = 0
        for values in coprime_draws(random.Random(digits), span, span, span):
            inp = WalkInput(*values)
            walked = outcome(find_least_multiple, inp)
            if walked is not StepBudgetExceeded:
                passes_follow_euclid(inp, *walked)
                walks += 1
                if walks == count:
                    break


class TestTraceInvariants:
    def test_congruence_quotient_integral(self):
        # of the 619 walks of b = a3 over (a1, a2), 198 have p0 > c and 16 have p0 // c >= 2
        scaled_starts = 0
        for a1, a2, a3 in coprime_triples(25):
            for inp in (WalkInput(b=a2, a=a1, c=a3), WalkInput(b=a2, a=a3, c=a1),
                        WalkInput(b=a3, a=a1, c=a2)):
                cert, tr = find_least_multiple(inp)
                a, b, c = tr.input.a, tr.input.b, tr.input.c
                scaled_starts += tr.p0 // c >= 2
                rows = trace_rows(tr)
                for _, _, p, v, q in rows:
                    assert p * a - v * b == q * c
                    assert v == p * tr.inv_p0 % c
                # Rodseth: p_i = k_i*p_{i-1} mod p_{i-2}, with p_{-1} = c
                ps = [c] + [p for _, _, p, _, _ in rows]
                for (_, k, *_), p_2, p_1, p in zip(rows[1:], ps, ps[1:], ps[2:]):
                    assert p == k * p_1 % p_2
                assert all(q >= 0 for *_, q in rows[:-1])
                _, _, p, v, q = rows[-1]
                assert q < 0
                assert tr.penultimate == rows[-2][2:]
                assert (cert.pair_a, cert.pair_c) == (a, c)
                assert (cert.m, cert.u, cert.w) == (v, p, -q)
                assert rows[1:] == [(i, s.k, s.p, s.v, s.q)
                                    for i, s in enumerate(tr.steps, start=1)]
        assert scaled_starts > 0

    def test_steps_expand_the_stored_passes(self, monkeypatch):
        # the trace keeps the passes it walked: its rows run no second walk
        traces = [find_least_multiple(inp)[1] for inp in (GOLDEN, *random_inputs(300, 2, 7))]
        calls = []
        monkeypatch.setattr(walk, "_walk", lambda *args: calls.append(args))
        for tr in traces:
            assert tr.steps == reference_walk(tr.input)[1]
        assert calls == []


class TestCertificate:
    def test_walk_checks_its_certificate(self, monkeypatch):
        # the walk's last row (p, v, q) is the certificate (u, m, -w) of 8231 over (7523, 9533)
        for p, v, q in ((13, 64, -44),  # identity broken
                        (8231, 7523, 0)):  # identity holds, w = 0
            # one pass, x = 3 (k = 5) and j = 1, after row 5, (152, 15, 107)
            walked = ([(3, 1)], ((152, 15, 107), (p, v, q)))
            monkeypatch.setattr("frobenius3.walk._walk", lambda inp, t0, p0, walked=walked: walked)
            with pytest.raises(InvariantViolation, match="walk certificate fails"):
                find_least_multiple(GOLDEN)
