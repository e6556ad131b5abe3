import itertools
import json
import math
import random

import pytest

from frobenius3.errors import (
    InvalidInputError,
    InvariantViolation,
    NotPairwiseCoprimeError,
    StepBudgetExceeded,
)
from frobenius3.oracle import oracle_least_multiple
from frobenius3.walk import (
    MultipleCertificate,
    WalkInput,
    default_step_budget,
    find_least_multiple,
    trace_rows,
    trace_table,
    trace_to_json,
)

GOLDEN = WalkInput(b=8231, a=7523, c=9533)


def coprime_triples(limit):
    for a1 in range(2, limit - 1):
        for a2 in range(a1 + 1, limit):
            if math.gcd(a1, a2) != 1:
                continue
            for a3 in range(a2 + 1, limit + 1):
                if math.gcd(a1, a3) == 1 and math.gcd(a2, a3) == 1:
                    yield a1, a2, a3


def reference_walk(inp):
    """find_least_multiple one step at a time: the plain three-term recurrence and its budget.

    Returns ((m, u, w, t0, p0, n_steps, penultimate), rows) with rows (k_i, p_i, v_i, q_i)."""
    b, a, c = inp.b, inp.a, inp.c
    t0 = -b * pow(c, -1, a) % a
    p0 = (b + c * t0) // a
    s = p0 // c or 1
    p_prev, p, v_prev, v, q_prev, q = s * c, p0, 0, 1, s * a, t0
    rows = []
    while q >= 0:
        if p == 1:
            raise InvariantViolation(inp)
        if len(rows) >= default_step_budget(c):
            raise StepBudgetExceeded(inp)
        k = 1 + p_prev // p
        p_prev, p = p, k * p - p_prev
        v_prev, v = v, k * v - v_prev
        q_prev, q = q, k * q - q_prev
        rows.append((k, p, v, q))
    return (v, p, -q, t0, p0, len(rows), (p_prev, v_prev, q_prev)), rows


def outcome(walk, inp):
    try:
        return walk(inp)
    except (InvariantViolation, StepBudgetExceeded) as exc:
        return type(exc)


def collapsed_walk(inp):
    cert, tr = find_least_multiple(inp)
    rows = [(s.k, s.p, s.v, s.q) for s in tr.steps]
    # iterations: one per k != 2 step and one per maximal run of k = 2 steps
    runs = [len(list(g)) for k, g in itertools.groupby(r[0] for r in rows) if k == 2]
    assert tr.iterations == len(rows) - sum(runs) + len(runs)
    assert tr.k2_run_max == max(runs, default=0)
    return (cert.m, cert.u, cert.w, tr.t0, tr.p0, tr.n_steps, tr.penultimate), rows


class TestWalkInput:
    def test_rejects_shared_factor(self):
        with pytest.raises(NotPairwiseCoprimeError):
            WalkInput(b=6, a=4, c=9)

    def test_rejects_small_values(self):
        with pytest.raises(InvalidInputError):
            WalkInput(b=1, a=3, c=5)

    def test_stores_pair_ascending(self):
        inp = WalkInput(b=11, a=3, c=2)
        assert (inp.b, inp.a, inp.c) == (11, 2, 3)
        assert inp == WalkInput(b=11, a=2, c=3)
        inp = WalkInput(b=5, a=7, c=3)
        assert (inp.b, inp.a, inp.c) == (5, 3, 7)


class TestInitWalk:
    def test_golden(self):
        _, tr = find_least_multiple(GOLDEN)
        assert tr.input == GOLDEN
        assert (tr.t0, tr.p0) == (5524, 7001)
        assert 7001 * 7523 == 8231 + 5524 * 9533
        assert tr.inv_p0 == 7338

    def test_small(self):
        _, tr = find_least_multiple(WalkInput(b=5, a=3, c=7))
        assert (tr.t0, tr.p0) == (1, 4)
        _, tr = find_least_multiple(WalkInput(b=7, a=3, c=5))
        assert (tr.t0, tr.p0) == (1, 4)

    def test_identity_holds_generally(self):
        for a1, a2, a3 in coprime_triples(25):
            _, tr = find_least_multiple(WalkInput(b=a2, a=a1, c=a3))
            a, b, c = tr.input.a, tr.input.b, tr.input.c
            assert tr.p0 * a == b + tr.t0 * c
            assert (tr.p0 * a) % c == b % c


class TestWalkStep:
    def test_golden_sequences(self):
        _, tr = find_least_multiple(GOLDEN)
        assert tr.n_steps == 6
        assert [s.k for s in tr.steps] == [2, 2, 3, 2, 2, 5]
        assert [s.p for s in tr.steps] == [4469, 1937, 1342, 747, 152, 13]
        assert [s.v for s in tr.steps] == [2, 3, 7, 11, 15, 64]

    def test_first_step_small(self):
        _, tr = find_least_multiple(WalkInput(b=5, a=3, c=7))
        s = tr.steps[0]
        assert (s.k, s.p, s.v) == (2, 1, 2)
        # p0 = 7 > c = 3: the walk starts from row -1 scaled by p0 // c = 2, (6, 0, 4),
        # so the first step has k = 1 and q_1 = t0 - 2*a = 1 - 4
        _, tr = find_least_multiple(WalkInput(b=11, a=2, c=3))
        assert (tr.t0, tr.p0) == (1, 7)
        assert [(s.k, s.p, s.v, s.q) for s in tr.steps] == [(1, 1, 1, -3)]


class TestFindLeastMultiple:
    def test_golden(self):
        cert, tr = find_least_multiple(GOLDEN)
        assert (cert.m, cert.u, cert.w) == (64, 13, 45)
        assert 64 * 8231 == 13 * 7523 + 45 * 9533
        assert 526784 == 97799 + 428985

    def test_small(self):
        cert, _ = find_least_multiple(WalkInput(b=5, a=3, c=7))
        assert (cert.m, cert.u, cert.w) == (2, 1, 1)

    def test_m_equals_one(self):
        cert, _ = find_least_multiple(WalkInput(b=12, a=5, c=7))
        assert (cert.m, cert.u, cert.w) == (1, 1, 1)

    def test_reversed_roles(self):
        # WalkInput stores the pair as (2, 3): the certificate and the trace come back in that order
        cert, tr = find_least_multiple(WalkInput(b=11, a=3, c=2))
        assert (cert.m, cert.u, cert.w) == (1, 1, 3)
        assert (cert.pair_a, cert.pair_c) == (2, 3)
        assert (tr.input.a, tr.input.c) == (2, 3)
        assert (cert, tr) == find_least_multiple(WalkInput(b=11, a=2, c=3))

    def test_budget_exhaustion(self):
        # a long run of k = 2 steps needs more than default_step_budget(20001) = 1,600
        with pytest.raises(StepBudgetExceeded):
            find_least_multiple(WalkInput(b=10001, a=10000, c=20001))

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

    def test_role_symmetry_random(self):
        rng = random.Random(314)
        checked = 0
        while checked < 1000:
            vals = sorted(rng.sample(range(2, 400), 3))
            a1, a2, a3 = vals
            if math.gcd(a1, a2) != 1 or math.gcd(a1, a3) != 1 or math.gcd(a2, a3) != 1:
                continue
            c1, t1 = find_least_multiple(WalkInput(b=a2, a=a1, c=a3))
            c2, t2 = find_least_multiple(WalkInput(b=a2, a=a3, c=a1))
            assert c1 == c2
            assert (c1.pair_a, c1.pair_c) == (a1, a3)
            assert t1 == t2
            assert t1.input.a < t1.input.c
            checked += 1


class TestCollapsedRuns:
    # each k = 2 run is crossed with one division; the result, every row and the budget
    # must match the walk taken one step at a time
    def test_matches_reference_small(self):
        walks = 0
        for c in range(3, 90):
            for a in range(2, c):
                if math.gcd(a, c) != 1:
                    continue
                for b in range(2, 90):
                    if math.gcd(b, a) == 1 and math.gcd(b, c) == 1:
                        inp = WalkInput(b=b, a=a, c=c)
                        assert outcome(collapsed_walk, inp) == outcome(reference_walk, inp), inp
                        walks += 1
        assert walks == 97428

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
                if math.gcd(b, a) == math.gcd(b, c) == math.gcd(a, c) == 1:
                    inp = WalkInput(b=b, a=a, c=c)
                    got = outcome(collapsed_walk, inp)
                    assert got == outcome(reference_walk, inp), inp
                    over.append(got is StepBudgetExceeded)
        assert (len(over), sum(over)) == (3018, 804)

    def test_long_run_is_one_division(self):
        _, tr = find_least_multiple(WalkInput(b=1001, a=1000, c=2001))
        assert (tr.n_steps, tr.iterations, tr.k2_run_max) == (1000, 1, 1000)


class TestTraceInvariants:
    def test_strict_decrease_and_coprime_consecutive(self):
        for a1, a2, a3 in coprime_triples(25):
            _, tr = find_least_multiple(WalkInput(b=a2, a=a1, c=a3))
            ps = [s.p for s in tr.steps]
            for prev, cur in zip(ps, ps[1:]):
                assert cur < prev
                assert math.gcd(prev, cur) == 1

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

    def test_v_recurrence_cross_check(self):
        # v_1 = k_1 mod c and v_i = (k_i v_{i-1} - v_{i-2}) mod c for i >= 2
        for inp in (GOLDEN, WalkInput(b=5, a=3, c=7), WalkInput(b=101, a=67, c=89)):
            _, tr = find_least_multiple(inp)
            c = inp.c
            vs = [1] + [s.v for s in tr.steps]
            ks = [s.k for s in tr.steps]
            if ks:
                assert vs[1] == ks[0] % c
            for i in range(2, len(vs)):
                assert vs[i] == (ks[i - 1] * vs[i - 1] - vs[i - 2]) % c

    def test_step_budget_property(self):
        # step count stays within the default budget on random inputs
        rng = random.Random(5)
        for _ in range(50):
            vals = sorted(rng.sample(range(2, 2000), 3))
            a1, a2, a3 = vals
            if math.gcd(a1, a2) != 1 or math.gcd(a1, a3) != 1 or math.gcd(a2, a3) != 1:
                continue
            _, tr = find_least_multiple(WalkInput(b=a2, a=a1, c=a3))
            assert tr.n_steps == len(tr.steps) <= default_step_budget(tr.input.c)


class TestCertificate:
    def test_identity_enforced(self):
        with pytest.raises(InvariantViolation, match="identity fails"):
            MultipleCertificate(m=2, u=1, w=1, target=5, pair_a=3, pair_c=8)

    def test_positivity_enforced(self):
        for m, u, w in ((1, 0, 1), (0, 1, 1), (1, 1, 0)):
            with pytest.raises(InvariantViolation, match="must be >= 1"):
                MultipleCertificate(m=m, u=u, w=w, target=7, pair_a=3, pair_c=7)

    def test_value(self):
        cert, _ = find_least_multiple(GOLDEN)
        assert cert.value == 64 * 8231


class TestTraceSerialization:
    def test_rows_golden(self):
        _, tr = find_least_multiple(GOLDEN)
        rows = trace_rows(tr)
        assert rows[0] == (0, None, 7001, 1, 5524)
        assert [r[4] for r in rows[1:6]] == [3525, 1526, 1053, 580, 107]
        assert rows[-1][4] == -45

    def test_table_text(self):
        _, tr = find_least_multiple(GOLDEN)
        text = trace_table(tr)
        lines = text.splitlines()
        assert lines[0].split() == ["step", "k", "v", "p", "(p*a-v*b)/c"]
        assert len(lines) == 8  # header + row 0 + six steps

    def test_json_round_trip(self):
        _, tr = find_least_multiple(GOLDEN)
        doc = json.loads(json.dumps(trace_to_json(tr)))
        assert doc["p0"] == "7001"
        assert int(doc["rows"][-1]["v"]) == 64
        assert doc["terminated"] is True
