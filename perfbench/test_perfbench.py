"""Tests of the benchmark's references, inputs and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q

The references are checked against the program's brute-force oracle on
small inputs, where the oracle is exact; they must not share code with the
program, so agreement there is evidence for both.
"""

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from frobenius3 import cli  # noqa: E402
from frobenius3.errors import StepBudgetExceeded  # noqa: E402
from frobenius3.oracle import oracle_frobenius, oracle_least_multiple, oracle_representable  # noqa: E402
from frobenius3.solver import frobenius, least_multiples_all, validate_triple  # noqa: E402

LIMIT = 40


def coprime_triples(limit):
    for a1 in range(2, limit + 1):
        for a2 in range(a1 + 1, limit + 1):
            for a3 in range(a2 + 1, limit + 1):
                if reference.pairwise_coprime(a1, a2, a3):
                    yield a1, a2, a3


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_frobenius_g_matches_oracle():
    for gens in coprime_triples(LIMIT):
        assert reference.frobenius_g(*gens) == oracle_frobenius(gens), gens


def test_degeneracy_matches_oracle():
    for a1, a2, a3 in coprime_triples(LIMIT):
        assert reference.is_degenerate(a1, a2, a3) == oracle_representable(a3, (a1, a2))


def test_candidates_match_oracle():
    for gens in coprime_triples(25):
        if reference.is_degenerate(*gens):
            continue
        least = [oracle_least_multiple(g, [x for x in gens if x != g]).value for g in gens]
        f_pos = max(reference.frobenius_candidates(*gens, *least))
        assert f_pos == oracle_frobenius(gens, "positive"), gens


def test_roberts_matches_oracle():
    for a in range(3, LIMIT, 2):
        for d in range(1, a):
            if math.gcd(a, d) == 1:
                gens = (a, a + d, a + 2 * d)
                assert reference.roberts_ap(a, d) == oracle_frobenius(gens), gens


def test_roberts_matches_rodseth_at_100_digits():
    # long runs of partial quotients 2: only finishes because rodseth collapses them
    for a, d in workloads.AP_OVER_BUDGET:
        assert reference.rodseth(a, a + d, a + 2 * d) == reference.roberts_ap(a, d)


def test_pair_least_multiple_matches_oracle():
    for a in range(2, 30):
        for b in range(2, 30):
            if math.gcd(a, b) == 1:
                m, u, w = reference.pair_least_multiple(a, b)
                cert = oracle_least_multiple(b, (a, a + b))
                assert (cert.m, m * b) == (m, u * a + w * (a + b))


@pytest.mark.parametrize("digits", [100, 1000])
def test_rodseth_matches_program(digits):
    ops = workloads.make_round(f"random-{digits}d", 7)[:3]
    for op in ops:
        gens = tuple(int(x) for x in op.argv[1:4])
        assert reference.rodseth(*gens) == frobenius(*gens).g


def test_predicted_steps_match_walk_traces():
    for op in workloads.make_round("random-100d", 2):
        gens = tuple(int(x) for x in op.argv[1:4])
        _, traces = least_multiples_all(validate_triple(*gens))
        for i, trace in enumerate(traces):
            a, c = sorted(g for j, g in enumerate(gens) if j != i)
            steps, swap = workloads._walk_steps(gens[i], a, c, 10**9)
            if swap:
                steps = workloads._walk_steps(gens[i], c, a, 10**9)[0]
            assert steps == len(trace.steps)
        assert workloads.predicted_steps(gens, 10**9) <= workloads.STEP_EDGES[100][-1]


def test_rounds_are_seeded():
    for name in workloads.WORKLOADS:
        first = [op.argv for op in workloads.make_round(name, 1)]
        assert first == [op.argv for op in workloads.make_round(name, 1)]
        if name != "verify-small":
            assert first != [op.argv for op in workloads.make_round(name, 2)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ap_round_answers(seed):
    """Seeded inputs complete; only the fixed over-budget inputs may fail."""
    over_budget = {workloads.ap_op(a, d).argv for a, d in workloads.AP_OVER_BUDGET[:2]}
    over_budget |= {workloads.pair_op(a, b).argv for a, b in workloads.PAIR_OVER_BUDGET[:1]}
    for op in workloads.make_round("ap-structured", seed):
        if len(op.argv[1]) > 10:
            continue  # the 30- to 100-digit inputs take up to a second each
        try:
            code, out = run_cli(op.argv)
        except StepBudgetExceeded:
            assert op.argv in over_budget
            continue
        assert code == 0 and op.check(out) == 1


def test_verify_counts_match_program():
    code, out = run_cli(["verify", "--max", "14"])
    assert code == 0
    assert workloads.check_verify(*workloads.verify_counts(14), out) == workloads.verify_counts(14)[0]


def test_wrong_answer_is_caught():
    op = workloads.compute_op((7523, 8231, 9533), 1547194)
    code, out = run_cli(op.argv)
    assert op.check(out) == 1
    with pytest.raises(workloads.WrongAnswer):
        op.check(out.replace("1547194", "1547193"))
    with pytest.raises(workloads.WrongAnswer):
        workloads.compute_op((7523, 8231, 9533), 1547193).check(out)


def test_tracer_counts_and_restores():
    solver = sys.modules["frobenius3.solver"]
    original = solver.validate_triple
    tracer = spans.Tracer()
    with tracer.installed() as main:
        ops = []
        for argv in (["compute", "7523", "8231", "9533", "--json"], ["verify", "--max", "12"]):
            tracer.begin_op()
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(argv) == 0
            ops.append(tracer.end_op())
    assert solver.validate_triple is original and cli.json is json
    compute, verify = (spans.layer_metrics([op]) for op in ops)
    _, traces = least_multiples_all(validate_triple(7523, 8231, 9533))
    assert compute["walk.steps"] == sum(len(t.steps) for t in traces)
    assert compute["solver.least_multiples_per_result"] == 1
    assert verify["solver.least_multiples_per_result"] == 2
    assert verify["oracle.sieve_builds"] == 2
    assert compute["oracle.sieve_builds"] == 0
    root = [s for s in tracer.spans if s[2] is None]
    assert [s[3] for s in root] == ["cli.main", "cli.main"]
