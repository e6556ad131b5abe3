"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

Criteria 1 and 2 (every valid triple up to 60 against the residue-table
oracle: g and f_pos, then each least multiple) are one in-process run of
`frob3 verify --max 60`, which both read.  Verify proves each result's
certificates with assemble_result, so a false identity exits 3.

Criterion 6 (step-count flatness across digit sizes) is known to fail.
The walk runs Euclid on (c, p0 mod c) until about half of its divisions are
done, and a step is one row of the walk, so its steps add up the partial
quotients it passes; their sum grows as (ln c)^2 (Yao and Knuth 1975).
Its iterations, one per partial quotient, follow the Euclid-length law that
test_iterations_follow_euclid_length_law states.  The test asserts the
criterion anyway and is expected to be red; see README.md and ROADMAP.md.
"""

import contextlib
import io
import math
import multiprocessing
import random
import time

import pytest

from frobenius3 import cli
from frobenius3.bench import BenchConfig, random_coprime_triple, run_bench
from frobenius3.oracle import oracle_frobenius, oracle_least_multiple
from frobenius3.solver import frobenius, least_multiples_all
from frobenius3.walk import WalkInput, find_least_multiple
from support import euclid_remainders, pairwise_coprime, positive_representable


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def verify_60():
    """One run of frob3 verify --max 60: (exit code, stdout, stderr, children left, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--max", "60"])
    elapsed = time.monotonic() - start
    return code, out.getvalue(), err.getvalue(), multiprocessing.active_children(), elapsed


def report_verify_60(n, run):
    code, out, err, children, elapsed = run
    ok = (code, out, err, children) == (
        0, "OK: 9245 triples and 21843 least-multiple cases match the oracle\n", "", [])
    report(n, ok and elapsed < 60, f"(frob3 verify --max 60: exit {code}, {out.strip()!r}, "
                                   f"{elapsed:.1f}s)")


def test_criterion_1_exhaustive_frobenius_vs_oracle(verify_60):
    # g and f_pos of each of the 9245 valid triples up to 60
    report_verify_60(1, verify_60)


def test_criterion_2_exhaustive_least_multiples_vs_oracle(verify_60):
    # m of each of the 21843 least multiples of the non-degenerate ones
    report_verify_60(2, verify_60)


def test_criterion_3_golden_trace():
    cert, trace = find_least_multiple(WalkInput(b=8231, a=7523, c=9533))
    a, b, c = 7523, 8231, 9533
    ks = [s.k for s in trace.steps]
    ps = [trace.p0] + [s.p for s in trace.steps]
    vs = [1] + [s.v for s in trace.steps]
    quotients = [(p * a - v * b) // c for p, v in zip(ps, vs)]
    ok = (ks == [2, 2, 3, 2, 2, 5]
          and ps[:6] == [7001, 4469, 1937, 1342, 747, 152]
          and vs == [1, 2, 3, 7, 11, 15, 64]
          and quotients[1:6] == [3525, 1526, 1053, 580, 107]
          and (cert.m, cert.u, cert.w) == (64, 13, 45)
          and oracle_least_multiple(8231, (7523, 9533)).m == 64)
    report(3, ok, f"(m={cert.m}, u={cert.u}, w={cert.w})")


def test_criterion_4_large_example_vs_sieve():
    start = time.monotonic()
    want = oracle_frobenius((7523, 8231, 9533))
    got = frobenius(7523, 8231, 9533).g
    elapsed = time.monotonic() - start
    report(4, got == want and elapsed < 120, f"(g={got}, oracle={want}, {elapsed:.1f}s)")


def test_criterion_5_small_fixtures():
    r1 = frobenius(3, 5, 7)
    r2 = frobenius(5, 7, 9)
    ok = ((r1.g, r1.f_pos, r1.candidate_a, r1.candidate_b) == (4, 19, 19, 17)
          and (r2.g, r2.candidate_a, r2.candidate_b) == (13, 34, 32))
    report(5, ok, f"(g357={r1.g}, g579={r2.g})")


def test_criterion_6_step_count_flatness():
    start = time.monotonic()
    s100 = run_bench(BenchConfig(digits=100, samples=20, seed=42)).summary()
    s1000 = run_bench(BenchConfig(digits=1000, samples=20, seed=42)).summary()
    elapsed = time.monotonic() - start
    mean100, mean1000 = s100["steps"]["mean"], s1000["steps"]["mean"]
    ratio = mean1000 / mean100
    # iterations (one per k = 2 run) are reported beside the steps, not instead of them
    report(6, ratio < 2 and elapsed < 120,
           f"(mean steps of the one walk: 100d={mean100:.0f}, 1000d={mean1000:.0f}, "
           f"ratio={ratio:.2f}; mean iterations: 100d={s100['iterations']['mean']:.0f}, "
           f"1000d={s1000['iterations']['mean']:.0f}; {elapsed:.1f}s)")


def test_iterations_follow_euclid_length_law():
    # on criterion 6's samples each walk takes at most as many iterations as Euclid takes
    # divisions on (c, p0 mod c), and about 0.4 as many on average; the divisions average
    # Heilbronn's (12 ln 2/pi^2) ln c + 1.467.  The walk stops halfway through Euclid: about
    # half of its remainders, p0 mod c included, are at least the last row's p
    for digits in (100, 1000):
        iterations = euclid = heilbronn = above = 0
        for i in range(20):
            certs, trace = least_multiples_all(
                random_coprime_triple(digits, random.Random(f"42:{i}")))
            c = trace.input.c
            remainders = euclid_remainders(c, trace.p0 % c)
            length = len(remainders) - 1
            assert trace.iterations <= length, (digits, i)
            iterations += trace.iterations
            euclid += length
            heilbronn += 12 * math.log(2) / math.pi ** 2 * math.log(c) + 1.467
            # the last row's p is the u of a2's certificate
            above += sum(r >= certs[1].u for r in remainders[1:])
        assert abs(euclid / heilbronn - 1) < 0.02, (digits, euclid / heilbronn)
        assert 0.35 <= iterations / heilbronn <= 0.45, (digits, iterations / heilbronn)
        assert 0.45 <= above / euclid <= 0.55, (digits, above / euclid)


def test_criterion_7b_result_invariants_and_representable_term():
    rng = random.Random(888)
    checked = 0
    while checked < 1000:
        vals = sorted(rng.sample(range(2, 61), 3))
        if not pairwise_coprime(vals):
            continue
        r = frobenius(*vals)
        checked += 1
        if r.degenerate:
            continue
        # f_pos is the larger candidate, and each candidate lies in [0, a1*a2*a3), where its
        # system has one solution
        candidates = (r.candidate_a, r.candidate_b)
        if r.f_pos != max(candidates) or not all(0 <= x < math.prod(vals) for x in candidates):
            report("7b", False, f"candidates fail at {vals}")
        for d in r.decompositions:
            if (min(d.multiplier, d.partner_coeff) < 1
                    or r.f_pos != d.multiplier * d.generator + d.partner_coeff * d.partner):
                report("7b", False, f"decomposition identity fails at {vals}: {d}")
            # exactly one term of each decomposition is a positive combination of the other
            # two generators, and it is the least-multiple term
            third = (set(vals) - {d.generator, d.partner}).pop()
            lead_rep = positive_representable(d.multiplier * d.generator, (d.partner, third))
            partner_rep = positive_representable(d.partner_coeff * d.partner, (d.generator, third))
            if not lead_rep or partner_rep:
                report("7b", False, f"representable-term pattern fails at {vals}: {d}")
    report("7b", True, f"({checked} random small triples)")


def test_criterion_7c_role_symmetry():
    rng = random.Random(999)
    checked = 0
    while checked < 1000:
        b, x, y = rng.sample(range(2, 300), 3)
        if not pairwise_coprime((b, x, y)):
            continue
        # the same certificate and trace either way, with the pair in ascending order; the
        # certificate's identity is exact (find_least_multiple checks it)
        cert, trace = find_least_multiple(WalkInput(b=b, a=x, c=y))
        if ((cert, trace) != find_least_multiple(WalkInput(b=b, a=y, c=x))
                or (cert.pair_a, cert.pair_c) != (min(x, y), max(x, y))):
            report("7c", False, f"role asymmetry at target={b}, pair=({x},{y})")
        checked += 1
    report("7c", True, f"({checked} pair/target combinations)")
