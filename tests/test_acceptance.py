"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

Criterion 6 (step-count flatness across digit sizes) is known to fail:
the walk's step count grows with the bit length of the inputs because the
iteration visits every one-sided best approximation of the underlying
ratio, and the count of those grows with input size.  The test asserts the
criterion anyway and is expected to be red; see README.md.
"""

import math
import random
import time

from frobenius3.bench import BenchConfig, run_bench
from frobenius3.oracle import oracle_frobenius, oracle_least_multiple
from frobenius3.solver import frobenius, least_multiples_all, validate_triple
from frobenius3.walk import WalkInput, find_least_multiple
from test_solver import crt

LIMIT = 60


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def coprime_triples(limit):
    for a1 in range(2, limit - 1):
        for a2 in range(a1 + 1, limit):
            if math.gcd(a1, a2) != 1:
                continue
            for a3 in range(a2 + 1, limit + 1):
                if math.gcd(a1, a3) == 1 and math.gcd(a2, a3) == 1:
                    yield a1, a2, a3


def test_criterion_1_exhaustive_frobenius_vs_oracle():
    start = time.monotonic()
    count = 0
    for triple in coprime_triples(LIMIT):
        r = frobenius(*triple)
        if r.g != oracle_frobenius(triple) or r.f_pos != oracle_frobenius(triple, "positive"):
            report(1, False, f"mismatch at {triple}")
        count += 1
    elapsed = time.monotonic() - start
    report(1, elapsed < 60, f"({count} triples, {elapsed:.1f}s)")


def test_criterion_2_exhaustive_least_multiples_vs_oracle():
    count = 0
    for triple in coprime_triples(LIMIT):
        t = validate_triple(*triple)
        if t.degenerate:
            continue
        certs, _ = least_multiples_all(t)
        for cert in certs:
            ref = oracle_least_multiple(cert.target, (cert.pair_a, cert.pair_c))
            if cert.m != ref.m:
                report(2, False, f"m mismatch for {cert.target} over "
                                 f"({cert.pair_a},{cert.pair_c})")
            if cert.m * cert.target != cert.u * cert.pair_a + cert.w * cert.pair_c:
                report(2, False, f"identity fails at {triple}")
            count += 1
    report(2, True, f"({count} least-multiple cases)")


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


def test_criterion_6_step_count_flatness(tmp_path):
    start = time.monotonic()
    s100 = run_bench(BenchConfig(digits=100, samples=20, seed=42,
                                 output_path=str(tmp_path / "steps_100d.csv"))).summary()
    s1000 = run_bench(BenchConfig(digits=1000, samples=20, seed=42,
                                  output_path=str(tmp_path / "steps_1000d.csv"))).summary()
    elapsed = time.monotonic() - start
    mean100, mean1000 = s100["steps"]["mean"], s1000["steps"]["mean"]
    ratio = mean1000 / mean100
    # iterations (one per k = 2 run) are reported beside the steps, not instead of them
    report(6, ratio < 2 and elapsed < 120,
           f"(mean steps of the one walk: 100d={mean100:.0f}, 1000d={mean1000:.0f}, "
           f"ratio={ratio:.2f}; mean iterations: 100d={s100['iterations']['mean']:.0f}, "
           f"1000d={s1000['iterations']['mean']:.0f}; {elapsed:.1f}s)")


def test_criterion_7a_crt_property():
    rng = random.Random(777)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
    for _ in range(10_000):
        ms = rng.sample(primes, k=3)
        rs = [rng.randrange(0, m) for m in ms]
        x = crt(rs, ms)
        if not (0 <= x < math.prod(ms)) or [x % m for m in ms] != rs:
            report("7a", False, f"CRT failure at residues {rs} mod {ms}")
    report("7a", True, "(10000 CRT instances)")


def test_criterion_7b_result_invariants_and_representable_term():
    def brute_pair_positive(n, x, y):
        return any((n - u * x) > 0 and (n - u * x) % y == 0 and (n - u * x) // y >= 1
                   for u in range(1, max(n // x, 1) + 1))

    rng = random.Random(888)
    checked = 0
    while checked < 1000:
        vals = sorted(rng.sample(range(2, 61), 3))
        a1, a2, a3 = vals
        if math.gcd(a1, a2) != 1 or math.gcd(a1, a3) != 1 or math.gcd(a2, a3) != 1:
            continue
        r = frobenius(a1, a2, a3)
        if r.f_pos - r.g != a1 + a2 + a3:
            report("7b", False, f"convention bridge fails at {vals}")
        checked += 1
        if r.degenerate:
            continue
        for cert, d in zip(r.certificates, r.decompositions):
            if cert.m * cert.target != cert.u * cert.pair_a + cert.w * cert.pair_c:
                report("7b", False, f"certificate identity fails at {vals}")
            if r.f_pos != d.multiplier * d.generator + d.partner_coeff * d.partner:
                report("7b", False, f"decomposition identity fails at {vals}")
            # exactly one term of each decomposition is pair-representable,
            # and it is the least-multiple term
            third = (set(vals) - {d.generator, d.partner}).pop()
            lead_rep = brute_pair_positive(d.multiplier * d.generator, d.partner, third)
            partner_rep = brute_pair_positive(d.partner_coeff * d.partner, d.generator, third)
            if not lead_rep or partner_rep:
                report("7b", False, f"representable-term pattern fails at {vals}: {d}")
    report("7b", True, f"({checked} random small triples)")


def test_criterion_7c_role_symmetry():
    rng = random.Random(999)
    checked = 0
    while checked < 1000:
        vals = rng.sample(range(2, 300), 3)
        b, x, y = vals
        if math.gcd(b, x) != 1 or math.gcd(b, y) != 1 or math.gcd(x, y) != 1:
            continue
        # same minimum either way; each certificate's identity is exact
        # (checked at construction).
        c1, _ = find_least_multiple(WalkInput(b=b, a=x, c=y))
        c2, _ = find_least_multiple(WalkInput(b=b, a=y, c=x))
        if c1.m != c2.m:
            report("7c", False, f"role asymmetry at target={b}, pair=({x},{y})")
        checked += 1
    report("7c", True, f"({checked} pair/target combinations)")
