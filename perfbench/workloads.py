"""Seeded workload inputs for the frobenius3 benchmark, and the output checks.

A workload is one round of operations, each an argument list for
`frobenius3.cli.main` plus the check of its captured stdout. The benchmark
repeats whole rounds, so every run attempts the same operations in the same
proportions. Inputs come from the benchmark's own RNG and number theory; the
program only ever sees decimal strings.

Operation cost varies widely between random triples (the walk length has a
heavy tail), so each round is stratified: it holds exactly one input from
each stratum of a cost measure. A median over a round then moves little
from seed to seed while the inputs still depend on the seed.
"""

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import reference

# Stratum edges of predicted walk steps per triple (the three walks'
# approximations plus those of any walk abandoned for swapped roles), at
# 1.25% (100 digits) and 5% (1000 digits) of the distribution, measured
# on 20,000 and 2,000 triples drawn as `_random_triple` draws them. Both end
# at the 85th percentile: the 15% beyond it reach tens of seconds per
# triple at 1000 digits (and include walks over the step budget), and
# `ap-structured` measures those long walks with inputs of known cost.
STEP_EDGES = {
    100: [0, 647, 686, 716, 738, 757, 777, 792, 809, 824, 839, 854, 867, 880,
          893, 907, 920, 933, 946, 958, 972, 986, 1000, 1012, 1025, 1037, 1050,
          1063, 1077, 1091, 1105, 1118, 1134, 1148, 1163, 1180, 1197, 1212,
          1229, 1248, 1267, 1286, 1306, 1325, 1345, 1365, 1388, 1412, 1438,
          1463, 1490, 1517, 1545, 1574, 1606, 1640, 1676, 1719, 1765, 1813,
          1869, 1926, 1988, 2062, 2136, 2220, 2307, 2405, 2525],
    1000: [0, 11857, 12647, 13290, 13875, 14444, 14992, 15623, 16391, 17126,
           17802, 18658, 19661, 20911, 22490, 24483, 27353, 31978],
}

# Progressions with a up to 2001 complete; from a of about 2,700 on, every
# progression exceeds the walk's step budget. Least-multiple pairs with
# A <= 1000 complete, and from A of about 1,500 on they exceed it.
AP_MAX_A = 2001
AP_STRATA = 96
PAIR_MAX_A = 1000
PAIR_STRATA = 32

# Inputs that exceed the walk's step budget (`StepBudgetExceeded`, uncaught
# by cli.main) at this writing, from 5 to 100 digits. They do not depend on
# the seed, so every run fails on the same share of its operations. Each
# keeps an exact reference answer for when the walk completes them.
AP_OVER_BUDGET = [
    (100003, 1),
    (1000000007, 333333331),
    (10**29 + 3, 98765),
    (10**59 + 7, 10**30 + 1),
    (10**99 + 1, (10**99 + 1) // 3),
]
PAIR_OVER_BUDGET = [
    (10000, 10001),
    (10**29 + 1, 3 * 10**28 + 7),
]

# verify --max N for every N here, once a round. Its cost grows as N^3,
# so seeded N values would move the round's median with the seed. Four
# sizes keep a round to a few seconds, so a run repeats it and best times
# apply (run.best_times).
VERIFY_LIMITS = range(45, 61, 5)


class WrongAnswer(Exception):
    """The program printed something that contradicts the reference."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[str], int]  # stdout -> certified results; raises WrongAnswer


def _require(ok: bool, what: str):
    if not ok:
        raise WrongAnswer(what)


# ---------------------------------------------------------------- checks

def check_compute(gens: tuple[int, int, int], want_g: int, out: str) -> int:
    res = json.loads(out)
    a1, a2, a3 = gens
    _require(res["input"] == [str(a1), str(a2), str(a3)], f"input echoed as {res['input']}")
    _require(res["degenerate_member"] is None, "non-degenerate triple reported degenerate")
    least = {}
    for cert in res["certificates"]:
        target, m, u, w = (int(cert[k]) for k in ("target", "m", "u", "w"))
        x, y = (int(v) for v in cert["pair"])
        _require(sorted((target, x, y)) == [a1, a2, a3], f"certificate over {cert['pair']}")
        _require(min(m, u, w) >= 1 and m * target == u * x + w * y,
                 f"certificate identity fails for target {target}")
        least[target] = m * target
    _require(len(least) == 3, "certificates do not cover the three generators")
    cand_a, cand_b = reference.frobenius_candidates(a1, a2, a3, least[a1], least[a2], least[a3])
    _require(int(res["candidate_A"]) == cand_a and int(res["candidate_B"]) == cand_b,
             "CRT candidates differ from the reference CRT")
    f_pos = max(cand_a, cand_b)
    _require(int(res["f_pos"]) == f_pos, "f_pos is not the larger candidate")
    _require(int(res["g"]) == want_g == f_pos - a1 - a2 - a3,
             f"g = {res['g']}, reference {want_g}")
    for dec in res["decompositions"]:
        gen, mult, partner, coeff = (int(dec[k]) for k in
                                     ("generator", "multiplier", "partner", "partner_coeff"))
        _require(min(mult, coeff) >= 1 and f_pos == mult * gen + coeff * partner,
                 f"decomposition via {gen} fails")
    return 1


def check_least_multiple(a: int, b: int, out: str) -> int:
    cert = json.loads(out)["certificate"]
    m, u, w = reference.pair_least_multiple(a, b)
    got = (int(cert["m"]), int(cert["u"]), int(cert["w"]), int(cert["target"]),
           [int(v) for v in cert["pair"]])
    _require(got == (m, u, w, b, [a, a + b]), f"certificate {cert}, reference m={m} u={u} w={w}")
    return 1


def check_verify(triples: int, walks: int, out: str) -> int:
    want = f"OK: {triples} triples and {walks} least-multiple cases match the oracle"
    _require(out.strip() == want, f"printed {out.strip()!r}, expected {want!r}")
    return triples


# ------------------------------------------------------------ generators

def compute_op(gens, want_g) -> Op:
    a1, a2, a3 = gens
    return Op(("compute", str(a1), str(a2), str(a3), "--json"),
              lambda out: check_compute((a1, a2, a3), want_g, out))


def pair_op(a: int, b: int) -> Op:
    return Op(("least-multiple", str(b), "--pair", str(a), str(a + b), "--json"),
              lambda out: check_least_multiple(a, b, out))


def ap_op(a: int, d: int) -> Op:
    return compute_op((a, a + d, a + 2 * d), reference.roberts_ap(a, d))


def predicted_steps(gens, cap: int) -> int:
    """Approximations the program's three walks visit; stops counting past `cap`.

    Replays the walk's recurrence with cheap arithmetic (the multiplier v
    follows the same recurrence as p, and most stop tests are settled by
    bit lengths), including the first walk of a role swap.
    """
    total = 0
    for i, b in enumerate(gens):
        a, c = sorted(g for j, g in enumerate(gens) if j != i)
        steps, swap = _walk_steps(b, a, c, cap - total)
        total += steps
        if swap:
            total += _walk_steps(b, c, a, cap - total)[0]
        if total > cap:
            break
    return total


def _walk_steps(b: int, a: int, c: int, cap: int) -> tuple[int, bool]:
    t0 = -b * pow(c, -1, a) % a
    prev, p = c, (b + c * t0) // a
    v_prev, v, steps = 0, 1, 0
    al, bl = a.bit_length(), b.bit_length()
    while p.bit_length() + al - 1 > v.bit_length() + bl or p * a >= v * b:
        if p == 1:
            return steps, True
        if steps > cap:
            break
        k = 1 + prev // p
        prev, p = p, k * p % prev
        v_prev, v = v, k * v - v_prev
        steps += 1
    return steps, False


def _random_triple(rng: random.Random, digits: int) -> tuple[int, int, int]:
    lo, hi = 10 ** (digits - 1), 10 ** digits
    while True:
        gens = tuple(sorted(rng.randrange(lo, hi) for _ in range(3)))
        if reference.pairwise_coprime(*gens) and not reference.is_degenerate(*gens):
            return gens


def random_round(rng: random.Random, digits: int) -> list[Op]:
    edges = STEP_EDGES[digits]
    picked = [None] * (len(edges) - 1)
    while None in picked:
        gens = _random_triple(rng, digits)
        i = bisect_right(edges, predicted_steps(gens, edges[-1])) - 1
        if i < len(picked) and picked[i] is None:
            picked[i] = gens
    return [compute_op(g, reference.rodseth(*g)) for g in picked]


def _strata(lo: int, hi: int, n: int):
    """n consecutive half-open ranges covering [lo, hi]."""
    cuts = [lo + (hi + 1 - lo) * i // n for i in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


def ap_round(rng: random.Random) -> list[Op]:
    ops = []
    for lo, hi in _strata(5, AP_MAX_A, AP_STRATA):
        a = rng.randrange(lo | 1, hi, 2)
        d = rng.randint(1, a // 3)
        while math.gcd(a, d) != 1:
            d = rng.randint(1, a // 3)
        ops.append(ap_op(a, d))
    for lo, hi in _strata(2, PAIR_MAX_A, PAIR_STRATA):
        a = rng.randrange(lo, hi)
        b = rng.randint(2, 3 * a)
        while math.gcd(a, b) != 1:
            b = rng.randint(2, 3 * a)
        ops.append(pair_op(a, b))
    ops += [ap_op(a, d) for a, d in AP_OVER_BUDGET]
    ops += [pair_op(a, b) for a, b in PAIR_OVER_BUDGET]
    return ops


def verify_counts(limit: int) -> tuple[int, int]:
    """(triples, least-multiple cases) that `verify --max limit` must confirm."""
    triples = nondegenerate = 0
    for a1 in range(2, limit + 1):
        for a2 in range(a1 + 1, limit + 1):
            if math.gcd(a1, a2) != 1:
                continue
            for a3 in range(a2 + 1, limit + 1):
                if math.gcd(a1, a3) == 1 and math.gcd(a2, a3) == 1:
                    triples += 1
                    nondegenerate += not reference.is_degenerate(a1, a2, a3)
    return triples, 3 * nondegenerate


def verify_round(rng: random.Random) -> list[Op]:
    limits = list(VERIFY_LIMITS)
    rng.shuffle(limits)
    ops = []
    for limit in limits:
        triples, walks = verify_counts(limit)
        ops.append(Op(("verify", "--max", str(limit)),
                      lambda out, t=triples, w=walks: check_verify(t, w, out)))
    return ops


WORKLOADS = {
    "random-100d": lambda rng: random_round(rng, 100),
    "random-1000d": lambda rng: random_round(rng, 1000),
    "verify-small": verify_round,
    "ap-structured": ap_round,
}


def make_round(workload: str, seed: int) -> list[Op]:
    """The round of operations for a workload; the same seed gives the same round."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
