"""Benchmark harness: random pairwise-coprime triples at a given digit size,
the step and iteration counts of each triple's one walk and phase timings, CSV
and summary reporting.  run_bench only measures; `frob3 bench --csv` writes the CSV.

Step and iteration counts are deterministic given (seed, sample index); wall
times are reported but never asserted.  Sample i's triple is
random_coprime_triple(digits, random.Random(f"{seed}:{i}")).generators.
"""

import csv
import random
import statistics
import time
from collections import namedtuple

from .errors import InvalidInputError
from .solver import ValidatedTriple, assemble_result, least_multiples_all, validate_triple

CSV_COLUMNS = ["sample_index", "digits", "steps", "walk_ms", "assemble_ms", "total_ms",
               "triple_digest", "iterations"]


class BenchConfig(namedtuple("BenchConfig", "digits samples seed")):
    __slots__ = ()

    def __new__(cls, digits: int, samples: int, seed: int):
        if digits < 2:
            raise InvalidInputError("digits must be >= 2")
        if samples < 1:
            raise InvalidInputError("samples must be >= 1")
        return super().__new__(cls, digits, samples, seed)


BenchRecord = namedtuple("BenchRecord", [
    "sample_index",
    "triple",
    "steps",  # of the one walk (a2 over (a1, a3)) that gives all three least multiples
    "iterations",  # of the same walk, one per partial quotient (a k = 2 run is one)
    "walk_ms",  # least_multiples_all alone
    "assemble_ms",  # assemble_result, from the walk's end; total_ms is the sum
])


class BenchReport(namedtuple("BenchReport", "config records")):
    __slots__ = ()

    def summary(self) -> dict:
        def stats(values):
            return {"mean": statistics.fmean(values), "median": statistics.median(values),
                    "max": max(values)}

        return {
            "digits": self.config.digits,
            "samples": self.config.samples,
            "seed": self.config.seed,
            "steps": stats([r.steps for r in self.records]),
            "iterations": stats([r.iterations for r in self.records]),
            "total_ms_mean": statistics.fmean(r.walk_ms + r.assemble_ms for r in self.records),
        }


def _digest(n: int, digits: int) -> str:
    s = str(n)
    if len(s) <= 16:
        return s
    return f"{s[:8]}..{s[-8:]}({digits}d)"


def random_coprime_triple(digits: int, rng: random.Random) -> ValidatedTriple:
    """Three odd `digits`-digit integers, pairwise coprime and non-degenerate, validated.

    Draws until one is accepted: about half of all draws are, even at 2 digits.  digits >= 2
    is the caller's to check, as BenchConfig does."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    while True:
        try:
            t = validate_triple(*(rng.randrange(lo, hi) | 1 for _ in range(3)))
        except InvalidInputError:
            continue
        if not t.degenerate:
            return t


def run_sample(config: BenchConfig, index: int) -> BenchRecord:
    # an independent stream per sample: sample i's triple does not depend on the others
    t = random_coprime_triple(config.digits, random.Random(f"{config.seed}:{index}"))
    t_start = time.perf_counter()
    certs, trace = least_multiples_all(t)
    t_walk = time.perf_counter()
    assemble_result(t, certs)
    t_end = time.perf_counter()
    return BenchRecord(sample_index=index, triple=t.generators, steps=trace.n_steps,
                       iterations=trace.iterations, walk_ms=(t_walk - t_start) * 1e3,
                       assemble_ms=(t_end - t_walk) * 1e3)


def run_bench(config: BenchConfig) -> BenchReport:
    return BenchReport(config, [run_sample(config, i) for i in range(config.samples)])


def write_csv(report: BenchReport, path: str) -> None:
    digits = report.config.digits
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in report.records:
            writer.writerow([r.sample_index, digits, r.steps,
                             f"{r.walk_ms:.3f}", f"{r.assemble_ms:.3f}",
                             f"{r.walk_ms + r.assemble_ms:.3f}",
                             "|".join(_digest(n, digits) for n in r.triple), r.iterations])


def summary_text(report: BenchReport) -> str:
    s = report.summary()
    lines = [
        f"digits={s['digits']}  samples={s['samples']}  seed={s['seed']}",
        f"{'':>10}  {'mean':>8}  {'median':>8}  {'max':>5}",
    ]
    for name in ("steps", "iterations"):
        st = s[name]
        lines.append(f"{name:>10}  {st['mean']:8.2f}  {st['median']:8.1f}  {st['max']:5d}")
    lines.append(f"mean total time: {s['total_ms_mean']:.2f} ms")
    return "\n".join(lines)
