"""Benchmark harness: random pairwise-coprime triples at a given digit size,
the step and iteration counts of each triple's one walk and phase timings, CSV
and summary reporting.

Step and iteration counts are deterministic given (seed, sample index); wall
times are reported but never asserted.
"""

import csv
import random
import statistics
import time
from dataclasses import dataclass, field

from .errors import InvalidInputError, TripleGenerationError
from .solver import assemble_result, least_multiples_all, validate_triple

RESAMPLE_CAP = 1000

CSV_COLUMNS = ["sample_index", "digits", "steps", "walk_ms", "assemble_ms", "total_ms",
               "triple_digest", "iterations"]


@dataclass(frozen=True)
class BenchConfig:
    digits: int
    samples: int
    seed: int
    output_path: str | None = None
    dump_full_values: bool = False

    def __post_init__(self):
        if self.digits < 2:
            raise InvalidInputError("digits must be >= 2")
        if self.samples < 1:
            raise InvalidInputError("samples must be >= 1")


@dataclass(frozen=True)
class BenchRecord:
    sample_index: int
    digits: int
    steps: int  # of the one walk (a2 over (a1, a3)) that gives all three least multiples
    walk_ms: float  # least_multiples_all alone; total_ms also spans validation and assembly
    assemble_ms: float
    total_ms: float
    triple_digest: str
    triple: tuple[int, int, int]
    iterations: int  # of the same walk, one per partial quotient (a k = 2 run is one)


@dataclass
class BenchReport:
    config: BenchConfig
    records: list[BenchRecord] = field(default_factory=list)

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
            "total_ms_mean": statistics.fmean(r.total_ms for r in self.records),
        }


def _digest(n: int, digits: int) -> str:
    s = str(n)
    if len(s) <= 16:
        return s
    return f"{s[:8]}..{s[-8:]}({digits}d)"


def random_coprime_triple(digits: int, rng: random.Random) -> tuple[int, int, int]:
    """Three odd `digits`-digit integers, pairwise coprime and non-degenerate."""
    if digits < 2:
        raise InvalidInputError("digits must be >= 2")
    lo, hi = 10 ** (digits - 1), 10 ** digits
    for _ in range(RESAMPLE_CAP):
        try:
            t = validate_triple(*(rng.randrange(lo, hi) | 1 for _ in range(3)))
        except InvalidInputError:
            continue
        if not t.degenerate:
            return t.generators
    raise TripleGenerationError(f"no valid triple after {RESAMPLE_CAP} resamples")


def _sample_rng(seed: int, index: int) -> random.Random:
    # independent per-sample stream so samples could run concurrently
    return random.Random(f"{seed}:{index}")


def run_sample(config: BenchConfig, index: int) -> BenchRecord:
    rng = _sample_rng(config.seed, index)
    triple = random_coprime_triple(config.digits, rng)
    t_start = time.perf_counter()
    t = validate_triple(*triple)
    t_valid = time.perf_counter()
    certs, trace = least_multiples_all(t)
    t_walk = time.perf_counter()
    result = assemble_result(t, certs)
    t_end = time.perf_counter()
    assert result.f_pos > result.g  # certificates stay live during benchmarking
    digest = "|".join(_digest(n, config.digits) for n in triple)
    return BenchRecord(
        sample_index=index,
        digits=config.digits,
        steps=trace.n_steps,
        walk_ms=(t_walk - t_valid) * 1e3,
        assemble_ms=(t_end - t_walk) * 1e3,
        total_ms=(t_end - t_start) * 1e3,
        triple_digest=digest,
        triple=triple,
        iterations=trace.iterations,
    )


def run_bench(config: BenchConfig) -> BenchReport:
    report = BenchReport(config=config)
    for i in range(config.samples):
        report.records.append(run_sample(config, i))
    if config.output_path:
        write_csv(report, config.output_path)
    return report


def write_csv(report: BenchReport, path: str) -> None:
    columns = list(CSV_COLUMNS)
    if report.config.dump_full_values:
        columns.append("triple")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in report.records:
            row = [r.sample_index, r.digits, r.steps,
                   f"{r.walk_ms:.3f}", f"{r.assemble_ms:.3f}", f"{r.total_ms:.3f}",
                   r.triple_digest, r.iterations]
            if report.config.dump_full_values:
                row.append(";".join(str(n) for n in r.triple))
            writer.writerow(row)


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
