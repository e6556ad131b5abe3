import csv
import math
import random

import pytest

from frobenius3.bench import (
    CSV_COLUMNS,
    BenchConfig,
    random_coprime_triple,
    run_bench,
    summary_text,
    write_csv,
)
from frobenius3.errors import InvalidInputError
from frobenius3.oracle import oracle_representable


class TestRandomCoprimeTriple:
    def test_deterministic(self):
        t1 = random_coprime_triple(2, random.Random("seed1"))
        t2 = random_coprime_triple(2, random.Random("seed1"))
        assert t1 == t2

    def test_pairwise_coprime_and_nondegenerate(self):
        for i in range(30):
            a1, a2, a3 = random_coprime_triple(3, random.Random(i))
            assert math.gcd(a1, a2) == math.gcd(a1, a3) == math.gcd(a2, a3) == 1
            assert not oracle_representable(a3, (a1, a2), "positive")

    def test_digit_count(self):
        for digits in (2, 10, 1000):
            triple = random_coprime_triple(digits, random.Random(0))
            assert all(len(str(n)) == digits for n in triple)

    def test_rejects_one_digit(self):
        with pytest.raises(InvalidInputError):
            random_coprime_triple(1, random.Random(0))


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            BenchConfig(digits=1, samples=5, seed=0)
        with pytest.raises(InvalidInputError):
            BenchConfig(digits=3, samples=0, seed=0)


class TestRunBench:
    def test_shape_and_determinism(self):
        cfg = BenchConfig(digits=3, samples=10, seed=7)
        r1 = run_bench(cfg)
        r2 = run_bench(cfg)
        assert len(r1.records) == 10
        assert all(1 <= rec.iterations <= rec.steps for rec in r1.records)
        assert ([rec.steps for rec in r1.records]
                == [rec.steps for rec in r2.records])
        assert ([rec.triple for rec in r1.records]
                == [rec.triple for rec in r2.records])

    def test_summary_fields(self):
        report = run_bench(BenchConfig(digits=3, samples=5, seed=1))
        s = report.summary()
        assert set(s["steps"]) == set(s["iterations"]) == {"mean", "median", "max"}
        assert s["steps"]["max"] >= s["steps"]["median"]
        text = summary_text(report)
        assert "digits=3" in text
        assert text.splitlines()[3].split()[0] == "iterations"

    def test_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        report = run_bench(BenchConfig(digits=3, samples=8, seed=9,
                                       output_path=str(path)))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 9  # header + one row per sample
        # rerun: step, digest and iteration columns are byte-identical, times may differ
        report2 = run_bench(BenchConfig(digits=3, samples=8, seed=9))
        write_csv(report2, str(tmp_path / "out2.csv"))
        with open(tmp_path / "out2.csv") as fh:
            rows2 = list(csv.reader(fh))
        counts = [r[:3] + r[6:] for r in rows]
        assert counts == [r[:3] + r[6:] for r in rows2]
        assert all(1 <= int(r[-1]) <= int(r[2]) for r in rows[1:])

    def test_full_values_flag(self, tmp_path):
        path = tmp_path / "full.csv"
        run_bench(BenchConfig(digits=2, samples=3, seed=4,
                              output_path=str(path), dump_full_values=True))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "triple"
        vals = rows[1][-1].split(";")
        assert len(vals) == 3 and all(v.isdigit() for v in vals)
