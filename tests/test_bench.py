import csv
import random

import pytest

from frobenius3 import bench
from frobenius3.bench import (
    CSV_COLUMNS,
    BenchConfig,
    random_coprime_triple,
    run_bench,
    summary_text,
    write_csv,
)
from frobenius3.errors import InvalidInputError
from frobenius3.solver import validate_triple
from support import pairwise_coprime, positive_representable


class TestRandomCoprimeTriple:
    def test_pairwise_coprime_and_nondegenerate(self):
        for i in range(30):
            a1, a2, a3 = random_coprime_triple(3, random.Random(i)).generators
            assert pairwise_coprime((a1, a2, a3))
            assert not positive_representable(a3, (a1, a2))

    def test_digit_count(self):
        for digits in (2, 10, 1000):
            triple = random_coprime_triple(digits, random.Random(0))
            assert all(len(str(n)) == digits for n in triple.generators)


class TestBenchConfig:
    def test_validation(self):
        assert BenchConfig(digits=2, samples=1, seed=0) == (2, 1, 0)
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
        write_csv(run_bench(BenchConfig(digits=3, samples=8, seed=9)), str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS == [
            "sample_index", "digits", "steps", "walk_ms", "assemble_ms", "total_ms",
            "triple_digest", "iterations"]
        # every cell but the three times is fixed by (digits, samples, seed)
        assert [r[:3] + r[6:] for r in rows[1:]] == [
            ["0", "3", "3", "139|747|961", "2"],
            ["1", "3", "13", "337|945|949", "2"],
            ["2", "3", "9", "471|929|971", "3"],
            ["3", "3", "5", "159|335|799", "4"],
            ["4", "3", "5", "101|215|993", "3"],
            ["5", "3", "4", "475|563|713", "4"],
            ["6", "3", "2", "395|421|721", "2"],
            ["7", "3", "11", "391|641|991", "1"],
        ]
        for r in rows[1:]:
            walk_ms, assemble_ms, total_ms = map(float, r[3:6])
            assert abs(walk_ms + assemble_ms - total_ms) <= 0.002
        # from 17 digits each generator is shortened to its first and last 8 digits
        write_csv(run_bench(BenchConfig(digits=17, samples=1, seed=9)), str(path))
        with open(path) as fh:
            digest = list(csv.reader(fh))[1][6]
        triple = random_coprime_triple(17, random.Random("9:0")).generators
        assert digest == "|".join(f"{str(n)[:8]}..{str(n)[-8:]}(17d)" for n in triple)

    def test_sample_validates_once(self, monkeypatch):
        # the drawn triple is already validated; run_sample times its walk and assembly only
        drawn = validate_triple(7523, 8231, 9533)
        monkeypatch.setattr(bench, "random_coprime_triple", lambda digits, rng: drawn)
        monkeypatch.setattr(bench, "validate_triple", None)
        rec = bench.run_sample(BenchConfig(digits=4, samples=1, seed=0), 0)
        assert rec.triple == drawn.generators
