import itertools
import json
import multiprocessing
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frobenius3 import cli, solver, walk
from frobenius3.bench import BenchConfig, random_coprime_triple, run_bench
from frobenius3.cli import build_parser, main, parse_bigint
from frobenius3.errors import InvalidInputError, InvariantViolation
from frobenius3.oracle import MAX_MODULUS
from frobenius3.solver import frobenius, result_to_json
from frobenius3.walk import MultipleCertificate, WalkInput, find_least_multiple, trace_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseBigint:
    def test_accepts(self):
        assert parse_bigint("0") == 0
        assert parse_bigint("12345678901234567890") == 12345678901234567890

    def test_rejects(self):
        for bad in ("007", "-5", "+5", "1e3", "", "12.3", "²", "٣"):
            with pytest.raises(InvalidInputError):
                parse_bigint(bad)


class TestCompute:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "compute", "3", "5", "7")
        assert code == 0
        assert "g     = 4" in out
        assert "f_pos = 19" in out

    def test_non_coprime_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "4", "6", "9")
        assert code == 2
        assert "(4, 6)" in err

    def test_degenerate_note(self, capsys):
        code, out, _ = run(capsys, "compute", "3", "5", "8")
        assert code == 0
        assert "g     = 7" in out
        assert "positive combination" in out

    def test_certificate_output(self, capsys):
        code, out, _ = run(capsys, "compute", "3", "5", "7", "--certificate")
        assert code == 0
        assert "4·3 = 1·5 + 1·7" in out
        assert "decompositions" in out

    def test_bad_integer_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "03", "5", "7")
        assert code == 2
        for bad in ("²", "٣"):
            code, _, err = run(capsys, "compute", bad, "5", "7")
            assert code == 2
            assert "not a decimal integer" in err

    def test_over_4300_digits(self, capsys):
        big = "1" + "0" * 4399 + "1"
        code, out, _ = run(capsys, "compute", "3", "7", big)
        assert code == 0
        assert out.splitlines()[0] == f"input: 3 7 {big}"

    def test_long_progression(self, capsys):
        # Roberts' closed form gives g = 50001*100003 - 1; the walk of 100004 over
        # (100003, 100005) takes one step
        code, out, _ = run(capsys, "compute", "100003", "100004", "100005")
        assert code == 0
        assert "g     = 5000250002" in out


class TestLeastMultiple:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "least-multiple", "5", "--pair", "3", "7")
        assert code == 0
        assert "2·5 = 1·3 + 1·7" in out
        code, out, _ = run(capsys, "least-multiple", "11", "--pair", "2", "3")
        assert code == 0
        assert out == "1·11 = 1·2 + 3·3\n"

    def test_over_4300_digits(self, capsys):
        big = "1" + "0" * 4399 + "1"
        code, out, _ = run(capsys, "least-multiple", big, "--pair", "3", "7")
        assert code == 0
        # main lifted the interpreter's int/str digit limit, so int() reads u and w
        lhs, rhs = out.strip().split(" = ")
        m, target = map(int, lhs.split("·"))
        (u, x), (w, y) = (map(int, term.split("·")) for term in rhs.split(" + "))
        assert (target, x, y) == (10**4400 + 1, 3, 7)
        assert m * target == u * x + w * y

    def test_trace_golden_text(self, capsys):
        code, out, _ = run(capsys, "least-multiple", "8231",
                           "--pair", "7523", "9533", "--trace")
        assert code == 0
        assert out == (
            "step  k   v     p  (p*a-v*b)/c\n"
            "   0  -   1  7001         5524\n"
            "   1  2   2  4469         3525\n"
            "   2  2   3  1937         1526\n"
            "   3  3   7  1342         1053\n"
            "   4  2  11   747          580\n"
            "   5  2  15   152          107\n"
            "   6  5  64    13          -45\n"
            "v column: v_i = p_i·(p0⁻¹ mod c) mod c\n"
            "64·8231 = 13·7523 + 45·9533\n")

    def test_trace_golden_json(self, capsys):
        code, out, _ = run(capsys, "least-multiple", "8231",
                           "--pair", "7523", "9533", "--trace", "--json")
        assert code == 0
        doc = json.loads(out)
        trace = doc["trace"]
        assert (trace["t0"], trace["p0"], trace["inv_p0"]) == ("5524", "7001", "7338")
        assert trace["terminated"] is True
        rows = trace["rows"]
        assert [r["k"] for r in rows] == [None, "2", "2", "3", "2", "2", "5"]
        assert [r["p"] for r in rows] == ["7001", "4469", "1937", "1342", "747", "152", "13"]
        assert [r["v"] for r in rows] == ["1", "2", "3", "7", "11", "15", "64"]
        assert doc["certificate"]["m"] == "64"

    def test_non_coprime_exit_2(self, capsys):
        code, _, _ = run(capsys, "least-multiple", "10", "--pair", "4", "6")
        assert code == 2

    def test_over_budget_exit_3(self, capsys):
        # one k = 2 run of 1500 rows against a budget of 1,300 steps: one line, no traceback
        code, out, err = run(capsys, "least-multiple", "1501", "--pair", "1500", "3001")
        assert (code, out) == (3, "")
        assert err == ("step budget exceeded: "
                       "walk exceeded 1300 steps for (b=1501, a=1500, c=3001)\n")

    def test_pair_order_does_not_matter(self, capsys):
        # the pair is printed, serialized and walked in ascending order whichever order is given
        for target, x, y in (("8231", "9533", "7523"), ("11", "3", "2")):
            for flags in ((), ("--json",), ("--trace",), ("--trace", "--json")):
                given = run(capsys, "least-multiple", target, "--pair", x, y, *flags)
                ascending = run(capsys, "least-multiple", target, "--pair", y, x, *flags)
                assert given == ascending and given[0] == 0, (target, flags)


class TestVerify:
    def test_small_run(self, capsys):
        # 15 runs serially; acceptance criteria 1 and 2 pin the run at 60 in the worker pool,
        # where a slice dropped or read twice changes a count
        assert 15 < cli._POOL_MIN_MAX <= 60
        assert run(capsys, "verify", "--max", "15") == (
            0, "OK: 102 triples and 183 least-multiple cases match the oracle\n", "")

    def test_rejects_small_max(self, capsys):
        code, _, _ = run(capsys, "verify", "--max", "9")
        assert code == 1

    def test_rejects_max_above_oracle_guard(self, capsys, monkeypatch):
        # refused before the run, which would take years: a triple checked is a failure here
        def no_triples(limit, a1):
            raise AssertionError("verify started the run")

        monkeypatch.setattr(cli, "_iter_valid_triples", no_triples)
        code, out, err = run(capsys, "verify", "--max", str(MAX_MODULUS + 1))
        assert code == 1
        assert out == ""
        assert f"--max must be <= {MAX_MODULUS}" in err

    def test_frobenius_mismatch_exit_4(self, capsys, monkeypatch):
        # the first triple, (2, 3, 5), has g = 1
        monkeypatch.setattr(cli, "oracle_frobenius", lambda gens: 0)
        code, out, err = run(capsys, "verify", "--max", "10")
        assert code == 4
        assert out == "MISMATCH at (2,3,5): got g=1 f_pos=11, oracle g=0 f_pos=10\n"
        assert err == ""

    def test_least_multiple_mismatch_exit_4(self, capsys, monkeypatch):
        # the first non-degenerate triple is (3, 4, 5), and 3*3 = 4 + 5
        monkeypatch.setattr(cli, "oracle_least_multiple",
                            lambda target, pair: MultipleCertificate(1, 1, 1, target, *pair))
        code, out, err = run(capsys, "verify", "--max", "10")
        assert code == 4
        assert out == "MISMATCH least multiple of 3 over (4,5): got m=3, oracle m=1\n"
        assert err == ""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="one usable CPU: verify runs serially")
class TestVerifyWorkers:
    # each fault is planted in the worker processes only, so a serial run would print OK
    def test_first_mismatch_in_serial_order_exit_4(self, capsys, monkeypatch):
        # the slice at a1 = 3 stops at its first triple, long before the one at a1 = 2 reaches
        # its last, which waits; the serially first one is printed
        parent = os.getpid()
        oracle = cli.oracle_frobenius

        def wrong_in_workers(gens):
            if os.getpid() == parent or gens not in ((2, 37, 39), (3, 4, 5)):
                return oracle(gens)
            if gens == (2, 37, 39):
                time.sleep(0.2)
            return oracle(gens) - 1

        monkeypatch.setattr(cli, "oracle_frobenius", wrong_in_workers)
        assert run(capsys, "verify", "--max", "40") == (
            4, "MISMATCH at (2,37,39): got g=35 f_pos=113, oracle g=34 f_pos=112\n", "")
        assert multiprocessing.active_children() == []

    def test_invariant_violation_in_worker_exit_3(self, capsys, monkeypatch):
        parent = os.getpid()
        solve = cli.frobenius

        def broken_in_workers(*generators):
            if os.getpid() != parent and generators == (20, 21, 23):
                raise InvariantViolation("certificates are not the least multiples of (20, 21, 23)")
            return solve(*generators)

        monkeypatch.setattr(cli, "frobenius", broken_in_workers)
        assert run(capsys, "verify", "--max", "40") == (
            3, "", "internal invariant violation: "
                   "certificates are not the least multiples of (20, 21, 23)\n")
        assert multiprocessing.active_children() == []


class TestInvariantViolation:
    def test_exit_3(self, capsys, monkeypatch):
        def broken(*generators):
            raise InvariantViolation("certificates are not the least multiples of (3, 5, 7)")

        monkeypatch.setattr(cli, "frobenius", broken)
        code, out, err = run(capsys, "compute", "3", "5", "7")
        assert code == 3
        assert out == ""
        assert err == ("internal invariant violation: "
                       "certificates are not the least multiples of (3, 5, 7)\n")


class TestBench:
    def test_run_and_determinism(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", "--digits", "3", "--samples", "4",
                           "--seed", "42", "--csv", str(path))
        assert code == 0
        assert "samples=4" in out
        first = path.read_text().splitlines()
        code, _, _ = run(capsys, "bench", "--digits", "3", "--samples", "4",
                         "--seed", "42", "--csv", str(path))
        assert code == 0
        second = path.read_text().splitlines()
        assert len(first) == 5
        # sample, digits and step columns identical across reruns
        for r1, r2 in zip(first, second):
            assert r1.split(",")[:3] == r2.split(",")[:3]

    def test_digits_one_exit_1(self, capsys):
        code, _, _ = run(capsys, "bench", "--digits", "1", "--samples", "2")
        assert code == 1

    def test_full_values_removed_exit_1(self, capsys):
        # a row's triple is rebuilt from (digits, seed, sample_index); see README
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--digits", "3", "--samples", "2", "--full-values"])
        assert exc.value.code == 1

    def test_csv_into_missing_directory_exit_5(self, capsys, tmp_path):
        code, out, err = run(capsys, "bench", "--digits", "3", "--samples", "2",
                             "--csv", str(tmp_path / "missing" / "out.csv"))
        assert code == 5
        assert out == ""
        assert err.startswith("I/O error:")


class TestJsonOutput:
    # the contract is the document (keys, order, value types, values), printed on one line
    def one_document(self, capsys, *argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1, argv
        return json.loads(out)

    def assert_document(self, doc, expected):
        # dumping both again compares key order at every level, whatever the printed layout
        assert doc == expected and json.dumps(doc) == json.dumps(expected)

    def test_compute(self, capsys):
        for triple in ((7523, 8231, 9533), (3, 5, 8)):
            doc = self.one_document(capsys, "compute", *map(str, triple), "--json")
            self.assert_document(doc, result_to_json(frobenius(*triple)))

    def test_least_multiple(self, capsys):
        _, trace = find_least_multiple(WalkInput(b=8231, a=7523, c=9533))
        expected = {"certificate": {"target": "8231", "m": "64", "u": "13", "w": "45",
                                    "pair": ["7523", "9533"]}}
        argv = ("least-multiple", "8231", "--pair", "7523", "9533", "--json")
        self.assert_document(self.one_document(capsys, *argv), expected)
        expected["trace"] = trace_to_json(trace)
        self.assert_document(self.one_document(capsys, *argv, "--trace"), expected)

    def test_bench(self, capsys):
        doc = self.one_document(capsys, "bench", "--digits", "3", "--samples", "2",
                                "--seed", "1", "--json")
        expected = run_bench(BenchConfig(digits=3, samples=2, seed=1)).summary()
        # the mean time is measured afresh on each run; only its type can match
        assert isinstance(doc.pop("total_ms_mean"), float)
        del expected["total_ms_mean"]
        self.assert_document(doc, expected)

    def test_compute_converts_each_value_once(self, capsys, monkeypatch):
        # 15 distinct values: 3 generators, g, 2 candidates (f_pos is one) and 9 coefficients
        converted = []

        def counting_str(value):
            converted.append(value)
            return str(value)

        for module in (solver, walk):
            monkeypatch.setattr(module, "str", counting_str, raising=False)
        big = random_coprime_triple(100, random.Random(15)).generators
        for triple in ((3, 5, 7), (7523, 8231, 9533), big):
            converted.clear()
            self.one_document(capsys, "compute", *map(str, triple), "--json")
            assert len(converted) == 15, triple

    def test_compute_literal_line(self, capsys):
        # f_pos is candidate A for (3, 5, 7), candidate B for (4, 5, 7); (3, 5, 8) is degenerate
        literals = {
            ("3", "5", "7"):
            '{"input": ["3", "5", "7"], "g": "4", "f_pos": "19", "candidate_A": "19", '
            '"candidate_B": "17", "degenerate_member": null, "certificates": ['
            '{"target": "3", "m": "4", "u": "1", "w": "1", "pair": ["5", "7"]}, '
            '{"target": "5", "m": "2", "u": "1", "w": "1", "pair": ["3", "7"]}, '
            '{"target": "7", "m": "2", "u": "3", "w": "1", "pair": ["3", "5"]}], '
            '"decompositions": ['
            '{"generator": "3", "multiplier": "4", "partner": "7", "partner_coeff": "1"}, '
            '{"generator": "5", "multiplier": "2", "partner": "3", "partner_coeff": "3"}, '
            '{"generator": "7", "multiplier": "2", "partner": "5", "partner_coeff": "1"}]}\n',
            ("4", "5", "7"):
            '{"input": ["4", "5", "7"], "g": "6", "f_pos": "22", "candidate_A": "19", '
            '"candidate_B": "22", "degenerate_member": null, "certificates": ['
            '{"target": "4", "m": "3", "u": "1", "w": "1", "pair": ["5", "7"]}, '
            '{"target": "5", "m": "3", "u": "2", "w": "1", "pair": ["4", "7"]}, '
            '{"target": "7", "m": "2", "u": "1", "w": "2", "pair": ["4", "5"]}], '
            '"decompositions": ['
            '{"generator": "4", "multiplier": "3", "partner": "5", "partner_coeff": "2"}, '
            '{"generator": "5", "multiplier": "3", "partner": "7", "partner_coeff": "1"}, '
            '{"generator": "7", "multiplier": "2", "partner": "4", "partner_coeff": "2"}]}\n',
            ("3", "5", "8"):
            '{"input": ["3", "5", "8"], "g": "7", "f_pos": "23", "candidate_A": null, '
            '"candidate_B": null, "degenerate_member": 2, "certificates": null, '
            '"decompositions": null}\n',
        }
        for triple, line in literals.items():
            assert run(capsys, "compute", *triple, "--json") == (0, line, ""), triple


class TestUsage:
    def test_repeated_calls_share_one_parser(self, capsys):
        code, out, _ = run(capsys, "compute", "3", "5", "7", "--json")
        assert code == 0
        assert json.loads(out)["g"] == "4"
        code, out, _ = run(capsys, "compute", "3", "5", "7")
        assert code == 0
        assert out.startswith("input: 3 5 7\n")
        with pytest.raises(SystemExit) as exc:
            main(["compute", "3", "5"])
        assert exc.value.code == 1
        assert build_parser() is build_parser()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobulate"])
        assert exc.value.code == 1

    def test_missing_args(self, capsys):
        for argv in (["compute", "3", "5"], ["least-multiple", "5"], ["verify"],
                     ["bench", "--digits", "2"], ["compute", "3", "5", "7", "--trace"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1, argv


class TestExitCodeContract:
    # usage errors (exit 1) are TestUsage's, an unwritable --csv (exit 5) TestBench's
    TOKENS = ("1", "2", "3", "5", "6", "7", "12", "007", "-3", "٣", "x")

    def test_token_sweep_exits_0_or_2(self, capsys):
        # 1,331 token triples through four command shapes: 5,324 commands, none may raise
        for x, y, z in itertools.product(self.TOKENS, repeat=3):
            for argv in (["compute", x, y, z],
                         ["compute", x, y, z, "--json", "--certificate"],
                         ["least-multiple", x, "--pair", y, z, "--trace"],
                         ["least-multiple", x, "--pair", y, z, "--trace", "--json"]):
                assert main(argv) in (0, 2), argv
            capsys.readouterr()


class TestImportCost:
    # every frob3 process pays for these; only frob3 bench needs its harness, only verify its pool
    UNNEEDED = ("dataclasses", "inspect", "typing", "frobenius3.bench", "statistics", "csv",
                "concurrent.futures", "multiprocessing")

    def test_cli_import_skips_unneeded_modules(self):
        # -S: no site-packages .pth file may preload a module and hide the package's own import
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import frobenius3.cli; "
                f"print(' '.join(m for m in {self.UNNEEDED!r} if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-S", "-I", "-c", code, src],
                              capture_output=True, text=True, check=True, timeout=60)
        assert proc.stdout.split() == []
