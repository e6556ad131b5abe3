import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from frobenius3 import cli
from frobenius3.bench import BenchConfig, run_bench
from frobenius3.cli import build_parser, main, parse_bigint
from frobenius3.errors import InvalidInputError
from frobenius3.solver import frobenius, result_to_json
from frobenius3.walk import WalkInput, find_least_multiple, trace_to_json


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

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", "7523", "8231", "9533", "--json")
        assert code == 0
        doc = json.loads(out)
        assert int(doc["g"]) == 1547194
        assert doc["g"].isdigit()  # decimal string, not a float

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

    def test_m_equals_one(self, capsys):
        code, out, _ = run(capsys, "least-multiple", "12", "--pair", "5", "7")
        assert code == 0
        assert "1·12 = 1·5 + 1·7" in out

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
        doc = json.loads(out)
        rows = doc["trace"]["rows"]
        assert [r["k"] for r in rows] == [None, "2", "2", "3", "2", "2", "5"]
        assert [r["p"] for r in rows] == ["7001", "4469", "1937", "1342", "747", "152", "13"]
        assert doc["certificate"]["m"] == "64"

    def test_non_coprime_exit_2(self, capsys):
        code, _, _ = run(capsys, "least-multiple", "10", "--pair", "4", "6")
        assert code == 2

    def test_pair_order_does_not_matter(self, capsys):
        # the pair is printed, serialized and walked in ascending order whichever order is given
        for target, x, y in (("8231", "9533", "7523"), ("11", "3", "2")):
            for flags in ((), ("--json",), ("--trace",), ("--trace", "--json")):
                given = run(capsys, "least-multiple", target, "--pair", x, y, *flags)
                ascending = run(capsys, "least-multiple", target, "--pair", y, x, *flags)
                assert given == ascending and given[0] == 0, (target, flags)


class TestVerify:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "15")
        assert code == 0
        assert "OK" in out

    def test_rejects_small_max(self, capsys):
        code, _, _ = run(capsys, "verify", "--max", "9")
        assert code == 1


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

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "bench", "--digits", "2", "--samples", "3",
                           "--seed", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 3


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

    def test_compute_literal_line(self, capsys):
        code, out, _ = run(capsys, "compute", "3", "5", "7", "--json")
        assert code == 0
        assert out == (
            '{"input": ["3", "5", "7"], "g": "4", "f_pos": "19", "candidate_A": "19", '
            '"candidate_B": "17", "degenerate_member": null, "certificates": ['
            '{"target": "3", "m": "4", "u": "1", "w": "1", "pair": ["5", "7"]}, '
            '{"target": "5", "m": "2", "u": "1", "w": "1", "pair": ["3", "7"]}, '
            '{"target": "7", "m": "2", "u": "3", "w": "1", "pair": ["3", "5"]}], '
            '"decompositions": ['
            '{"generator": "3", "multiplier": "4", "partner": "7", "partner_coeff": "1"}, '
            '{"generator": "5", "multiplier": "2", "partner": "3", "partner_coeff": "3"}, '
            '{"generator": "7", "multiplier": "2", "partner": "5", "partner_coeff": "1"}]}\n')


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
    # every frob3 process pays for these; only frob3 bench needs the harness
    UNNEEDED = ("dataclasses", "inspect", "typing", "frobenius3.bench", "statistics", "csv")

    def test_cli_import_skips_unneeded_modules(self):
        # -S: no site-packages .pth file may preload a module and hide the package's own import
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import frobenius3.cli; "
                f"print(' '.join(m for m in {self.UNNEEDED!r} if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-S", "-I", "-c", code, src],
                              capture_output=True, text=True, check=True, timeout=60)
        assert proc.stdout.split() == []
