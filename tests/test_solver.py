import builtins
import importlib
import itertools
import math
import random

import pytest

import frobenius3
from frobenius3 import solver
from frobenius3.bench import random_coprime_triple
from frobenius3.errors import InvalidInputError, InvariantViolation, NotPairwiseCoprimeError
from frobenius3.oracle import oracle_frobenius, oracle_least_multiple, oracle_representable
from frobenius3.solver import (
    assemble_result,
    frobenius,
    least_multiples_all,
    validate_triple,
)
from frobenius3.walk import MultipleCertificate, WalkInput
from support import certificates, coprime_triples, crt, pairwise_coprime


class TestCrtHelper:
    # the reference the candidates are checked against, itself checked by a scan
    @pytest.mark.parametrize("moduli", [(3, 5, 7), (4, 5, 9), (2, 9, 25), (8, 7, 11)])
    def test_matches_brute_force_scan(self, moduli):
        # x -> (x mod m1, x mod m2, x mod m3) hits every residue triple once on [0, M)
        solutions = {tuple(x % m for m in moduli): x for x in range(math.prod(moduli))}
        assert len(solutions) == math.prod(moduli)
        for residues, x in solutions.items():
            assert crt(residues, moduli) == x


class TestValidateTriple:
    def test_sorts(self):
        t = validate_triple(7, 5, 3)
        assert t.generators == (3, 5, 7)
        assert t.degenerate is False

    def test_degenerate_matches_definition(self):
        # degenerate exactly when a3 = u*a1 + w*a2 with u, w >= 1, on every triple up to 60
        triples = 0
        for a1, a2, a3 in coprime_triples(60):
            want = any((a3 - u * a1) % a2 == 0 for u in range(1, (a3 - a2) // a1 + 1))
            assert validate_triple(a3, a1, a2).degenerate is want, (a1, a2, a3)
            triples += 1
        assert triples == 9245

    @pytest.mark.parametrize("digits, count", [(100, 60), (1000, 20), (3000, 12)])
    def test_degenerate_matches_mod_a2_reference(self, digits, count):
        # near-degenerate a3 = u*a1 + w*a2 + delta, delta in {-1, 0, 1}, below a1*a2; the
        # reference is Sylvester's criterion taken mod a2: the least u >= 1 with
        # u*a1 = a3 (mod a2), and a3 - u*a1 >= a2
        rng = random.Random(digits)
        outcomes = set()
        for delta in (-1, 0, 1):
            triples = 0
            while triples < count:
                a1, a2 = sorted(rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(2))
                u = rng.choice((1, rng.randrange(1, a2 // 2)))
                w = rng.choice((1, rng.randrange(1, a1 // 2)))
                a3 = u * a1 + w * a2 + delta
                if not pairwise_coprime((a1, a2, a3)):
                    continue
                want = a3 >= a1 + a2 and a3 - a3 * pow(a1, -1, a2) % a2 * a1 >= a2
                assert validate_triple(a2, a3, a1).degenerate is want, (a1, a2, a3)
                outcomes.add((delta, want))
                triples += 1
        assert outcomes == {(-1, False), (-1, True), (0, True), (1, False), (1, True)}

    def test_non_coprime_names_pair(self):
        with pytest.raises(NotPairwiseCoprimeError) as exc:
            validate_triple(4, 6, 9)
        assert exc.value.pair == (4, 6)


class TestGeneratorCheck:
    def test_matches_brute_force_definition(self):
        # every tuple over 0..12: raise exactly when the contract is broken, with the same type
        def expected(values):
            if any(v < 2 for v in values):
                return InvalidInputError
            if any(any(x % d == 0 and y % d == 0 for d in range(2, min(x, y) + 1))
                   for x, y in itertools.combinations(values, 2)):
                return NotPairwiseCoprimeError
            return None

        def raised(call, *args):
            try:
                call(*args)
            except InvalidInputError as exc:
                return type(exc)
            return None

        for b, a, c in itertools.product(range(13), repeat=3):
            want = expected((b, a, c))
            assert raised(WalkInput, b, a, c) is want, (b, a, c)
            assert raised(validate_triple, b, a, c) is want, (b, a, c)


class TestLeastMultiplesAll:
    def test_degenerate_rejected(self):
        with pytest.raises(InvalidInputError):
            least_multiples_all(validate_triple(3, 5, 8))


class TestCongruenceSystems:
    # each candidate solves its cyclic system: A puts L1, L2, L3 mod a3, a1, a2; B mod a2, a3, a1
    @staticmethod
    def crt_candidates(r):
        # the reference: crt of A (L1, L2, L3 mod a3, a1, a2) and B (mod a2, a3, a1)
        values = [c.value for c in r.certificates]
        return tuple(crt(values, moduli) for moduli in ((r.a3, r.a1, r.a2), (r.a2, r.a3, r.a1)))

    def test_candidates_equal_crt_small(self):
        checked = 0
        for triple in coprime_triples(30):
            r = frobenius(*triple)
            if not r.degenerate:
                assert (r.candidate_a, r.candidate_b) == self.crt_candidates(r)
                checked += 1
        assert checked == 732

    @pytest.mark.parametrize("digits", [100, 1000])
    def test_candidates_equal_crt_large(self, digits):
        rng = random.Random(8)
        for _ in range(3):
            a1, a2, a3 = random_coprime_triple(digits, rng).generators
            r = frobenius(a1, a2, a3)
            assert (r.candidate_a, r.candidate_b) == self.crt_candidates(r)
            # Davison 1994 bounds g below; g(a1, a2) = a1*a2 - a1 - a2 (Sylvester) bounds it above
            assert math.isqrt(3 * a1 * a2 * a3) - a1 - a2 - a3 <= r.g <= a1 * a2 - a1 - a2

    def test_non_least_certificate_rejected(self):
        # (m + pair_a, u + target, w) keeps the identity but is not least; a CRT of the
        # three residues accepts it and gives a wrong f_pos
        for triple in ((7523, 8231, 9533), (3, 5, 7)):
            t = validate_triple(*triple)
            certs, _ = least_multiples_all(t)
            for pos, c in enumerate(certs):
                m, u, w, target, x, y = c
                for bad in (MultipleCertificate(m + x, u + target, w, target, x, y),
                            MultipleCertificate(m + y, u, w + target, target, x, y)):
                    tampered = certs[:pos] + (bad,) + certs[pos + 1:]
                    with pytest.raises(InvariantViolation):
                        assemble_result(t, tampered)


class TestMinimalityCheck:
    def test_only_least_multiples_pass(self):
        # every combination of certificates with m <= 2*a3 (84,798 for the 11 triples with
        # a3 <= 10); the check must accept only the least multiples.  Some combinations pass
        # Herzog's relations and only the minors reject them: for (3, 4, 5), m = (3, 4, 3)
        # with (u, w) = (1, 1), (2, 2), (1, 3) has minors (6, 8, 10)
        triples = 0
        for a1, a2, a3 in coprime_triples(10):
            t = validate_triple(a1, a2, a3)
            if t.degenerate:
                continue
            roles = ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2))
            least = tuple(oracle_least_multiple(b, (x, y)).m for b, x, y in roles)
            candidates = [list(itertools.takewhile(lambda c: c.m <= 2 * a3, certificates(*role)))
                          for role in roles]
            accepted = []
            for certs in itertools.product(*candidates):
                try:
                    assemble_result(t, certs)
                except InvariantViolation:
                    continue
                accepted.append(tuple(c.m for c in certs))
            assert accepted == [least], (a1, a2, a3)
            triples += 1
        assert triples == 11

    def test_positivity_clause(self):
        # a basis change of (3, 5, 7)'s least relations: the identities, Herzog's relations
        # and the minors all hold, and only u1 = -1 breaks a clause
        t = validate_triple(3, 5, 7)
        c2 = least_multiples_all(t)[0][1]
        certs = (MultipleCertificate(3, -1, 2, 3, 5, 7), c2, MultipleCertificate(3, 2, 3, 7, 3, 5))
        with pytest.raises(InvariantViolation):
            assemble_result(t, certs)

    def test_roles_clause(self):
        # the least multiple of 3 with its pair swapped: the same numbers, the wrong claim
        t = validate_triple(3, 5, 7)
        certs, _ = least_multiples_all(t)
        with pytest.raises(InvariantViolation):
            assemble_result(t, (certs[0]._replace(pair_a=7, pair_c=5),) + certs[1:])


class TestFrobenius:
    def test_degenerate_reduction(self):
        # a3 = a1 + a2: Sylvester's pair formula and no certificates, also past criterion 1's
        # range, where the oracle confirms the small triples
        for a1, a2 in ((3, 5), (7523, 9533)):
            r = frobenius(a1, a2, a1 + a2)
            assert (r.g, r.degenerate_member, r.certificates) == (a1 * a2 - a1 - a2, 2, None)

    def test_validation_passthrough(self):
        with pytest.raises(NotPairwiseCoprimeError):
            frobenius(4, 6, 9)

    def test_one_walk_per_triple(self, monkeypatch):
        calls = []
        walk = solver.find_least_multiple
        monkeypatch.setattr(solver, "find_least_multiple",
                            lambda inp, inv_c: calls.append(inp) or walk(inp, inv_c))
        for triple, walks in (((3, 5, 7), 1), ((3, 5, 8), 0), ((7523, 8231, 9533), 1),
                              ((100003, 100004, 100005), 1)):
            calls.clear()
            frobenius(*triple)
            assert len(calls) == walks, triple

    @pytest.mark.parametrize("digits", [100, 1000])
    def test_one_inverse_per_triple(self, monkeypatch, digits):
        # z = (a2*a3)^-1 mod a1 decides degeneracy and starts the walk, also when
        # a3 >= a1 + a2 (the case with a degeneracy test to run) and on a degenerate triple
        inverses = []

        def counted(x, e, m=None):
            inverses.append(e)
            return builtins.pow(x, e, m)

        for name in ("solver", "walk"):
            monkeypatch.setattr(f"frobenius3.{name}.pow", counted, raising=False)
        rng = random.Random(digits)
        lo = 10 ** (digits - 1)
        triples = []
        while len(triples) < 4:
            a1, a2 = (rng.randrange(lo, 4 * lo) for _ in range(2))
            a3 = rng.randrange(a1 + a2, 10 ** digits)
            if len(triples) == 3:  # degenerate: 1*a1 + 1*a2
                a3 = a1 + a2
            if pairwise_coprime((a1, a2, a3)):
                triples.append((a1, a2, a3))
        for triple in triples:
            inverses.clear()
            assert frobenius(*triple).degenerate is (triple == triples[-1])
            assert inverses == [-1], triple

    def test_generators_checked_once(self, monkeypatch):
        calls = []
        check = frobenius3.errors.check_generators

        def counted(*values):
            calls.append(values)
            check(*values)

        for name in ("errors", "oracle", "solver", "walk"):
            monkeypatch.setattr(f"frobenius3.{name}.check_generators", counted)
        frobenius(7523, 8231, 9533)
        assert calls == [(7523, 8231, 9533)]
        calls.clear()
        oracle_frobenius((3, 5, 7))
        assert calls == [(3, 5, 7)]
        calls.clear()
        # 20 >= a1 = 3, so the table is built from the generators checked before the shortcut
        assert oracle_representable(20, (3, 5, 7))
        assert calls == [(3, 5, 7)]


class TestRecordTypes:
    @pytest.mark.parametrize("kind, field", [("certificate", "m"), ("trace", "n_steps"),
                                             ("result", "g")])
    def test_read_only(self, kind, field):
        certs, trace = least_multiples_all(validate_triple(3, 5, 7))
        record = {"certificate": certs[0], "trace": trace, "result": frobenius(3, 5, 7)}[kind]
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_unpack_in_field_order(self):
        (c1, _, _), trace = least_multiples_all(validate_triple(3, 5, 7))
        assert c1 == (c1.m, c1.u, c1.w, 3, 5, 7)
        assert trace.input == (5, 3, 7)
        assert frobenius(3, 5, 7)[:5] == (3, 5, 7, 4, 19)


class TestClosedForms:
    def test_roberts_progressions(self):
        # Roberts 1956 closed form for (a, a+d, a+2d), checked beyond the oracle's range
        checked = 0
        progressions = [(a, d) for a in range(5, 2002, 2) for d in {1, 2, a // 3}]
        progressions += [(10**29 + 3, 98765), (10**99 + 1, (10**99 + 1) // 3)]
        for a, d in progressions:
            if math.gcd(a, d) != 1:
                continue
            want = ((a - 2) // 2 + 1) * a + (d - 1) * (a - 1) - 1
            assert frobenius(a, a + d, a + 2 * d).g == want
            checked += 1
        assert checked == 2664


class TestPackageExports:
    def test_all_resolves(self):
        names = frobenius3.__all__
        assert len(names) == len(set(names))
        assert all(hasattr(frobenius3, name) for name in names)
        namespace = {}
        exec("from frobenius3 import *", namespace)
        assert set(names) <= set(namespace)

    def test_benchmark_layers_import(self):
        # perfbench/spans.py imports each module in its traced LAYERS; modarith stays, with
        # no code, until ROADMAP item 1 drops it from that list
        for layer in ("cli", "solver", "walk", "modarith", "oracle"):
            importlib.import_module(f"frobenius3.{layer}")
        assert [n for n in vars(frobenius3.modarith) if not n.startswith("__")] == []

    @pytest.mark.parametrize("name", ["Congruence", "crt_combine", "TripleGenerationError"])
    def test_deleted_names_not_exported(self, name):
        assert name not in frobenius3.__all__
        with pytest.raises(ImportError):
            exec(f"from frobenius3 import {name}", {})
