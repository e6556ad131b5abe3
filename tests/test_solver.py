import importlib
import itertools
import json
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
    result_to_json,
    validate_triple,
)
from frobenius3.walk import MultipleCertificate, WalkInput


def crt(residues, moduli):
    """Least x >= 0 with x = r (mod m) for each (r, m); the moduli pairwise coprime."""
    modulus = math.prod(moduli)
    return sum(r * (modulus // m) * pow(modulus // m, -1, m)
               for r, m in zip(residues, moduli)) % modulus


class TestCrtHelper:
    # the reference the candidates are checked against, itself checked by a scan
    @pytest.mark.parametrize("moduli", [(3, 5, 7), (4, 5, 9), (2, 9, 25), (8, 7, 11)])
    def test_matches_brute_force_scan(self, moduli):
        # x -> (x mod m1, x mod m2, x mod m3) hits every residue triple once on [0, M)
        solutions = {tuple(x % m for m in moduli): x for x in range(math.prod(moduli))}
        assert len(solutions) == math.prod(moduli)
        for residues, x in solutions.items():
            assert crt(residues, moduli) == x


def assert_davison_sylvester(r):
    # Davison 1994 bounds g below; g(a1, a2) = a1*a2 - a1 - a2 (Sylvester) bounds it above
    a1, a2, a3 = r.a1, r.a2, r.a3
    assert math.isqrt(3 * a1 * a2 * a3) - a1 - a2 - a3 <= r.g <= a1 * a2 - a1 - a2


class TestValidateTriple:
    def test_sorts(self):
        t = validate_triple(7, 5, 3)
        assert t.generators == (3, 5, 7)
        assert t.degenerate_member is None

    def test_degenerate(self):
        t = validate_triple(3, 5, 8)
        assert t.degenerate_member == 2  # 8 = 3 + 5

    def test_degenerate_matches_definition(self):
        # degenerate exactly when a3 = u*a1 + w*a2 with u, w >= 1, on every triple up to 60
        triples = 0
        for a1, a2, a3 in itertools.combinations(range(2, 61), 3):
            if math.gcd(a1, a2) != 1 or math.gcd(a1, a3) != 1 or math.gcd(a2, a3) != 1:
                continue
            want = any((a3 - u * a1) % a2 == 0 for u in range(1, (a3 - a2) // a1 + 1))
            assert validate_triple(a3, a1, a2).degenerate is want, (a1, a2, a3)
            triples += 1
        assert triples == 9245
        assert validate_triple(5, 7, 12).degenerate  # 12 = 5 + 7
        assert not validate_triple(5, 7, 11).degenerate

    def test_non_coprime_names_pair(self):
        with pytest.raises(NotPairwiseCoprimeError) as exc:
            validate_triple(4, 6, 9)
        assert exc.value.pair == (4, 6)

    def test_rejects_one(self):
        with pytest.raises(InvalidInputError):
            validate_triple(1, 3, 5)

    def test_rejects_duplicates(self):
        # two equal values >= 2 share themselves as a factor
        with pytest.raises(NotPairwiseCoprimeError) as exc:
            validate_triple(3, 3, 5)
        assert exc.value.pair == (3, 3)

    def test_overall_gcd_one_but_pairwise_common_factor_rejected(self):
        with pytest.raises(NotPairwiseCoprimeError):
            validate_triple(6, 10, 15)


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


class TestPairFrobenius:
    # a degenerate triple (x, y, x + y) reduces to Sylvester's pair formula
    def test_examples(self):
        assert frobenius(3, 5, 8).g == 7
        assert frobenius(2, 3, 5).g == 1
        assert frobenius(7523, 9533, 7523 + 9533).g == 7523 * 9533 - 7523 - 9533

    def test_against_scan(self):
        # sieve to x*y confirms Sylvester's value for a couple of pairs
        for x, y in ((3, 5), (4, 9), (5, 7)):
            reachable = {0}
            for n in range(1, x * y + 1):
                if (n >= x and n - x in reachable) or (n >= y and n - y in reachable):
                    reachable.add(n)
            assert frobenius(x, y, x + y).g == max(set(range(x * y + 1)) - reachable)

    def test_non_coprime(self):
        with pytest.raises(NotPairwiseCoprimeError):
            frobenius(6, 9, 15)


class TestLeastMultiplesAll:
    def test_small_values(self):
        certs, trace = least_multiples_all(validate_triple(3, 5, 7))
        assert [c.value for c in certs] == [12, 10, 14]
        # the one walk, 5 over (3, 7): row 0 is (p, v, q) = (4, 1, 1), row 1 is (1, 2, -1)
        assert trace.input == WalkInput(b=5, a=3, c=7)
        assert (trace.n_steps, trace.penultimate) == (1, (4, 1, 1))
        certs, _ = least_multiples_all(validate_triple(5, 7, 9))
        assert [c.value for c in certs] == [25, 14, 27]

    def test_golden_triple(self):
        certs, _ = least_multiples_all(validate_triple(7523, 8231, 9533))
        assert certs[1].value == 64 * 8231

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidInputError):
            least_multiples_all(validate_triple(3, 5, 8))

    def test_role_convention(self):
        certs, _ = least_multiples_all(validate_triple(3, 5, 7))
        # smaller pair element takes the "a" role
        assert (certs[0].pair_a, certs[0].pair_c) == (5, 7)
        assert (certs[1].pair_a, certs[1].pair_c) == (3, 7)
        assert (certs[2].pair_a, certs[2].pair_c) == (3, 5)


class TestCongruenceSystems:
    # each candidate solves its cyclic system: A puts L1, L2, L3 mod a3, a1, a2; B mod a2, a3, a1
    def test_canonicalized_residues_357(self):
        r = frobenius(3, 5, 7)
        assert [c.value for c in r.certificates] == [12, 10, 14]
        assert [r.candidate_a % m for m in (7, 3, 5)] == [5, 1, 4]
        assert [r.candidate_b % m for m in (5, 7, 3)] == [2, 3, 2]

    def test_canonicalized_residues_579(self):
        r = frobenius(5, 7, 9)
        assert [c.value for c in r.certificates] == [25, 14, 27]
        assert [r.candidate_a % m for m in (9, 5, 7)] == [7, 4, 6]

    @staticmethod
    def crt_candidates(r):
        # the reference: crt of A (L1, L2, L3 mod a3, a1, a2) and B (mod a2, a3, a1)
        values = [c.value for c in r.certificates]
        return tuple(crt(values, moduli) for moduli in ((r.a3, r.a1, r.a2), (r.a2, r.a3, r.a1)))

    def test_candidates_equal_crt_small(self):
        checked = 0
        for a3 in range(4, 31):
            for a2 in range(3, a3):
                for a1 in range(2, a2):
                    if math.gcd(a1, a2) * math.gcd(a1, a3) * math.gcd(a2, a3) != 1:
                        continue
                    r = frobenius(a1, a2, a3)
                    if r.degenerate:
                        continue
                    assert (r.candidate_a, r.candidate_b) == self.crt_candidates(r)
                    checked += 1
        assert checked == 732

    @pytest.mark.parametrize("digits", [100, 1000])
    def test_candidates_equal_crt_large(self, digits):
        rng = random.Random(8)
        for _ in range(3):
            r = frobenius(*random_coprime_triple(digits, rng).generators)
            assert (r.candidate_a, r.candidate_b) == self.crt_candidates(r)
            assert_davison_sylvester(r)

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
    @staticmethod
    def all_certificates(target, x, y, m_max):
        """Every (m, u, w) with m*target = u*x + w*y, u, w >= 1 and m <= m_max, by search."""
        return [MultipleCertificate(m, u, (m * target - u * x) // y, target, x, y)
                for m in range(1, m_max + 1)
                for u in range(1, (m * target - y) // x + 1)
                if (m * target - u * x) % y == 0]

    def test_only_least_multiples_pass(self):
        # every combination of certificates with m <= 2*a3 (84,798 for the 11 triples with
        # a3 <= 10); the check must accept only the least multiples.  Some combinations pass
        # Herzog's relations and only the minors reject them: for (3, 4, 5), m = (3, 4, 3)
        # with (u, w) = (1, 1), (2, 2), (1, 3) has minors (6, 8, 10)
        triples = 0
        for a3 in range(4, 11):
            for a1, a2 in itertools.combinations(range(2, a3), 2):
                if math.gcd(a1, a2) * math.gcd(a1, a3) * math.gcd(a2, a3) != 1:
                    continue
                t = validate_triple(a1, a2, a3)
                if t.degenerate:
                    continue
                roles = ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2))
                least = tuple(oracle_least_multiple(b, (x, y)).m for b, x, y in roles)
                candidates = [self.all_certificates(b, x, y, 2 * a3) for b, x, y in roles]
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


class TestFrobenius:
    def test_357(self):
        r = frobenius(3, 5, 7)
        assert (r.g, r.f_pos) == (4, 19)
        assert (r.candidate_a, r.candidate_b) == (19, 17)

    def test_579(self):
        r = frobenius(5, 7, 9)
        assert r.g == 13
        assert (r.candidate_a, r.candidate_b) == (34, 32)

    def test_degenerate_reduction(self):
        r = frobenius(3, 5, 8)
        assert r.g == 7
        assert r.degenerate_member == 2
        assert r.certificates is None
        # the oracle's table over <3,5,8> confirms the reduction
        assert oracle_frobenius((3, 5, 8)) == 7

    def test_degenerate_235(self):
        r = frobenius(2, 3, 5)
        assert r.g == 1

    def test_order_independent(self):
        assert frobenius(7, 3, 5).g == frobenius(3, 5, 7).g

    def test_convention_bridge(self):
        for triple in ((3, 5, 7), (5, 7, 9), (3, 5, 8), (11, 13, 17)):
            r = frobenius(*triple)
            assert r.f_pos - r.g == sum(triple)

    def test_validation_passthrough(self):
        with pytest.raises(NotPairwiseCoprimeError):
            frobenius(4, 6, 9)

    def test_one_walk_per_triple(self, monkeypatch):
        calls = []
        walk = solver.find_least_multiple
        monkeypatch.setattr(solver, "find_least_multiple", lambda inp: calls.append(inp) or walk(inp))
        for triple, walks in (((3, 5, 7), 1), ((3, 5, 8), 0), ((7523, 8231, 9533), 1),
                              ((100003, 100004, 100005), 1)):
            calls.clear()
            frobenius(*triple)
            assert len(calls) == walks, triple


class TestResultProperties:
    def test_random_small_triples_full_invariants(self):
        rng = random.Random(424242)
        checked = 0
        while checked < 200:
            vals = sorted(rng.sample(range(2, 61), 3))
            a1, a2, a3 = vals
            if math.gcd(a1, a2) != 1 or math.gcd(a1, a3) != 1 or math.gcd(a2, a3) != 1:
                continue
            r = frobenius(a1, a2, a3)
            assert r.f_pos - r.g == a1 + a2 + a3
            assert r.f_pos > a1 + a2 + a3
            assert_davison_sylvester(r)
            if r.degenerate:
                checked += 1
                continue
            assert r.f_pos == max(r.candidate_a, r.candidate_b)
            assert 0 <= r.candidate_a < a1 * a2 * a3
            assert 0 <= r.candidate_b < a1 * a2 * a3
            for d in r.decompositions:
                assert d.multiplier >= 1 and d.partner_coeff >= 1
                assert r.f_pos == d.multiplier * d.generator + d.partner_coeff * d.partner
            # f_pos itself is a gap; adding any generator fills it
            assert not oracle_representable(r.f_pos, vals, "positive")
            for g in vals:
                assert oracle_representable(r.f_pos + g, vals, "positive")
            checked += 1


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


class TestJsonSerialization:
    def test_round_trip(self):
        r = frobenius(7523, 8231, 9533)
        doc = json.loads(json.dumps(result_to_json(r)))
        assert int(doc["g"]) == r.g
        assert int(doc["f_pos"]) == r.f_pos
        assert doc["input"] == ["7523", "8231", "9533"]
        assert len(doc["certificates"]) == 3
        for c in doc["certificates"]:
            assert (int(c["m"]) * int(c["target"])
                    == int(c["u"]) * int(c["pair"][0]) + int(c["w"]) * int(c["pair"][1]))

    def test_degenerate_shape(self):
        doc = result_to_json(frobenius(3, 5, 8))
        assert doc["certificates"] is None
        assert doc["candidate_A"] is None
        assert doc["degenerate_member"] == 2


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
