import itertools

import pytest

from frobenius3.errors import InvalidInputError, OracleBoundExceeded
from frobenius3.oracle import (
    build_sieve,
    oracle_frobenius,
    oracle_least_multiple,
    oracle_representable,
)


class TestSieve:
    def test_self_consistency(self):
        gens = (4, 7, 9)
        table = build_sieve(gens, 200)
        assert table[0] == 1
        for n in range(201):
            if table[n]:
                for g in gens:
                    if n + g <= 200:
                        assert table[n + g]

    def test_matches_definition(self):
        for gens, bound in (((3, 5, 7), 60), ((3, 5, 7), 0), ((4, 7, 9), 8), ((2, 3), 20),
                            ((6, 10, 15), 100), ((7,), 30), ((11, 13, 17), 5)):
            table = build_sieve(gens, bound)
            assert len(table) == bound + 1
            for n in range(bound + 1):
                expected = n == 0 or any(n >= g and table[n - g] for g in gens)
                assert bool(table[n]) == expected


class TestOracleFrobenius:
    def test_examples(self):
        assert oracle_frobenius((3, 5, 7)) == 4
        assert oracle_frobenius((3, 5, 7), "positive") == 19
        assert oracle_frobenius((5, 7, 9)) == 13

    def test_gaps_357(self):
        table = build_sieve((3, 5, 7), 20)
        gaps = [n for n in range(21) if not table[n]]
        assert gaps == [1, 2, 4]

    def test_order_independence(self):
        for perm in itertools.permutations((5, 7, 9)):
            assert oracle_frobenius(perm) == 13

    def test_guard(self):
        with pytest.raises(OracleBoundExceeded):
            oracle_frobenius((10**9 + 7, 10**9 + 9, 10**9 + 21))

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidInputError):
            oracle_frobenius((4, 6, 9))

    def test_convention_shift(self):
        for triple in ((3, 5, 7), (5, 7, 9), (7, 9, 11)):
            assert (oracle_frobenius(triple, "positive")
                    == oracle_frobenius(triple) + sum(triple))


class TestOracleLeastMultiple:
    def test_examples(self):
        assert oracle_least_multiple(5, (3, 7)).m == 2
        assert oracle_least_multiple(3, (5, 7)).m == 4
        assert oracle_least_multiple(3, (5, 7)).value == 12

    def test_golden(self):
        cert = oracle_least_multiple(8231, (7523, 9533))
        assert (cert.m, cert.u, cert.w) == (64, 13, 45)

    def test_certificate_identity(self):
        cert = oracle_least_multiple(11, (6, 35))
        assert cert.m * 11 == cert.u * 6 + cert.w * 35
        assert cert.u >= 1 and cert.w >= 1


class TestOracleRepresentable:
    def test_examples(self):
        assert not oracle_representable(19, [3, 5, 7], "positive")
        assert oracle_representable(20, [3, 5, 7], "positive")  # 20 = 2*3 + 7 + 7
        assert oracle_representable(0, [3, 5, 7])

    def test_ordering_independence(self):
        for perm in itertools.permutations((3, 5, 7)):
            assert not oracle_representable(4, perm)
            assert oracle_representable(10, perm)

    def test_positive_vs_shift(self):
        gens = (3, 5, 7)
        total = sum(gens)
        for n in range(total, 60):
            assert (oracle_representable(n, gens, "positive")
                    == oracle_representable(n - total, gens))

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            oracle_representable(-1, (3, 5, 7))

    def test_unknown_convention(self):
        with pytest.raises(InvalidInputError):
            oracle_representable(5, (3, 5, 7), "weird")
