import itertools
import random

import pytest

from frobenius3.errors import InvalidInputError, NotPairwiseCoprimeError, OracleBoundExceeded
from frobenius3.oracle import (
    MAX_MODULUS,
    oracle_frobenius,
    oracle_least_multiple,
    oracle_representable,
    residue_table,
)
from frobenius3.solver import frobenius
from frobenius3.walk import WalkInput, find_least_multiple
from support import certificates, coprime_draws, pairwise_coprime


class TestResidueTable:
    def test_matches_definition(self):
        # bounds run past each set's largest gap
        for gens, bound in (((3, 5, 7), 60), ((3, 5, 7), 0), ((4, 7, 9), 200), ((2, 3), 20),
                            ((11, 13, 17), 150), ((5, 7, 9, 11), 60)):
            for n in range(bound + 1):
                expected = n == 0 or any(n >= g and oracle_representable(n - g, gens)
                                         for g in gens)
                assert oracle_representable(n, gens) == expected, (gens, n)


class TestOracleFrobenius:
    def test_order_independence(self):
        for perm in itertools.permutations((5, 7, 9)):
            assert oracle_frobenius(perm) == 13

    def test_guard(self):
        with pytest.raises(OracleBoundExceeded):
            oracle_frobenius((10**9 + 7, 10**9 + 9, 10**9 + 21))
        with pytest.raises(OracleBoundExceeded):
            oracle_frobenius((MAX_MODULUS + 1, MAX_MODULUS + 2, MAX_MODULUS + 3))
        # the pair product is 1e11, but the table has only a1 = 101 entries
        triple = (101, 10**9 + 7, 10**9 + 9)
        assert oracle_frobenius(triple) == 18000000037 == frobenius(*triple).g

    def test_matches_frobenius_with_large_pair(self):
        # 4- and 5-digit a1 with 100- to 1000-digit a2, a3: tables of 1e3 to 1e5 entries
        for seed, (a1_digits, digits) in enumerate(itertools.product((4, 5), (100, 300, 1000))):
            span = (10 ** (digits - 1), 10**digits)
            for triple in coprime_draws(random.Random(seed),
                                        (10 ** (a1_digits - 1), 10**a1_digits), span, span):
                res = frobenius(*triple)
                if not res.degenerate:
                    break
            assert oracle_frobenius(triple) == res.g, triple

    def test_rejects_non_coprime(self):
        # and any count of generators but three
        for gens in ((4, 6, 9), (3, 5), (3, 5, 7, 11)):
            with pytest.raises(InvalidInputError):
                oracle_frobenius(gens)


class TestOracleLeastMultiple:
    # invalid inputs are rejected as such, before the guard looks at the scan modulus
    @pytest.mark.parametrize("target, pair", [(4, (10**7, 10**7)), (1, (10**7, 10**7 + 1)),
                                              (5, (3, 7, 11))])
    def test_checks_inputs_before_guard(self, target, pair):
        with pytest.raises(InvalidInputError):
            oracle_least_multiple(target, pair)

    def test_matches_definition(self):
        # the first certificate of the definition's scan is the least multiple with its least u
        for b, x, y in itertools.product(range(2, 41), repeat=3):
            if x < y and pairwise_coprime((b, x, y)):
                cert = oracle_least_multiple(b, (x, y))
                assert cert == next(certificates(b, x, y)), (b, x, y)
                assert cert.m < y

    def test_guard(self):
        # a scan modulus y of exactly MAX_MODULUS is accepted, one above it is not
        cert = oracle_least_multiple(3, (7, MAX_MODULUS))
        assert cert.m == find_least_multiple(WalkInput(b=3, a=7, c=MAX_MODULUS))[0].m == 333338
        with pytest.raises(OracleBoundExceeded):
            oracle_least_multiple(3, (7, MAX_MODULUS + 1))

    def test_matches_walk_on_balanced_pairs(self):
        # 5- and 6-digit pairs with products above 10^8: the guard bounds the scan modulus y
        span = (10**4, MAX_MODULUS + 1)
        draws = coprime_draws(random.Random(23), span, span, span)
        for b, x, y in itertools.islice(((b, x, y) for b, x, y in draws if x * y > 10**8), 8):
            cert = oracle_least_multiple(b, (x, y))
            walk_cert = find_least_multiple(WalkInput(b=b, a=x, c=y))[0]
            assert (cert.m, cert.u, cert.w) == (walk_cert.m, walk_cert.u, walk_cert.w), (b, x, y)


class TestOracleRepresentable:
    def test_ordering_independence(self):
        for perm in itertools.permutations((3, 5, 7)):
            assert not oracle_representable(4, perm)
            assert oracle_representable(10, perm)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            oracle_representable(-1, (3, 5, 7))

    def test_rejects_bad_generators_for_every_n(self):
        # the generators are checked before n decides anything, as residue_table checks them:
        # at least two, pairwise coprime. (6, 10, 15) is coprime only as a set
        for gens in ((), (1,), (7,), (1, 5), (0, 3), (3, 5, 1), (6, 10, 15), (4, 7, 10)):
            for n in (0, 1, 3, 4, 100):
                with pytest.raises(InvalidInputError):
                    oracle_representable(n, gens)
            with pytest.raises(InvalidInputError):
                residue_table(gens)
        with pytest.raises(NotPairwiseCoprimeError):
            oracle_representable(50, (6, 10, 15))

    def test_guard(self):
        # n >= a1 needs the table, whose modulus a1 is above the guard; n < a1 needs none
        with pytest.raises(OracleBoundExceeded):
            oracle_representable(3 * MAX_MODULUS, (MAX_MODULUS + 3, MAX_MODULUS + 4))
        assert not oracle_representable(MAX_MODULUS, (MAX_MODULUS + 3, MAX_MODULUS + 4))
        with pytest.raises(OracleBoundExceeded):
            residue_table((MAX_MODULUS + 1, MAX_MODULUS + 2))
        # the generators are checked before the guard
        with pytest.raises(NotPairwiseCoprimeError):
            residue_table((MAX_MODULUS + 2, MAX_MODULUS + 4))
