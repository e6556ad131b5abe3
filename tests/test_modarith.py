import random

import pytest

from frobenius3.errors import InvalidInputError, NotPairwiseCoprimeError
from frobenius3.modarith import Congruence, crt_combine


class TestCrtCombine:
    def test_examples(self):
        assert crt_combine([Congruence(4, 5), Congruence(5, 7), Congruence(1, 3)]) == (19, 105)
        assert crt_combine([Congruence(0, 5), Congruence(0, 7), Congruence(0, 3)]) == (0, 105)
        # residues canonicalize before solving
        assert crt_combine([Congruence(14, 5), Congruence(12, 7), Congruence(10, 3)]) == (19, 105)

    def test_exhaustive_small_oracle(self):
        # brute scan of 0..104 confirms the solution of the first example
        sols = [x for x in range(105) if x % 5 == 4 and x % 7 == 5 and x % 3 == 1]
        assert sols == [19]

    def test_non_coprime_names_pair(self):
        with pytest.raises(NotPairwiseCoprimeError) as exc:
            crt_combine([Congruence(1, 6), Congruence(2, 4)])
        assert exc.value.gcd == 2

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            crt_combine([])
        with pytest.raises(InvalidInputError):
            Congruence(3, 1)

    def test_single_congruence(self):
        assert crt_combine([Congruence(3, 7)]) == (3, 7)

    def test_random_property(self):
        rng = random.Random(99)
        for _ in range(500):
            # construct pairwise-coprime moduli from distinct primes
            ms = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 101, 997, 10007], k=3)
            congs = [Congruence(rng.randrange(0, m), m) for m in ms]
            x, prod = crt_combine(congs)
            assert 0 <= x < prod
            assert prod == ms[0] * ms[1] * ms[2]
            for cg in congs:
                assert x % cg.modulus == cg.residue
