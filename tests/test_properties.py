"""Property tests against the residue-table oracle, past the exhaustive tests' range.

Each draws 300 seeded pairwise-coprime inputs, so runs are repeatable and write nothing."""

import itertools
import random

from frobenius3.oracle import oracle_frobenius, oracle_least_multiple
from frobenius3.solver import frobenius
from frobenius3.walk import WalkInput, find_least_multiple
from support import coprime_draws


def test_frobenius_and_certificates_match_oracle():
    # sorted triples from 2..150
    for triple in itertools.islice(coprime_draws(random.Random(150), *[(2, 151)] * 3), 300):
        triple = sorted(triple)
        res = frobenius(*triple)
        assert res.g == oracle_frobenius(triple), triple
        for cert in res.certificates or ():
            assert cert.m == oracle_least_multiple(cert.target, (cert.pair_a, cert.pair_c)).m


def test_least_multiple_matches_oracle_in_both_pair_orders():
    # (b, x, y) from 2..100
    for b, x, y in itertools.islice(coprime_draws(random.Random(100), *[(2, 101)] * 3), 300):
        want = oracle_least_multiple(b, (x, y)).m
        for a, c in ((x, y), (y, x)):
            cert, _ = find_least_multiple(WalkInput(b=b, a=a, c=c))
            assert cert.m == want, (b, a, c)
