"""Property tests against the residue-table oracle, past the exhaustive tests' range.

Each draws 300 seeded pairwise-coprime inputs, so runs are repeatable and write nothing.
The triples go through frob3 verify's own comparison loop, not a copy of it."""

import itertools
import random

from frobenius3 import cli
from frobenius3.oracle import oracle_least_multiple
from frobenius3.walk import WalkInput, find_least_multiple
from support import coprime_draws


def test_frobenius_and_certificates_match_oracle(monkeypatch):
    # sorted triples from 2..150, through frob3 verify's own comparison: its slice at each
    # least generator reads the drawn triples in place of every valid one
    draws = coprime_draws(random.Random(150), *[(2, 151)] * 3)
    triples = [tuple(sorted(triple)) for triple in itertools.islice(draws, 300)]
    monkeypatch.setattr(cli, "_iter_valid_triples",
                        lambda limit, a1: [t for t in triples if t[0] == a1])
    checked = 0
    for a1 in sorted({t[0] for t in triples}):
        n, _, mismatch = cli._verify_from(150, a1)
        assert mismatch is None, mismatch
        checked += n
    assert checked == 300


def test_least_multiple_matches_oracle_in_both_pair_orders():
    # (b, x, y) from 2..100
    for b, x, y in itertools.islice(coprime_draws(random.Random(100), *[(2, 101)] * 3), 300):
        want = oracle_least_multiple(b, (x, y)).m
        for a, c in ((x, y), (y, x)):
            cert, _ = find_least_multiple(WalkInput(b=b, a=a, c=c))
            assert cert.m == want, (b, a, c)
