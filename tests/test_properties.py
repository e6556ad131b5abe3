"""Property tests (hypothesis) against the residue-table oracle, past the exhaustive tests' range.

Derandomized and without an example database, so runs are repeatable and write nothing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from frobenius3.oracle import oracle_frobenius, oracle_least_multiple
from frobenius3.solver import frobenius
from frobenius3.walk import WalkInput, find_least_multiple
from support import pairwise_coprime

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def coprime_values(limit):
    return st.lists(st.integers(2, limit), min_size=3, max_size=3, unique=True).filter(
        pairwise_coprime)


@PROPERTY
@given(coprime_values(150).map(sorted))
def test_frobenius_and_certificates_match_oracle(triple):
    res = frobenius(*triple)
    assert res.g == oracle_frobenius(triple)
    for cert in res.certificates or ():
        assert cert.m == oracle_least_multiple(cert.target, (cert.pair_a, cert.pair_c)).m


@PROPERTY
@given(coprime_values(100))
def test_least_multiple_matches_oracle_in_both_pair_orders(values):
    b, x, y = values
    want = oracle_least_multiple(b, (x, y)).m
    for a, c in ((x, y), (y, x)):
        cert, _ = find_least_multiple(WalkInput(b=b, a=a, c=c))
        assert cert.m == want
