"""Jumping and uniqueness predicates: frozen verdicts and consistency grids."""

from math import comb

import pytest

from kkcliques.cascade import k_colex, shadow_colex
from kkcliques.uniqueness import (
    UniquenessVerdict,
    is_clique_jumping,
    is_clique_unique,
    is_colex_unique,
    is_jumping,
)


def test_verdict_wraps_bool():
    v = is_jumping(10, 3, 2)
    assert isinstance(v, UniquenessVerdict)
    assert bool(v) is True
    assert (v.predicate, v.m, v.s, v.level, v.n) == ("jumping", 10, 3, 2, None)
    assert not is_jumping(9, 3, 2)


@pytest.mark.parametrize("m,s,q,verdict", [
    (5, 3, 1, False),
    (6, 3, 1, False),
    (7, 3, 1, False),
    (10, 3, 2, True),   # m = C(5,3): single cascade term
    (9, 3, 2, False),
    (0, 3, 2, True),
    (3, 2, 1, True),    # m = C(3,2)
])
def test_jumping_frozen(m, s, q, verdict):
    v = is_jumping(m, s, q)
    assert bool(v) is verdict


def test_jumping_matches_shadow_step():
    for s in (2, 3, 4):
        for q in range(1, s):
            for m in range(0, 150):
                v = bool(is_jumping(m, s, q))
                assert v == (shadow_colex(m + 1, s, q) > shadow_colex(m, s, q))


@pytest.mark.parametrize("m,s,q,n,verdict,cond", [
    (3, 3, 2, 9, True, "m=3 <= s+1=4"),
    (6, 3, 2, 9, False, "cascade length 3 > q=2 and m+1 not C(n',3) for n' <= 9"),
    (9, 3, 2, 9, True, "m+1 = C(5,3)"),
    (19, 3, 2, 6, True, "m+1 = C(6,3)"),
    (10, 3, 1, 6, True, "cascade length 1 <= q=1"),
    pytest.param(10**400, 3, 1, 10**134, False,
                 f"cascade length 3 > q=1 and m+1 not C(n',3) for n' <= {10**134}",
                 id="m=10**400-n=10**134"),
])
def test_colex_unique_frozen(m, s, q, n, verdict, cond):
    v = is_colex_unique(m, s, q, n)
    assert bool(v) is verdict
    assert v.triggered_condition == cond


def test_colex_unique_clauses_exclusive():
    # the characterisation's clauses never overlap for m > s+1; the internal
    # consistency check would raise if they did
    for s, q, n in [(3, 1, 8), (3, 2, 8), (4, 2, 8)]:
        for m in range(comb(n, s) + 1):
            is_colex_unique(m, s, q, n)


@pytest.mark.parametrize("m,s,t,n,verdict", [
    (5, 3, 4, 9, False),
    (6, 3, 4, 9, True),
    (19, 3, 4, 6, True),
    (4, 2, 3, 8, True),
])
def test_clique_jumping_frozen(m, s, t, n, verdict):
    assert bool(is_clique_jumping(m, s, t, n)) is verdict


def test_clique_jumping_matches_count_step():
    for s, t, n in [(2, 3, 10), (2, 4, 10), (3, 4, 10), (3, 5, 10)]:
        for m in range(1, comb(n, s)):
            v = bool(is_clique_jumping(m, s, t, n))
            assert v == (k_colex(m + 1, s, t) > k_colex(m, s, t))


@pytest.mark.parametrize("m,s,t,n,verdict,cond", [
    (0, 3, 4, 7, True, "empty family is unique"),
    (35, 3, 4, 7, True, "complete family is unique"),
    (4, 3, 4, 7, True, "t=4 <= length+bottom-1 = 1+4-1 on cascade of m"),
    (33, 3, 4, 7, True, "m=33 >= C(7,3)-n+s-1 = 30"),
    (21, 3, 4, 7, True, "m = C(7,3) - C(6,4) + 1"),
    (16, 3, 4, 6, True, "m=16 >= C(6,3)-n+s-1 = 16"),
    (5, 3, 4, 7, False, "no sufficient condition applies"),
])
def test_clique_unique_frozen(m, s, t, n, verdict, cond):
    v = is_clique_unique(m, s, t, n)
    assert bool(v) is verdict
    assert v.triggered_condition == cond


def test_clique_unique_top_run_example():
    # m = 7 = C(5,3) - 5 + 3 - 1 sits exactly at the top-run threshold
    v = is_clique_unique(7, 3, 4, 5)
    assert bool(v) is True


def test_clique_unique_t_equals_n():
    # k^n = 0 for every incomplete family, so uniqueness degenerates to
    # counting isomorphism classes of m-edge families directly.
    assert is_clique_unique(1, 2, 4, 4)
    assert is_clique_unique(5, 2, 4, 4)    # co-single edge
    assert not is_clique_unique(3, 2, 4, 4)
    # at n = s+1 every s-set is a vertex complement: always one class
    for m in range(5):
        assert is_clique_unique(m, 3, 4, 4)
    # at s = 1 an m-edge family is an m-set of points: always one class
    assert is_clique_unique(3, 1, 6, 6).triggered_condition == (
        "t=n: any two m-sets of points are relabellings of each other")
    for n in range(2, 12):
        assert all(is_clique_unique(m, 1, n, n) for m in range(n + 1)), n


@pytest.mark.parametrize("call", [
    lambda: is_jumping(-1, 3, 1),
    lambda: is_jumping(5, 3, 0),
    lambda: is_jumping(5, 3, 3),
    lambda: is_colex_unique(5, 3, 2, 4),       # m > C(4,3)
    lambda: is_clique_jumping(0, 2, 3, 6),     # boundary m excluded
    lambda: is_clique_jumping(5, 3, 3, 9),     # t = s
    lambda: is_clique_unique(36, 3, 4, 7),
    lambda: is_clique_unique(5, 3, 8, 7),      # t > n
])
def test_domain_errors(call):
    with pytest.raises(ValueError):
        call()
