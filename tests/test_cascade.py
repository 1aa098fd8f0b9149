"""Cascade arithmetic: representations, evaluation, complements, Lovász form."""

import math
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kkcliques.cascade import (
    Cascade,
    _binom_floor_index,
    _root_bracket,
    _scaled_falling,
    binom_exact,
    binom_inverse,
    binom_real,
    cascade_eval,
    cascade_of,
    complement_cascade,
    k_colex,
    k_via_complement,
    lovasz_clique_bound,
    shadow_colex,
)
from kkcliques.errors import InternalCheckError


def test_cascade_of_known_values():
    assert cascade_of(7, 3).entries == (4, 3)
    assert cascade_of(7, 3).level == 3
    assert cascade_of(0, 3).entries == ()
    assert cascade_of(10, 3).entries == (5,)
    assert cascade_of(9, 3).entries == (4, 3, 2)
    assert cascade_of(1, 5).entries == (5,)
    # level 1: singleton entry m
    assert cascade_of(12, 1).entries == (12,)


def test_cascade_strictness_and_value():
    for s in (2, 3, 5):
        for m in range(0, 300):
            c = cascade_of(m, s)
            assert c.is_strict()
            assert c.value() == m
            assert cascade_eval(c, s) == m


def test_cascade_eval_other_levels():
    c = cascade_of(7, 3)          # (4, 3)
    assert cascade_eval(c, 4) == 2     # C(4,4) + C(3,3)
    assert cascade_eval(c, 2) == 9     # C(4,2) + C(3,1)
    assert cascade_eval(c, 1) == 5     # C(4,1) + C(3,0)... stops at level 0
    assert cascade_eval(c, 5) == 0


def test_cascade_rejects_bad_input():
    with pytest.raises(ValueError):
        cascade_of(-1, 3)
    with pytest.raises(ValueError):
        cascade_of(5, 0)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=0, max_value=10**400), s=st.integers(min_value=1, max_value=12))
@example(m=10**65 + 7, s=3)
@example(m=10**100, s=4)
@example(m=10**300, s=5)
def test_cascade_round_trip_property(m, s):
    c = cascade_of(m, s)
    assert cascade_eval(c, s) == m
    assert c.is_strict()


@settings(max_examples=300, deadline=None)
@given(m=st.integers(min_value=1, max_value=10**400), k=st.integers(min_value=1, max_value=40))
@example(m=10**65 + 7, k=3)
@example(m=1, k=40)
@example(m=10**6, k=33)
@example(m=10**400, k=2)
@example(m=comb(14 * 10**199, 2), k=2)
@example(m=comb(14 * 10**199, 2) - 1, k=2)
def test_binom_floor_index_bracket(m, k):
    a = _binom_floor_index(m, k)
    assert a >= k
    assert comb(a, k) <= m < comb(a + 1, k)


def test_cascade_of_small_m_at_a_huge_level():
    # m <= k answers k at once: the k-th root of m * k! is never taken
    start = time.perf_counter()
    assert cascade_of(5, 20000).entries == (20000, 19999, 19998, 19997, 19996)
    assert time.perf_counter() - start < 1.0
    assert _binom_floor_index(7, 7) == 7 and _binom_floor_index(8, 7) == 8


def test_cascade_of_mid_m_at_a_huge_level():
    # m < 2^k climbs from a = k instead of taking a root of m * k! per level
    m = 10**6
    start = time.perf_counter()
    c = cascade_of(m, 3000)
    assert time.perf_counter() - start < 1.0
    assert all(a > b for a, b in zip(c.entries, c.entries[1:]))
    assert c.entries[-1] >= 3000 - (c.length - 1)
    assert cascade_eval(c, 3000) == m


def test_k_colex_known_values():
    assert k_colex(7, 3, 4) == 2
    assert k_colex(7, 3, 5) == 0
    assert k_colex(10, 3, 5) == 1      # C_3(10) = K_5
    assert k_colex(comb(9, 4), 4, 6) == comb(9, 6)
    # t = s convention: every edge is its own s-clique
    for m in (0, 1, 7, 35):
        assert k_colex(m, 3, 3) == m


def test_shadow_colex_known_values():
    assert shadow_colex(7, 3, 2) == 9
    assert shadow_colex(7, 3, 1) == 5
    assert shadow_colex(1, 3, 2) == 3
    assert shadow_colex(0, 3, 2) == 0
    # shadow of a complete layer is the complete lower layer
    assert shadow_colex(comb(8, 3), 3, 2) == comb(8, 2)


def test_shadow_colex_monotone_in_m():
    for s, q in ((3, 2), (3, 1), (4, 2)):
        prev = 0
        for m in range(1, 200):
            cur = shadow_colex(m, s, q)
            assert cur >= prev
            prev = cur


def test_binom_exact_conventions():
    assert binom_exact(5, 2) == 10
    assert binom_exact(3, 5) == 0
    assert binom_exact(0, 0) == 1
    assert binom_exact(-1, 2) == 0


def test_binom_real_exact_rational():
    assert binom_real(Fraction(9, 2), 2) == Fraction(63, 8)
    assert binom_real(4, 2) == 6
    assert binom_real(Fraction(7, 2), 5) == Fraction(7 * 5 * 3 * 1 * -1, 2**5 * 120)


def test_binom_inverse_integer_and_real():
    assert binom_inverse(6, 2) == 4
    assert binom_inverse(binom_exact(1000, 7), 7) == 1000
    x = binom_inverse(7, 2)
    assert isinstance(x, float)
    assert abs(x * (x - 1) / 2 - 7) < 1e-9
    assert binom_inverse(0, 3) == 2  # C(2,3) = 0 at the domain floor
    for m in (Fraction(6), 6.0):
        x = binom_inverse(m, 2)
        assert x == 4 and type(x) is int
    x = binom_inverse(Fraction(1, 2), 2)
    assert 1 < x < 2
    assert abs(x * (x - 1) / 2 - 0.5) < 1e-9


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(st.integers(1, 10**60), st.fractions(Fraction(1, 10**6), 10**6)),
       k=st.integers(1, 6), K=st.integers(0, 200))
def test_root_bracket_brackets_the_root(m, k, K):
    a = _binom_floor_index(math.floor(m), k) if m >= 1 else k - 1
    Y, exact = _root_bracket(m, k, K, (a + 1) << K)
    lo, hi = binom_real(Fraction(Y, 1 << K), k), binom_real(Fraction(Y + 1, 1 << K), k)
    assert lo <= m < hi
    assert exact == (lo == m)


def test_binom_inverse_is_correctly_rounded_at_any_size():
    # C(x, 2) = m at x = (1 + sqrt(1 + 8m))/2: compare with the exact half-ulp interval
    # (at m = 1351 the first 64-bit bracket straddles a rounding boundary)
    for m in (7, 1351, 10**13 + 1, 10**40 + 3, 10**400 + 1):
        x = binom_inverse(m, 2)
        half = Fraction(math.ulp(x)) / 2
        for b, below in ((Fraction(x) - half, False), (Fraction(x) + half, True)):
            c = 2 * b - 1
            assert (c > 0 and 1 + 8 * m < c * c) == below, (m, b)
    assert binom_inverse(10**700, 2) == math.inf        # beyond the double range


@pytest.mark.parametrize("s,n", [(2, 6), (3, 6), (3, 7), (2, 9), (1, 2), (1, 9)])
def test_complement_cascade_bridge(s, n):
    total = comb(n, s)
    for m in range(0, total + 1):
        co = complement_cascade(m, s, n)
        assert co == cascade_of(total - m, n - s)


def test_complement_cascade_entry_structure():
    # entries of m's cascade and its complement partition {b+1..n-1} above
    # a shared bottom entry b
    m, s, n = 7, 3, 5
    c = cascade_of(m, s)
    co = complement_cascade(m, s, n)
    assert c.entries[-1] == co.entries[-1]
    upper = set(c.entries[:-1]) | set(co.entries[:-1])
    assert upper == set(range(c.entries[-1] + 1, n))


@pytest.mark.parametrize("s,n", [(2, 7), (3, 6), (3, 8)])
def test_k_via_complement_matches_k_colex(s, n):
    for m in range(0, comb(n, s) + 1):
        for t in range(s, n + 1):
            assert k_via_complement(m, s, t, n) == k_colex(m, s, t)


def test_k_via_complement_on_full_layer():
    assert k_via_complement(comb(6, 3), 3, 6, 6) == 1


def test_lovasz_known_values():
    assert lovasz_clique_bound(comb(7, 3), 3, 5) == comb(7, 5)
    assert lovasz_clique_bound(7, 3, 5) == 0    # x ~ 4.27 < 5
    v = lovasz_clique_bound(7, 3, 4)
    assert v >= 2 and isinstance(v, float)


def test_lovasz_dominates_k_colex():
    # at s = 1, C(x, 1) = m makes x = m, so the bound is C(m, t) = k_colex
    for s in (1, 2, 3):
        for m in range(0, comb(9, s) + 1):
            for t in range(s, 10):
                lb = lovasz_clique_bound(m, s, t)
                kc = k_colex(m, s, t)
                assert lb >= kc or abs(lb - kc) < 1e-9
                if m and binom_inverse(m, s).__class__ is int:
                    r = binom_inverse(m, s)
                    if t <= r:
                        assert lb == kc == comb(r, t)


def test_lovasz_large_m_regression():
    # the float root gave 9.569908032985106e+53, below k_colex
    m = 2396235551816932040210107818
    v = lovasz_clique_bound(m, 2, 4)
    assert isinstance(v, float) and v >= k_colex(m, 2, 4)


def _binom_at(Y, K, t):
    """C(Y / 2^K, t) as an exact Fraction."""
    return Fraction(_scaled_falling(Y, K, t), math.factorial(t) << (K * t))


def test_lovasz_is_a_certified_upper_bound():
    # seeded: m < 10^30 of every size, s in 2..4, t in s..s+3
    rng = random.Random(2024)
    K = 512        # finer than any bracket the bound rounds from
    for _ in range(3000):
        m = rng.randrange(10 ** rng.randrange(1, 31))
        s = rng.randrange(2, 5)
        t = rng.randrange(s, s + 4)
        v = lovasz_clique_bound(m, s, t)
        assert v >= k_colex(m, s, t), (m, s, t)
        x = binom_inverse(m, s)
        if isinstance(x, int) or x < t:
            assert v == (comb(x, t) if x >= t else 0) and isinstance(v, int)
            continue
        # C(., t) increases past t - 1, so the root's fine bracket bounds C(x, t);
        # v is at or above its upper end and within a few ulps of it
        Y, exact = _root_bracket(m, s, K, (_binom_floor_index(m, s) + 1) << K)
        assert not exact and isinstance(v, float)
        hi = _binom_at(Y + 1, K, t)
        assert hi <= Fraction(v) <= hi * (1 + Fraction(1, 2**45)), (m, s, t)


def test_cascade_is_frozen_value_object():
    c = Cascade(3, (4, 3))
    with pytest.raises(AttributeError):
        c.level = 5
    assert c == cascade_of(7, 3)
