"""Signpost bounds: frozen values, equality verdicts, ratio forms, scanner."""

import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkcliques.bounds import (
    DIGITS,
    _shares_root,
    _steiner_existence,
    _sum_of_two_squares,
    clique_bound,
    edge_bound,
    graph_clique_bound,
    jung_scan,
    neighborhood_ratio_bound,
    vertex_bound,
)
from kkcliques.cascade import k_colex
from kkcliques.errors import InternalCheckError
from kkcliques.oracle import SearchSpec, exhaustive_search


# Hand-checked reference values; K^(2)_4 blocks, PG-type Steiner shadows etc.
def test_edge_bound_two_blocks():
    r = edge_bound(12, 1, 2, 3, 3)
    assert (r.value, r.integer_value, r.x) == (8, 8, 4)
    assert r.equality_possible == "yes"  # 2 disjoint K_4's: 12 edges, 8 triangles
    assert r.source == "edge"


def test_edge_bound_nondivisible_edges():
    # At s = i+1, non-divisibility leaves tightness open; for s >= i+2 the
    # packing-shadow characterisation rules equality out.
    r = edge_bound(7, 1, 2, 4, 3)  # x = 4, C(4,2) = 6 does not divide 7
    assert r.value == Fraction(7, 6)
    assert r.integer_value == 1
    assert r.equality_possible == "unknown"
    r = edge_bound(7, 1, 3, 4, 3)  # x = 4, C(4,3) = 4 does not divide 7
    assert r.value == Fraction(7, 4)
    assert r.equality_possible == "no"


def test_edge_bound_x_below_t_is_zero():
    r = edge_bound(5, 1, 2, 4, 2)  # x = 3 < 4: degree cap forbids K_4
    assert r.value == 0 and r.equality_possible == "yes"
    assert r.x == 3


def test_edge_bound_degenerate_inputs():
    assert edge_bound(0, 1, 2, 3, 3).value == 0
    assert edge_bound(0, 1, 2, 3, 3).equality_possible == "yes"
    r = edge_bound(5, 1, 2, 3, 0)
    assert r.value == 0 and r.equality_possible == "no"  # vacuous: no family fits


def test_edge_bound_irrational_x():
    r = edge_bound(10, 1, 3, 4, 4)  # C(x-1,2) = 4 has no integer root
    assert isinstance(r.value, Decimal)
    assert r.value == Decimal("3.43070330817253582")  # 10(x-3)/4, x = (3+sqrt 33)/2
    assert r.integer_value == 3
    assert r.equality_possible == "unknown"
    assert 4.37 < r.x < 4.38


def test_edge_bound_large_m_irrational_floor_regression():
    # the float path gave 4253905296786, a floor below the true one and so
    # not a proven bound
    r = edge_bound(10**13, 1, 3, 4, 5)
    assert r.integer_value == 4253905296791
    assert r.value == Decimal("4253905296791.06085811027209327")


def _isqrt_floor(m, i, lo, delta):
    """floor(m (x - lo) / (lo + 1)) at x = i + (1 + sqrt(1 + 8 Delta)) / 2."""
    return (m * (2 * i - 2 * lo + 1) + isqrt(m * m * (1 + 8 * delta))) // (2 * (lo + 1))


def _scaled(value):
    """value * 10^DIGITS as an int, read off the positional string."""
    whole, frac = format(value, "f").split(".")
    assert len(frac) == DIGITS
    return int(whole + frac)


@st.composite
def irrational_ratio_args(draw):
    """(p, i, s, u, Delta) with s = i+2, u in s..s+3 and Delta strictly between
    the triangular numbers C(j,2) and C(j+1,2), j large enough that x >= u+1."""
    i = draw(st.integers(1, 3))
    s = i + 2
    u = draw(st.integers(s, s + 3))
    j = draw(st.integers(u + 1 - i, 10**12))
    delta = draw(st.integers(comb(j, 2) + 1, comb(j + 1, 2) - 1))
    return draw(st.integers(1, 10**40)), i, s, u, delta


@settings(max_examples=200, deadline=None)
@given(irrational_ratio_args())
def test_irrational_ratio_bound_is_exact(args):
    # edge bound at t = s+1 (u = s) and clique bound at t = u+1: the floor and
    # the truncated digits of p (x-u)/(u+1), checked against isqrt closed forms
    p, i, s, u, delta = args
    r = edge_bound(p, i, s, s + 1, delta) if u == s else clique_bound(p, i, s, u, u + 1, delta)
    assert isinstance(r.value, Decimal) and r.equality_possible == "unknown"
    assert r.integer_value == _isqrt_floor(p, i, u, delta)
    assert _scaled(r.value) == _isqrt_floor(p * 10**DIGITS, i, u, delta)
    # x is the double nearest to i + (1 + sqrt(1 + 8 Delta))/2: within half an ulp
    half = Fraction(math.ulp(r.x)) / 2
    assert not _x_below(Fraction(r.x) - half, i, delta) and _x_below(Fraction(r.x) + half, i, delta)


def _x_below(b, i, delta):
    """Whether i + (1 + sqrt(1 + 8 Delta))/2 < b, exactly."""
    c = 2 * (b - i) - 1
    return c > 0 and 1 + 8 * delta < c * c


@settings(max_examples=25, deadline=None)
@given(k=st.integers(3, 4), i=st.integers(1, 3), gap=st.integers(0, 2), extra=st.integers(1, 2),
       j=st.integers(0, 10**6), frac=st.fractions(0, 1), p=st.integers(1, 10**30))
def test_irrational_ratio_bound_against_sympy(k, i, gap, extra, j, frac, p):
    # s - i in {3, 4}: the floor and the digits against sympy's real root
    sympy = pytest.importorskip("sympy")
    s = i + k
    u = s + gap
    t = u + extra
    a = t - i + j                              # the root lies in (a, a+1), so x > t
    delta = comb(a, k) + 1 + int(frac * (comb(a + 1, k) - comb(a, k) - 2))
    if u == s:
        r = edge_bound(p, i, s, t, delta)
    else:
        r = clique_bound(p, i, s, u, t, delta)
    y = sympy.Symbol("y")
    poly = sympy.Poly(sympy.prod([y - q for q in range(k)]) - factorial(k) * delta, y)
    root = poly.real_roots()[-1]
    scaled = p * factorial(u) * 10**DIGITS * sympy.prod([root + i - q for q in range(u, t)])
    approx = sympy.N(scaled / factorial(t), len(str(p)) + 80)
    want = int(sympy.floor(approx))
    assert approx - want > sympy.Rational(1, 10**20)  # far from a tie
    assert _scaled(r.value) == want
    assert r.integer_value == want // 10**DIGITS


def test_tie_decision_by_polynomial_gcd():
    # f = y^2 - y - 1 has the one root (1 + sqrt 5)/2 in (3/2, 7/4)
    f = [-1, -1, 1]
    lo, hi = Fraction(3, 2), Fraction(7, 4)
    assert _shares_root(f, [-1, -2, 0, 1], lo, hi)       # (y + 1) f
    assert not _shares_root(f, [-2, -2, 0, 1], lo, hi)   # coprime to f
    # f = (y - 3)(y^2 - 2) and h = (y - 3)(y + 5) share only the root 3,
    # outside the bracket of sqrt 2
    assert not _shares_root([6, -2, -3, 1], [-15, 2, 1], Fraction(7, 5), Fraction(3, 2))


def test_clique_bound_two_blocks():
    r = clique_bound(8, 1, 2, 3, 4, 3)  # 8 triangles, max degree 3 -> at most 2 K_4's
    assert (r.value, r.integer_value) == (2, 2)
    assert r.equality_possible == "yes"


def test_clique_bound_nondivisible():
    r = clique_bound(7, 1, 2, 3, 4, 3)
    assert r.value == Fraction(7, 4)
    assert r.integer_value == 1
    assert r.equality_possible == "no"  # C(4,3) = 4 must divide the triangle count


def test_clique_bound_u_equals_s_reduces_to_edge_bound():
    for m in range(31):
        for s in range(2, 6):
            for i in range(1, s):
                for t in range(s + 1, 8):
                    for delta in range(16):
                        e = edge_bound(m, i, s, t, delta)
                        r = clique_bound(m, i, s, s, t, delta)
                        assert r == replace(e, source="clique", notes=e.notes + (
                            "u = s reduces to the edge bound",)), (m, i, s, t, delta)


# One pinned report per branch of the shared edge/clique engine, from both
# callers where the branch serves both: (bound, args, value, integer_value,
# x, equality_possible, notes).
ENGINE_BRANCHES = [
    (edge_bound, (0, 1, 2, 3, 3), 0, 0, None, "yes",
     ("no edges, no cliques",)),
    (clique_bound, (0, 1, 2, 3, 4, 3), 0, 0, None, "yes",
     ("no u-cliques, no t-cliques",)),
    (edge_bound, (5, 1, 2, 3, 0), 0, 0, None, "no",
     ("max i-degree 0 admits no nonempty family, so the bound is vacuous",)),
    (clique_bound, (5, 1, 2, 3, 4, 0), 0, 0, None, "no",
     ("max i-degree 0 admits no nonempty family, so the bound is vacuous",)),
    (clique_bound, (3, 1, 2, 4, 5, 2), 0, 0, 3, "no",
     ("x < u: the degree bound forbids any u-clique, so no family has p > 0",)),
    (clique_bound, (5, 1, 2, 3, 3, 3), 5, 5, 4, "yes",
     ("u = t: the ratio of binomials is 1",)),
    (clique_bound, (5, 1, 2, 2, 2, 3), 5, 5, None, "yes",
     ("u = t = s: the bound is the edge count",)),
    (edge_bound, (4, 1, 3, 5, 1), 0, 0, 3, "yes",
     ("x < t: the degree bound rules out any t-clique; m pairwise disjoint edges attain 0",)),
    (clique_bound, (3, 1, 2, 3, 5, 3), 0, 0, 4, "yes",
     ("u <= x < t: no t-clique can occur; p disjoint copies of K^(s)_u attain 0",)),
    (edge_bound, (1, 1, 3, 4, 4), Decimal("0.34307033081725358"), 0, 4.372281323269014, "unknown",
     ("degree parameter is not C(x-i, s-i) for integer x; tightness is open",)),
    (clique_bound, (5, 1, 3, 4, 5, 7), Decimal("1.27491721763537484"), 1, 5.274917217635375, "unknown",
     ("degree parameter is not C(x-i, s-i) for integer x; tightness is open",)),
    (edge_bound, (12, 1, 2, 3, 3), 8, 8, 4, "yes",
     ("2 disjoint complete blocks K^(2)_4 attain equality",)),
    (clique_bound, (8, 1, 2, 3, 4, 3), 2, 2, 4, "yes",
     ("2 disjoint complete blocks K^(2)_4 attain equality",)),
    (clique_bound, (9, 1, 2, 3, 4, 3), Fraction(9, 4), 2, 4, "no",
     ("equality forces the edges lying in u-cliques to form a packing shadow, "
      "so C(4,3) = 4 must divide p",)),
    (edge_bound, (5, 1, 3, 4, 3), Fraction(5, 4), 1, 4, "no",
     ("equality forces a packing shadow, whose edge count is a multiple of C(4,3) = 4",)),
    (edge_bound, (7, 1, 2, 3, 3), Fraction(14, 3), 4, 4, "unknown",
     ("C(4,2) does not divide m, but at s = i+1 non-packing extremal families "
      "are not ruled out",)),
]


@pytest.mark.parametrize(
    "bound,args,value,integer_value,x,eq,notes", ENGINE_BRANCHES,
    ids=["edge p=0", "clique p=0", "edge delta=0", "clique delta=0", "clique x<u",
         "clique u=t", "clique u=t=s", "edge x<t", "clique x<t", "edge irrational x", "clique irrational x",
         "edge divisible", "clique divisible", "clique not divisible u>s",
         "edge not divisible s>=i+2", "edge not divisible s=i+1"])
def test_engine_branch_reports(bound, args, value, integer_value, x, eq, notes):
    r = bound(*args)
    assert r.source == bound.__name__.removesuffix("_bound")
    assert (type(r.value), r.value, r.integer_value) == (type(value), value, integer_value)
    assert (type(r.x), r.x, r.equality_possible, r.notes) == (type(x), x, eq, notes)


def test_clique_bound_u_equals_t_is_identity():
    r = clique_bound(5, 1, 2, 3, 3, 3)
    assert r.value == 5 and r.equality_possible == "yes"


def test_clique_bound_x_below_u_vacuous():
    r = clique_bound(3, 1, 2, 4, 5, 2)  # x = 3: no K_4 exists, p = 3 impossible
    assert r.value == 0 and r.equality_possible == "no"


def test_graph_clique_bound_matches_specialization():
    r = graph_clique_bound(8, 3, 4, 4)
    assert (r.value, r.integer_value, r.x) == (2, 2, 4)
    assert r.equality_possible == "yes"
    assert r.source == "graph"
    with pytest.raises(ValueError):
        graph_clique_bound(8, 2, 4, 4)  # u >= 3 in the 2-graph form


def test_graph_clique_bound_u_equals_t_is_attained():
    # u = t: the bound is p itself, attained whether or not C(r,u) divides p
    for p, u, r in ((4, 3, 5), (7, 4, 6), (1, 3, 3), (0, 3, 4)):
        rep = graph_clique_bound(p, u, u, r)
        assert (rep.value, rep.integer_value, rep.x) == (p, p, r)
        assert rep.equality_possible == "yes"


def test_vertex_bound_steiner_attained():
    # S(2,4,13) exists (projective plane of order 3); its triple shadow
    # has every pair-degree exactly 2 and meets the bound.
    r = vertex_bound(13, 2, 3, 4, 2)
    assert (r.value, r.integer_value, r.x) == (13, 13, 4)
    assert r.equality_possible == "yes"


def test_vertex_bound_zero():
    r = vertex_bound(9, 2, 3, 4, 1)  # x = 3 < 4: no 4-clique under this degree cap
    assert r.value == 0 and r.equality_possible == "yes"


def test_vertex_bound_open_at_s_equals_i_plus_one():
    # No S(2,3,6); for s = i+1 that does not settle tightness.
    r = vertex_bound(6, 2, 3, 3, 1)
    assert r.value == 5
    assert r.equality_possible == "unknown"


def test_vertex_bound_nonintegral_value():
    r = vertex_bound(6, 2, 3, 4, 2)
    assert r.value == Fraction(5, 2)
    assert r.integer_value == 2
    assert r.equality_possible == "no"


def test_vertex_bound_irrational_x():
    r = vertex_bound(8, 1, 3, 4, 4)
    assert r.value == 2
    assert isinstance(r.x, float)
    assert r.equality_possible == "unknown"


# One pinned report per equality branch of vertex_bound at integer x:
# (args, value, integer_value, x, equality_possible, notes).
VERTEX_BRANCHES = [
    ((3, 1, 2, 4, 3), Fraction(3, 4), 0, 4, "no",
     ("no 4-clique fits in 3 vertices, so the bound cannot be met",)),
    ((4, 1, 3, 4, 10), 10, 10, 6, "no",
     ("no S(1,6,4) exists, and for s >= i+2 only Steiner shadows attain the bound",)),
    ((9, 2, 5, 6, 10), 12, 12, 7, "no",
     ("no S(2,7,9) exists, and for s >= i+2 only Steiner shadows attain the bound",)),
    ((21, 2, 4, 5, 3), 21, 21, 5, "unknown",
     ("divisibility conditions for S(2,5,21) hold but existence is not decided here",)),
    # Fisher: S(2,6,16) would have C(16,2)/C(6,2) = 8 < 16 blocks
    ((16, 2, 4, 5, 6), 48, 48, 6, "no",
     ("no S(2,6,16) exists, and for s >= i+2 only Steiner shadows attain the bound",)),
    ((4, 1, 3, 3, 6), 8, 8, 5, "no",
     ("x = 5 > n: the bound exceeds C(4,3), the number of 3-sets",)),
    ((4, 1, 2, 3, 4), 8, 8, 5, "no",
     ("x = 5 > n: the bound exceeds C(4,3), the number of 3-sets",)),
    ((6, 1, 3, 3, 3), 6, 6, 4, "unknown",
     ("no S(1,4,6) exists, but at t = s any 3-graph whose 1-sets all have degree 3 "
      "attains the bound",)),
]


@pytest.mark.parametrize(
    "args,value,integer_value,x,eq,notes", VERTEX_BRANCHES,
    ids=["n<t", "r>n", "divisibility fails", "divisibility holds", "Fisher", "t=s x>n",
         "s=i+1 t>s x>n", "t=s no Steiner"])
def test_vertex_bound_branch_reports(args, value, integer_value, x, eq, notes):
    r = vertex_bound(*args)
    assert (type(r.value), r.value, r.integer_value) == (type(value), value, integer_value)
    assert (type(r.x), r.x, r.equality_possible, r.notes) == (type(x), x, eq, notes)


def test_steiner_existence_bruck_ryser():
    # S(2, q+1, q^2+q+1) is a projective plane of order q.  Bruck-Ryser
    # rules out q = 1, 2 (mod 4) when q is not a sum of two squares, as
    # q = 6; it leaves q = 5 = 1 + 4 and q = 10 = 1 + 9 open
    assert _steiner_existence(2, 7, 43) == "no"
    assert _steiner_existence(2, 6, 31) == _steiner_existence(2, 11, 111) == "unknown"
    r = vertex_bound(43, 2, 4, 5, 10)
    assert (r.value, r.x, r.equality_possible, r.notes) == (903, 7, "no", (
        "no S(2,7,43) exists, and for s >= i+2 only Steiner shadows attain the bound",))
    assert [q for q in range(2, 50) if _steiner_existence(2, q + 1, q * q + q + 1) == "no"] == [
        6, 14, 21, 22, 30, 33, 38, 42, 46]
    # Fermat's criterion against the squares themselves
    assert [q for q in range(1, 2000) if _sum_of_two_squares(q)] == [
        q for q in range(1, 2000) if any(isqrt(q - a * a) ** 2 == q - a * a
                                         for a in range(isqrt(q) + 1))]
    # past the trial-division cap the theorem is not applied: 2 (2^31 - 1)
    # is no sum of two squares, but its prime factor is above the cap
    q = 2 * (2**31 - 1)
    assert _sum_of_two_squares(q) is None
    assert _steiner_existence(2, q + 1, q * q + q + 1) == "unknown"


def test_vertex_bound_verdicts_match_exhaustive_search():
    # At t = s the bound counts edges, and any s-graph whose i-sets all have
    # degree Delta meets it, Steiner shadow or not: e.g. the triples 123 124
    # 126 345 356 456 have every vertex degree 3 and reach the bound 6 at
    # (n, i, s, Delta) = (6, 1, 3, 3), where no S(1,4,6) exists.  t > s runs
    # on C(n, s) <= 15 only (212 rows); 16 of them, (4, 1, 2, 3, 4) among
    # them, said "unknown" before the x > n rule covered t > s.
    rows = [(n, i, s, t, delta)
            for n in range(2, 8) for s in range(2, n + 1) for i in range(1, s)
            if comb(n, s) <= 21
            for t in range(s, n + 1 if comb(n, s) <= 15 else s + 1)
            for delta in range(comb(n - i, s - i) + 2)]
    for n, i, s, t, delta in rows:
        row = (n, i, s, t, delta)
        r = vertex_bound(*row)
        best = exhaustive_search(SearchSpec(n, s, t, i=i, max_degree=delta)).optimum
        assert best <= r.integer_value, row
        if isinstance(r.x, int) and r.x > n and r.value:
            assert r.equality_possible == "no", row
        if r.equality_possible == "yes":
            assert best == r.value, row
        elif r.equality_possible == "no":
            assert best < r.value, row


def test_vertex_bound_irrational_cross_check_catches_a_cascade_overshoot(monkeypatch):
    # x = (3 + sqrt 33)/2: the real form C(x-1, 3) = 1.83 dominates k_colex(4, 2, 3) = 1, not 2
    import kkcliques.bounds as bounds
    monkeypatch.setattr(bounds, "k_colex", lambda m, s, t: 2)
    with pytest.raises(InternalCheckError, match="upper end of x"):
        vertex_bound(8, 1, 3, 4, 4)


@pytest.mark.parametrize("fn,args", [
    (vertex_bound, (5, 0, 2, 3, 3)),
    (vertex_bound, (5, 2, 2, 3, 3)),
    (vertex_bound, (-1, 1, 2, 3, 3)),
    (vertex_bound, (5, 1, 2, 3, -1)),
    (edge_bound, (5, 1, 2, 2, 3)),
    (edge_bound, (-2, 1, 2, 3, 3)),
    (clique_bound, (5, 1, 2, 1, 3, 3)),
    (clique_bound, (5, 1, 2, 4, 3, 3)),
])
def test_domain_errors(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_neighborhood_ratio_closed_forms():
    assert neighborhood_ratio_bound(1, 2, 3, 4) == 1
    assert neighborhood_ratio_bound(1, 2, 3, 5) == Fraction(3, 2)
    assert neighborhood_ratio_bound(2, 3, 4, 4) == Fraction(1, 2)
    assert neighborhood_ratio_bound(1, 2, 4, Fraction(9, 2)) == Fraction(5, 8)
    assert neighborhood_ratio_bound(1, 2, 4, 4.5) == pytest.approx(0.625)
    with pytest.raises(ValueError):
        neighborhood_ratio_bound(1, 2, 4, 2)  # below t-1


def test_neighborhood_ratio_monotone_in_x():
    vals = [neighborhood_ratio_bound(1, 3, 5, x) for x in range(5, 12)]
    assert vals == sorted(vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_vertex_bound_consistent_with_colex_count():
    # C_s(Delta) on its own support max i-degree is Delta itself, so the colex
    # count at level t can never beat the vertex bound on enough vertices.
    for s, t, delta in [(2, 3, 6), (2, 4, 10), (3, 4, 4), (3, 5, 10)]:
        n = 12
        b = vertex_bound(n, 1, s, t, delta)
        assert b.value >= k_colex(delta, s - 1, t - 1) * comb(n, 1) // comb(t, 1) - 1


def test_jung_scan_frozen():
    assert jung_scan(2, 3, 10) == [1, 2, 3, 5, 6, 9, 10]
    assert jung_scan(3, 4, 40) == [1, 2, 3, 4, 7, 9, 10, 16, 19, 20, 29, 30, 33, 34, 35]


def test_jung_scan_contains_full_binomials():
    hits = set(jung_scan(2, 4, 80))
    for r in range(4, 9):
        if comb(r, 2) <= 80:
            assert comb(r, 2) in hits
    with pytest.raises(ValueError):
        jung_scan(3, 3, 10)
