"""Set-family engine: masks, shadows, cliques, neighborhoods, segments, IO."""

import json
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkcliques.cascade import k_colex, shadow_colex
from kkcliques.families import (
    SetFamily,
    _colex_masks,
    cliques,
    colex_compare,
    colex_segment,
    complement_family,
    degree,
    from_json_obj,
    from_text,
    mask_of,
    max_degree,
    neighborhood,
    relabel,
    retlex_compare,
    retlex_segment,
    shadow,
    support,
    to_json_obj,
    to_text,
    upshadow,
    vertices_of,
)
from conftest import random_family


def test_mask_round_trip():
    assert vertices_of(mask_of((1, 3, 6))) == (1, 3, 6)
    assert mask_of([2]) == 2
    with pytest.raises(ValueError):
        mask_of((0, 1))
    with pytest.raises(ValueError):
        mask_of((2, 2))


def test_family_validation():
    with pytest.raises(ValueError):
        SetFamily(4, 2, frozenset({mask_of((1, 2, 3))}))   # wrong arity
    with pytest.raises(ValueError):
        SetFamily(3, 2, frozenset({mask_of((3, 4))}))      # outside ground set
    with pytest.raises(ValueError):
        SetFamily(65, 2, frozenset())
    with pytest.raises(ValueError):
        SetFamily.from_edge_lists(4, 2, [(1, 2), (2, 1)])  # repeated edge


def test_integer_order_is_colex():
    edges = [mask_of(c) for c in [(1, 2), (1, 3), (2, 3), (1, 4)]]
    assert sorted(edges) == edges
    assert colex_compare((2, 3), (1, 4)) < 0
    assert colex_compare((1, 4), (1, 4)) == 0
    # retlex reverses the verdict of the max of the symmetric difference
    assert retlex_compare((2, 3), (1, 4)) > 0
    assert retlex_compare((3, 4), (2, 4)) < 0


def test_shadow_and_upshadow_small():
    H = SetFamily.from_edge_lists(5, 3, [(1, 2, 3), (1, 2, 4)])
    assert shadow(H, 2).edge_lists() == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]
    up = upshadow(H, 4)
    assert (1, 2, 3, 4) in [tuple(e) for e in up.edge_lists()]
    assert len(up.edges) == 3   # 1234, 1235, 1245
    with pytest.raises(ValueError):
        shadow(H, 3)
    with pytest.raises(ValueError):
        upshadow(H, 3)


def test_cliques_known():
    H = colex_segment(7, 3)
    assert cliques(H, 4).edge_lists() == [(1, 2, 3, 4), (1, 2, 3, 5)]
    assert cliques(H, 3) == H
    assert len(cliques(H, 5).edges) == 0
    K = SetFamily.from_edge_lists(6, 2, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    assert len(cliques(K, 3).edges) == 4
    assert len(cliques(K, 4).edges) == 1


def test_cliques_via_missing_edge_upshadow():
    # K^t(H) = layer_t minus the t-upshadow of the non-edges (checked n <= 6)
    from itertools import combinations
    for n, s in ((5, 2), (5, 3), (6, 3)):
        layer_s = {sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), s)}
        H = SetFamily(n, s, frozenset(sorted(layer_s)[: comb(n, s) // 2]))
        non_edges = SetFamily(n, s, frozenset(layer_s - H.edges))
        for t in range(s + 1, n + 1):
            layer_t = {sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), t)}
            assert cliques(H, t).edges == layer_t - upshadow(non_edges, t).edges


def test_degrees():
    H = colex_segment(7, 3)
    assert degree(H, mask_of((1, 2))) == 3   # 123, 124, 125
    assert degree(H, mask_of((4, 5))) == 0
    assert max_degree(H, 2) == 3
    assert max_degree(H, 1) == 5
    with pytest.raises(ValueError):
        max_degree(H, 0)


def test_neighborhood_relabelling():
    H = colex_segment(7, 3)
    nb = neighborhood(H, mask_of((1, 2)))
    assert nb.family.s == 1
    assert len(nb.family.edges) == 3
    assert nb.labels == (3, 4, 5)    # support of the link, in order
    nb2 = neighborhood(H, mask_of((5,)))
    assert nb2.family.s == 2


def test_support():
    H = SetFamily.from_edge_lists(9, 2, [(2, 5), (5, 7)])
    assert vertices_of(support(H)) == (2, 5, 7)


def test_relabel_roundtrip(rng):
    H = random_family(rng, 7, 3)
    perm = list(range(1, 8))
    rng.shuffle(perm)
    inv = [0] * 7
    for idx, v in enumerate(perm):
        inv[v - 1] = idx + 1
    assert relabel(relabel(H, perm), inv) == H


def test_colex_segment_matches_closed_form():
    for s in (2, 3, 4):
        for m in range(0, comb(8, s) + 1):
            seg = colex_segment(m, s)
            assert len(seg.edges) == m
            # initial segment: all edges below any non-edge in integer order
            if m and seg.n:
                top = max(seg.edges)
                assert all(e <= top for e in seg.edges)


def test_colex_segment_minimal_ground():
    assert colex_segment(0, 3).n == 0
    assert colex_segment(1, 3).n == 3
    assert colex_segment(5, 3).n == 5
    with pytest.raises(ValueError):
        colex_segment(comb(64, 2) + 1, 2)


def test_colex_masks_enumerate_k_sets_in_integer_order():
    for n in range(13):
        for k in range(n + 1):
            want = sorted(sum(1 << v for v in c) for c in combinations(range(n), k))
            assert list(_colex_masks(n, k)) == want
        assert list(_colex_masks(n, n + 1)) == []


def test_segments_at_extreme_sizes_match_sorted_sets():
    def ordered(n, s):
        return sorted(mask_of(c) for c in combinations(range(1, n + 1), s))

    for n, s in ((5, 2), (6, 3), (7, 1), (7, 7), (9, 4)):
        for m in (0, 1, comb(n, s)):
            seg = colex_segment(m, s)
            assert seg.edges == frozenset(ordered(seg.n, s)[:m])
            R = retlex_segment(n, m, s)
            assert R.edges == frozenset(ordered(n, s)[comb(n, s) - m:])


def test_retlex_segment_complement_duality():
    for n, s in ((6, 2), (6, 3), (7, 3)):
        for m in range(0, comb(n, s) + 1):
            R = retlex_segment(n, m, s)
            assert len(R.edges) == m
            # complements of retlex segment edges form a colex segment
            co = {((1 << n) - 1) ^ e for e in R.edges}
            seg = {e for e in colex_segment(m, n - s).edges}
            assert co == seg


def test_upshadow_of_retlex_via_complement_shadow():
    # complementing each edge maps the retlex s-segment to the colex
    # (n-s)-segment, and t-supersets to (n-t)-subsets; verify_kkt takes its
    # expected minimum upshadow from this identity
    pairs = [(n, s) for n in range(1, 13) for s in range(1, n + 1) if comb(n, s) <= 15]
    for n, s in pairs + [(6, 3)]:
        for m in range(0, comb(n, s) + 1):
            R = retlex_segment(n, m, s)
            for t in range(s + 1, n + 1):
                got = len(upshadow(R, t).edges)
                assert got == shadow_colex(m, n - s, n - t)


def test_segment_counts_match_formulas():
    for s in (2, 3):
        for m in range(0, comb(7, s) + 1):
            seg = colex_segment(m, s)
            segn = SetFamily(7, s, seg.edges)
            for t in range(s, 8):
                assert len(cliques(segn, t).edges) == k_colex(m, s, t)
            for q in range(0, s):
                assert len(shadow(segn, q).edges) == shadow_colex(m, s, q)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(min_value=0, max_value=126), s=st.integers(min_value=1, max_value=4),
       n=st.integers(min_value=1, max_value=9))
def test_complement_involution_property(m, s, n):
    if s > n or m > comb(n, s):
        return
    H = SetFamily(n, s, colex_segment(m, s).edges)
    co = complement_family(H)
    assert co.s == n - s
    assert len(co.edges) == len(H.edges)
    assert complement_family(co) == H


def test_clique_graph_chain():
    H2K4 = SetFamily.from_edge_lists(
        8, 2,
        [(a + o, b + o) for o in (0, 4) for a in range(1, 5) for b in range(a + 1, 5)],
    )
    G3 = cliques(H2K4, 3)
    assert len(G3.edges) == 8
    assert max_degree(G3, 1) == comb(3, 2)
    assert cliques(H2K4, 2) == H2K4
    # chain property: k^t(H) <= k^t(cliques(H, u))
    assert len(cliques(G3, 4).edges) == len(cliques(H2K4, 4).edges) == 2


def test_text_round_trip(rng):
    for _ in range(20):
        H = random_family(rng, 8, 3)
        assert from_text(to_text(H)) == H
    t = to_text(colex_segment(3, 2))
    assert t.splitlines()[0] == "3 2"
    assert from_text("0 3\n") == SetFamily(0, 3, frozenset())


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        from_text("3\n1 2\n")
    with pytest.raises(ValueError):
        from_text("3 2\n1 2 3\n")     # arity mismatch
    with pytest.raises(ValueError):
        from_text("3 2\n1 4\n")       # out of range
    with pytest.raises(ValueError):
        from_text("3 2\n1 2\n2 1\n")  # duplicate edge


def test_json_round_trip(rng):
    H = random_family(rng, 6, 2)
    obj = to_json_obj(H)
    assert from_json_obj(json.loads(json.dumps(obj))) == H
    assert obj["edges"] == [list(e) for e in H.edge_lists()]
