"""Designs, packings, shadow recognition, and the neighborhood criterion."""

import random
from itertools import combinations
from math import comb

import pytest
from conftest import random_family

import kkcliques.designs as designs
from kkcliques.designs import (
    BlockDesign,
    builtin_design,
    check_neighborhood_clique_criterion,
    recognize_packing_shadow,
    shadow_of_design,
    verify_design,
)
from kkcliques.bounds import steiner_divisibility
from kkcliques.errors import UnsupportedError
from kkcliques.families import (
    SetFamily,
    cliques,
    colex_segment,
    mask_of,
    max_degree,
    neighborhood,
    shadow,
    vertices_of,
)


def test_builtin_shapes():
    specs = {"fano": (7, 3, 7), "s348": (8, 4, 14), "pg23": (13, 4, 13), "ag23": (9, 3, 12)}
    for name, (n, r, b) in specs.items():
        d = builtin_design(name)
        assert (d.n, d.r, len(d.blocks.edges)) == (n, r, b)
    with pytest.raises(ValueError):
        builtin_design("stein(2,3,13)")


def test_builtin_designs_parse_once_and_verify_every_load(monkeypatch):
    designs._load_builtin_table.cache_clear()
    levels = []
    real = designs.verify_design
    monkeypatch.setattr(designs, "verify_design", lambda d, i: levels.append(i) or real(d, i))
    for name in ("fano", "s348", "fano"):
        builtin_design(name)
    assert designs._load_builtin_table.cache_info().misses == 1
    assert levels == [2, 3, 2]


def test_fano_classification_by_level():
    fano = builtin_design("fano")
    c1 = verify_design(fano, 1)
    assert c1.kind == "neither" and c1.witness == (1,)  # vertex degrees are 3
    c2 = verify_design(fano, 2)
    assert c2.kind == "steiner" and c2.witness is None
    c3 = verify_design(fano, 3)
    assert c3.kind == "packing"
    assert c3.witness == (1, 2, 4)  # lowest-colex triple that is not a line
    with pytest.raises(ValueError):
        verify_design(fano, 4)


def test_disjoint_blocks():
    d = builtin_design("disjoint(2,4)")
    assert d.n == 8 and d.r == 4
    assert sorted(d.blocks.edge_lists()) == [(1, 2, 3, 4), (5, 6, 7, 8)]
    # pairwise disjoint blocks are a packing at every level, Steiner at i=1
    assert verify_design(d, 1).kind == "steiner"
    assert verify_design(d, 2).kind == "packing"
    d0 = builtin_design("disjoint(0,5)")
    assert len(d0.blocks.edges) == 0
    assert verify_design(d0, 1).kind == "steiner"  # vacuously: C(0,1) = 0 sets
    with pytest.raises(ValueError):
        builtin_design("disjoint(20,4)")  # 80 vertices > mask width


def test_steiner_divisibility_rows():
    ok, rows = steiner_divisibility(2, 3, 7)
    assert ok and rows == [(0, 6, 42, True), (1, 2, 6, True)]
    ok, rows = steiner_divisibility(2, 3, 8)
    assert not ok
    assert rows == [(0, 6, 56, False), (1, 2, 7, False)]
    with pytest.raises(ValueError):
        steiner_divisibility(4, 3, 8)


def test_shadow_of_design_arity_guard():
    d = builtin_design("fano")
    assert len(shadow_of_design(d, 2).edges) == 21  # S(2,3,7) covers all pairs
    with pytest.raises(ValueError):
        shadow_of_design(d, 3)


@pytest.mark.parametrize("name,s,i,r", [
    ("disjoint(2,4)", 3, 1, 4),
    ("disjoint(3,4)", 3, 1, 4),
    ("disjoint(1,5)", 4, 2, 5),
    ("disjoint(2,5)", 4, 2, 5),
    ("disjoint(2,5)", 3, 1, 5),
])
def test_recognition_round_trip(name, s, i, r):
    d = builtin_design(name)
    H = shadow_of_design(d, s)
    rec = recognize_packing_shadow(H, i, r)
    assert rec.ok and rec.witness is None
    assert rec.design.blocks.edges == d.blocks.edges
    assert rec.design.n == d.n and rec.design.r == r


def test_recognition_rejects_colex_segment():
    H = colex_segment(7, 3)  # K^3_4 plus three edges through vertex 5
    rec = recognize_packing_shadow(H, 1, 4)
    assert not rec.ok
    assert rec.witness == (1,)  # vertex 1 has degree 6, neighborhood not K^2_3


def test_recognition_rejects_perturbed_shadow():
    d = builtin_design("disjoint(2,4)")
    lists = set(shadow_of_design(d, 3).edge_lists())
    lists.discard((1, 2, 3))
    lists.add((1, 2, 5))
    Hp = SetFamily.from_edge_lists(8, 3, sorted(lists))
    rec = recognize_packing_shadow(Hp, 1, 4)
    assert not rec.ok and rec.witness == (1,)


def _recognize_ref(H, i, r):
    """Recognition by one relabelled neighborhood per covered i-set, in
    sorted order: (ok, witness, blocks)."""
    blocks = set()
    for I in sorted(shadow(H, i).edges):
        nb = neighborhood(H, I)
        if nb.family.n != r - i or len(nb.family.edges) != comb(r - i, H.s - i):
            return False, vertices_of(I), None
        blocks.add(I | mask_of(nb.labels))
    return True, None, frozenset(blocks)


def _criterion_ref(H, i, r, t, mode):
    """The criterion's verdict by relabelled neighborhoods, or ValueError
    when the degree bound fails."""
    if max_degree(H, i) > comb(r - i, H.s - i):
        return ValueError
    isets = (sorted(shadow(H, i).edges) if mode == "covered"
             else [mask_of(c) for c in combinations(range(1, H.n + 1), i)])
    return all(len(cliques(neighborhood(H, I).family, t - i).edges) == comb(r - i, t - i)
               for I in isets)


def _recognition_cases():
    """(H, i, r): packing shadows and built-in designs' shadows, each also
    with one edge removed and with one edge added, and random families.
    fano and ag23 have 3-blocks, too small for a shadow at s >= i + 2."""
    rng = random.Random(3217)
    cases = []
    exact = [(builtin_design(f"disjoint({a},{r})"), s, i)
             for a, r, s, i in ((2, 4, 3, 1), (3, 4, 3, 1), (2, 5, 4, 2), (2, 5, 3, 1),
                                (2, 5, 4, 1), (3, 5, 4, 2), (2, 6, 4, 2), (2, 6, 5, 3))]
    exact += [(builtin_design(name), 3, 1) for name in ("s348", "pg23")]
    for d, s, i in exact:
        H = shadow_of_design(d, s)
        missing = [mask_of(c) for c in combinations(range(1, H.n + 1), s)
                   if mask_of(c) not in H.edges]
        cases.append((H, i, d.r))
        cases.append((SetFamily(H.n, s, H.edges - {rng.choice(sorted(H.edges))}), i, d.r))
        if missing:     # the 3-shadow of S(3,4,8) holds every triple
            cases.append((SetFamily(H.n, s, H.edges | {rng.choice(missing)}), i, d.r))
    for _ in range(120):
        n, s = rng.randrange(5, 10), rng.choice((3, 4))
        i = rng.randrange(1, s - 1)
        H = random_family(rng, n, s, rng.choice((0.1, 0.3, 0.6, 0.9)))
        cases.append((H, i, rng.randrange(s + 1, s + 4)))
    return cases


def test_recognition_matches_relabelled_neighborhoods():
    # links read off one pass over the edges give every verdict, witness
    # and block that relabelled neighborhoods give, and so does the
    # criterion at every t and in both modes
    verdicts = set()
    for H, i, r in _recognition_cases():
        rec = recognize_packing_shadow(H, i, r)
        ok, witness, blocks = _recognize_ref(H, i, r)
        assert (rec.ok, rec.witness) == (ok, witness), (H, i, r)
        if ok:
            assert rec.design.blocks.edges == blocks and (rec.design.n, rec.design.r) == (H.n, r)
        verdicts.add(("recognize", ok))
        for t in range(H.s, r + 1):
            for mode in ("covered", "all"):
                want = _criterion_ref(H, i, r, t, mode)
                if want is ValueError:
                    with pytest.raises(ValueError, match="degree"):
                        check_neighborhood_clique_criterion(H, i, r, t, mode)
                else:
                    assert check_neighborhood_clique_criterion(H, i, r, t, mode) == want
                verdicts.add((mode, want))
    assert verdicts >= {(kind, v) for kind in ("recognize", "covered", "all") for v in (True, False)}
    assert ("covered", ValueError) in verdicts


def test_recognition_open_case_raises():
    H = shadow_of_design(builtin_design("disjoint(2,4)"), 3)
    with pytest.raises(UnsupportedError):
        recognize_packing_shadow(H, 2, 4)  # s = i+1
    with pytest.raises(ValueError):
        recognize_packing_shadow(H, 3, 4)  # i >= s
    with pytest.raises(ValueError):
        recognize_packing_shadow(H, 1, 2)  # r < s


def test_recognition_at_r_equal_s():
    # a packing of r-blocks read as its own r-shadow: the rebuilt blocks are
    # compared with H itself, since there is no shadow below r to take
    P = builtin_design("disjoint(2,4)").blocks
    rec = recognize_packing_shadow(P, 1, 4)
    assert rec.ok and rec.design.blocks.edges == P.edges and rec.witness is None
    Q = SetFamily.from_edge_lists(7, 4, [(1, 2, 3, 4), (1, 5, 6, 7)])
    rec = recognize_packing_shadow(Q, 2, 4)     # blocks meeting in one point
    assert rec.ok and rec.design.blocks.edges == Q.edges
    assert verify_design(rec.design, 2).kind == "packing"
    # not packings: vertex 1, and then the pair {1, 2}, lie in two blocks
    assert recognize_packing_shadow(Q, 1, 4).witness == (1,)
    R = SetFamily.from_edge_lists(6, 4, [(1, 2, 3, 4), (1, 2, 5, 6)])
    rec = recognize_packing_shadow(R, 2, 4)
    assert not rec.ok and rec.witness == (1, 2)
    assert check_neighborhood_clique_criterion(P, 1, 4, 4)
    assert check_neighborhood_clique_criterion(P, 1, 4, 4, mode="all")


def test_criterion_covered_vs_all():
    H = shadow_of_design(builtin_design("disjoint(2,4)"), 3)
    # two disjoint 4-blocks on 8 vertices cover every vertex: an S(1,4,8)
    assert check_neighborhood_clique_criterion(H, 1, 4, 4)
    assert check_neighborhood_clique_criterion(H, 1, 4, 4, mode="all")
    G = shadow_of_design(builtin_design("disjoint(2,5)"), 4)
    # pairs across the two 5-blocks are uncovered: packing but not Steiner
    assert check_neighborhood_clique_criterion(G, 2, 5, 4)
    assert check_neighborhood_clique_criterion(G, 2, 5, 5)
    assert not check_neighborhood_clique_criterion(G, 2, 5, 5, mode="all")


def test_criterion_preconditions():
    H = shadow_of_design(builtin_design("disjoint(2,4)"), 3)
    with pytest.raises(ValueError):
        check_neighborhood_clique_criterion(H, 1, 4, 5)  # t > r
    with pytest.raises(UnsupportedError):
        check_neighborhood_clique_criterion(H, 2, 4, 4)  # s = i+1
    C7 = colex_segment(7, 3)
    assert max_degree(C7, 1) > 3
    with pytest.raises(ValueError):
        check_neighborhood_clique_criterion(C7, 1, 4, 4)  # degree bound violated
    with pytest.raises(ValueError):
        check_neighborhood_clique_criterion(H, 1, 4, 4, mode="each")


def test_block_design_validation():
    with pytest.raises(ValueError):
        BlockDesign(7, 4, builtin_design("fano").blocks)  # arity mismatch
