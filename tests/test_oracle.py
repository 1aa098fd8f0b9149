"""Brute-force oracle: canonicalisation, exhaustive search, whole-space sweeps."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from conftest import random_family, stubbed

import kkcliques.oracle as oracle
from kkcliques.cascade import k_colex, shadow_colex
from kkcliques.cli import main, run
from kkcliques.errors import InternalCheckError
from kkcliques.families import (
    SetFamily, _colex_masks, cliques, colex_segment, mask_of, max_degree, relabel, shadow, upshadow)
from kkcliques.oracle import (
    MAX_CANON_GROUND,
    SearchSpec,
    _Kernel,
    canonical_form,
    exhaustive_search,
    tightness_csv,
    tightness_sweep,
    verify_equality_theorems,
    verify_kkt,
    verify_uniqueness,
)

DATA = Path(__file__).parent / "data"


def test_canonical_form_relabelling_invariant(rng):
    for n, s, reps in [(5, 2, 40), (6, 3, 40), (7, 3, 4), (8, 3, 3)]:
        H = random_family(rng, n, s)
        ref = canonical_form(H)
        perm = list(range(1, n + 1))
        for _ in range(reps):
            rng.shuffle(perm)
            assert canonical_form(relabel(H, tuple(perm))) == ref


def test_canonical_form_separates_nonisomorphic():
    matching = SetFamily.from_edge_lists(5, 2, [(1, 2), (3, 4)])
    path = SetFamily.from_edge_lists(5, 2, [(1, 2), (1, 3)])
    assert canonical_form(matching) != canonical_form(path)


def test_canonical_form_ground_cap():
    H = SetFamily.from_edge_lists(MAX_CANON_GROUND + 1, 2, [(1, 2)])
    with pytest.raises(ValueError):
        canonical_form(H)


def test_search_fixed_edge_count():
    r = exhaustive_search(SearchSpec(5, 2, 3, m=7))
    assert (r.status, r.optimum, r.class_count, r.families_scanned) == ("ok", 4, 1, 120)
    assert len(r.witnesses) == 1
    # K_4 plus a pendant edge is the unique maximiser
    assert r.witnesses[0].edge_lists() == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5)]


def test_search_degree_capped():
    r = exhaustive_search(SearchSpec(5, 2, 3, i=1, max_degree=3))
    assert (r.optimum, r.class_count, r.families_scanned) == (4, 1, 768)


def test_search_prescribed_clique_count():
    r = exhaustive_search(SearchSpec(5, 2, 3, u=4, p=1))
    assert (r.optimum, r.class_count, r.families_scanned) == (5, 1, 55)


def test_search_infeasible():
    # the only 10-edge graph on [5] is complete, with degree 4
    r = exhaustive_search(SearchSpec(5, 2, 3, m=10, i=1, max_degree=2))
    assert r.status == "infeasible"
    assert r.optimum is None and r.class_count == 0 and r.witnesses == []


def test_search_three_uniform_regression():
    spec = SearchSpec(6, 3, 4, i=2, max_degree=2)
    r = exhaustive_search(spec)
    assert (r.optimum, r.class_count, r.families_scanned) == (1, 3, 33652)
    # every maximiser contains K^3_4; the other classes pad it with edges
    # meeting the clique in at most one vertex
    k34 = {frozenset(e) for e in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))}
    for w in r.witnesses:
        assert k34 <= {frozenset(e) for e in w.edge_lists()}


def test_search_thread_determinism():
    spec = SearchSpec(6, 3, 4, i=2, max_degree=2)
    a = exhaustive_search(spec, threads=1)
    b = exhaustive_search(spec, threads=3)
    assert a.optimum == b.optimum
    assert a.families_scanned == b.families_scanned
    assert [w.edges for w in a.witnesses] == [w.edges for w in b.witnesses]


def _brute_search(spec):
    """(optimum, families_scanned, class_count) by enumerating edge subsets."""
    universe = [mask_of(c) for c in combinations(range(1, spec.n + 1), spec.s)]
    sizes = range(len(universe) + 1) if spec.m is None else (spec.m,)
    best, scanned, attainers = None, 0, []
    for size in sizes:
        for edges in combinations(universe, size):
            H = SetFamily(spec.n, spec.s, frozenset(edges))
            if spec.i is not None:
                deg = size if spec.i == 0 else max_degree(H, spec.i)
                if deg > spec.max_degree:
                    continue
            if spec.u is not None and len(cliques(H, spec.u).edges) != spec.p:
                continue
            scanned += 1
            val = len(cliques(H, spec.t).edges)
            if best is None or val > best:
                best, attainers = val, []
            if val == best:
                attainers.append(H)
    # beyond canonical_form's n <= 8 the universe cap leaves s in {1, n-1, n},
    # where two families are isomorphic iff they have as many edges
    keys = {canonical_form(H) if spec.n <= MAX_CANON_GROUND else len(H.edges) for H in attainers}
    return best, scanned, len(keys)


def test_search_matches_brute_force():
    rng = random.Random(7)
    pairs = [(n, s) for n in range(1, 11) for s in range(1, n + 1) if comb(n, s) <= 10]
    for _ in range(40):
        n, s = rng.choice(pairs)
        U = comb(n, s)
        kw = {"m": rng.randint(0, U)} if rng.random() < 0.5 else {}
        if s > 1 and rng.random() < 0.5:
            i = rng.randint(0, s - 1)
            kw.update(i=i, max_degree=rng.randint(0, comb(n - i, s - i)))
        if rng.random() < 0.3:
            u = rng.randint(s, n)
            kw.update(u=u, p=rng.randint(0, min(comb(n, u), 4)))
        spec = SearchSpec(n, s, rng.randint(s, n), **kw)
        r = exhaustive_search(spec)
        assert (r.optimum, r.families_scanned, r.class_count) == _brute_search(spec), spec
        assert r.status == ("infeasible" if r.optimum is None else "ok")
        assert len(r.witnesses) == r.class_count


def test_search_streams_large_universe():
    # C(7,2) = 21 edges: two blocks of ids; K_5 holds 10 edges and 10 triangles
    r = exhaustive_search(SearchSpec(7, 2, 3, m=10))
    assert (r.optimum, r.families_scanned, r.class_count) == (10, comb(21, 10), 1)


def test_search_widest_universe():
    # 24 singletons: a family of two vertices spans one 2-clique, and all
    # C(24,12) = 2,704,156 families of twelve form one class
    r = exhaustive_search(SearchSpec(24, 1, 2, m=2))
    assert (r.optimum, r.families_scanned, r.class_count) == (1, 276, 1)
    r = exhaustive_search(SearchSpec(24, 1, 2, m=12))
    assert (r.optimum, r.families_scanned, r.class_count) == (66, 2704156, 1)
    assert r.witnesses[0].edge_lists() == [(v,) for v in range(1, 13)]


def test_classes_match_canonical_forms():
    # over every id of a shape, _Shape.classes gives each class once, in order
    # of its lowest id, with its lowest and highest ids, canonical_form's
    # least labelling and the number of ids in the class, whether it reads
    # the classes off the edge counts (s in {1, n-1, n}) or walks the
    # relabellings, where the orbit id with the largest bit-reversed value
    # must be canonical_form's least sorted edge row
    for n in range(1, MAX_CANON_GROUND + 1):
        for s in range(1, n + 1):
            if comb(n, s) > 12:
                continue
            shape = oracle._shape(n, s)
            members = {}
            for fid in range(1 << shape.U):
                members.setdefault(canonical_form(shape.family_of(fid)), []).append(fid)
            want = [(ids[0], ids[-1], form, len(ids)) for form, ids in members.items()]
            got = [(lo, hi, bytes((n, s)) + bytes(shape.masks_of(least)), size)
                   for lo, hi, least, size in zip(*(a.tolist() for a in shape.classes))]
            assert got == want, (n, s)


def test_wide_universes_do_not_count_k_sets_one_by_one():
    # C(20,10) = 184,756 10-sets and C(18,9) = 48,620 9-sets: a numpy pass per
    # k-set took about 18 s for the first search and about 55 s for the sweep
    r = exhaustive_search(SearchSpec(20, 1, 10, m=2))
    assert (r.status, r.optimum, r.class_count, r.families_scanned) == ("ok", 0, 1, 190)
    assert exhaustive_search(SearchSpec(20, 1, 2, m=2)).optimum == 1
    rep = verify_kkt(18, 1)
    assert rep.ok and rep.families == 2 ** 18


def test_search_canonicalises_once_per_class():
    # every 7-vertex graph has no 7-clique, so each is an attainer; the class
    # counts are the numbers of graphs on 7 vertices with 4 and 10 edges
    # (OEIS A008406)
    for m, classes in ((4, 10), (10, 148)):
        r = exhaustive_search(SearchSpec(7, 2, 7, m=m))
        assert (r.status, r.optimum) == ("ok", 0)
        assert (r.class_count, r.families_scanned) == (classes, comb(21, m))
        keys = [canonical_form(w) for w in r.witnesses]
        assert keys == [bytes((7, 2)) + bytes(sorted(w.edges)) for w in r.witnesses]
        assert keys == sorted(set(keys))


def test_search_rejects_attainers_not_closed_under_relabelling():
    # a t-clique count that singles out one labelled member of the witness's
    # class (K_4 plus a pendant edge; K_5 in a 7-vertex graph; two points),
    # its lowest or its highest member, the two the search counts, breaks
    # the symmetry that lets one family stand for its class
    block = oracle._Kernel.block
    skewed_id = []

    def skewed(self, levels, ids):
        cnt = block(self, levels, ids).copy()
        cnt[levels.index(spec.t)] += np.asarray(ids) == skewed_id[0]
        return cnt
    for spec in [SearchSpec(5, 2, 3, m=7), SearchSpec(7, 2, 3, m=10), SearchSpec(10, 1, 2, m=2)]:
        ker = _Kernel(spec.n, spec.s)
        witness = sum(1 << ker.universe.index(e) for e in exhaustive_search(spec).witnesses[0].edges)
        lo, hi, least, _ = oracle._shape(spec.n, spec.s).classes
        c = least.tolist().index(witness)
        assert lo[c] < hi[c]
        for fid in (lo[c], hi[c]):
            skewed_id[:] = [fid]
            with stubbed() as mp:
                mp.setattr(oracle._Kernel, "block", skewed)
                with pytest.raises(InternalCheckError, match="counts differ within a class"):
                    exhaustive_search(spec)


def test_kernel_counts_do_not_wrap():
    # the whole family holds all C(18,9) 9-sets; C(24,12) = 2,704,156 is the
    # largest count any level takes, at id 2^24 - 1
    ker = _Kernel(18, 1)
    assert ker.block((9,), [(1 << ker.U) - 1])[0, -1] == comb(18, 9)
    ker = _Kernel(24, 1)
    cnt = ker.block((1, 12), [0, 2**12 - 1, 2**24 - 1])
    assert cnt.dtype == np.uint32
    assert cnt.tolist() == [[0, 12, 24], [0, 1, comb(24, 12)]]


def _direct_counts(n, s, F, k):
    """Per id in F, the full and the meet count of level k: the tests
    (F & km) == km and (F & km) != 0 against the edge mask km of every k-set
    from combinations, summed over the k-sets."""
    universe = sorted(sum(1 << v for v in e) for e in combinations(range(n), s))
    kms = []
    for K in combinations(range(n), k):
        km = sum(1 << v for v in K)
        kms.append(sum(1 << j for j, e in enumerate(universe)
                       if (e & km == km if k < s else e & km == e)))
    hits = F[:, None] & np.array(kms, dtype=np.uint32)
    return (hits == np.array(kms, dtype=np.uint32)).sum(axis=1), (hits != 0).sum(axis=1)


@pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 17) for s in range(1, n + 1)
                                 if comb(n, s) <= 16])
def test_kernel_counts_match_direct_passes(n, s):
    # every id when U <= 12, else a seeded sample that includes both ends;
    # one level at a time and every level in one call, and the meet counts
    # as C(n,k) minus the full count of the complement
    U = comb(n, s)
    if U <= 12:
        F = np.arange(1 << U, dtype=np.uint32)
    else:
        pick = random.Random(U).sample(range(1, (1 << U) - 1), 254)
        F = np.array(sorted(pick + [0, (1 << U) - 1]), dtype=np.uint32)
    ker = _Kernel(n, s)
    every = ker.block(tuple(range(n + 1)), F)
    assert every.dtype == np.min_scalar_type(comb(n, n // 2))
    for k in range(n + 1):
        full, meet = _direct_counts(n, s, F, k)
        got = ker.block((k,), F)[0]
        assert got.dtype == np.min_scalar_type(comb(n, k))
        assert got.tolist() == every[k].tolist() == full.tolist(), k
        assert (comb(n, k) - ker.block((k,), (1 << U) - 1 - F)[0].astype(int)).tolist() == meet.tolist(), k


def test_edge_perms_table():
    # (8,4) has the widest universe, C(8,4) = 70 edges
    oracle._edge_perms.cache_clear()
    tracemalloc.start()
    try:
        universe, P = oracle._edge_perms(8, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert P.dtype == np.uint8 and P.shape == (40320, 70)
    edges = universe.tolist()
    assert edges == sorted(mask_of(c) for c in combinations(range(1, 9), 4))
    perms = list(permutations(range(8)))
    for p in (0, 1, 777, 20000, len(perms) - 1):
        images = [sum(1 << perms[p][v] for v in range(8) if e >> v & 1) for e in edges]
        assert P[p].tolist() == [edges.index(e) for e in images]


def test_canonical_form_matches_brute_force():
    # the least sorted edge list over all relabellings, by families.relabel
    def brute(H):
        return min(bytes((H.n, H.s)) + bytes(sorted(relabel(H, p).edges))
                   for p in permutations(range(1, H.n + 1)))

    rng = random.Random(11)
    for n, s in ((4, 2), (4, 3)):
        sets = [mask_of(c) for c in combinations(range(1, n + 1), s)]
        for fid in range(1 << len(sets)):
            H = SetFamily(n, s, frozenset(e for j, e in enumerate(sets) if fid >> j & 1))
            assert canonical_form(H) == brute(H)
    for n, s in ((5, 2), (6, 3)):
        for _ in range(40):
            H = random_family(rng, n, s, density=rng.random())
            assert canonical_form(H) == brute(H)


@pytest.mark.parametrize("kwargs", [
    dict(n=8, s=3, t=4),                      # C(8,3) = 56 > universe cap
    dict(n=5, s=2, t=3, i=1),                 # i without max_degree
    dict(n=5, s=2, t=3, u=4),                 # u without p
    dict(n=5, s=2, t=3, m=11),
    dict(n=5, s=2, t=3, i=2, max_degree=1),   # i >= s
    dict(n=5, s=3, t=2),
])
def test_search_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SearchSpec(**kwargs)


@pytest.mark.parametrize("n,s", [(3, 5), (5, 0), (40, 41)])
def test_sweep_domain(n, s):
    # C(n,s) = 0 for s > n passed the universe cap and then counted every
    # q-set of [n]: verify kkt 40 41 overflowed uint32 masks
    with pytest.raises(ValueError, match="need 1 <= s <= n"):
        verify_kkt(n, s)
    r = run(["verify", "kkt", str(n), str(s)])
    assert r.exit_status == 1 and r.payload["error"] == "ValueError"


def _record(monkeypatch, *names):
    """Calls to the named _Kernel methods, as (name, first argument)."""
    calls = []
    for name in names:
        real = getattr(oracle._Kernel, name)
        monkeypatch.setattr(oracle._Kernel, name, lambda self, k, *a, name=name, real=real:
                            calls.append((name, k)) or real(self, k, *a))
    return calls


def _record_seams(monkeypatch, *names):
    """Calls to the named oracle module functions, by name."""
    calls = []
    for name in names:
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    return calls


def test_kkt_sweep_builds_each_level_once(oracle_patch):
    # levels 0..5 on [5]; shadows and upshadows come from the full counts
    calls = _record(oracle_patch, "masks")
    assert verify_kkt(5, 2).ok
    assert sorted(k for _, k in calls) == list(range(6))


def test_second_kkt_sweep_builds_no_masks(oracle_patch):
    # the (6,3) class counts of every level are kept for the process
    verify_kkt(6, 3)
    calls = _record(oracle_patch, "masks")
    assert verify_kkt(6, 3).ok
    assert calls == []


def test_second_search_builds_no_masks(oracle_patch):
    # the (6,3) class counts and i-degree caps are kept for the process
    spec = SearchSpec(6, 3, 4, m=4, i=1, max_degree=3)
    exhaustive_search(spec)
    calls = _record(oracle_patch, "masks")
    assert exhaustive_search(spec).optimum == 1
    assert calls == []


@pytest.mark.parametrize("n,s,spec", [(6, 3, SearchSpec(6, 3, 4, m=4, i=1, max_degree=3)),
                                      (18, 17, SearchSpec(18, 17, 18, i=16, max_degree=2))],
                         ids=["6-3", "18-17"])
def test_second_sweep_or_search_counts_nothing(oracle_patch, n, s, spec):
    # a shape's class counts and i-degree caps are kept for the process: a
    # second sweep or search reads them and builds no kernel masks
    first = verify_kkt(n, s), exhaustive_search(spec)
    assert first[0].ok and first[1].optimum == 1
    calls = _record(oracle_patch, "block", "masks")
    assert (verify_kkt(n, s), exhaustive_search(spec)) == first
    assert calls == []


def test_wide_search_builds_only_the_levels_it_reads(oracle_patch):
    # levels are counted as they are read: every level of (24, 1) would
    # take 64 MB of masks, levels 1 and 13 and the 0-degree cap 10 MB
    calls = _record(oracle_patch, "masks")
    r = run(["search", "24", "1", "13", "--degree", "0", "12"])
    assert r.exit_status == 0 and (r.payload["optimum"], r.payload["class_count"]) == ("0", 13)
    assert sorted(k for _, k in calls) == [0, 1, 13]


def test_colex_array_matches_colex_masks():
    for n in range(13):
        for k in range(n + 3):
            got = oracle._colex_array(n, k)
            assert got.dtype == np.uint32
            assert got.tolist() == list(_colex_masks(n, k)), (n, k)


def test_kkt_sweep_reports_a_segment_that_does_not_attain(oracle_patch):
    # right extremes, but the class of C_2(3), the triangle, read as the
    # next class with 3 edges, the star K_{1,3} (ids 7 and 11): only the
    # attain rows that read the triangle's counts fail, the shadow at level
    # 1 (the star leaves one point, not two, out) and the triangle count.
    # The upshadow row reads the retlex segment with 7 edges, the
    # complement of C_2(3), whose class is read through the skewed column
    shape = oracle._shape(5, 2)
    cnt, comp, colex = shape.sweep
    lo = shape.classes[0]
    assert (lo[colex[3]], lo[colex[3] + 1]) == (7, 11)
    colex = colex.copy()
    colex[3] += 1
    shape.sweep = cnt, comp, colex
    rep = verify_kkt(5, 2)
    assert [(f["kind"], f["level"]) for f in rep.failures] == [
        ("shadow-colex-attain", 1), ("cliques-colex-attain", 3), ("upshadow-retlex-attain", 3)]


def test_kkt_sweep_self_test(oracle_patch):
    # level s counts the edges of every family: a count one too high at
    # every family with two edges, both members of each class alike, trips
    # it, not the check within a class
    block = oracle._Kernel.block

    def skewed(self, levels, ids):
        cnt = block(self, levels, ids).copy()
        cnt[levels.index(self.s)] += np.bitwise_count(np.asarray(ids)) == 2
        return cnt
    oracle_patch.setattr(oracle._Kernel, "block", skewed)
    with pytest.raises(InternalCheckError, match="kernel self-test"):
        verify_kkt(4, 2)


def test_self_test_runs_on_every_count(oracle_patch):
    # a search that meets a new level counts level s again with it, so a
    # skewed level s trips the self-test although level s is already kept
    assert exhaustive_search(SearchSpec(6, 3, 4)).optimum == 15
    block = oracle._Kernel.block

    def skewed(self, levels, ids):
        cnt = block(self, levels, ids).copy()
        if self.s in levels:
            cnt[levels.index(self.s)] += 1
        return cnt
    oracle_patch.setattr(oracle._Kernel, "block", skewed)
    assert exhaustive_search(SearchSpec(6, 3, 4)).optimum == 15
    with pytest.raises(InternalCheckError, match="kernel self-test"):
        exhaustive_search(SearchSpec(6, 3, 5))


def test_search_rejects_bad_threads():
    with pytest.raises(ValueError):
        exhaustive_search(SearchSpec(4, 2, 3), threads=0)


@pytest.mark.parametrize("n,s", [(4, 2), (5, 3), (6, 2)])
def test_whole_space_extremal_sweep(n, s):
    rep = verify_kkt(n, s)
    assert rep.ok and rep.failures == []
    assert rep.families == 2 ** (n * (n - 1) // 2 if s == 2 else 10)
    assert any(c.startswith("min shadow") for c in rep.checks)
    assert any(c.startswith("max cliques") for c in rep.checks)
    assert any(c.startswith("min upshadow") for c in rep.checks)


def test_uniqueness_sweep_domain():
    # past 8 points the 24-edge cap admits only s in {1, n - 1, n}, where the
    # colex orbit is every family with m edges and needs no relabelling table
    rep = verify_uniqueness(9, 1)
    assert rep.ok and rep.families == 2 ** 9
    assert len(rep.checks) == 10 * 8    # m = 0..9; t = 2..9
    r = run(["verify", "uniqueness", "9", "1"])
    assert r.exit_status == 0 and r.payload["ok"]
    with pytest.raises(ValueError, match="exceeds sweep cap"):
        verify_uniqueness(9, 2)


@pytest.mark.parametrize("n,s", [(4, 2), (5, 2)])
def test_whole_space_uniqueness_sweep(n, s):
    rep = verify_uniqueness(n, s)
    assert rep.ok and rep.failures == []


@pytest.mark.parametrize("n,s", [(7, 2), (7, 5)])
def test_kkt_sweep_on_21_edge_universe(n, s):
    # 2^21 families: every graph on 7 vertices, and its complement family
    rep = verify_kkt(n, s)
    assert rep.ok and rep.families == 2 ** 21
    assert rep.checks == [f"min shadow q={q}" for q in range(s)] + [
        f"max cliques t={t}" for t in range(s, 8)] + [
        f"min upshadow t={t}" for t in range(s + 1, 8)]


def test_uniqueness_sweep_holds_every_clique_verdict_at_s_1():
    # at s = 1 every m-set of points is a relabelling of every other, so
    # every clique verdict is True, t = n included, and each must meet its
    # attainers: all C(n, m) families with m edges
    for n in range(2, 9):
        assert verify_uniqueness(n, 1).ok, n
        rows, _, verdict, *_ = oracle._shape(n, 1).uniqueness
        assert [kind for kind, *_ in rows] == ["clique"] * (n - 1) and verdict.all(), n


def test_uniqueness_sweep_on_every_graph_on_7_vertices():
    rep = verify_uniqueness(7, 2)
    assert rep.ok and rep.families == 2 ** 21
    assert len(rep.checks) == 22 * 6    # m = 0..21; q = 1 and t = 3..7


def test_class_count_self_test(oracle_patch):
    # level s of the class counts is every id's edge count, checked on both
    # sweeps; one skewed count is enough
    block = oracle._Kernel.block

    def skewed(self, levels, ids):
        cnt = block(self, levels, ids)
        if self.s in levels:
            cnt = cnt.copy()
            cnt[levels.index(self.s), -1] += 1
        return cnt
    oracle_patch.setattr(oracle._Kernel, "block", skewed)
    for sweep, shape in ((verify_kkt, (4, 3)), (verify_kkt, (18, 17)),
                         (verify_uniqueness, (7, 6)), (verify_uniqueness, (9, 1))):
        with pytest.raises(InternalCheckError, match="kernel self-test"):
            sweep(*shape)


def test_warm_symmetric_sweep_calls_a_patched_seam():
    # a stub bound on a store cleared after warm sweeps of a symmetric
    # shape is the one called, and the real one after the store is cleared
    # again
    assert verify_kkt(7, 6).ok and verify_uniqueness(7, 6).ok
    calls = []
    with stubbed() as mp:
        real = oracle.k_colex
        mp.setattr(oracle, "k_colex", lambda m, s, t: calls.append(t) or real(m, s, t) + 1)
        rep = verify_kkt(7, 6)
        assert sorted(set(calls)) == [6, 7]
        assert {(f["kind"], f["level"]) for f in rep.failures} == {
            ("cliques", 6), ("cliques", 7), ("cliques-colex-attain", 6), ("cliques-colex-attain", 7)}
        with pytest.raises(InternalCheckError, match="colex orbit not attaining max cliques"):
            verify_uniqueness(7, 6)
    assert verify_kkt(7, 6).ok and verify_uniqueness(7, 6).ok


def test_symmetric_sweep_memory():
    # the class counts test about 2^20 (id, k-set) pairs per block() call
    tracemalloc.start()
    try:
        assert verify_kkt(18, 17).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def _every_id_counts(n, s):
    """Per level k and every id of (n, s): its full and its meet count
    (_direct_counts, 2^16 ids at a time), as uint8 arrays [k, id]."""
    U = comb(n, s)
    full, meet = (np.empty((n + 1, 1 << U), dtype=np.uint8) for _ in range(2))
    for c0 in range(0, 1 << U, 1 << 16):
        F = np.arange(c0, min(c0 + (1 << 16), 1 << U), dtype=np.uint32)
        for k in range(n + 1):
            full[k, c0:c0 + len(F)], meet[k, c0:c0 + len(F)] = _direct_counts(n, s, F, k)
    return full, meet


def _extremes(m, v, pick, U, weights=1):
    """Per edge count 0..U: the largest (pick = np.maximum) or least
    (np.minimum) value of v over the entries with that count, and the
    number of entries attaining it, each weighing weights."""
    v = v.astype(np.int64)
    ext = np.full(U + 1, -1 if pick is np.maximum else 1 << 30)
    pick.at(ext, m, v)
    return ext.tolist(), np.bincount(m, weights=np.where(v == ext[m], weights, 0),
                                     minlength=U + 1).astype(np.int64).tolist()


NON_SYMMETRIC = [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4), (7, 2), (7, 5)]


def test_class_table_matches_every_id():
    # one family per isomorphism class stands for every id: on each shape
    # whose classes come from the relabelling walk, the class sizes add up
    # to 2^U, and to C(U, m) per edge count, and per level and m the largest
    # full count, the least meet count and the number of ids attaining each,
    # over every id, are those the classes give, each weighing its size.
    # The class counts are those of graphs on 4 to 7 vertices (OEIS
    # A000088) and of 3-graphs on 6 (2136); (n, s) and (n, n - s) match.
    for (n, s), classes in zip(NON_SYMMETRIC, (11, 34, 34, 156, 2136, 156, 1044, 1044)):
        U = comb(n, s)
        shape = oracle._shape(n, s)
        lo, _, _, sizes = shape.classes
        mc = np.bitwise_count(lo)
        assert len(lo) == classes and int(sizes.sum()) == 1 << U, (n, s)
        assert np.bincount(mc, weights=sizes).tolist() == [comb(U, m) for m in range(U + 1)]
        cnt, comp, _ = shape.sweep
        full, meet = _every_id_counts(n, s)
        m_all = np.bitwise_count(np.arange(1 << U, dtype=np.uint32))
        for k in range(n + 1):
            for every, per_class, pick in ((full[k], cnt[k], np.maximum),
                                           (meet[k], comb(n, k) - cnt[k, comp], np.minimum)):
                assert (_extremes(m_all, every, pick, U)
                        == _extremes(mc, per_class, pick, U, sizes)), (n, s, k, pick)


def test_class_table_sizes_must_add_up(oracle_patch):
    # a walk that misses a class fails: without the (4, 1) link class of
    # four edges, vertex 5 of degree 4, the walk over (5, 2) misses K_5,
    # the only graph that has no vertex of smaller degree to relabel as 5
    link = oracle._shape(4, 1)
    link.classes = tuple(a[:-1] for a in link.classes)
    with pytest.raises(InternalCheckError, match="classes of \\(5,2\\) hold 1023 of 2\\^10"):
        oracle._shape(5, 2).classes


def test_link_search_matches_full_search(capsys):
    # the search counts one family per class, walked from the link classes
    # at vertex n, and weighs each by its class size: the optimum and
    # families_scanned are those of a search over every id, the witnesses
    # attain, are pairwise non-isomorphic and their classes hold every
    # attainer, and the pinned payload holds byte for byte
    rng = random.Random(23)
    feasible = multiclass = 0
    for n, s in ((6, 3), (7, 2)):
        U = comb(n, s)
        specs = []
        for _ in range(25):
            m = rng.randint(0, U)
            kw = {"m": m}
            # caps from the mean i-degree up, u-clique counts up to the most
            # that m edges span, so most specs are feasible
            if rng.random() < 0.6:
                i = rng.randint(1, s - 1)
                kw.update(i=i, max_degree=rng.randint(-(-m * comb(s, i) // comb(n, i)),
                                                      comb(n - i, s - i)))
            if rng.random() < 0.4:
                u = rng.randint(s + 1, n)
                kw.update(u=u, p=rng.randint(0, k_colex(m, s, u)))
            specs.append(SearchSpec(n, s, rng.randint(s, n), **kw))
        if n == 6:
            specs += [SearchSpec(6, 3, 4), SearchSpec(6, 3, 4, i=2, max_degree=2),
                      SearchSpec(6, 3, 5, i=1, max_degree=4, u=4, p=3)]
        full = _every_id_counts(n, s)[0]
        F = np.arange(1 << U, dtype=np.uint32)
        m_of = np.bitwise_count(F)
        universe = list(_colex_masks(n, s))
        deg = {i: np.max([np.bitwise_count(F & sum(1 << j for j, e in enumerate(universe) if e & I == I))
                          for I in map(mask_of, combinations(range(1, n + 1), i))], axis=0)
               for i in range(s)}
        for spec in specs:
            ok = np.ones(len(F), dtype=bool) if spec.m is None else m_of == spec.m
            if spec.i is not None:
                ok &= deg[spec.i] <= spec.max_degree
            if spec.u is not None:
                ok &= full[spec.u] == spec.p
            r = exhaustive_search(spec)
            assert r.families_scanned == int(ok.sum()), spec
            if not ok.any():
                assert (r.status, r.optimum, r.witnesses) == ("infeasible", None, []), spec
                continue
            best = int(full[spec.t][ok].max())
            attainers = set(np.flatnonzero(ok & (full[spec.t] == best)).tolist())
            ids = [sum(1 << universe.index(e) for e in w.edges) for w in r.witnesses]
            sizes = [len(np.unique(np.bitwise_or.reduce(
                np.uint32(1) << oracle._images(n, s, list(w.edges))[0], axis=1))) for w in r.witnesses]
            assert (r.status, r.optimum, r.class_count) == ("ok", best, len(ids)), spec
            assert set(ids) <= attainers and sum(sizes) == len(attainers), spec
            assert len({canonical_form(w) for w in r.witnesses}) == len(ids), spec
            feasible += 1
            multiclass += len(ids) > 1
    assert feasible > 40 and multiclass > 10, (feasible, multiclass)
    assert main(["search", "6", "3", "4", "--edges", "6", "--degree", "1", "5"]) == 0
    assert capsys.readouterr().out == (DATA / "search_6_3_4_edges6_degree1_5.json").read_text()


def _shifted_shadow(shift):
    return lambda m, s, q: max(shadow_colex(m, s, q) + shift, 0)


@pytest.mark.parametrize("shift", [1, -1])
def test_meet_failure_rows_match_brute_force(oracle_patch, shift):
    # with the expected values shifted every shadow and upshadow row fails;
    # its got and family must match shadow/upshadow taken on every family
    oracle_patch.setattr(oracle, "shadow_colex", _shifted_shadow(shift))
    for n, s in [(4, 2), (4, 3)]:
        universe = sorted(mask_of(c) for c in combinations(range(1, n + 1), s))
        U = len(universe)
        fams = [SetFamily(n, s, frozenset(e for j, e in enumerate(universe) if fid >> j & 1))
                for fid in range(1 << U)]
        seg = {"colex": [(1 << m) - 1 for m in range(U + 1)],
               "retlex": [(1 << U) - (1 << (U - m)) for m in range(U + 1)]}
        rows = verify_kkt(n, s).failures
        shifted = oracle.shadow_colex
        for kind, levels, size, segment, expected in (
                ("shadow", range(s), shadow, "colex", lambda m, q: shifted(m, s, q)),
                ("upshadow", range(s + 1, n + 1), upshadow, "retlex",
                 lambda m, t: shifted(m, n - s, n - t))):
            for level in levels:
                val = [len(size(H, level).edges) for H in fams]
                want = [min(v for fid, v in enumerate(val) if fid.bit_count() == m)
                        for m in range(U + 1)]
                got = [r for r in rows if r["kind"] == kind and r["level"] == level]
                assert [r["m"] for r in got] == [
                    m for m in range(U + 1) if want[m] != expected(m, level)]
                for r in got:
                    m, e = r["m"], expected(r["m"], level)
                    assert r["expected"] == e
                    beat = [fid for fid, v in enumerate(val) if fid.bit_count() == m and v < e]
                    fid = beat[0] if beat else seg[segment][m]
                    assert (r["got"], r["family"]) == (want[m], fams[fid].edge_lists())
                attain = [r for r in rows if r["kind"] == f"{kind}-{segment}-attain"
                          and r["level"] == level]
                assert [r["got"] for r in attain] == [[val[f] for f in seg[segment]]]


def _flip_verdict(monkeypatch, name, m, level):
    real = getattr(oracle, name)

    def flipped(m_, s, level_, n):
        v = real(m_, s, level_, n)
        if (m_, level_) == (m, level):
            return dataclasses.replace(v, verdict=not v.verdict)
        return v
    monkeypatch.setattr(oracle, name, flipped)


def test_uniqueness_sweep_reports_wrong_colex_verdict(oracle_patch):
    # C_2(5) on [5] is the unique shadow minimiser; a False verdict fails
    _flip_verdict(oracle_patch, "is_colex_unique", 5, 1)
    rep = verify_uniqueness(5, 2)
    assert rep.failures == [{
        "kind": "colex_unique", "m": 5, "level": 1, "verdict": False,
        "attainers": 30, "orbit": 30, "family": None,
    }]


def test_uniqueness_sweep_reports_wrong_clique_verdict(oracle_patch):
    # 4-edge graphs with one triangle: triangle plus pendant edge (the colex
    # orbit, 60 labellings) or triangle plus disjoint edge (10 more)
    _flip_verdict(oracle_patch, "is_clique_unique", 4, 3)
    rep = verify_uniqueness(5, 2)
    assert rep.failures == [{
        "kind": "clique_unique", "m": 4, "level": 3, "verdict": True,
        "attainers": 70, "orbit": 60, "family": [(2, 3), (2, 4), (3, 4), (1, 5)],
    }]
    # the reported family is the lowest-id attainer outside the orbit
    H = SetFamily.from_edge_lists(5, 2, rep.failures[0]["family"])
    assert len(cliques(H, 3).edges) == k_colex(4, 2, 3)
    assert canonical_form(H) != canonical_form(SetFamily(5, 2, colex_segment(4, 2).edges))


@pytest.mark.parametrize("name", ["shadow_colex", "k_colex"])
def test_uniqueness_sweep_rejects_orbit_outside_attainers(oracle_patch, name):
    real = getattr(oracle, name)
    oracle_patch.setattr(oracle, name, lambda m, s, level: real(m, s, level) + 1)
    with pytest.raises(InternalCheckError, match="colex orbit not attaining"):
        verify_uniqueness(4, 3 if name == "shadow_colex" else 2)


def _flip_all(real):
    return lambda m, s, level, n: dataclasses.replace(
        real(m, s, level, n), verdict=not real(m, s, level, n).verdict)


# each module seam of the sweeps, the shape it is checked on, and a stub
SEAMS = [
    ("k_colex", verify_kkt, (5, 2), lambda real: lambda m, s, t: real(m, s, t) + 1),
    ("shadow_colex", verify_kkt, (5, 2), lambda real: lambda m, s, q: max(real(m, s, q) - 1, 0)),
    ("is_colex_unique", verify_uniqueness, (5, 3), _flip_all),
    ("is_clique_unique", verify_uniqueness, (5, 3), _flip_all),
]


@pytest.mark.parametrize("name,sweep,shape,stub", SEAMS, ids=[s[0] for s in SEAMS])
def test_warm_sweeps_still_call_a_patched_seam(name, sweep, shape, stub):
    # rows and verdicts are kept per shape, so a stub is bound on a store
    # cleared after warm sweeps: it is the one called, cold and warm, and
    # the real one once the store is cleared again
    assert verify_kkt(5, 2).ok and verify_uniqueness(5, 3).ok
    with stubbed() as mp:
        mp.setattr(oracle, name, stub(getattr(oracle, name)))
        cold = sweep(*shape).failures
        assert cold and sweep(*shape).failures == cold
    assert sweep(*shape).ok


@pytest.mark.parametrize("n,s", [(6, 3), (18, 17)], ids=["6-3", "18-17"])
def test_warm_sweeps_call_no_closed_form(oracle_patch, n, s):
    # a warm sweep reads its expected rows, verdict rows and table from the
    # store: wrappers bound on the four seams, as the benchmark's tracer
    # binds them before each traced pass, are not called
    warm = verify_kkt(n, s), verify_uniqueness(n, s)
    assert warm[0].ok and warm[1].ok
    calls = _record_seams(oracle_patch, *(name for name, *_ in SEAMS))
    assert (verify_kkt(n, s), verify_uniqueness(n, s)) == warm
    assert calls == []


def _leaves(v):
    """The values inside nested tuples and dicts."""
    if isinstance(v, dict):
        v = tuple(v.values())
    return [a for x in v for a in _leaves(x)] if isinstance(v, tuple) else [v]


def test_kept_rows_and_orbits_are_read_only():
    # each shape's universe, class table, class counts, i-degree caps,
    # witnesses, expected and verdict rows, sweep arrays and the two sweeps'
    # tables: every array is read-only, every witness a frozen SetFamily,
    # every other value an int, bool or string inside tuples; and after a
    # search and both sweeps each class's edge count is kept once, as the
    # level-s count row
    oracle._shape.cache_clear()
    verify_kkt(5, 2)
    verify_kkt(5, 3)
    verify_uniqueness(5, 3)
    res = exhaustive_search(SearchSpec(5, 3, 4, i=1, max_degree=6))
    shape = oracle._shape(5, 3)
    # K_5^(3), the one attaining class, is the last class of (5, 3)
    full = len(shape.classes[0]) - 1
    assert set(vars(shape)) == {"n", "s", "U", "universe", "counts", "degree", "witness", "rows",
                                "classes", "sweep", "kkt", "uniqueness"}
    assert (set(shape.counts), set(shape.degree), set(shape.witness)) == (
        set(range(6)), {1}, {full})
    # shadows q = 0..2, cliques t = 3..5, upshadows t = 4, 5 as the
    # 1- and 0-shadows of 2-sets, and the verdicts at q = 1, 2 and t = 4, 5
    assert set(shape.rows) == {
        ("shadow_colex", 3, 0), ("shadow_colex", 3, 1), ("shadow_colex", 3, 2),
        ("k_colex", 3, 3), ("k_colex", 3, 4), ("k_colex", 3, 5),
        ("shadow_colex", 2, 1), ("shadow_colex", 2, 0),
        ("is_colex_unique", 3, 1, 5), ("is_colex_unique", 3, 2, 5),
        ("is_clique_unique", 3, 4, 5), ("is_clique_unique", 3, 5, 5)}
    masks, witness = shape.witness[full]
    assert res.witnesses == [witness] and res.witnesses[0] is witness
    assert masks == tuple(sorted(witness.edges)) and isinstance(witness.edges, frozenset)
    with pytest.raises(dataclasses.FrozenInstanceError):
        witness.edges = frozenset()
    rows, labels, want, ext, got = oracle._shape(5, 2).kkt
    # shadows q = 0, 1; cliques t = 2..5; upshadows t = 3..5
    assert len(rows) == len(labels) == 9 and want.shape == ext.shape == got.shape == (9, 11)
    rows, labels, verdict, strict, att, n_att = shape.uniqueness
    assert len(rows) == 4 and len(labels) == 4 * 11
    assert att.shape == (4, len(shape.classes[0]))
    assert verdict.shape == strict.shape == n_att.shape == (4, 11)
    kept = [a for n, s in ((5, 2), (5, 3)) for a in _leaves(vars(oracle._shape(n, s)))]
    arrays = [a for a in kept if isinstance(a, np.ndarray)]
    assert all(isinstance(a, (int, bool, str)) for a in kept
               if not isinstance(a, (np.ndarray, SetFamily)))
    assert [a for a in kept if isinstance(a, SetFamily)] == [witness]
    assert all(any(a is b for b in arrays)
               for a in (ext, got, verdict, strict, att, n_att, shape.counts[3]))
    assert all(not a.flags.writeable for a in arrays)
    # the sweep keeps its level counts, complements and colex classes, and
    # no array but the level-s row holds each class's edge count
    edges = np.bitwise_count(shape.classes[0])
    assert len(shape.sweep) == 3
    held = [a for a in _leaves(vars(shape)) if isinstance(a, np.ndarray) and np.array_equal(a, edges)]
    assert len(held) == 1 and held[0] is shape.counts[3]
    assert np.shares_memory(shape.counts[3], shape.sweep[0])
    with pytest.raises(ValueError):
        shape.classes[0][0] = 1
    with pytest.raises(ValueError):
        att[0, 0] = not att[0, 0]


# the verification benchmark's searches: SearchSpec(n, s, t, m, i, max_degree, u, p)
SEARCH_SPECS = [SearchSpec(*a) for a in (
    (6, 3, 4, 6, 1, 5, None, None), (6, 3, 4, 4, 1, 3, None, None),
    (5, 3, 4, None, 1, 6, None, None), (5, 2, 4, None, None, None, 3, 4),
    (6, 2, 3, None, 1, 2, None, None), (6, 2, 3, 8, 1, 3, None, None),
    (5, 2, 3, 6, None, None, None, None), (6, 2, 3, 9, None, None, None, None),
    (5, 3, 4, 7, None, None, None, None), (6, 3, 4, 5, None, None, None, None),
    (6, 2, 4, 10, None, None, None, None))]


def test_warm_search_returns_the_kept_witnesses():
    # each attaining class's witness is built once per process: two warm
    # searches return equal results holding the same SetFamily objects, and
    # a cleared store builds them afresh, equal to the kept ones
    def witnesses(results):
        return [w for res in results for w in res.witnesses]

    specs = SEARCH_SPECS + SEARCHES
    oracle._shape.cache_clear()
    first = [exhaustive_search(spec) for spec in specs]
    assert all(res.status == "ok" and res.class_count == len(res.witnesses) for res in first)
    assert all(res.witnesses == sorted(res.witnesses, key=lambda w: sorted(w.edges))
               for res in first)
    warm = [exhaustive_search(spec) for spec in specs]
    assert warm == first
    assert all(a is b for a, b in zip(witnesses(warm), witnesses(first)))
    oracle._shape.cache_clear()
    cold = [exhaustive_search(spec) for spec in specs]
    assert cold == first
    assert not any(a is b for a, b in zip(witnesses(cold), witnesses(first)))


def test_row_memo_does_not_grow_with_patches():
    # a row is kept under the closed form's name and arguments, not under
    # the function bound (every lambda stub is "<lambda>"): patched sweeps
    # leave each shape the parts and row keys that the real ones leave
    def keys():
        return [(set(vars(sh)), set(sh.rows)) for sh in (oracle._shape(5, 2), oracle._shape(5, 3))]
    oracle._shape.cache_clear()
    verify_kkt(5, 2)
    verify_uniqueness(5, 3)
    warm = keys()
    for _ in range(10):
        with stubbed() as mp:
            for name, _, _, stub in SEAMS:
                mp.setattr(oracle, name, stub(getattr(oracle, name)))
            verify_kkt(5, 2)
            with pytest.raises(InternalCheckError):     # k_colex + 1 leaves the orbit
                verify_uniqueness(5, 3)
            assert keys() == warm
        assert verify_kkt(5, 2).ok and verify_uniqueness(5, 3).ok
        assert keys() == warm


# the verify_uniqueness shapes of the verification benchmark
SWEEP_UNIQUENESS = [(6, 2), (6, 3), (6, 4), (5, 3), (7, 6)]


# searches on swept shapes, some with an i-degree cap or a u-clique count
SEARCHES = [SearchSpec(6, 3, 4, m=6, i=1, max_degree=5), SearchSpec(6, 3, 5, i=2, max_degree=2),
            SearchSpec(5, 2, 4, u=3, p=4), SearchSpec(7, 2, 3, m=10),
            SearchSpec(7, 6, 7, i=5, max_degree=1), SearchSpec(18, 17, 18, i=16, max_degree=2)]


def test_sweeps_agree_cold_and_warm():
    # sweeps on a cold store, then searches after them; then, on a cold
    # store again, the searches before any sweep and the sweeps after them
    kkt = [(n, s) for n in range(1, 11) for s in range(1, n + 1) if comb(n, s) <= 21]
    kkt.append((18, 17))

    def reports():
        return ([verify_kkt(n, s) for n, s in kkt]
                + [verify_uniqueness(n, s) for n, s in SWEEP_UNIQUENESS])

    def clear():
        for kept in (oracle._edge_perms, oracle._shape):
            kept.cache_clear()

    clear()
    cold = reports()
    assert all(r.ok for r in cold)
    assert reports() == cold
    after = [exhaustive_search(spec) for spec in SEARCHES]
    clear()
    assert [exhaustive_search(spec) for spec in SEARCHES] == after
    assert reports() == cold
    assert [exhaustive_search(spec) for spec in SEARCHES] == after


def test_equality_theorem_catalogue():
    eq = verify_equality_theorems()
    assert eq.ok
    assert len(eq.rows) == 23
    names = [r["name"] for r in eq.rows]
    assert "pg23 shadow k^4 = vertex bound" in names
    assert "search n=5 s=3 deg<=6: unique Steiner attainer" in names


def test_warm_equality_catalogue_counts_nothing(oracle_patch):
    # the designs' shadow sizes, degrees and clique counts are kept for the
    # process: a second call builds and counts no design
    first = verify_equality_theorems()
    assert first.ok
    calls = _record_seams(oracle_patch, "cliques", "shadow", "max_degree", "shadow_of_design",
                          "builtin_design")
    assert verify_equality_theorems() == first
    assert calls == []


def test_warm_equality_catalogue_compares_every_row(oracle_patch):
    # the bounds are evaluated on every call: an edge bound one too high,
    # bound after a warm call, fails exactly the five edge-bound rows
    assert verify_equality_theorems().ok
    real = oracle.edge_bound
    oracle_patch.setattr(oracle, "edge_bound", lambda *a: dataclasses.replace(
        real(*a), value=real(*a).value + 1))
    failed = [r["name"] for r in verify_equality_theorems().rows if not r["ok"]]
    assert failed == [
        "disjoint(2,4) shadow_3 k^4 = edge bound", "disjoint(3,4) shadow_3 k^4 = edge bound",
        "disjoint(2,5) shadow_4 k^5 = edge bound", "disjoint(2,5) shadow_3 k^4 = edge bound",
        "disjoint(2,5) shadow_3 k^5 = edge bound"]


def test_equality_counts_call_a_stub_on_a_cleared_store():
    # stubbed() clears the equality counts with the per-shape store, so a
    # stub bound in it is the one that counts, even after a warm call
    assert verify_equality_theorems().ok
    with stubbed() as mp:
        mp.setattr(oracle, "cliques", lambda H, t: SetFamily(H.n, t, frozenset()))
        failed = [r["name"] for r in verify_equality_theorems().rows if not r["ok"]]
        # no cliques: the vertex- and edge-bound rows fail; p = 0 u-cliques
        # bound the clique rows by 0, which they then meet
        assert len(failed) == 7
        assert all(name.endswith(("vertex bound", "edge bound")) for name in failed)
    assert verify_equality_theorems().ok


def test_second_uniqueness_sweep_counts_nothing(oracle_patch):
    # the attainer masks and counts are kept per shape: a second sweep
    # reads them and takes no level's counts or meet counts
    first = verify_uniqueness(6, 3)
    assert first.ok
    calls = _record_seams(oracle_patch, "_level")
    assert verify_uniqueness(6, 3) == first
    assert calls == []


def test_warm_uniqueness_sweep_checks_the_orbit(oracle_patch):
    # the colex orbit's class must attain on every call, not only when the
    # attainer masks are built
    assert verify_uniqueness(6, 3).ok
    colex = oracle._shape(6, 3).sweep[2]
    _edit_kept((6, 3), "uniqueness", 4, (1, colex[7]), False)
    with pytest.raises(InternalCheckError, match="colex orbit not attaining min shadow at m=7, q=2"):
        verify_uniqueness(6, 3)


def _edit_kept(shape, key, field, index, value):
    """Replace array field of the shape's kept table key ("kkt" or
    "uniqueness") by a read-only copy that holds value at index."""
    kept = oracle._shape(*shape)
    entry = list(getattr(kept, key))
    a = entry[field].copy()
    a[index] = value
    entry[field] = oracle._read_only(a)
    setattr(kept, key, tuple(entry))


@pytest.mark.parametrize("label,m,delta", [("max cliques t=4", 10, 1), ("min shadow q=2", 5, -1)],
                         ids=["full", "meet"])
def test_warm_kkt_sweep_compares_the_kept_extremes(oracle_patch, label, m, delta):
    # a warm sweep compares the kept extremes with the expected rows: one
    # kept extreme off by delta fails exactly its row, whose family is the
    # segment, since no class's count is beyond the expected value
    assert verify_kkt(6, 3).ok
    rows, labels, want, *_ = oracle._shape(6, 3).kkt
    i = labels.index(label)
    kind, level, _ = rows[i]
    _edit_kept((6, 3), "kkt", 3, (i, m), want[i, m] + delta)
    assert verify_kkt(6, 3).failures == [{
        "kind": kind, "m": m, "level": level, "expected": int(want[i, m]),
        "got": int(want[i, m]) + delta, "family": colex_segment(m, 3).edge_lists(),
    }]


@pytest.mark.parametrize("label,seg", [("max cliques t=4", "colex"),
                                       ("min upshadow t=4", "retlex")], ids=["colex", "retlex"])
def test_warm_kkt_sweep_compares_the_kept_segment_counts(oracle_patch, label, seg):
    # a warm sweep compares the kept segment counts with the expected rows
    # too: one kept count one short fails exactly its attain row
    assert verify_kkt(6, 3).ok
    rows, labels, want, *_ = oracle._shape(6, 3).kkt
    i = labels.index(label)
    kind, level, _ = rows[i]
    _edit_kept((6, 3), "kkt", 4, (i, 10), want[i, 10] - 1)
    got = want[i].tolist()
    got[10] -= 1
    assert verify_kkt(6, 3).failures == [{
        "kind": f"{kind}-{seg}-attain", "level": level, "expected": want[i].tolist(), "got": got,
    }]


def test_warm_uniqueness_sweep_compares_the_kept_verdicts(oracle_patch):
    # a warm sweep compares the kept verdicts with the attainer counts: a
    # False clique verdict flipped to True where other classes attain fails
    # exactly that row, with a family that attains but is no relabelling of
    # C_3(m)
    assert verify_uniqueness(6, 3).ok
    rows, _, verdict, _, _, n_att = oracle._shape(6, 3).uniqueness
    j = rows.index(("clique", "t", "max cliques", 4))
    orbit = oracle._shape(6, 3).classes[3][oracle._shape(6, 3).sweep[2]]
    m = next(m for m in range(21) if not verdict[j, m] and n_att[j, m] != orbit[m])
    _edit_kept((6, 3), "uniqueness", 2, (j, m), True)
    rep = verify_uniqueness(6, 3)
    assert [(f["kind"], f["m"], f["level"], f["verdict"], f["attainers"])
            for f in rep.failures] == [("clique_unique", m, 4, True, int(n_att[j, m]))]
    H = SetFamily.from_edge_lists(6, 3, rep.failures[0]["family"])
    assert len(cliques(H, 4).edges) == k_colex(m, 3, 4)
    assert canonical_form(H) != canonical_form(SetFamily(6, 3, colex_segment(m, 3).edges))


def test_tightness_sweeps_match_committed_csv():
    edge = tightness_csv(tightness_sweep("edge", 4, 2, 3))
    assert edge == (DATA / "tightness_edge_r4_s2_t3.csv").read_text()
    clique = tightness_csv(tightness_sweep("clique", 4, 2, 4, u=3, limit=60))
    assert clique == (DATA / "tightness_clique_r4_u3_t4.csv").read_text()


def test_tightness_sweep_validation():
    with pytest.raises(ValueError):
        tightness_sweep("ratio", 4, 2, 3)  # unknown kind
    with pytest.raises(ValueError):
        tightness_sweep("clique", 4, 2, 4)  # u required
    rows = tightness_sweep("vertex", 4, 2, 3, limit=12)
    # starts at n = r; exact whenever r divides n
    assert [r.ratio for r in rows[:5]] == [
        1, Fraction(4, 5), Fraction(2, 3), Fraction(4, 7), 1]
