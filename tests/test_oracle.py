"""Brute-force oracle: canonicalisation, exhaustive search, whole-space sweeps."""

import dataclasses
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from conftest import random_family

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
    # over every id of a shape, _classes gives each class's canonical_form
    # once, in order of the class's lowest id, with the number of ids in the
    # class, whether it reads the classes off the edge counts (s in {1, n-1,
    # n}) or walks the relabelling table, where the orbit id with the largest
    # bit-reversed value must be canonical_form's least sorted edge row
    for n in range(1, MAX_CANON_GROUND + 1):
        for s in range(1, n + 1):
            if comb(n, s) > 12:
                continue
            ker = _Kernel(n, s)
            forms = Counter(canonical_form(ker.family_of(fid)) for fid in range(1 << ker.U))
            every = np.arange(1 << ker.U, dtype=np.uint32)
            members = (np.bincount(np.bitwise_count(every), minlength=ker.U + 1)
                       if oracle._symmetric(n, s) else every)
            got = [(bytes((n, s)) + bytes(ker.masks_of(least)), size)
                   for least, size in oracle._classes(n, s, members)]
            assert got == list(forms.items()), (n, s)


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


def test_search_rejects_attainers_not_closed_under_relabelling(monkeypatch):
    # a clique count that singles out one labelled attainer (K_4 plus a
    # pendant edge; two points; K_5 in a 7-vertex graph) breaks the symmetry
    # the orbit deduplication relies on, whether the orbit comes from the
    # relabelling table or not, and on a link kernel whether the search
    # sweeps the skewed id or skips it and recounts it in its class's orbit
    cases = []
    for spec in [SearchSpec(5, 2, 3, m=7), SearchSpec(10, 1, 2, m=2), SearchSpec(7, 2, 3, m=10)]:
        ker = oracle._kernel(spec.n, spec.s)
        witness = exhaustive_search(spec).witnesses[0]
        if not ker.link:
            cases.append((spec, sum(1 << ker.universe.index(e) for e in witness.edges)))
            continue
        fids = {sum(1 << ker.universe.index(e) for e in relabel(witness, perm).edges)
                for perm in permutations(range(1, spec.n + 1))}
        reps = set(oracle._link_reps(spec.n, spec.s)[0].tolist())
        swept = sorted(fid for fid in fids if fid >> ker.split in reps)
        skipped = sorted(fids.difference(swept))
        assert swept and skipped
        cases += [(spec, swept[-1]), (spec, skipped[0])]
    block = oracle._Kernel.block
    skewed_id = []

    def skewed(self, k, lo, full=True, bits=None):
        # the ids of block()'s layout: lo | low, or [mid, block, low] for an
        # array of block starts
        b = self.bits if bits is None else bits
        lb = b // 2
        if isinstance(lo, np.ndarray):
            ids = (lo[None, :, None] | np.arange(1 << (b - lb))[:, None, None] << lb
                   | np.arange(1 << lb))
        else:
            ids = np.arange(lo, lo + (1 << b))
        return block(self, k, lo, full, bits) + (ids == skewed_id[0])
    monkeypatch.setattr(oracle._Kernel, "block", skewed)
    for spec, fid in cases:
        skewed_id[:] = [fid]
        with pytest.raises(InternalCheckError, match="leaves the attainer set"):
            exhaustive_search(spec)


def test_kernel_counts_do_not_wrap():
    # the whole family, the last id of the last block, holds all C(18,9) 9-sets
    ker = _Kernel(18, 1)
    cnt = ker.block(9, (1 << ker.U) - (1 << ker.bits))
    assert cnt[-1] == comb(18, 9)


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


def _block_counts(ker, F, k, full):
    """Per id in F (ascending), its count at level k, read off the blocks F meets."""
    lo = F >> ker.bits << ker.bits
    return np.concatenate([ker.block(k, int(b), full)[F[lo == b] - b] for b in np.unique(lo)])


@pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 17) for s in range(1, n + 1)
                                 if comb(n, s) <= 16])
def test_kernel_counts_match_direct_passes(monkeypatch, n, s):
    # every id when U <= 12, else a seeded sample that includes both ends;
    # at 3 bits a meet block reads the full counts of another block
    U = comb(n, s)
    if U <= 12:
        F = np.arange(1 << U, dtype=np.uint32)
    else:
        pick = random.Random(U).sample(range(1, (1 << U) - 1), 254)
        F = np.array(sorted(pick + [0, (1 << U) - 1]), dtype=np.uint32)
    want = {k: _direct_counts(n, s, F, k) for k in range(n + 1)}
    for bits in (oracle.BLOCK_BITS, 3):
        monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
        ker = _Kernel(n, s)
        for k, (full, meet) in want.items():
            for is_full, ref in ((True, full), (False, meet)):
                got = _block_counts(ker, F, k, is_full)
                assert got.dtype == np.min_scalar_type(comb(n, k))
                assert got.tolist() == ref.tolist(), (bits, k, is_full)


def test_kernel_float32_counts_are_exact_at_the_widest_level(monkeypatch):
    # C(24,12) = 2,704,156 < 2^24 is the largest count a block product sums
    # ids 0 and 2^12 - 1 lie in the first block, 2^24 - 1 in the last
    ker = _Kernel(24, 1)
    top, last = comb(24, 12), (1 << 24) - (1 << ker.bits)
    for full, want in ((True, [0, 1, top]), (False, [0, top - 1, top])):
        first = ker.block(12, 0, full)
        assert [int(first[0]), int(first[2**12 - 1]), int(ker.block(12, last, full)[-1])] == want
    # C(27,13) = 20,058,300 would not be exact in float32
    monkeypatch.setattr(oracle, "MAX_UNIVERSE", 27)
    with pytest.raises(ValueError, match="reaches 2\\^24"):
        _Kernel(27, 1)


@pytest.mark.parametrize("n,s", [(5, 3), (6, 2)])
def test_scan_hit_tallies_match_direct_counts(monkeypatch, n, s):
    # the sweeps only pass extreme counts as targets; top - (m mod 2) is hit
    # by some ids and missed by others at odd m, and at every third m a
    # target past C(n,k) must not wrap onto a count in the counts' uint8
    U = comb(n, s)
    F = np.arange(1 << U, dtype=np.uint32)
    m = np.bitwise_count(F)
    watched = F[::37]
    want = []
    for k in range(n + 1):
        full = _direct_counts(n, s, F, k)[0]
        top = np.zeros(U + 1, dtype=np.int64)
        np.maximum.at(top, m, full)
        target = top - np.arange(U + 1) % 2
        target[::3] += 256
        want.append((k, target, top, np.bincount(m[full == target[m]], minlength=U + 1),
                     full[watched]))
    assert sum(hits[1::2].sum() for *_, hits, _ in want) > 0
    for bits in (oracle.BLOCK_BITS, 3):
        monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
        ker = _Kernel(n, s)
        # a level without a target yields its maxima, one with a target its hits
        tops = oracle._scan(ker, [(k, watched, None) for k, *_ in want])
        hits = oracle._scan(ker, [(k, watched, target) for k, target, *_ in want])
        for (k, _, top, hit, seen), (g_top, t_seen), (g_hit, h_seen) in zip(want, tops, hits):
            assert g_top.tolist() == top.tolist(), (bits, k)
            assert g_hit.tolist() == hit.tolist(), (bits, k)
            assert t_seen.tolist() == h_seen.tolist() == seen.tolist(), (bits, k)


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


def test_kkt_sweep_builds_each_level_once(monkeypatch):
    # levels 0..5 on [5]; shadows and upshadows come from the full counts
    oracle._kept_kernel.cache_clear()
    calls = []
    masks = oracle._Kernel.masks
    monkeypatch.setattr(oracle._Kernel, "masks", lambda self, k: calls.append(k) or masks(self, k))
    assert verify_kkt(5, 2).ok
    assert sorted(calls) == list(range(6))


def test_second_kkt_sweep_builds_no_masks(monkeypatch):
    # the (6,3) kernel and its level tables are kept for the process
    verify_kkt(6, 3)
    calls = []
    masks = oracle._Kernel.masks
    monkeypatch.setattr(oracle._Kernel, "masks", lambda self, k: calls.append(k) or masks(self, k))
    assert verify_kkt(6, 3).ok
    assert calls == []


def test_second_search_builds_no_masks(monkeypatch):
    # the kept (6,3) kernel keeps its level tables and the i-degree cap masks
    spec = SearchSpec(6, 3, 4, m=4, i=1, max_degree=3)
    exhaustive_search(spec)
    calls = []
    masks = oracle._Kernel.masks
    monkeypatch.setattr(oracle._Kernel, "masks", lambda self, k: calls.append(k) or masks(self, k))
    assert exhaustive_search(spec).optimum == 1
    assert calls == []


def test_kernel_cache_is_keyed_by_block_size(monkeypatch):
    # blocks of 8 ids need their own tables, so the block-size tests still
    # scan small blocks after a full-size kernel of the same shape is kept
    whole = oracle._kernel(5, 2)
    monkeypatch.setattr(oracle, "BLOCK_BITS", 3)
    small = oracle._kernel(5, 2)
    assert small is not whole and (whole.bits, small.bits) == (10, 3)
    assert oracle._kernel(5, 2) is small
    used = set()
    block = oracle._Kernel.block
    monkeypatch.setattr(oracle._Kernel, "block", lambda self, k, lo, full=True, bits=None: used.add(
        id(self)) or block(self, k, lo, full, bits))
    assert verify_kkt(5, 2).ok and verify_uniqueness(5, 2).ok
    assert exhaustive_search(SearchSpec(5, 2, 3, m=4)).optimum == 1
    assert used == {id(small)}


def test_kernels_above_16_points_are_not_kept():
    oracle._kept_kernel.cache_clear()
    assert verify_kkt(17, 1).ok
    assert oracle._kept_kernel.cache_info().currsize == 0
    assert oracle._kernel(17, 1) is not oracle._kernel(17, 1)
    assert oracle._kernel(16, 1) is oracle._kernel(16, 1)


def test_colex_array_matches_colex_masks():
    for n in range(13):
        for k in range(n + 3):
            got = oracle._colex_array(n, k)
            assert got.dtype == np.uint32
            assert got.tolist() == list(_colex_masks(n, k)), (n, k)


def test_kkt_sweep_reports_a_segment_that_does_not_attain(monkeypatch):
    # right extremes, but one count of the colex segment at level s + 1 read
    # wrong: only the attain rows that read it fail
    scan = oracle._scan

    def skewed(ker, levels):
        out = scan(ker, levels)
        out[ker.s + 1][1][3] += 1
        return out
    monkeypatch.setattr(oracle, "_scan", skewed)
    rep = verify_kkt(5, 2)
    assert [(f["kind"], f["level"]) for f in rep.failures] == [
        ("cliques-colex-attain", 3), ("upshadow-retlex-attain", 3)]


def test_kkt_sweep_self_test(monkeypatch):
    # level s counts the edges of every family; the scan counts whole blocks,
    # one or several per call, laid out [mid, block, low]
    block = oracle._Kernel.block

    def skewed(self, k, lo, full, bits):
        los = np.atleast_1d(lo)
        lb = bits // 2
        ids = (los[:, None] + (np.arange(1 << (bits - lb))[:, None, None] << lb)
               + np.arange(1 << lb)).reshape(np.shape(block(self, k, lo, full, bits)))
        return block(self, k, lo, full, bits) + ((ids == 5) & (k == self.s))
    monkeypatch.setattr(oracle._Kernel, "block", skewed)
    with pytest.raises(InternalCheckError, match="kernel self-test"):
        verify_kkt(4, 2)


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


def test_uniqueness_sweep_on_every_graph_on_7_vertices():
    rep = verify_uniqueness(7, 2)
    assert rep.ok and rep.families == 2 ** 21
    assert len(rep.checks) == 22 * 6    # m = 0..21; q = 1 and t = 3..7


def _segment_levels(n, s):
    """verify_kkt's levels: every k, watching the colex ids (k >= s) or the
    retlex ids (k < s), whose complements are the colex ids."""
    U = comb(n, s)
    colex = (1 << np.arange(U + 1, dtype=np.int64)) - 1
    retlex = (1 << U) - 1 - colex[::-1]
    return [(k, retlex if k < s else colex, None) for k in range(n + 1)]


LINK_SHAPES = [(n, s) for n in range(1, 21) for s in range(1, n + 1)
               if comb(n, s) <= 20] + [(7, 2), (7, 5)]


def test_link_sweep_matches_full_sweep(monkeypatch):
    # one family per class of links at vertex n, every low part under each:
    # the per-m maxima of every level and the segment counts are those of
    # a sweep over every high part (at 4 bits the low part of most shapes is
    # split over several blocks)
    for bits, shapes in ((oracle.BLOCK_BITS, LINK_SHAPES),
                         (4, [(n, s) for n, s in LINK_SHAPES if comb(n, s) <= 10])):
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "BLOCK_BITS", bits)
            for n, s in shapes:
                levels = _segment_levels(n, s)
                full = oracle._scan(_Kernel(n, s), levels)
                link = oracle._scan(_Kernel(n, s, link=True), levels)
                for k, (top, seen), (l_top, l_seen) in zip(range(n + 1), full, link):
                    assert l_top.tolist() == top.tolist(), (bits, n, s, k)
                    assert l_seen.tolist() == seen.tolist(), (bits, n, s, k)
    # the ids whose link lies in the class of a representative r are the
    # relabellings of those whose link is r, low parts and all, so the hit
    # tally of a level over every id is the sum of the representatives'
    # tallies weighted by their class sizes; at level s, where every id hits
    # its edge count, that sum is C(U, m) for every m
    none = np.zeros(0, dtype=np.int64)
    for n, s in [(n, s) for n, s in LINK_SHAPES if n <= 7]:
        top = [t for t, _ in oracle._scan(_Kernel(n, s), _segment_levels(n, s))]
        levels = [(k, none, top[k]) for k in range(n + 1)]
        want = [hits.tolist() for hits, _ in oracle._scan(_Kernel(n, s), levels)]
        got = 0
        reps, sizes = oracle._link_reps(n, s)
        for r, class_size in zip(reps.tolist(), sizes.tolist()):
            # the class size: the distinct ids of r's relabellings
            link = [e for j, e in enumerate(_colex_masks(n - 1, s - 1)) if r >> j & 1]
            rows = oracle._images(n - 1, s - 1, link)[0]
            size = len(np.unique(np.bitwise_or.reduce(np.uint32(1) << rows, axis=1)))
            assert size == class_size, (n, s, r)
            with monkeypatch.context() as mp:
                mp.setattr(oracle, "_link_reps", lambda n, s: (np.array([r]), np.array([size])))
                got += size * np.array([h for h, _ in oracle._scan(_Kernel(n, s, link=True), levels)])
        assert got.tolist() == want, (n, s)
        assert want[s] == [comb(comb(n, s), m) for m in range(comb(n, s) + 1)]
    # the verdict rows of verify_uniqueness, with the real verdicts and, where
    # a failure row's rescan is quick, with every verdict flipped
    shapes = [(n, s) for n in range(1, 8) for s in range(1, n + 1) if comb(n, s) <= 21]
    reports = {}
    for link in (False, True):
        monkeypatch.setattr(oracle, "_kernel", lambda n, s, link=link: _Kernel(n, s, link=link))
        real = [verify_uniqueness(n, s) for n, s in shapes]
        with monkeypatch.context() as mp:
            for name in ("is_colex_unique", "is_clique_unique"):
                mp.setattr(oracle, name, _flip_all(getattr(oracle, name)))
            flipped = [verify_uniqueness(n, s).failures for n, s in shapes if comb(n, s) <= 20]
        reports[link] = real, flipped
    real, flipped = reports[True]
    assert all(r.ok for r in real) and sum(map(len, flipped)) > 0
    assert reports[True] == reports[False]


SYMMETRIC = [(n, s) for n in range(1, 17) for s in sorted({1, n - 1, n} - {0})
             if comb(n, s) <= 16]


def test_class_counts_match_full_sweep(monkeypatch):
    # at s in {1, n - 1, n} every family with m edges is a relabelling of
    # C_s(m): in a sweep over every id, all C(U, m) ids with m edges count
    # what the colex id counts, so it is the per-m extreme, and the sweep
    # watches the same colex and retlex counts
    # (at 3 bits only up to 12 edges: _scan then counts 8 ids per call, and
    # 2^16 ids take seconds per shape)
    for bits, shapes in ((oracle.BLOCK_BITS, SYMMETRIC),
                         (3, [(n, s) for n, s in SYMMETRIC if comb(n, s) <= 12])):
        monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
        for n, s in shapes:
            ker = _Kernel(n, s)
            U = ker.U
            sizes, colex, retlex = oracle._class_counts(ker)
            assert sizes.tolist() == [comb(U, m) for m in range(U + 1)]
            colex_ids = (1 << np.arange(U + 1, dtype=np.int64)) - 1
            watched = np.concatenate((colex_ids, (1 << U) - 1 - colex_ids[::-1]))
            scan = oracle._scan(ker, [(k, watched, colex[k]) for k in range(n + 1)])
            for k, (hits, seen) in enumerate(scan):
                assert hits.tolist() == sizes.tolist(), (bits, n, s, k)
                assert colex[k].tolist() == seen[:U + 1].tolist(), (bits, n, s, k)
                assert retlex[k].tolist() == seen[U + 1:].tolist(), (bits, n, s, k)
    # and the class counts are the brute-force counts of the segments
    for n, s in [(n, s) for n, s in SYMMETRIC if n <= 6]:
        ker = _Kernel(n, s)
        _, colex, retlex = oracle._class_counts(ker)
        colex_ids = (1 << np.arange(ker.U + 1, dtype=np.uint32)) - 1
        for k in range(n + 1):
            assert colex[k].tolist() == _direct_counts(n, s, colex_ids, k)[0].tolist()
            assert retlex[k].tolist() == _direct_counts(
                n, s, (1 << ker.U) - 1 - colex_ids[::-1], k)[0].tolist()


def test_class_count_self_test(monkeypatch):
    # level s of the class counts is every id's edge count, checked on both
    # sweeps; one skewed count is enough
    block = oracle._Kernel.block

    def skewed(self, k, lo, full=True, bits=None):
        cnt = block(self, k, lo, full, bits)
        if isinstance(k, tuple) and self.s in k:
            cnt = cnt.copy()
            cnt[k.index(self.s), -1] += 1
        return cnt
    monkeypatch.setattr(oracle._Kernel, "block", skewed)
    for sweep, shape in ((verify_kkt, (4, 3)), (verify_kkt, (18, 17)),
                         (verify_uniqueness, (7, 6)), (verify_uniqueness, (9, 1))):
        with pytest.raises(InternalCheckError, match="kernel self-test"):
            sweep(*shape)


def test_warm_symmetric_sweep_calls_a_patched_seam(monkeypatch):
    # the kept table of a symmetric shape is rebuilt with a stub bound on
    # the module after a warm sweep
    assert verify_kkt(7, 6).ok and verify_uniqueness(7, 6).ok
    calls = []
    real = oracle.k_colex
    monkeypatch.setattr(oracle, "k_colex", lambda m, s, t: calls.append(t) or real(m, s, t) + 1)
    rep = verify_kkt(7, 6)
    assert sorted(set(calls)) == [6, 7]
    assert {(f["kind"], f["level"]) for f in rep.failures} == {
        ("cliques", 6), ("cliques", 7), ("cliques-colex-attain", 6), ("cliques-colex-attain", 7)}
    with pytest.raises(InternalCheckError, match="colex orbit not attaining max cliques"):
        verify_uniqueness(7, 6)
    monkeypatch.undo()
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


def test_link_search_matches_full_search(monkeypatch, capsys):
    # on a link kernel the search counts one family per link class and
    # weighs each by its class size: the optimum, witnesses and
    # families_scanned are those of a search over every id, and so is the
    # pinned payload, byte for byte
    rng = random.Random(23)
    specs = []
    for n, s in ((6, 3), (7, 2)):
        assert oracle._kernel(n, s).link
        U = comb(n, s)
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
    specs += [SearchSpec(6, 3, 4), SearchSpec(6, 3, 4, i=2, max_degree=2),
              SearchSpec(6, 3, 5, i=1, max_degree=4, u=4, p=3)]
    argv = ["search", "6", "3", "4", "--edges", "6", "--degree", "1", "5"]
    results = {}
    for link in (True, False):
        with monkeypatch.context() as mp:
            if not link:
                mp.setattr(oracle, "_kernel", lambda n, s: _Kernel(n, s, link=False))
            results[link] = [exhaustive_search(spec) for spec in specs]
            assert main(argv) == 0
            assert capsys.readouterr().out == (DATA / "search_6_3_4_edges6_degree1_5.json").read_text()
    assert results[True] == results[False]
    ok = [r for r in results[True] if r.status == "ok"]
    assert len(ok) > 40 and sum(r.class_count > 1 for r in ok) > 10, len(ok)


def test_link_representatives():
    # the links at vertex n of (5,3) and (6,3) are graphs on 4 and 5
    # vertices (OEIS A000088); those of (6,4) and (7,5) are 3-graphs on 5 and
    # 4-graphs on 6 vertices, which complementing each edge within [n - 1]
    # turns into graphs on 5 and 6; at s - 1 in {0, 1, n - 2, n - 1} there
    # is one class per edge count
    for (n, s), classes in {(5, 3): 11, (6, 3): 34, (6, 4): 34, (7, 5): 156,
                            (7, 2): 7, (24, 1): 2, (24, 23): 24}.items():
        reps, sizes = oracle._link_reps(n, s)
        assert len(reps) == classes and reps.tolist() == sorted(set(reps.tolist())), (n, s)
        # the classes' sizes add up to every link
        assert len(sizes) == classes and sizes.sum() == 2 ** comb(n - 1, s - 1), (n, s)
        if n <= MAX_CANON_GROUND:
            ker = _Kernel(n - 1, s - 1)
            for r in reps.tolist():
                # each is canonical_form's least labelling of its class
                masks = sorted(ker.masks_of(r))
                assert canonical_form(ker.family_of(r)) == bytes((n - 1, s - 1)) + bytes(masks)
    # the ids the link sweep counts: 34 * 2^10 at (6,3), 7 * 2^15 at (7,2)
    for (n, s), ids in {(6, 3): 34 << 10, (7, 2): 7 << 15}.items():
        ker = oracle._kernel(n, s)
        assert len(ker.plan()[0]) << ker.sweep_bits == ids


def _scans(pairs):
    """Sweep reports and search results on every (n, s) in pairs."""
    out = []
    for n, s in pairs:
        out.append(verify_kkt(n, s))
        if n <= MAX_CANON_GROUND:
            out.append(verify_uniqueness(n, s))
        U = comb(n, s)
        for kw in ({}, {"m": U // 2}, {"u": n, "p": 0},
                   {"i": s - 1, "max_degree": 1} if s > 1 else {"m": U}):
            for t in sorted({s, n}):
                out.append(exhaustive_search(SearchSpec(n, s, t, **kw)))
    return out


SMALL_UNIVERSES = [(n, s) for n in range(1, 11) for s in range(1, n + 1) if comb(n, s) <= 10]


def test_scans_agree_across_block_sizes(monkeypatch):
    # blocks of 8 ids split every universe above 3 edges; the merged extremes,
    # attainer counts, segment counts and search results must not change
    whole = _scans(SMALL_UNIVERSES)
    monkeypatch.setattr(oracle, "BLOCK_BITS", 3)
    assert _scans(SMALL_UNIVERSES) == whole


@pytest.mark.parametrize("shift", [1, -1])
def test_failure_rows_agree_across_block_sizes(monkeypatch, shift):
    # k_colex off by +1 is attained by no family (rows name the colex segment);
    # off by -1 it is beaten (rows name the lowest-id family beyond it)
    real_k = oracle.k_colex
    real_unique = oracle.is_colex_unique, oracle.is_clique_unique
    pairs = [(4, 2), (5, 2), (5, 3)]

    def rows():
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "k_colex", lambda m, s, t: max(real_k(m, s, t) + shift, 0))
            kkt = [verify_kkt(n, s).failures for n, s in pairs]
        # shadow_colex also gives the upshadow rows' expected values
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "shadow_colex", _shifted_shadow(shift))
            kkt += [verify_kkt(n, s).failures for n, s in pairs]
        with monkeypatch.context() as mp:
            for name, real in zip(("is_colex_unique", "is_clique_unique"), real_unique):
                mp.setattr(oracle, name, lambda m, s, level, n, real=real: dataclasses.replace(
                    real(m, s, level, n), verdict=(m + level + shift) % 2 == 0))
            uniq = [verify_uniqueness(n, s).failures for n, s in pairs]
        return kkt, uniq

    whole = rows()
    families = [f["family"] for reps in whole for rep in reps for f in rep if "family" in f]
    assert any(families) and None in families
    monkeypatch.setattr(oracle, "BLOCK_BITS", 3)
    assert rows() == whole


def _shifted_shadow(shift):
    return lambda m, s, q: max(shadow_colex(m, s, q) + shift, 0)


@pytest.mark.parametrize("shift", [1, -1])
def test_meet_failure_rows_match_brute_force(monkeypatch, shift):
    # with the expected values shifted every shadow and upshadow row fails;
    # its got and family must match shadow/upshadow taken on every family
    monkeypatch.setattr(oracle, "shadow_colex", _shifted_shadow(shift))
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


def test_uniqueness_sweep_reports_wrong_colex_verdict(monkeypatch):
    # C_2(5) on [5] is the unique shadow minimiser; a False verdict fails
    _flip_verdict(monkeypatch, "is_colex_unique", 5, 1)
    rep = verify_uniqueness(5, 2)
    assert rep.failures == [{
        "kind": "colex_unique", "m": 5, "level": 1, "verdict": False,
        "attainers": 30, "orbit": 30, "family": None,
    }]


def test_uniqueness_sweep_reports_wrong_clique_verdict(monkeypatch):
    # 4-edge graphs with one triangle: triangle plus pendant edge (the colex
    # orbit, 60 labellings) or triangle plus disjoint edge (10 more)
    _flip_verdict(monkeypatch, "is_clique_unique", 4, 3)
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
def test_uniqueness_sweep_rejects_orbit_outside_attainers(monkeypatch, name):
    real = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda m, s, level: real(m, s, level) + 1)
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
def test_warm_sweeps_still_call_a_patched_seam(monkeypatch, name, sweep, shape, stub):
    # rows and verdicts are kept per shape, but a stub bound on the module
    # after a warm sweep must be the one called, and the real one after it
    assert verify_kkt(5, 2).ok and verify_uniqueness(5, 3).ok
    with monkeypatch.context() as mp:
        mp.setattr(oracle, name, stub(getattr(oracle, name)))
        warm = sweep(*shape).failures
        oracle._ROWS.clear()
        assert warm and sweep(*shape).failures == warm
    assert sweep(*shape).ok


def test_kept_rows_and_orbits_are_read_only():
    verify_kkt(5, 2)
    verify_uniqueness(5, 3)
    kept = [row for _, row in oracle._ROWS.values()] + list(oracle._colex_orbits(5, 3))
    assert oracle._ROWS and all(not a.flags.writeable for a in kept)
    with pytest.raises(ValueError):
        kept[0][0] = 1


def test_row_memo_does_not_grow_with_patches(monkeypatch):
    # one entry per (function name, shape), whatever was bound when it was built
    verify_kkt(5, 2)
    verify_uniqueness(5, 3)
    size = len(oracle._ROWS)
    for _ in range(10):
        with monkeypatch.context() as mp:
            for name, _, _, stub in SEAMS:
                mp.setattr(oracle, name, stub(getattr(oracle, name)))
            verify_kkt(5, 2)
            with pytest.raises(InternalCheckError):     # k_colex + 1 leaves the orbit
                verify_uniqueness(5, 3)
        assert verify_kkt(5, 2).ok and verify_uniqueness(5, 3).ok
        assert len(oracle._ROWS) == size


# the verify_uniqueness shapes of the verification benchmark
SWEEP_UNIQUENESS = [(6, 2), (6, 3), (6, 4), (5, 3), (7, 6)]


def test_sweeps_agree_cold_and_warm():
    kkt = [(n, s) for n in range(1, 11) for s in range(1, n + 1) if comb(n, s) <= 21]

    def reports():
        return ([verify_kkt(n, s) for n, s in kkt]
                + [verify_uniqueness(n, s) for n, s in SWEEP_UNIQUENESS])

    oracle._ROWS.clear()
    for kept in (oracle._colex_orbits, oracle._edge_perms, oracle._kept_kernel,
                 oracle._popcount_runs):
        kept.cache_clear()
    cold = reports()
    assert all(r.ok for r in cold)
    assert reports() == cold


def test_equality_theorem_catalogue():
    eq = verify_equality_theorems()
    assert eq.ok
    assert len(eq.rows) == 23
    names = [r["name"] for r in eq.rows]
    assert "pg23 shadow k^4 = vertex bound" in names
    assert "search n=5 s=3 deg<=6: unique Steiner attainer" in names


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
