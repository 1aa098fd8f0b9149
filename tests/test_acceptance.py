"""Acceptance gate: nine timed, exact end-to-end criteria.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all);
the stated wall-clock limits are asserted, so a slow environment fails loudly
rather than silently degrading coverage.
"""

import random
import time
from itertools import combinations
from math import comb

import numpy as np

from kkcliques.bounds import clique_bound, edge_bound, vertex_bound
from kkcliques.cascade import (
    cascade_eval,
    cascade_of,
    k_colex,
    k_via_complement,
    shadow_colex,
)
from kkcliques.designs import (
    builtin_design,
    recognize_packing_shadow,
    shadow_of_design,
    verify_design,
)
from kkcliques.families import SetFamily, cliques, colex_segment, shadow
from kkcliques.oracle import (
    _Kernel,
    tightness_sweep,
    verify_equality_theorems,
    verify_kkt,
    verify_uniqueness,
)
from kkcliques.uniqueness import is_clique_jumping, is_jumping


def _conclude(num: int, desc: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} criterion {num}: {desc} [{elapsed:.1f}s / limit {limit:.0f}s]",
          flush=True)
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit:.0f}s)"


def test_criterion_1_cascade_round_trip_and_chain():
    t0 = time.monotonic()
    bad = 0
    for s in range(2, 9):
        for m in range(1_000_001):
            c = cascade_of(m, s)
            if cascade_eval(c, s) != m:
                bad += 1
                continue
            if len(c.entries) > s:
                bad += 1
                continue
            # greedy maximality: each entry is the largest binomial that fits
            rem = m
            level = s
            prev = None
            for a in c.entries:
                if (prev is not None and a >= prev) or a < level:
                    bad += 1
                    break
                block = comb(a, level)
                if block > rem or comb(a + 1, level) <= rem:
                    bad += 1
                    break
                rem -= block
                prev = a
                level -= 1
            else:
                if rem:
                    bad += 1
    _conclude(1, "cascade round trip + greedy chain, m <= 1e6, s in 2..8",
              bad == 0, time.monotonic() - t0, 60)


def test_criterion_2_closed_forms_vs_direct_counts():
    t0 = time.monotonic()
    n = 10
    bad = 0
    for s in (2, 3, 4):
        for m in range(comb(n, s) + 1):
            H = colex_segment(m, s)
            for t in range(s, n + 1):
                k = k_colex(m, s, t)
                if k != len(cliques(H, t).edges):
                    bad += 1
                if k != k_via_complement(m, s, t, n):
                    bad += 1
            for q in range(1, s):
                if shadow_colex(m, s, q) != len(shadow(H, q).edges):
                    bad += 1
    _conclude(2, "k_colex/shadow_colex/k_via_complement vs direct counts on C_s(m)",
              bad == 0, time.monotonic() - t0, 60)


def test_criterion_3_whole_space_extremality():
    t0 = time.monotonic()
    small_ok = verify_kkt(5, 3).ok and verify_kkt(4, 2).ok
    small_t = time.monotonic() - t0
    t1 = time.monotonic()
    rep = verify_kkt(6, 3)
    big_ok = rep.ok and any(c.startswith("min upshadow") for c in rep.checks)
    big_t = time.monotonic() - t1
    status = "PASS" if small_ok and big_ok and small_t < 10 and big_t < 600 else "FAIL"
    print(f"{status} criterion 3: exhaustive extremality sweeps "
          f"[(5,3)+(4,2): {small_t:.1f}s / 10s; (6,3): {big_t:.1f}s / 600s]",
          flush=True)
    assert small_ok and big_ok
    assert small_t < 10 and big_t < 600


def test_criterion_4_jumping_closed_forms():
    t0 = time.monotonic()
    n = 12
    bad = 0
    for s in (2, 3, 4):
        top = comb(n, s)
        for q in range(1, s):
            for m in range(top + 1):
                v = bool(is_jumping(m, s, q))  # internally cross-checked too
                if v != (shadow_colex(m + 1, s, q) > shadow_colex(m, s, q)):
                    bad += 1
        for t in range(s + 1, n + 1):
            for m in range(1, top):
                v = bool(is_clique_jumping(m, s, t, n))
                if v != (k_colex(m + 1, s, t) > k_colex(m, s, t)):
                    bad += 1
    _conclude(4, "jumping clause vs definitional step, s in 2..4, m <= C(12,s)",
              bad == 0, time.monotonic() - t0, 120)


def test_criterion_5_uniqueness_vs_isomorphism_classes():
    t0 = time.monotonic()
    rep = verify_uniqueness(5, 3)
    _conclude(5, "uniqueness verdicts vs attainer isomorphism classes on (5,3)",
              rep.ok and rep.families == 1024, time.monotonic() - t0, 120)


def test_criterion_6_equality_witnesses():
    t0 = time.monotonic()
    ok = True
    pg = shadow_of_design(builtin_design("pg23"), 3)
    vb = vertex_bound(13, 2, 3, 4, 2)
    ok &= len(cliques(pg, 4).edges) == 13 == vb.integer_value
    ok &= vb.equality_possible == "yes"
    two_k4 = shadow_of_design(builtin_design("disjoint(2,4)"), 2)
    eb = edge_bound(12, 1, 2, 3, 3)
    cb = clique_bound(8, 1, 2, 3, 4, 3)
    ok &= len(two_k4.edges) == 12
    ok &= len(cliques(two_k4, 3).edges) == 8 == eb.value
    ok &= len(cliques(two_k4, 4).edges) == 2 == cb.value
    ok &= eb.equality_possible == "yes" and cb.equality_possible == "yes"
    fano = builtin_design("fano")
    ok &= len(shadow(fano.blocks, 2).edges) == 7 * comb(3, 2)  # each pair once
    ok &= len(fano.blocks.edges) == comb(7, 2) // comb(3, 2)
    ok &= verify_equality_theorems().ok
    _conclude(6, "PG(2,3), 2K_4 and Fano attain their bounds exactly",
              bool(ok), time.monotonic() - t0, 5)


def test_criterion_7_recognition_round_trip():
    t0 = time.monotonic()
    names = ("fano", "s348", "pg23", "ag23",
             "disjoint(2,4)", "disjoint(3,4)", "disjoint(1,5)", "disjoint(2,5)")
    ok = True
    pairs = 0
    for name in names:
        d = builtin_design(name)
        valid = [
            (i, s)
            for i in range(1, d.r)
            if verify_design(d, i).kind != "neither"
            for s in range(i + 2, d.r)
        ]
        if name in ("fano", "s348", "pg23", "ag23"):
            # classical designs repeat i-sets below their Steiner level and
            # leave no room above it: no (i, s) window with i+2 <= s < r
            ok &= valid == []
            continue
        for i, s in valid:
            pairs += 1
            H = shadow_of_design(d, s)
            rec = recognize_packing_shadow(H, i, d.r)
            ok &= rec.ok and rec.design.blocks.edges == d.blocks.edges
            # one edge removed: some neighborhood is no longer complete
            edges = sorted(H.edges)
            Hm = SetFamily(H.n, H.s, frozenset(edges[1:]))
            broken = recognize_packing_shadow(Hm, i, d.r)
            ok &= (not broken.ok) and broken.witness is not None
    # one edge swapped across blocks also breaks recognition
    H = shadow_of_design(builtin_design("disjoint(2,4)"), 3)
    lists = set(H.edge_lists())
    lists.discard((1, 2, 3))
    lists.add((1, 2, 5))
    swapped = recognize_packing_shadow(
        SetFamily.from_edge_lists(8, 3, sorted(lists)), 1, 4)
    ok &= (not swapped.ok) and swapped.witness is not None
    _conclude(7, f"packing-shadow recognition round trip ({pairs} (i,s) windows)",
              ok and pairs == 8, time.monotonic() - t0, 30)


def _edge_index_tables(n: int, s: int, ts: tuple[int, ...]):
    """Bitmask tables over the C(n,s) edge-index universe."""
    edges = list(combinations(range(n), s))
    idx = {e: j for j, e in enumerate(edges)}
    imasks: dict[int, list[int]] = {}
    for i in range(1, s):
        row = []
        for I in combinations(range(n), i):
            Iset = set(I)
            mask = 0
            for j, e in enumerate(edges):
                if Iset <= set(e):
                    mask |= 1 << j
            row.append(mask)
        imasks[i] = row
    needs: dict[int, list[int]] = {}
    for t in ts:
        needs[t] = [
            sum(1 << idx[sub] for sub in combinations(T, s))
            for T in combinations(range(n), t)
        ]
    return imasks, needs


def test_criterion_8_bound_soundness():
    t0 = time.monotonic()
    violations = 0
    memo: dict[tuple, int] = {}

    def ivalue(kind, *args):
        key = (kind,) + args
        if key not in memo:
            fn = {"v": vertex_bound, "e": edge_bound, "c": clique_bound}[kind]
            memo[key] = fn(*args).integer_value
        return memo[key]

    # 10^5 random families over a sweep of shapes
    rng = random.Random(20260823)
    configs = [(6, 2), (7, 2), (8, 2), (10, 2), (6, 3), (8, 3),
               (10, 3), (6, 4), (8, 4), (10, 4)]
    per = 10_000
    for n, s in configs:
        U = comb(n, s)
        ts = tuple(t for t in (s + 1, s + 2) if t <= n)
        imasks, needs = _edge_index_tables(n, s, ts)
        for j in range(per):
            fam = rng.getrandbits(U)
            if j % 3 == 1:
                fam &= rng.getrandbits(U)       # sparser families too
            elif j % 3 == 2:
                fam &= rng.getrandbits(U) & rng.getrandbits(U)
            m = fam.bit_count()
            deltas = {i: max((fam & im).bit_count() for im in imasks[i])
                      for i in imasks}
            kt = {t: sum(1 for nd in needs[t] if fam & nd == nd) for t in ts}
            for i, d in deltas.items():
                for t in ts:
                    if kt[t] > ivalue("v", n, i, s, t, d):
                        violations += 1
                    if kt[t] > ivalue("e", m, i, s, t, d):
                        violations += 1
                if len(ts) == 2:
                    u, t2 = ts
                    if kt[t2] > ivalue("c", kt[u], i, s, u, t2, d):
                        violations += 1

    # full family spaces on 5 and 6 vertices, vectorised
    for n, s in ((5, 2), (6, 2), (5, 3), (6, 3)):
        kern = _Kernel(n, s)
        U = kern.U
        F = np.arange(1 << U, dtype=np.uint32)
        m_of = np.bitwise_count(F)
        u, t2 = s + 1, s + 2
        ku, kt2 = np.concatenate([kern.block((u, t2), F[c0:c0 + (1 << 16)])
                                  for c0 in range(0, len(F), 1 << 16)], axis=1)
        for i in range(1, s):
            dmax = comb(n - i, s - i)
            d_of = np.zeros(len(F), dtype=np.int16)
            for im in kern.masks(i):
                np.maximum(d_of, np.bitwise_count(F & im).astype(np.int16),
                           out=d_of)
            vb_u = np.array([ivalue("v", n, i, s, u, d) for d in range(dmax + 1)])
            vb_t = np.array([ivalue("v", n, i, s, t2, d) for d in range(dmax + 1)])
            eb_u = np.array([[ivalue("e", m, i, s, u, d) for d in range(dmax + 1)]
                             for m in range(U + 1)])
            eb_t = np.array([[ivalue("e", m, i, s, t2, d) for d in range(dmax + 1)]
                             for m in range(U + 1)])
            cb = np.array([[ivalue("c", p, i, s, u, t2, d) for d in range(dmax + 1)]
                           for p in range(comb(n, u) + 1)])
            violations += int(np.count_nonzero(ku > vb_u[d_of]))
            violations += int(np.count_nonzero(kt2 > vb_t[d_of]))
            violations += int(np.count_nonzero(ku > eb_u[m_of, d_of]))
            violations += int(np.count_nonzero(kt2 > eb_t[m_of, d_of]))
            violations += int(np.count_nonzero(kt2 > cb[ku, d_of]))

    _conclude(8, "vertex/edge/clique bounds sound on 1e5 random + full 5/6-vertex spaces",
              violations == 0, time.monotonic() - t0, 300)


def test_criterion_9_edge_bound_tightness_ratio():
    t0 = time.monotonic()
    from fractions import Fraction
    rows = tightness_sweep("edge", 4, 2, 3)
    ok = len(rows) == 200
    for row in rows:
        m = row.resource
        ok &= isinstance(row.ratio, Fraction)
        ok &= row.bound == Fraction(m * comb(4, 3), comb(4, 2))
        ok &= row.achieved == (m // comb(4, 2)) * comb(4, 3)
        ok &= row.ratio >= 1 - Fraction(comb(4, 2), m)
        if m >= 120:
            ok &= row.ratio >= Fraction(95, 100)
    _conclude(9, "edge-bound tightness ratio >= 1 - C(4,2)/m on r=4 sweep",
              bool(ok), time.monotonic() - t0, 5)
