"""The in-process workloads (closed_forms, structures, verification): seeded
op lists, the calls they make, and their checks.  cli_process is in cli_ops.py.

An op is (kind, band, args) with plain-data args, so an op list can be hashed
and the same seed always gives the same list.  Each kind has

  * prep(args)  -> call arguments, built once before timing (families etc.);
  * call(*a)    -> the library call, looked up through the module attribute
                   at call time so the traced run sees the wrapped function;
  * ref(args)   -> the expected result, from refs.py only;
  * norm(out)   -> the comparable part of the library's result.

Each workload's op counts are fixed, and magnitudes are spread over each band
on a fixed grid with a small seeded jitter, so different seeds do the same
amount of work on different numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any, Callable, Optional

import refs


@dataclass
class Kind:
    call: Callable
    ref: Callable
    norm: Callable = lambda out: out
    prep: Callable = lambda args: args


@dataclass
class Workload:
    make_ops: Callable[[int], list]
    setup: Callable[[], None]
    deadline_s: float


def ops_digest(ops: list) -> str:
    return hashlib.sha256(json.dumps(ops, default=str).encode()).hexdigest()


def _lib():
    import kkcliques.bounds as B
    import kkcliques.cascade as C
    import kkcliques.designs as D
    import kkcliques.families as F
    import kkcliques.oracle as O
    import kkcliques.uniqueness as U
    return C, B, U, F, D, O


# --- magnitudes ----------------------------------------------------------

BANDS = {"machine": (1.0, 18.5), "big": (20.0, 45.0), "cliff": (48.0, 56.0), "defect": (65.0, 66.0)}
OVERFLOW_BAND = (308.5, 309.5)


def grid(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """count exponents evenly over [lo, hi], each jittered by 10% of its cell."""
    cell = (hi - lo) / count
    return [lo + cell * (k + 0.45 + 0.1 * rng.random()) for k in range(count)]


def near(rng: random.Random, e: float) -> int:
    """A random integer within 0.1% of 10**e."""
    whole = int(e)
    lead = round(10 ** (e - whole) * 10**12)
    base = lead * 10**whole // 10**12 if whole >= 12 else int(10**e)
    return max(1, base + rng.randrange(max(1, base // 1000)))


def between_triangular(rng: random.Random, k: int) -> int:
    """A Delta strictly between C(k,2) and C(k+1,2): never C(y,2) for integer y."""
    return rng.randrange(comb(k, 2) + 1, comb(k + 1, 2))


def between_binomial(rng: random.Random, k: int, j: int) -> int:
    """A Delta strictly between C(k,j) and C(k+1,j), or C(k,j) when no gap exists."""
    lo, hi = comb(k, j), comb(k + 1, j)
    return rng.randrange(lo + 1, hi) if hi - lo > 1 else lo


def ground_for(m: int, s: int, rng: random.Random) -> int:
    """Some n with C(n, s) >= m (the minimal one plus a small offset)."""
    return refs.floor_index(max(1, m), s) + 1 + rng.randrange(4)


# --- closed_forms --------------------------------------------------------

def _bound_norm(rep) -> tuple:
    exact = None if isinstance(rep.value, float) else str(rep.value)
    return rep.integer_value, exact


def _closed_form_kinds() -> dict[str, Kind]:
    C, B, U, F, D, O = _lib()

    def k_ref(a):
        m, s, t = a
        if m <= 60 and t <= s + 2:
            n, seg = refs.colex_first(m, s)
            return len(refs.brute_cliques(seg, n, s, t))
        return refs.k_colex(m, s, t)

    def shadow_ref(a):
        m, s, q = a
        if m <= 60:
            return len(refs.brute_shadow(refs.colex_first(m, s)[1], q))
        return refs.shadow_colex(m, s, q)

    def cascade_ref(a):
        ent = refs.cascade(*a)
        if not refs.is_greedy_cascade(a[0], a[1], ent):
            raise AssertionError(f"reference cascade of {a} fails its own chain check")
        return ent

    def edge_exact_ref(a):
        m, i, s, t, delta, r = a
        got, val = refs.edge_exact(m, i, s, t, r)
        return got, str(val)

    def clique_exact_ref(a):
        p, i, s, u, t, delta, r = a
        got, val = refs.clique_exact(p, i, s, u, t, r)
        return got, str(val)

    def vertex_ref(a):
        got, val = refs.vertex(*a[:5])
        return got, str(val)

    graph = Kind(lambda p, u, t, r: B.graph_clique_bound(p, u, t, r),
                 lambda a: (refs.graph(*a)[0], str(refs.graph(*a)[1])), _bound_norm)
    return {
        "cascade_of": Kind(lambda m, s: C.cascade_of(m, s), cascade_ref, lambda c: c.entries),
        "k_colex": Kind(lambda m, s, t: C.k_colex(m, s, t), k_ref),
        "shadow_colex": Kind(lambda m, s, q: C.shadow_colex(m, s, q), shadow_ref),
        "k_via_complement": Kind(lambda m, s, t, n: C.k_via_complement(m, s, t, n),
                                 lambda a: refs.k_colex(*a[:3])),
        "complement_cascade": Kind(lambda m, s, n: C.complement_cascade(m, s, n),
                                   lambda a: refs.cascade(comb(a[2], a[1]) - a[0], a[2] - a[1]),
                                   lambda c: c.entries),
        "vertex_bound.exact": Kind(lambda n, i, s, t, d: B.vertex_bound(n, i, s, t, d), vertex_ref,
                                   _bound_norm),
        "vertex_bound.irr": Kind(lambda n, i, s, t, d: B.vertex_bound(n, i, s, t, d), vertex_ref,
                                 _bound_norm),
        "edge_bound.exact": Kind(lambda m, i, s, t, d, r: B.edge_bound(m, i, s, t, d),
                                 edge_exact_ref, _bound_norm),
        "edge_bound.irr": Kind(lambda m, i, s, t, d: B.edge_bound(m, i, s, t, d),
                               lambda a: refs.ratio_floor_irrational(a[0], a[1], a[2], a[4]),
                               lambda rep: rep.integer_value),
        "clique_bound.exact": Kind(lambda p, i, s, u, t, d, r: B.clique_bound(p, i, s, u, t, d),
                                   clique_exact_ref, _bound_norm),
        "clique_bound.irr": Kind(lambda p, i, s, u, t, d: B.clique_bound(p, i, s, u, t, d),
                                 lambda a: refs.ratio_floor_irrational(a[0], a[1], a[3], a[5]),
                                 lambda rep: rep.integer_value),
        "graph_clique_bound": graph,
        "graph_clique_bound.u=t": graph,
        "jung_scan": Kind(lambda s, t, mm: B.jung_scan(s, t, mm), lambda a: refs.jung(*a)),
        "is_jumping": Kind(lambda m, s, q: U.is_jumping(m, s, q), lambda a: refs.jumping(*a),
                           lambda v: v.verdict),
        "is_colex_unique": Kind(lambda m, s, q, n: U.is_colex_unique(m, s, q, n),
                                lambda a: refs.colex_unique(*a), lambda v: v.verdict),
        "is_clique_jumping": Kind(lambda m, s, t, n: U.is_clique_jumping(m, s, t, n),
                                  lambda a: refs.clique_jumping(*a[:3]), lambda v: v.verdict),
        "is_clique_unique": Kind(lambda m, s, t, n: U.is_clique_unique(m, s, t, n),
                                 lambda a: refs.clique_unique(*a), lambda v: v.verdict),
    }


# (kind, band, ops per pass before scaling); known-defect ops are not scaled
CLOSED_FORMS_SCALE = 4
CLOSED_FORMS_MIX = [
    ("cascade_of", "machine", 300), ("cascade_of", "big", 240), ("cascade_of", "cliff", 24),
    ("cascade_of", "defect", 2),
    ("k_colex", "machine", 200), ("k_colex", "big", 150), ("k_colex", "cliff", 8),
    ("shadow_colex", "machine", 150), ("shadow_colex", "big", 100),
    ("k_via_complement", "machine", 80), ("k_via_complement", "big", 40),
    ("complement_cascade", "machine", 60), ("complement_cascade", "big", 30),
    ("vertex_bound.exact", "machine", 80), ("vertex_bound.exact", "big", 40),
    ("vertex_bound.irr", "machine", 80), ("vertex_bound.irr", "big", 40),
    ("edge_bound.exact", "machine", 100), ("edge_bound.exact", "big", 60),
    ("edge_bound.irr", "machine", 100), ("edge_bound.irr", "big", 60),
    ("edge_bound.irr", "defect", 1),
    ("clique_bound.exact", "machine", 60), ("clique_bound.exact", "big", 40),
    ("clique_bound.irr", "machine", 60), ("clique_bound.irr", "big", 40),
    ("graph_clique_bound", "machine", 60), ("graph_clique_bound", "big", 40),
    ("jung_scan", "machine", 6),
    ("is_jumping", "machine", 80), ("is_jumping", "big", 60),
    ("is_colex_unique", "machine", 80), ("is_colex_unique", "big", 60),
    ("is_clique_jumping", "machine", 80), ("is_clique_jumping", "big", 60),
    ("is_clique_unique", "machine", 80), ("is_clique_unique", "big", 60),
]


def _closed_form_args(kind: str, band: str, e: float, rng: random.Random) -> tuple:
    m = near(rng, e)
    r = rng.randrange
    if kind == "cascade_of":
        return (m, 3 if band in ("cliff", "defect") else r(2, 9))
    if kind == "k_colex":
        s = 3 if band == "cliff" else r(2, 9)
        return (m, s, s + r(0, 5))
    if kind == "shadow_colex":
        s = r(2, 9)
        return (m, s, r(0, s))
    if kind in ("k_via_complement", "complement_cascade"):
        lo, hi = BANDS[band]
        while True:
            n = r(12, 65) if band == "machine" else r(70, 161)
            s = r(2, n // 2 + 1)
            if 10**lo <= comb(n, s) < 10**hi:
                break
        m = r(0, comb(n, s) + 1)
        if kind == "complement_cascade":
            return (m, s, n)
        return (m, s, r(s, min(n, s + 3) + 1), n)
    if kind == "vertex_bound.exact" or kind == "vertex_bound.irr":
        i = r(1, 3)
        s = r(i + 1, i + 4)
        t = r(s, s + 4)
        k = r(s - i, s - i + 6)
        delta = comb(k, s - i) if kind.endswith("exact") else between_binomial(rng, k, s - i)
        return (m, i, s, t, delta)
    if kind == "edge_bound.exact":
        i = r(1, 3)
        s = r(i + 1, i + 4)
        t = r(s + 1, s + 4)
        x = r(s, s + 7)
        return (m, i, s, t, comb(x - i, s - i), x)
    if kind == "edge_bound.irr":
        if band == "defect":
            m = near(rng, OVERFLOW_BAND[0] + rng.random())
        i = r(1, 4)
        s = i + 2
        return (m, i, s, s + 1, between_triangular(rng, r(s + 1 - i, s + 9 - i)))
    if kind == "clique_bound.exact":
        i = r(1, 3)
        s = r(i + 1, i + 3)
        u = r(s + 1, s + 3)
        t = r(u, u + 3)
        x = r(u - 1, t + 5)
        return (m, i, s, u, t, comb(x - i, s - i), x)
    if kind == "clique_bound.irr":
        i = r(1, 4)
        s = i + 2
        u = r(s + 1, s + 3)
        return (m, i, s, u, u + 1, between_triangular(rng, r(u + 1 - i, u + 9 - i)))
    if kind == "graph_clique_bound":
        u = r(3, 6)
        t = r(u, u + 3)
        return (m, u, t, r(t, t + 6))
    if kind == "jung_scan":
        s = r(2, 5)
        return (s, s + r(1, 3), r(40, 121))
    s = r(2, 9) if kind == "is_jumping" else r(2, 7)
    if kind == "is_jumping":
        return (m, s, r(1, s))
    n = ground_for(m, s, rng)
    total = comb(n, s)
    if kind == "is_colex_unique":
        if rng.random() < 0.2:
            m = comb(n - 1, s) - 1
        return (min(m, total), s, r(1, s), n)
    t = r(s + 1, min(n, s + 3) + 1)
    m = min(m, total - 1)
    if kind == "is_clique_unique" and rng.random() < 0.1:
        m = total - r(1, n)
    return (m, s, t, n)


def closed_forms_ops(seed: int) -> list:
    rng = random.Random(f"closed_forms:{seed}")
    ops = []
    for kind, band, count in CLOSED_FORMS_MIX:
        lo, hi = BANDS[band]
        for e in grid(rng, lo, hi, count if band == "defect" else CLOSED_FORMS_SCALE * count):
            args = _closed_form_args(kind, band, e, rng)
            # u = t is the graph bound's own kind: it trips a known cross-check defect
            name = kind + ".u=t" if kind == "graph_clique_bound" and args[1] == args[2] else kind
            ops.append((name, band, args))
    rng.shuffle(ops)
    return ops


def closed_forms_setup() -> None:
    import kkcliques  # noqa: F401


# --- structures ----------------------------------------------------------

def random_family(rng: random.Random, n: int, s: int, density: float) -> tuple[int, ...]:
    """Edge masks of a random s-uniform family on [n] with about this density."""
    universe = [refs.mask(c) for c in combinations(range(n), s)]
    k = max(1, round(len(universe) * (density + 0.02 * (rng.random() - 0.5))))
    return tuple(sorted(rng.sample(universe, k)))


def random_packing(rng: random.Random, k: int) -> tuple[int, int, int, tuple[int, ...]]:
    """(n, i, r, blocks) of the k-th packing P(i, r): relabelled disjoint r-blocks
    for even k, greedily chosen r-blocks meeting in at most one vertex for odd k."""
    if k % 2 == 0:
        r = 4 + (k // 2) % 3
        a = 16 // r
        n = a * r + (k // 6) % 3
        perm = rng.sample(range(n), n)
        blocks = [refs.mask(perm[j * r + v] for v in range(r)) for j in range(a)]
        return n, 1, r, tuple(sorted(blocks))
    r = 5 + (k // 2) % 2
    n = 14 + (k // 2) % 5
    blocks: list[int] = []
    for _ in range(300):
        b = refs.mask(rng.sample(range(n), r))
        if all((b & c).bit_count() <= 1 for c in blocks):
            blocks.append(b)
        if len(blocks) == 6:
            break
    return n, 2, r, tuple(sorted(blocks))


def _fam(n: int, s: int, edges) -> Any:
    from kkcliques.families import SetFamily
    return SetFamily(n, s, frozenset(edges))


def _structure_kinds() -> dict[str, Kind]:
    C, B, U, F, D, O = _lib()

    def fam_prep(args):
        n, s, edges, *rest = args
        return (_fam(n, s, edges), *rest)

    def design_prep(args):
        n, r, blocks, *rest = args
        return (D.BlockDesign(n, r, _fam(n, r, blocks)), *rest)

    def edges_of(H) -> tuple:
        return (H.n, H.s, frozenset(H.edges))

    def seg_ref(a):
        m, s = a
        n, seg = refs.colex_first(m, s)
        return n, s, frozenset(seg)

    def retlex_ref(a):
        n, m, s = a
        masks = sorted((refs.mask(c) for c in combinations(range(n), s)), reverse=True)
        return n, s, frozenset(masks[:m])

    def nb_norm(nb):
        return frozenset(nb.family.edges), nb.labels

    def relabel_ref(a):
        n, s, edges, perm = a
        return n, s, frozenset(refs.mask(perm[p] - 1 for p in refs.bits(e)) for e in edges)

    def design_ref(a):
        return refs.known_design(a[0])

    def recognize_ref(a):
        n, s, edges, i, r, blocks, kind = a
        if kind == "true":
            return True, frozenset(blocks)
        # Removing or swapping an edge E leaves an i-subset of E whose link
        # degree lies strictly between 0 and C(r-i, s-i).  In a packing shadow
        # every i-set has link degree 0 or C(r-i, s-i), so this is none.
        if not any(0 < refs.link_degree(edges, refs.mask(c)) < comb(r - i, s - i)
                   for c in combinations(range(n), i)):
            raise AssertionError(f"modified shadow {a} has no i-set with a partial link")
        return False, None

    def recognize_norm(res):
        return (True, frozenset(res.design.blocks.edges)) if res.ok else (False, None)

    def criterion_ref(a):
        n, s, edges, i, r, t, mode, blocks, intact = a
        if not intact:
            return False
        return mode == "covered" or refs.coverage_kind(blocks, n, i) == "steiner"

    return {
        "colex_segment": Kind(lambda m, s: F.colex_segment(m, s), seg_ref, edges_of),
        "retlex_segment": Kind(lambda n, m, s: F.retlex_segment(n, m, s), retlex_ref, edges_of),
        "cliques": Kind(lambda H, t: F.cliques(H, t),
                        lambda a: frozenset(refs.brute_cliques(a[2], a[0], a[1], a[3])),
                        lambda H: frozenset(H.edges), fam_prep),
        "shadow": Kind(lambda H, q: F.shadow(H, q), lambda a: frozenset(refs.brute_shadow(a[2], a[3])),
                       lambda H: frozenset(H.edges), fam_prep),
        "upshadow": Kind(lambda H, t: F.upshadow(H, t),
                         lambda a: frozenset(refs.brute_upshadow(a[2], a[0], a[1], a[3])),
                         lambda H: frozenset(H.edges), fam_prep),
        "max_degree": Kind(lambda H, i: F.max_degree(H, i),
                           lambda a: refs.brute_max_degree(a[2], a[3]), prep=fam_prep),
        "neighborhood": Kind(lambda H, I: F.neighborhood(H, I),
                             lambda a: (frozenset(refs.neighborhood(a[2], a[3])[0]),
                                        refs.neighborhood(a[2], a[3])[1]),
                             nb_norm, fam_prep),
        "relabel": Kind(lambda H, p: F.relabel(H, p), relabel_ref, edges_of, fam_prep),
        "complement_family": Kind(lambda H: F.complement_family(H),
                                  lambda a: (a[0], a[0] - a[1],
                                             frozenset(((1 << a[0]) - 1) ^ e for e in a[2])),
                                  edges_of, fam_prep),
        "text_roundtrip": Kind(lambda H: F.from_text(F.to_text(H)),
                               lambda a: (a[0], a[1], frozenset(a[2])), edges_of, fam_prep),
        "json_roundtrip": Kind(lambda H: F.from_json_obj(F.to_json_obj(H)),
                               lambda a: (a[0], a[1], frozenset(a[2])), edges_of, fam_prep),
        "builtin_design": Kind(lambda name: D.builtin_design(name), design_ref,
                               lambda d: (d.n, d.r, frozenset(d.blocks.edges))),
        "shadow_of_design": Kind(lambda d, s: D.shadow_of_design(d, s),
                                 lambda a: frozenset(refs.brute_shadow(a[2], a[3])),
                                 lambda H: frozenset(H.edges), design_prep),
        "verify_design": Kind(lambda d, i: D.verify_design(d, i),
                              lambda a: refs.coverage_kind(a[2], a[0], a[3]),
                              lambda c: c.kind, design_prep),
        "recognize_packing_shadow": Kind(lambda H, i, r, *_: D.recognize_packing_shadow(H, i, r),
                                         recognize_ref, recognize_norm, fam_prep),
        "check_neighborhood_clique_criterion": Kind(
            lambda H, i, r, t, mode, *_: D.check_neighborhood_clique_criterion(H, i, r, t, mode),
            criterion_ref, prep=fam_prep),
    }


STRUCTURES_SCALE = 4
MAX_GROUND = 64
BUILTIN_NAMES = ("fano", "s348", "pg23", "ag23", "disjoint(3,4)", "disjoint(2,5)", "disjoint(4,3)")


def structures_ops(seed: int) -> list:
    rng = random.Random(f"structures:{seed}")
    r = rng.randrange
    ops: list = []
    for s in (2, 3, 4):
        # up to a few thousand edges, within the 64-vertex family limit
        top = math.log10(min(3000, comb(MAX_GROUND, s)))
        for e in grid(rng, 1.7, top, 10 * STRUCTURES_SCALE):
            ops.append(("colex_segment", "", (int(10**e), s)))
    for k in range(10 * STRUCTURES_SCALE):
        ops.append(("retlex_segment", "", (30 + 19 * k // (10 * STRUCTURES_SCALE), r(1, 41), 2 + k % 2)))
    shapes = [(n, s, d) for s in (2, 3, 4) for n in (10, 13, 16) for d in (0.15, 0.35, 0.55)]
    for n, s, density in shapes * STRUCTURES_SCALE:
        edges = random_family(rng, n, s, density)
        base = (n, s, edges)
        t = s + 2 if comb(n, s + 2) * comb(s + 2, s) <= 60_000 else s + 1
        perm = tuple(rng.sample(range(1, n + 1), n))
        I = refs.mask(rng.sample(refs.bits(rng.choice(edges)), r(1, s)))
        ops += [
            ("cliques", "", (*base, t)),
            ("shadow", "", (*base, r(1, s))),
            ("upshadow", "", (*base, s + 1)),
            ("max_degree", "", (*base, r(1, s + 1))),
            ("neighborhood", "", (*base, I)),
            ("relabel", "", (*base, perm)),
            ("complement_family", "", base),
            ("text_roundtrip", "", base),
            ("json_roundtrip", "", base),
        ]
    for name in BUILTIN_NAMES * STRUCTURES_SCALE:
        n, rr, blocks = refs.known_design(name)
        blocks = tuple(sorted(blocks))
        ops.append(("builtin_design", "", (name,)))
        ops.append(("shadow_of_design", "", (n, rr, blocks, r(1, rr))))
        ops.append(("verify_design", "", (n, rr, blocks, r(1, rr + 1))))
    for k in range(12 * STRUCTURES_SCALE):
        n, i, rr, blocks = random_packing(rng, k)
        s = i + 2 + (k // 2) % (rr - i - 2)
        H = tuple(sorted(refs.brute_shadow(blocks, s)))
        ops.append(("verify_design", "", (n, rr, blocks, r(1, rr + 1))))
        ops.append(("recognize_packing_shadow", "", (n, s, H, i, rr, blocks, "true")))
        gone = rng.choice(H)
        removed = tuple(e for e in H if e != gone)
        ops.append(("recognize_packing_shadow", "", (n, s, removed, i, rr, blocks, "removed")))
        fresh = [refs.mask(c) for c in combinations(range(n), s)
                 if (refs.mask(c) & gone).bit_count() < i and refs.mask(c) not in H]
        if fresh:
            swapped = tuple(sorted(removed + (rng.choice(fresh),)))
            ops.append(("recognize_packing_shadow", "", (n, s, swapped, i, rr, blocks, "swapped")))
        t = r(s, rr + 1)
        mode = rng.choice(("covered", "all"))
        ops.append(("check_neighborhood_clique_criterion", "", (n, s, H, i, rr, t, mode, blocks, True)))
        ops.append(("check_neighborhood_clique_criterion", "",
                    (n, s, removed, i, rr, t, mode, blocks, False)))
    rng.shuffle(ops)
    return ops


def structures_setup() -> None:
    import kkcliques.designs as D
    import kkcliques.families as F
    D.builtin_design("pg23")
    F.colex_segment(100, 3)


# --- verification --------------------------------------------------------

SWEEP_KKT = [(n, s) for n in range(1, 11) for s in range(1, n + 1) if comb(n, s) <= 20]
SWEEP_UNIQUENESS = [(6, 2), (6, 3), (6, 4), (5, 3), (7, 6)]

# (n, s, t, m, i, max_degree, u, p) -> (optimum, families_scanned) for the
# specs that are not edge-only.  Derivations (families_scanned counts come from
# the independent brute force in test_bench.py, which re-derives every row):
#   (6,3,4, m=6, deg1<=5): two 4-sets with all their triples present need at
#       least 7 triples, so six triples hold one; witness-heavy (8 classes).
#   (6,3,4, m=4, deg1<=3): the 4 triples of one 4-set give one K4^(3).
#   (5,3,4, deg1<=6): K5^(3) has vertex degree C(4,2) = 6 and C(5,4) = 5 4-cliques.
#   (5,2,4, 3-cliques=4): K4 has exactly 4 triangles and one K4; two K4s on
#       five vertices would force 7 triangles.
#   (6,2,3, deg<=2): components are paths and cycles, so at most 2 triangles.
#   (6,2,3, m=8, deg<=3): a K4 leaves room for only one more edge, so 2 triangles.
SEARCH_SPECS = {
    (6, 3, 4, 6, 1, 5, None, None): (1, 37500),
    (6, 3, 4, 4, 1, 3, None, None): (1, 3600),
    (5, 3, 4, None, 1, 6, None, None): (5, 1024),
    (5, 2, 4, None, None, None, 3, 4): (1, 40),
    (6, 2, 3, None, 1, 2, None, None): (2, 1858),
    (6, 2, 3, 8, 1, 3, None, None): (2, 990),
    # edge-only: optimum is k_colex(m, s, t) by Kruskal-Katona
    (5, 2, 3, 6, None, None, None, None): (None, comb(10, 6)),
    (6, 2, 3, 9, None, None, None, None): (None, comb(15, 9)),
    (5, 3, 4, 7, None, None, None, None): (None, comb(10, 7)),
    (6, 3, 4, 5, None, None, None, None): (None, comb(20, 5)),
    (6, 2, 4, 10, None, None, None, None): (None, comb(15, 10)),
}


def _verification_kinds() -> dict[str, Kind]:
    C, B, U, F, D, O = _lib()

    def search_ref(a):
        n, s, t, m, i, dmax, u, p = a
        opt, scanned = SEARCH_SPECS[a]
        return (refs.k_colex(m, s, t) if opt is None else opt), scanned

    def search_call(*a):
        n, s, t, m, i, dmax, u, p = a
        return O.exhaustive_search(O.SearchSpec(n, s, t, m, i, dmax, u, p), threads=1)

    return {
        "verify_kkt": Kind(lambda n, s: O.verify_kkt(n, s), lambda a: (True, 2 ** comb(*a)),
                           lambda rep: (rep.ok, rep.families)),
        "verify_uniqueness": Kind(lambda n, s: O.verify_uniqueness(n, s),
                                  lambda a: (True, 2 ** comb(*a)), lambda rep: (rep.ok, rep.families)),
        "verify_equality_theorems": Kind(lambda: O.verify_equality_theorems(), lambda a: True,
                                         lambda rep: rep.ok),
        "exhaustive_search": Kind(search_call, search_ref,
                                  lambda res: (res.optimum, res.families_scanned)),
    }


def verification_ops(seed: int) -> list:
    ops = [("verify_kkt", "", a) for a in SWEEP_KKT]
    ops += [("verify_uniqueness", "", a) for a in SWEEP_UNIQUENESS]
    ops.append(("verify_equality_theorems", "", ()))
    ops += [("exhaustive_search", "", a) for a in SEARCH_SPECS]
    random.Random(f"verification:{seed}").shuffle(ops)
    return ops


def verification_setup() -> None:
    import kkcliques.families as F
    import kkcliques.oracle as O
    for n in (5, 6, 7):
        O.canonical_form(F.SetFamily(n, 2, frozenset({3, 5})))
    O._Kernel(6, 3)


WORKLOADS = {
    "closed_forms": Workload(closed_forms_ops, closed_forms_setup, 0.4),
    "structures": Workload(structures_ops, structures_setup, 20.0),
    "verification": Workload(verification_ops, verification_setup, 60.0),
}


def kinds_for(name: str) -> dict[str, Kind]:
    return {"closed_forms": _closed_form_kinds, "structures": _structure_kinds,
            "verification": _verification_kinds}[name]()


# Failures the benchmark expects from the program as it stands.  They are
# counted as failed ops; `correct` stays true only while every failure is one
# of these.  (kind, band or None for any band, outcome)
KNOWN_DEFECTS = {
    ("edge_bound.irr", None, "wrong"): "float bisection for irrational x gives wrong floors",
    ("clique_bound.irr", None, "wrong"): "float bisection for irrational x gives wrong floors",
    ("cascade_of", "defect", "deadline"): "53-bit first guess, then unit steps, at s=3, m >= 1e65",
    ("edge_bound.irr", "defect", "raised:OverflowError"): "float(m) for m > 1e308",
    ("graph_clique_bound.u=t", None, "raised:InternalCheckError"):
        "the equality cross-check expects C(r,u) | p even when u = t makes the bound p itself",
    ("cli", "defect", "traceback"): "uncaught OverflowError from bound edge with Delta = 10**400+1",
}


def known_defect(kind: str, band: str, outcome: str) -> Optional[str]:
    return KNOWN_DEFECTS.get((kind, band, outcome)) or KNOWN_DEFECTS.get((kind, None, outcome))

