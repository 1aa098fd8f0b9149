"""Brute-force ground truth: exhaustive search and whole-space verification.

Everything here is small-n machinery whose only job is to confirm the
closed-form operations by raw enumeration:

  * canonical_form: lexicographic-minimal relabelling, n <= 8;
  * exhaustive_search: maximise the t-clique count over the s-uniform
    families on [n] under constraints (edge count, max i-degree, prescribed
    u-clique count);
  * verify_kkt: every family on [n] against the cascade formulas for
    minimal shadows, maximal clique counts and minimal upshadows;
  * verify_uniqueness: the attainer set of each extremal problem against
    the relabelling orbit of the colex segment and the uniqueness verdicts;
  * verify_equality_theorems: designs and disjoint cliques attain the
    degree bounds exactly, and tiny searches confirm the converses;
  * tightness_sweep: worst-case ratio data for the non-divisible regime.

A family is an id whose bit j says that the j-th edge of the colex-sorted
universe is present, for universes of at most MAX_UNIVERSE = 24 edges, so
id 2^m - 1 is C_s(m) and 2^U - 1 - id is the complement.  Every quantity the
search and the sweeps read (edge count, i-degree, clique, shadow and
upshadow counts) is unchanged by relabelling, so they count one family per
isomorphism class (_Shape.classes) and weigh it by its class's size; a
report still speaks of every family.  Each class is counted at its lowest
and its highest member, which must agree, and level s must count every
family's edges; both checks run whenever a level is counted.  A process
keeps what it builds per shape in one _Shape record (_shape(n, s)) and the
built-in designs' counts in _equality_counts, so a shape's level or a
design's shadow is counted once per process, a kernel (its k-set masks)
lives only for the call that counts it, a warm sweep only compares, and a
stub bound in this module builds only what is not kept yet, while every
comparison and cross-check runs on every call.  The reset is
_shape.cache_clear() together with _equality_counts.cache_clear().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import permutations
from math import comb, factorial
from typing import TYPE_CHECKING, Callable, Optional

from .bounds import clique_bound, edge_bound, vertex_bound
from .cascade import k_colex, shadow_colex
from .designs import (
    builtin_design,
    recognize_packing_shadow,
    shadow_of_design,
    verify_design,
)
from .errors import InternalCheckError
from .families import (
    SetFamily,
    _bit_positions,
    _colex_masks,
    cliques,
    max_degree,
    shadow,
)
from .uniqueness import is_clique_unique, is_colex_unique

# numpy is imported by the functions that run the kernel, so the closed-form
# layers and the CLI commands over them start without loading it.
if TYPE_CHECKING:
    import numpy as np

MAX_CANON_GROUND = 8
MAX_UNIVERSE = 24


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _edge_perms(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The s-sets of [n] in colex order, and the (n!, C(n,s)) uint8 array
    whose row p gives the index of each edge's image under relabelling p."""
    import numpy as np
    universe = np.fromiter(_colex_masks(n, s), dtype=np.uint8)
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    bits = (universe[:, None] >> np.arange(n, dtype=np.uint8)) & 1
    index = np.zeros(1 << n, dtype=np.uint8)
    index[universe] = np.arange(len(universe))
    # edge e goes to the sum of 2^p[v] over its vertices v: no uint8 sum wraps
    return universe, index[(np.uint8(1) << perms) @ bits.T]


def _images(n: int, s: int, edges: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The edge indices of a family under every relabelling of [n], one sorted
    row per permutation, and the edge masks of the lexicographically least row."""
    import numpy as np
    universe, P = _edge_perms(n, s)
    rows = P[:, np.isin(universe, edges)]
    rows.sort(axis=1)
    return rows, universe[rows[np.lexsort(rows.T[::-1])[0]] if edges else rows[0]]


def canonical_form(H: SetFamily) -> bytes:
    """Lexicographically minimal sorted edge list over all relabellings of [n].

    Two families on the same n with the same arity are isomorphic iff their
    canonical forms are equal.  Requires n <= 8 so each edge mask fits a byte.
    Edge indices follow the colex-sorted universe, so they sort as the masks do.
    """
    if H.n > MAX_CANON_GROUND:
        raise ValueError(f"canonical_form supports n <= {MAX_CANON_GROUND}, got {H.n}")
    return bytes((H.n, H.s)) + _images(H.n, H.s, list(H.edges))[1].tobytes()


# ---------------------------------------------------------------------------
# family-id kernel

def _colex_array(n: int, k: int) -> np.ndarray:
    """The k-subsets of [n] as uint32 masks in colex (= ascending) order.

    The j-subsets of the first i + 1 points are those of the first i points,
    then the (j-1)-subsets of the first i points with point i added.  Row j
    holds the j-subsets of the points seen so far; rows that can no longer
    reach k with the points left are dropped, so at most a few times C(n,k)
    masks are held at once.
    """
    import numpy as np
    if not 0 <= k <= n:
        return np.zeros(0, dtype=np.uint32)
    empty = np.zeros(0, dtype=np.uint32)
    rows = {0: np.zeros(1, dtype=np.uint32)}
    for i in range(n):
        point = np.uint32(1 << i)
        rows = {j: np.concatenate((rows.get(j, empty), rows[j - 1] | point)) if j else rows[0]
                for j in range(max(0, k - n + i + 1), min(k, i + 1) + 1)}
    return rows[k]


class _Kernel:
    """Exact counts over the family ids of (n, s): bit j of an id says that
    universe[j], the j-th s-set of [n] in colex order, is an edge.  Built
    only to count a level or a degree cap, so its masks live for that call."""

    def __init__(self, n: int, s: int):
        shape = _shape(n, s)
        self.n, self.s, self.U, self.universe = n, s, shape.U, shape.universe
        self._tuples: dict[tuple, tuple] = {}

    def masks(self, k: int) -> np.ndarray:
        """The edge mask of every k-set of [n], in colex order: the edges
        containing it when k < s, the edges inside it when k >= s."""
        import numpy as np
        ks = _colex_array(self.n, k)
        km = np.zeros_like(ks)
        for j, e in enumerate(self.universe):
            km |= ((ks & e) == (ks if k < self.s else e)).astype(np.uint32) << j
        return km

    def block(self, levels: tuple[int, ...], ids) -> np.ndarray:
        """Per level of levels and id of ids, as [level, id], the number of
        k-sets whose edge mask lies inside the family, in the narrowest dtype
        that holds every C(n, k).  A mask meets a family unless it lies inside
        the complement, so a shadow (k < s) or upshadow (k > s) count is
        C(n, k) minus this count at the complement id.  Each id is tested
        against the masks of all the levels at once, concatenated and kept
        per tuple of levels."""
        import numpy as np
        if levels not in self._tuples:
            km = [self.masks(k) for k in levels]
            self._tuples[levels] = (np.concatenate(km), np.cumsum([0] + [len(a) for a in km[:-1]]),
                                    np.min_scalar_type(max(comb(self.n, k) for k in levels)))
        km, starts, dtype = self._tuples[levels]
        H = np.asarray(ids, dtype=np.uint32).reshape(-1, 1)
        return np.add.reduceat((km | H) == H, starts, axis=1, dtype=dtype).T


# ---------------------------------------------------------------------------
# per-shape record

class _Shape:
    """What a process keeps about the s-uniform families on [n], each part
    built on first use and kept until _shape.cache_clear(): the universe,
    the s-sets of [n] in colex order; the class table (classes); per level
    counted, each class's full count (counts, filled by counts_of), whose
    level-s row is each class's edge count; per i-degree cap read, each
    class's most edges through one i-set (degree), and per attaining class
    c found, its least labelling as edge masks and SetFamily (witness), both
    filled by exhaustive_search; per closed form and its arguments after m,
    its row (rows, filled by row); the sweeps' arrays (sweep) and the two
    sweeps' tables (kkt, uniqueness).  Every array is read-only, every other
    value a tuple (a witness's SetFamily is frozen)."""

    def __init__(self, n: int, s: int):
        if not 1 <= s <= n:
            raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
        U = comb(n, s)
        if U > MAX_UNIVERSE:
            raise ValueError(f"universe C({n},{s}) = {U} exceeds sweep cap {MAX_UNIVERSE}")
        self.n, self.s, self.U = n, s, U
        self.universe = tuple(_colex_masks(n, s))
        self.counts: dict[int, np.ndarray] = {}
        self.degree: dict[int, np.ndarray] = {}
        self.witness: dict[int, tuple[tuple[int, ...], SetFamily]] = {}
        self.rows: dict[tuple, np.ndarray] = {}

    def masks_of(self, fid: int) -> tuple[int, ...]:
        return tuple(self.universe[j] for j in _bit_positions(int(fid)))

    def family_of(self, fid: int) -> SetFamily:
        return SetFamily(self.n, self.s, frozenset(self.masks_of(fid)))

    @cached_property
    def classes(self) -> tuple[np.ndarray, ...]:
        """One row per isomorphism class, in order of each class's lowest
        member id: that id, the highest member id, the least labelling
        (canonical_form's) as an id, and the class size.  Read-only int64
        arrays.

        At s in {1, n - 1, n} every permutation of the edges is a
        relabelling, so the class of m edges is every id with m edges: from
        2^m - 1 up to the retlex id, least labelling 2^m - 1, size C(U, m).
        These are the only shapes on n > 8 points the universe cap admits.
        Elsewhere (n <= 7) the link at vertex n is the top C(n-1, s-1) bits
        of an id, a relabelling of [n - 1] fixes n and carries link and low
        part along together, so every class has a member whose link is the
        lowest member of a class of (n - 1, s - 1).  The walk takes each such
        id (link rank x low part) that no earlier class covered and ORs its
        edge bits under every relabelling into its orbit: the lowest and
        highest ids are the orbit's extremes, the least labelling the orbit
        id with the largest bit-reversed value (of two ids, the least sorted
        edge list holds the lowest bit where they differ), and the size n!
        over the relabellings that fix the id.  The class sizes must add up
        to 2^U."""
        import numpy as np
        n, s, U = self.n, self.s, self.U
        if s in (1, n - 1, n):
            m = np.arange(U + 1, dtype=np.int64)
            rows = [(1 << m) - 1, (1 << U) - (1 << (U - m)), (1 << m) - 1,
                    np.array([comb(U, k) for k in range(U + 1)], dtype=np.int64)]
        else:
            reps = _shape(n - 1, s - 1).classes[0]
            split = comb(n - 1, s)
            low = (1 << split) - 1
            # where the ids of each link start in uncovered: rank << split for
            # a representative, else a spare run past the walk's ids, never read
            walked = len(reps) << split
            start = np.full(1 << comb(n - 1, s - 1), walked, dtype=np.int64)
            start[reps] = np.arange(walked, step=1 << split)
            uncovered = np.ones(walked + (1 << split), dtype=bool)
            uncovered[walked:] = False
            # row j: edge j's bit under every relabelling, and that bit reversed
            P = np.ascontiguousarray(_edge_perms(n, s)[1].T)
            EB, ER = np.uint32(1) << P, np.uint32(1) << (U - 1 - P)
            found, k = [], 0
            while uncovered[k]:
                fid = int(reps[k >> split]) << split | k & low
                pos = _bit_positions(fid)
                orbit = np.bitwise_or.reduce(EB[pos], axis=0) if pos else EB[0] & 0
                uncovered[start[orbit >> split] + (orbit & low)] = False
                least = orbit[np.bitwise_or.reduce(ER[pos], axis=0).argmax()] if pos else 0
                found.append((int(orbit.min()), int(orbit.max()), int(least),
                              factorial(n) // int(np.count_nonzero(orbit == fid))))
                k += int(uncovered[k:].argmax())
            rows = [np.array(col, dtype=np.int64) for col in zip(*sorted(found))]
        if int(rows[3].sum()) != 1 << U:
            raise InternalCheckError(f"the classes of ({n},{s}) hold {int(rows[3].sum())} "
                                     f"of 2^{U} families")
        return tuple(map(_read_only, rows))

    def counts_of(self, levels: tuple[int, ...]) -> list[np.ndarray]:
        """The full count of each of levels (ascending) at every class, one
        row per level in classes' order, from counts.  Levels met for the
        first time are counted, with level s, at each class's lowest and
        highest member, which must agree, and level s must count every id's
        edges, before their rows are kept.  The levels go into block() calls
        of about 2^20 (id, k-set) pairs at most: as many levels as fit in
        2^20 k-sets, one at least, and as many ids as fit with them."""
        import numpy as np
        if any(k not in self.counts for k in levels):
            ker = _Kernel(self.n, self.s)
            new = tuple(sorted({self.s, *(k for k in levels if k not in self.counts)}))
            lo, hi, _, _ = self.classes
            ids = np.concatenate((lo, hi))
            cap = 1 << 20
            cnt = np.empty((len(new), len(ids)), dtype=np.int64)
            a = 0
            while a < len(new):
                b, width = a + 1, comb(self.n, new[a])
                while b < len(new) and width + comb(self.n, new[b]) <= cap:
                    width += comb(self.n, new[b])
                    b += 1
                per = max(1, cap // width)
                for c0 in range(0, len(ids), per):
                    cnt[a:b, c0:c0 + per] = ker.block(new[a:b], ids[c0:c0 + per])
                a = b
            if not np.array_equal(cnt[new.index(self.s)], np.bitwise_count(ids)):
                raise InternalCheckError("kernel self-test failed: k^s != edge count")
            at_lo, at_hi = cnt[:, :len(lo)], cnt[:, len(lo):]
            if not np.array_equal(at_lo, at_hi):
                j, c = np.argwhere(at_lo != at_hi)[0]
                raise InternalCheckError(
                    f"counts differ within a class: level {new[j]} counts {at_lo[j, c]} at "
                    f"family {lo[c]} but {at_hi[j, c]} at family {hi[c]}")
            self.counts.update(zip(new, _read_only(at_lo.copy())))
        return [self.counts[k] for k in levels]

    def row(self, name: str, f: Callable, *args: int, verdict: bool = False) -> np.ndarray:
        """[f(m, *args) for m = 0..U] (their .verdict when verdict is set), a
        read-only int64 array kept in rows under (name, *args): name is f's
        name in this module, as a stub's __name__ may be "<lambda>"."""
        import numpy as np
        if (name, *args) not in self.rows:
            vals = [f(m, *args) for m in range(self.U + 1)]
            self.rows[(name, *args)] = _read_only(
                np.array([v.verdict for v in vals] if verdict else vals, dtype=np.int64))
        return self.rows[(name, *args)]

    @cached_property
    def sweep(self) -> tuple[np.ndarray, ...]:
        """For the sweeps, over the classes in classes' order: the full count
        of every level 0..n, as [level, class], whose rows counts then holds,
        so each count is kept once and row s is each class's edge count; the
        index of its complement's class, whose full counts give the class's
        meet counts; and per m the index of the class of C_s(m), whose
        lowest member is 2^m - 1."""
        import numpy as np
        lo, hi, _, _ = self.classes
        cnt = _read_only(np.stack(self.counts_of(tuple(range(self.n + 1)))))
        self.counts.update(enumerate(cnt))
        comp = np.searchsorted(lo, (1 << self.U) - 1 - hi)
        colex = np.searchsorted(lo, (1 << np.arange(self.U + 1, dtype=np.int64)) - 1)
        return cnt, _read_only(comp), _read_only(colex)

    @cached_property
    def kkt(self) -> tuple:
        """verify_kkt's table, one row per check: each row's (kind, level,
        full), its check label, and as [row, m] read-only int64 arrays of the
        expected value, the extreme count and the segment's count.  A full
        row (cliques) reads the largest full count at m edges and that of
        C_s(m); a meet row the least meet count, C(n, level) minus the
        largest full count at U - m (complements), and that of C_s(m) for a
        shadow or of the retlex segment, the complement of C_s(U - m), for an
        upshadow."""
        import numpy as np
        n, s, U = self.n, self.s, self.U
        # (kind, check label, level, full, expected per m)
        rows = [("shadow", "min shadow q", q, False, self.row("shadow_colex", shadow_colex, s, q))
                for q in range(s)]
        rows += [("cliques", "max cliques t", t, True, self.row("k_colex", k_colex, s, t))
                 for t in range(s, n + 1)]
        # complementing every edge maps the retlex s-segment to the colex
        # (n-s)-segment and its t-upshadow to the (n-t)-shadow of that
        rows += [("upshadow", "min upshadow t", t, False,
                  self.row("shadow_colex", shadow_colex, n - s, n - t))
                 for t in range(s + 1, n + 1)]
        cnt, comp, colex = self.sweep
        top = np.zeros((n + 1, U + 1), dtype=np.int64)
        np.maximum.at(top, (slice(None), cnt[s]), cnt)
        retlex = comp[colex[::-1]]
        ext = [top[level] if full else comb(n, level) - top[level, ::-1]
               for _, _, level, full, _ in rows]
        got = [_level(n, cnt, comp, level, full)[retlex if kind == "upshadow" else colex]
               for kind, _, level, full, _ in rows]
        return (tuple((kind, level, full) for kind, _, level, full, _ in rows),
                tuple(f"{label}={level}" for _, label, level, _, _ in rows),
                *(_read_only(np.array(a, dtype=np.int64).reshape(len(rows), U + 1))
                  for a in ([want for *_, want in rows], ext, got)))

    @cached_property
    def uniqueness(self) -> tuple:
        """verify_uniqueness's table, one row per check: each row's (kind,
        level name, goal, level), and the check labels, m-major; then, as
        read-only arrays [row, m], the verdicts and where a False verdict
        fails too (colex rows at m > s + 1), and [row, class] whether the
        class attains the extreme of its edge count, and [row, m] the number
        of attainers, the sum of their class sizes."""
        import numpy as np
        n, s, U = self.n, self.s, self.U
        # (kind, level name, goal, level, full, extremal value per m, verdict per m)
        table = [("colex", "q", "min shadow", q, False,
                  self.row("shadow_colex", shadow_colex, s, q),
                  self.row("is_colex_unique", is_colex_unique, s, q, n, verdict=True))
                 for q in range(1, s)]
        table += [("clique", "t", "max cliques", t, True, self.row("k_colex", k_colex, s, t),
                   self.row("is_clique_unique", is_clique_unique, s, t, n, verdict=True))
                  for t in range(s + 1, n + 1)]
        sizes = self.classes[3]
        cnt, comp, _ = self.sweep
        mc = cnt[s]
        R, C = len(table), len(sizes)
        verdict = np.array([v for *_, v in table], dtype=bool).reshape(R, U + 1)
        strict = np.array([kind == "colex" for kind, *_ in table], dtype=bool)[:, None] \
            & (np.arange(U + 1) > s + 1)
        att = np.array([_level(n, cnt, comp, level, full) == ext[mc]
                        for *_, level, full, ext, _ in table], dtype=bool).reshape(R, C)
        n_att = np.array([np.bincount(mc, weights=np.where(hit, sizes, 0), minlength=U + 1)
                          for hit in att]).astype(np.int64).reshape(R, U + 1)
        return (tuple(row[:4] for row in table),
                tuple(f"{kind} m={m} {var}={level}"
                      for m in range(U + 1) for kind, var, _, level, *_ in table),
                *map(_read_only, (verdict, strict, att, n_att)))


@cache
def _shape(n: int, s: int) -> _Shape:
    """The one _Shape record of (n, s) in this process."""
    return _Shape(n, s)


def _level(n: int, cnt: np.ndarray, comp: np.ndarray, level: int, full: bool) -> np.ndarray:
    """Per class, its full count at level, or its meet count: C(n, level)
    minus the full count of its complement."""
    return cnt[level] if full else comb(n, level) - cnt[level, comp]

# ---------------------------------------------------------------------------
# exhaustive search

@dataclass(frozen=True)
class SearchSpec:
    """Constraint set for exhaustive_search.

    n, s: ground set and arity; t: clique order being maximised.
    m: exact edge count, or None for unconstrained.
    i, max_degree: cap on the i-degree, both or neither.
    u, p: prescribe the u-clique count to equal p, both or neither.
    """
    n: int
    s: int
    t: int
    m: Optional[int] = None
    i: Optional[int] = None
    max_degree: Optional[int] = None
    u: Optional[int] = None
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.s <= self.t <= self.n:
            raise ValueError(f"need 1 <= s <= t <= n, got s={self.s}, t={self.t}, n={self.n}")
        if comb(self.n, self.s) > MAX_UNIVERSE:
            raise ValueError(
                f"universe C({self.n},{self.s}) = {comb(self.n, self.s)} exceeds "
                f"search cap {MAX_UNIVERSE}"
            )
        if (self.i is None) != (self.max_degree is None):
            raise ValueError("i and max_degree must be given together")
        if self.i is not None and not 0 <= self.i < self.s:
            raise ValueError(f"need 0 <= i < s, got i={self.i}")
        if (self.u is None) != (self.p is None):
            raise ValueError("u and p must be given together")
        if self.u is not None and not self.s <= self.u <= self.n:
            raise ValueError(f"need s <= u <= n, got u={self.u}")
        if self.m is not None and not 0 <= self.m <= comb(self.n, self.s):
            raise ValueError(f"need 0 <= m <= C(n,s), got m={self.m}")


@dataclass
class SearchResult:
    status: str                     # "ok" | "infeasible"
    optimum: Optional[int]
    witnesses: list[SetFamily]      # one representative per isomorphism class
    class_count: int
    families_scanned: int           # families satisfying the constraints


def exhaustive_search(spec: SearchSpec, threads: int = 1) -> SearchResult:
    """Maximise the t-clique count over all families matching spec.

    The edge count, the i-degree and the u- and t-clique counts are
    unchanged by relabelling, so the search filters and compares one family
    per isomorphism class (_Shape.classes, counted by _Shape.counts_of), and
    families_scanned adds up the sizes of the classes that pass the filters.
    The witnesses are the least labellings of the attaining classes, one per
    class, sorted by canonical form; each i-degree cap, and each attaining
    class's edge masks and SetFamily, are kept in the shape's degree and
    witness, so a warm search builds no witness.  threads is kept for
    compatibility and has no effect; it must be >= 1.
    """
    import numpy as np
    if threads < 1:
        raise ValueError("threads must be >= 1")
    shape = _shape(spec.n, spec.s)
    lo, _, least, sizes = shape.classes
    levels = tuple(sorted({spec.s, spec.t} | ({spec.u} if spec.u is not None else set())))
    cnt = dict(zip(levels, shape.counts_of(levels)))
    ok = np.ones(len(lo), dtype=bool)
    if spec.m is not None:
        ok &= cnt[spec.s] == spec.m
    if spec.i is not None:
        if spec.i not in shape.degree:
            caps = _Kernel(spec.n, spec.s).masks(spec.i)
            # the most edges any i-set lies in, a few classes at a time
            per = max(1, (1 << 20) // len(caps))
            shape.degree[spec.i] = _read_only(np.concatenate(
                [np.bitwise_count(lo[c0:c0 + per, None].astype(np.uint32) & caps).max(axis=1)
                 for c0 in range(0, len(lo), per)]))
        ok &= shape.degree[spec.i] <= spec.max_degree
    if spec.u is not None:
        ok &= cnt[spec.u] == spec.p
    scanned = int(sizes[ok].sum())
    if not ok.any():
        return SearchResult("infeasible", None, [], 0, scanned)
    best = int(cnt[spec.t][ok].max())
    found = []
    for c in np.flatnonzero(ok & (cnt[spec.t] == best)).tolist():
        if c not in shape.witness:
            masks = shape.masks_of(least[c])
            shape.witness[c] = masks, SetFamily(spec.n, spec.s, frozenset(masks))
        found.append(shape.witness[c])
    witnesses = [w for _, w in sorted(found, key=lambda mw: mw[0])]
    return SearchResult("ok", best, witnesses, len(witnesses), scanned)


# ---------------------------------------------------------------------------
# whole-space sweeps

@dataclass
class SweepReport:
    kind: str                      # "kkt" | "uniqueness"
    n: int
    s: int
    families: int
    checks: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_kkt(n: int, s: int) -> SweepReport:
    """Exhaustively confirm the extremal formulas over every family on [n].

    For each edge count m: the minimum q-shadow equals the cascade formula for
    every q < s, the maximum t-clique count equals k_colex for every t >= s,
    and the minimum t-upshadow for every t > s is attained by the retlex
    segment.  The per-m extremes are taken over one family per isomorphism
    class and kept per shape with the expected values (_Shape.kkt); every
    call compares them, first as whole tables, then row by row when they
    differ.  A failure row's family is the lowest id beyond the
    expected value, the lowest member of the first class beyond it, else
    the segment.
    """
    import numpy as np
    shape = _shape(n, s)
    U = shape.U
    rows, labels, want, ext, got = shape.kkt
    report = SweepReport("kkt", n, s, 1 << U, list(labels))
    # all three are int64 [check, m]: equal bytes in C order, equal values
    if ext.tobytes() == want.tobytes() == got.tobytes():
        return report
    lo = shape.classes[0]
    cnt, comp, _ = shape.sweep
    mc = cnt[s]
    beyond = ext != want
    for i in np.flatnonzero(beyond.any(axis=1) | (got != want).any(axis=1)).tolist():
        (kind, level, full), expected = rows[i], want[i]
        seg = "retlex" if kind == "upshadow" else "colex"
        # per m, the lowest member of the first class beyond its expected value
        v = _level(n, cnt, comp, level, full)
        first: dict[int, int] = {}
        for c in np.flatnonzero(v > expected[mc] if full else v < expected[mc]).tolist():
            first.setdefault(int(mc[c]), int(lo[c]))
        for m in np.flatnonzero(beyond[i]).tolist():
            # else the segment: the retlex one with m edges is the complement
            # of the colex one with U - m
            seg_id = (1 << U) - (1 << (U - m)) if seg == "retlex" else (1 << m) - 1
            report.failures.append({
                "kind": kind, "m": m, "level": level,
                "expected": int(expected[m]), "got": int(ext[i, m]),
                "family": shape.family_of(first.get(m, seg_id)).edge_lists(),
            })
        if not np.array_equal(got[i], expected):
            report.failures.append({
                "kind": f"{kind}-{seg}-attain", "level": level,
                "expected": expected.tolist(), "got": got[i].tolist(),
            })
    return report


def verify_uniqueness(n: int, s: int) -> SweepReport:
    """Check the uniqueness predicates against the actual attainer sets on [n].

    For every m and q: families attaining the minimal q-shadow form exactly the
    relabelling orbit of C_s(m) iff is_colex_unique says True (strict superset
    when False with m > s+1).  For every m and t > s: a True is_clique_unique
    verdict implies the maximisers are exactly the orbit; False verdicts are
    recorded with the observed class structure but are not failures.  The
    orbit is the class of C_s(m), which must attain; the attainers are the
    classes that attain, their number the sum of their sizes, and a failure
    row's family the lowest member of the first attaining class outside the
    orbit.  The verdicts, attainer masks and numbers are kept per shape
    (_Shape.uniqueness); the orbit check and the comparisons with the orbit
    sizes and verdicts run on every call.
    """
    import numpy as np
    shape = _shape(n, s)
    U = shape.U
    rows, labels, verdict, strict, att, n_att = shape.uniqueness
    report = SweepReport("uniqueness", n, s, 1 << U, list(labels))
    lo, _, _, sizes = shape.classes
    cnt, _, colex = shape.sweep

    # the first m, and at it the first row, at which the orbit does not attain
    orbit_attains = att[:, colex]
    if not orbit_attains.all():
        short = ~orbit_attains
        m = int(short.any(axis=0).argmax())
        kind, var, goal, level = rows[int(short[:, m].argmax())]
        raise InternalCheckError(f"colex orbit not attaining {goal} at m={m}, {var}={level}")

    # per row and m, a failure; a False clique verdict is "not decided", so
    # only True can fail
    orbit = sizes[colex]
    unique = n_att == orbit
    for m, j in np.argwhere(((verdict != unique) & (verdict | strict)).T).tolist():
        # the lowest member of the first attaining class outside the orbit
        other = att[j] & (cnt[s] == m)
        other[colex[m]] = False
        kind, _, _, level = rows[j]
        report.failures.append({
            "kind": f"{kind}_unique", "m": m, "level": level, "verdict": bool(verdict[j, m]),
            "attainers": int(n_att[j, m]), "orbit": int(orbit[m]),
            "family": None if unique[j, m] else shape.family_of(lo[other.argmax()]).edge_lists(),
        })
    return report


# ---------------------------------------------------------------------------
# equality theorems and tightness data

@dataclass
class EqualityReport:
    rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.rows)

    def add(self, name: str, expected, got) -> None:
        self.rows.append({
            "name": name, "expected": expected, "got": got, "ok": expected == got,
        })


# the designs whose j-shadows are counted, each with its least j; the
# packings disjoint(a,r) whose s-shadow meets the edge bound at max i-degree,
# as (a, r, i, s); those whose s-shadow meets the clique bound at max
# 1-degree, as (a, r, s, u, t)
_DESIGN_SHADOWS = (("fano", 2), ("s348", 3), ("pg23", 2), ("ag23", 2))
_EDGE_PACKINGS = ((2, 4, 1, 3), (3, 4, 1, 3), (2, 5, 2, 4), (2, 5, 1, 3))
_CLIQUE_PACKINGS = ((2, 4, 2, 3, 4), (3, 4, 2, 3, 4), (2, 5, 3, 4, 5))


@cache
def _equality_counts() -> tuple[tuple, ...]:
    """What verify_equality_theorems compares with its closed forms, counted
    once per process from the built-in designs, which are fixed data: per
    design of _DESIGN_SHADOWS, its r, its block count and its j-shadow sizes
    for j = i..r-1; the PG(2,3) 3-shadow's max 2-degree and its 3- and
    4-clique counts; per packing of _EDGE_PACKINGS, its s-shadow's edge
    count, max i-degree and t-clique counts for t = s+1..r; per packing of
    _CLIQUE_PACKINGS, its s-shadow's u-clique count, max 1-degree and
    t-clique count.  Tuples of ints, kept until cache_clear()."""
    designs = []
    for name, i in _DESIGN_SHADOWS:
        d = builtin_design(name)
        designs.append((d.r, len(d.blocks.edges),
                        *(len(shadow(d.blocks, j).edges) for j in range(i, d.r))))
    H = shadow_of_design(builtin_design("pg23"), 3)
    pg = (max_degree(H, 2), *(len(cliques(H, t).edges) for t in (3, 4)))
    edge = []
    for a, r, i, s in _EDGE_PACKINGS:
        H = shadow_of_design(builtin_design(f"disjoint({a},{r})"), s)
        edge.append((len(H.edges), max_degree(H, i),
                     *(len(cliques(H, t).edges) for t in range(s + 1, r + 1))))
    clique = []
    for a, r, s, u, t in _CLIQUE_PACKINGS:
        H = shadow_of_design(builtin_design(f"disjoint({a},{r})"), s)
        clique.append((len(cliques(H, u).edges), max_degree(H, 1), len(cliques(H, t).edges)))
    return tuple(designs), pg, tuple(edge), tuple(clique)


def verify_equality_theorems() -> EqualityReport:
    """Confirm that the stated extremal structures attain each bound exactly.

    Covers: j-shadow sizes of packings, Steiner shadows attaining the vertex
    bound, packing shadows attaining the edge bound, disjoint cliques attaining
    the clique bound under divisibility, and (by tiny exhaustive searches) the
    converse direction that attainers are shadows of packings.  The designs'
    counts come from _equality_counts; every bound and comparison is
    evaluated on each call, and so are the searches.
    """
    rep = EqualityReport()
    designs, pg, edge, clique = _equality_counts()

    for (name, i), (r, b, *sizes) in zip(_DESIGN_SHADOWS, designs):
        for j, got in enumerate([*sizes, b], start=i):
            rep.add(f"{name} |shadow_{j}| = C(r,j)*blocks", comb(r, j) * b, got)

    # Steiner shadows meet the vertex bound with equality
    deg, *k = pg
    for t, got in zip((3, 4), k):
        vb = vertex_bound(13, 2, 3, t, deg)
        rep.add(f"pg23 shadow k^{t} = vertex bound", (vb.value, "yes"),
                (Fraction(got), vb.equality_possible))

    # packing shadows meet the edge bound with equality
    for (a, r, i, s), (m, deg, *k) in zip(_EDGE_PACKINGS, edge):
        for t, got in zip(range(s + 1, r + 1), k):
            eb = edge_bound(m, i, s, t, deg)
            rep.add(f"disjoint({a},{r}) shadow_{s} k^{t} = edge bound",
                    (eb.value, a * comb(r, t)), (Fraction(got), got))

    # disjoint copies of K_r meet the clique bound when C(r,u) divides p
    for (a, r, s, u, t), (p, deg, got) in zip(_CLIQUE_PACKINGS, clique):
        cb = clique_bound(p, 1, s, u, t, deg)
        rep.add(f"{a}K_{r}^({s}) k^{t} = clique bound (C({r},{u}) | {p})",
                (cb.value, "yes"), (Fraction(got), cb.equality_possible))

    # converse, tiny scale: all attainers of the edge bound are packing shadows
    res = exhaustive_search(SearchSpec(n=6, s=3, t=4, m=4, i=1, max_degree=3))
    rec_ok = all(recognize_packing_shadow(w, 1, 4).ok for w in res.witnesses)
    rep.add("search n=6 s=3 m=4 deg<=3: optimum", 1, res.optimum)
    rep.add("search n=6 s=3 m=4 deg<=3: one class, recognized", (1, True),
            (res.class_count, rec_ok))

    res = exhaustive_search(SearchSpec(n=5, s=3, t=4, i=1, max_degree=6))
    rec = recognize_packing_shadow(res.witnesses[0], 1, 5) if res.witnesses else None
    kind = verify_design(rec.design, 1).kind if rec and rec.ok else None
    rep.add("search n=5 s=3 deg<=6: optimum = vertex bound", 5, res.optimum)
    rep.add("search n=5 s=3 deg<=6: unique Steiner attainer", (1, True, "steiner"),
            (res.class_count, bool(rec and rec.ok), kind))
    return rep


@dataclass(frozen=True)
class TightnessRow:
    kind: str
    resource: int        # m for edge, p for clique, n for vertex
    a: int
    b: int
    achieved: int
    bound: Fraction
    ratio: Fraction


def tightness_sweep(kind: str, r: int, s: int, t: int, i: int = 1,
                    u: Optional[int] = None, limit: int = 200) -> list[TightnessRow]:
    """Worst-case achieved/bound ratios when divisibility fails.

    edge: m edges, best construction floor(m / C(r,s)) disjoint K_r plus
    leftovers; ratio = 1 - b/m where b = m mod C(r,s).
    clique: p u-cliques via a K_r's and b loose K_u's; ratio = 1 - b/p.
    vertex: n vertices, floor(n/r) disjoint blocks; exact 1 at multiples of r.
    """
    rows: list[TightnessRow] = []
    if kind == "edge":
        if not i < s < t <= r:
            raise ValueError("need i < s < t <= r")
        block = comb(r, s)
        for m in range(1, limit + 1):
            a, b = divmod(m, block)
            achieved = a * comb(r, t)
            bound = Fraction(m * comb(r, t), block)
            ratio = Fraction(achieved, bound) if bound else Fraction(1)
            if ratio != 1 - Fraction(b, m):
                raise InternalCheckError("edge tightness ratio identity failed")
            rows.append(TightnessRow(kind, m, a, b, achieved, bound, ratio))
    elif kind == "clique":
        if u is None or not s < u <= t <= r:
            raise ValueError("need s < u <= t <= r")
        block = comb(r, u)
        for p in range(1, limit + 1):
            a, b = divmod(p, block)
            achieved = a * comb(r, t) + (b * comb(u, t))
            bound = Fraction(p * comb(r, t), block)
            rows.append(TightnessRow(kind, p, a, b, achieved, bound,
                                     Fraction(achieved, bound)))
    elif kind == "vertex":
        if not i < s < t <= r:
            raise ValueError("need i < s < t <= r")
        delta = comb(r - i, s - i)
        for n in range(r, limit + 1):
            a, b = divmod(n, r)
            achieved = a * comb(r, t)
            vb = vertex_bound(n, i, s, t, delta)
            rows.append(TightnessRow(kind, n, a, b, achieved, vb.value,
                                     Fraction(achieved) / vb.value))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return rows


def tightness_csv(rows: list[TightnessRow]) -> str:
    lines = ["kind,resource,a,b,achieved,bound,ratio"]
    for row in rows:
        lines.append(
            f"{row.kind},{row.resource},{row.a},{row.b},{row.achieved},"
            f"{row.bound},{row.ratio}"
        )
    return "\n".join(lines) + "\n"
