"""Brute-force ground truth: exhaustive search and whole-space verification.

Everything here is small-n machinery whose only job is to confirm the
closed-form operations by raw enumeration:

  * canonical_form: lexicographic-minimal relabelling, n <= 8;
  * exhaustive_search: maximise the t-clique count over the s-uniform
    families on [n] under constraints (edge count, max i-degree, prescribed
    u-clique count), on the same vectorised kernel and plan as the sweeps;
  * verify_kkt: vectorised sweep of every family on [n] checking minimal
    shadows / maximal clique counts / minimal upshadows against the cascade
    formulas;
  * verify_uniqueness: same sweep, comparing the attainer set of each
    extremal problem against the relabelling orbit of the colex segment;
  * verify_equality_theorems: designs and disjoint cliques attain the
    degree bounds exactly, and tiny searches confirm the converses;
  * tightness_sweep: worst-case ratio data for the non-divisible regime.

The numpy kernel indexes families by an integer whose bit j says whether the
j-th edge of the colex-sorted universe is present, so id 2^m - 1 is C_s(m),
the top-run id is the retlex segment and 2^U - 1 - id is the complement.
Search and sweeps share one kernel, _Kernel, for universes of up to
MAX_UNIVERSE = 24 edges: plan() lays their ids out in blocks of at most
2^BLOCK_BITS, hits() rescans every id with given edge counts, masks() builds
the k-sets' edge masks once per level, and block(), the one counting call,
counts the k-sets whose mask lies inside (or meets) each id of a block with
one bincount and two small matrix products, exact in float32 since no count
reaches 2^24; a filtered caller indexes its ids in it.  On single ids
(bits = 0) block() tests each id against the masks of one level, or of
several levels at once.  There is one kernel per (n, s) and block size:
_kernel keeps it for the process when n <= KEEP_KERNEL_N = 16, so a process
that sweeps or searches a shape again builds none of its levels again; a
single CLI command sweeps each shape once and gains nothing from it.  A kept
kernel holds the level tables its scans built: about 5 MB once every level
of (16, 1) is built (by searches), 23 MB for all 53 shapes that can be kept.
A sweep of those shapes keeps 1.8 MB: on the symmetric shapes (below) it
builds no table, only the k-sets' masks, 4 bytes per k-set (256 KB at
(16, 1)).  Above 16 points a search's level tables alone take 12 bytes per
k-set, 12 * 2^n at s = 1, so those kernels are built per call.  A mask meets
a family unless it lies in the complement, so every shadow and upshadow
count is C(n,k) minus a full count of the complement (Kruskal 1963; Katona
1968), and the complements of one block's ids are the ids of one block, in
reverse.  At s in {0, 1, n-1, n} (_symmetric) every family with m edges is a
relabelling of C_s(m), the least labelling of its class (_classes), so the
sweeps count one family per edge count: _class_counts takes every level at
the colex and the retlex ids in one block() call on single ids, cut into
calls of about 2^20 (id, k-set) pairs past 20 points, and a per-m extreme is
the colex id's count.  The colex orbit is then every id with m edges, so
verify_uniqueness needs no orbit table there, and it admits every n the
universe cap does.  Elsewhere both sweeps run on one block scan, _scan, and
read their meet rows at U - m.  In colex order the C(n-1, s-1) edges through
vertex n come last, so an id is H << C(n-1, s) | low with H the link of n.
A relabelling of [n - 1] fixes n and carries H and low along together, and
every count the sweeps take is unchanged by relabelling, so a link kernel
sweeps only the H that are the least labelling of their class (_link_reps),
with every low part under each, and each per-m optimum over those ids is the
optimum over all ids.  An attainer set is closed under relabelling, so it is
the colex orbit exactly when its swept members are the orbit's swept
members.  _kernel takes the link sweep where it does less work (_link_pays):
at (6,3) it counts 34 * 2^10 = 34,816 ids, not 2^20, and at (7,2) 7 * 2^15
= 229,376, not 2^21, plus the watched ids it skips (segments and colex
orbits, counted on their own); a report's families still counts all 2^U
families the sweep covers, and a search's families_scanned every family that
meets its constraints, each swept id standing for its link class's size.
The scan counts a chunk of blocks per block() call and sorts a chunk's
counts by edge count once; the search reads the ids with m edges off that
order.  A failure row's family, and a uniqueness row's full attainer count,
come from a rescan (_Kernel.hits) of every id with m edges, one rescan per
row for all its failing m.  One table per (n, s), n <= 8, _edge_perms, maps
each edge to its image under every relabelling of [n]; canonical_form, the
colex orbits of verify_uniqueness (_colex_orbits, kept per (n, s)) and
_classes read it.  _classes is the one split of ids into relabelling
classes: the search's witnesses and _link_reps, with their class sizes, come
from it.  It ORs an id's edge bits under every relabelling into its orbit.
The search passes only the attainers it swept; an orbit id missing from them
must be one its plan skips, and is recounted against the constraints and the
optimum, so an attainer set not closed under relabelling is still caught.
At s in {0, 1, n-1, n}, the only shapes on n > 8 points, every permutation
of the edges is a relabelling, so the classes are the edge counts: the
search keeps only its attainers' number per edge count, and no table is
built.  The expected rows and verdicts of the sweeps are kept per shape too
(_row), and so is verify_kkt's whole table of levels, expected rows and
check labels (_kept), each with the functions it came from, and rebuilt when
this module's binding of one of them changes.  So a warm sweep runs only the
counting and its checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import comb
from typing import TYPE_CHECKING, Callable, Iterator, Optional

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
# Ids are scanned in blocks of 2^BLOCK_BITS, so a sweep or a search holds one
# block of ids and its counts at a time, whatever the universe.
BLOCK_BITS = 16
# Kernels on at most this many points are kept for the process by _kernel
# (about 5 MB of tables each at most, see the module docstring).
KEEP_KERNEL_N = 16


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


@cache
def _colex_orbits(n: int, s: int) -> tuple[np.ndarray, ...]:
    """The sorted ids of every relabelling of every colex segment C_s(m) on
    [n] and their edge counts; the same for the complement ids, in ascending
    order; and the orbit size per m.  All read-only."""
    import numpy as np
    # column m - 1 of the accumulated row p is the id of C_s(m) relabelled
    # by p, and id 0 is C_s(0); sorted, each run of equal ids kept once
    ids = np.sort(np.append(
        0, np.bitwise_or.accumulate(np.uint32(1) << _edge_perms(n, s)[1], axis=1)))
    ids = ids[np.append(True, ids[1:] != ids[:-1])]
    U = comb(n, s)
    m_of = np.bitwise_count(ids)
    out = (ids, m_of, (1 << U) - 1 - ids[::-1], U - m_of[::-1],
           np.bincount(m_of, minlength=U + 1))
    for a in out:
        a.flags.writeable = False
    return out


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


def _symmetric(n: int, s: int) -> bool:
    """Whether every permutation of the s-sets of [n] is a relabelling: then
    two families are isomorphic iff they have as many edges."""
    return s in (0, 1, n - 1, n)


@cache
def _edge_bits(n: int, s: int) -> np.ndarray:
    """1 << _edge_perms(n, s)[1], read-only: OR-ing row p over an id's edge
    indices gives the id relabelled by p."""
    import numpy as np
    EB = np.uint32(1) << _edge_perms(n, s)[1]
    EB.flags.writeable = False
    return EB


def _classes(n: int, s: int, members: np.ndarray | list[int],
             check: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> list[tuple[int, int]]:
    """The least labelling (canonical_form's), as an id, and the size of every
    relabelling class that members meet, in order of each class's lowest
    member.

    At s in {0, 1, n - 1, n} (_symmetric) a class is every id with m edges
    and its least labelling is the first m edges; members is then the number
    of members per edge count, which must be 0 or C(U, m).  These are the
    only shapes on n > 8 points the universe cap admits.  Elsewhere members
    is a sorted id array, and each class is walked from its lowest uncovered
    member: its orbit is the OR of the member's edge bits under every
    relabelling (_edge_bits), deduplicated by np.sort, not np.unique, whose
    first call imports numpy.ma (about 15 ms that a CLI command would
    otherwise pay); its least labelling, the least sorted edge list, is the
    orbit id with the largest bit-reversed value.  The members must be closed
    under relabelling, or, when check is given, be the ids a sweep visits of
    a closed set: check(ids) then says, per orbit id missing from members,
    whether the sweep skips it and it belongs to the set.  An orbit that
    leaves the set is an InternalCheckError."""
    import numpy as np

    def leaves(what) -> InternalCheckError:
        return InternalCheckError(f"orbit of {what} leaves the attainer set")
    U = comb(n, s)
    if _symmetric(n, s):
        bad = [m for m, have in enumerate(members) if have and have != comb(U, m)]
        if bad:
            raise leaves(f"the attainers with {bad[0]} edges")
        return [((1 << m) - 1, comb(U, m)) for m, have in enumerate(members) if have]
    EB = _edge_bits(n, s)
    covered = np.zeros(len(members), dtype=bool)
    out, missing, k = [], [], 0
    while k < len(members) and not covered[k]:
        orbit = np.sort(np.bitwise_or.reduce(EB[:, _bit_positions(int(members[k]))], axis=1))
        orbit = orbit[np.append(True, orbit[1:] != orbit[:-1])]
        pos = np.searchsorted(members, orbit).clip(max=len(members) - 1)
        found = members[pos] == orbit
        if not found.all():
            if check is None:
                raise leaves(f"attainer {int(members[k])}")
            missing.append((int(members[k]), orbit[~found]))
        covered[pos[found]] = True
        # of two ids, the least sorted edge list holds the lowest bit where
        # they differ, so it is the larger with the bits reversed
        r = orbit.copy()
        for shift, mask in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F)):
            r = (r >> shift) & mask | (r & mask) << shift
        out.append((int(orbit[r.byteswap().argmax()]), len(orbit)))
        k += int(covered[k:].argmin())
    if missing:
        # the orbit ids missing from members, all checked in one call
        ok = check(np.concatenate([ids for _, ids in missing]))
        if not ok.all():
            ends = np.cumsum([len(ids) for _, ids in missing])
            raise leaves(f"attainer {missing[int(np.searchsorted(ends, ok.argmin(), 'right'))][0]}")
    return out


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
    """The C(n,s) s-sets of [n] in colex order, and exact counts over family
    ids: bit j of an id says that universe[j] is an edge.  The sweeps and
    the search scan the blocks of plan(), 2^sweep_bits ids each: every id,
    or when link is set one family per class of links at vertex n; hits()
    rescans every id with m edges, 2^bits ids at a time."""

    def __init__(self, n: int, s: int, link: bool = False):
        if not 1 <= s <= n:
            raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
        U = comb(n, s)
        if U > MAX_UNIVERSE:
            raise ValueError(f"universe C({n},{s}) = {U} exceeds sweep cap {MAX_UNIVERSE}")
        # block() sums in float32
        if comb(n, n // 2) >= 1 << 24:
            raise ValueError(f"C({n},{n // 2}) = {comb(n, n // 2)} reaches 2^24: "
                             "float32 block counts would not be exact")
        self.n, self.s, self.U, self.link = n, s, U, link
        self.universe = list(_colex_masks(n, s))
        self.bits = min(U, BLOCK_BITS)
        # the C(n-1, s) edges without vertex n come first in colex order, so
        # an id is H << C(n-1, s) | (its edges inside [n - 1]), H being its
        # link at n; a sweep splits its ids there when link is set
        self.split = comb(n - 1, s) if link else U
        self.sweep_bits = min(self.split, BLOCK_BITS)
        self._levels: dict[tuple[int, int], tuple] = {}
        self._plan: Optional[tuple[np.ndarray, ...]] = None
        self._chunks: dict[int, list[tuple]] = {}
        self._located: dict[tuple, tuple] = {}
        self._tuples: dict[tuple, tuple] = {}
        # masks(k) per k, built once: the search's i-degree caps and a link
        # kernel's level tables read them
        self.kmasks: dict[int, np.ndarray] = {}

    def hits(self, ms: list[int], level: int, full: bool,
             keep: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
        """Per block of 2^bits ids, in ascending order, the ids with an edge
        count in ms (read off the block's popcount runs, one run per m, in
        the order of ms) whose level count passes keep(ids, counts): each
        block is counted once for all of ms."""
        import numpy as np
        order, starts, widths = _popcount_runs(self.bits)
        for lo in range(0, 1 << self.U, 1 << self.bits):
            runs = [order[starts[p]:starts[p] + widths[p]] for m in ms
                    if 0 <= (p := m - lo.bit_count()) <= self.bits]
            if runs:
                F = (np.concatenate(runs) + lo).astype(np.uint32)
                yield F[keep(F, self.block(level, lo, full)[F - lo])]

    def masks_of(self, fid: int) -> tuple[int, ...]:
        return tuple(self.universe[j] for j in _bit_positions(int(fid)))

    def family_of(self, fid: int) -> SetFamily:
        return SetFamily(self.n, self.s, frozenset(self.masks_of(fid)))

    def masks(self, k: int) -> np.ndarray:
        """The edge mask of every k-set of [n], in colex order: the edges
        containing it when k < s, the edges inside it when k >= s."""
        import numpy as np
        ks = _colex_array(self.n, k)
        km = np.zeros_like(ks)
        for j, e in enumerate(self.universe):
            km |= ((ks & e) == (ks if k < self.s else e)).astype(np.uint32) << j
        return km

    def edge_masks(self, k: int) -> np.ndarray:
        """masks(k), built once per kernel."""
        if k not in self.kmasks:
            self.kmasks[k] = self.masks(k)
        return self.kmasks[k]

    def plan(self) -> tuple[np.ndarray, ...]:
        """The starts of the blocks of 2^sweep_bits ids a sweep counts, ordered
        by the popcount of their bits above the block; those popcounts; the
        blocks' ranks in ascending order of their starts; and per block the
        number of ids it stands for, the size of its link's class.

        The blocks cover the ids whose link H at vertex n is any of the
        2^C(n-1, s-1) links, or when link is set only the least labelling of
        each link class (_link_reps), with every low part under each.  A
        relabelling of [n - 1] fixes n and maps the link and the low part
        together, so every family is isomorphic to one of the link ids, and
        the ids of a block stand for as many families as its link's class
        holds."""
        import numpy as np
        if self._plan is None:
            highs, sizes = (_link_reps(self.n, self.s) if self.link else
                            (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)))
            mids = np.arange(1 << (self.split - self.sweep_bits))
            los = ((highs[:, None] << self.split) | (mids << self.sweep_bits)).ravel()
            h = np.bitwise_count(los >> self.sweep_bits)
            order = np.argsort(h, kind="stable")
            self._plan = (los[order], h[order].astype(np.intp), np.argsort(los[order]),
                          np.repeat(sizes, len(mids))[order])
        return self._plan

    def chunks(self, per: int) -> list[tuple]:
        """plan() cut into runs of per blocks: per run, its first rank, its
        block starts (an int for a run of one block, which block() counts in
        id order), the edge counts its ids take (a slice), and the run's
        _popcount_runs."""
        if per not in self._chunks:
            los, hs, *_ = self.plan()
            self._chunks[per] = [
                (c0, int(los[c0]) if len(h) == 1 else los[c0:c0 + per],
                 slice(h[0], h[-1] + self.sweep_bits + 1),
                 *_popcount_runs(self.sweep_bits, tuple((h - h[0]).tolist())))
                for c0 in range(0, len(los), per) for h in (hs[c0:c0 + per],)]
        return self._chunks[per]

    def locate(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """Per id, the rank in plan() of the block holding it (-1 when the
        sweep skips the block) and its offset in the block; and a dict in
        which callers keep what they derive from these (_scan where each
        chunking reads the ids, swept() how many it sweeps).  Kept per ids
        (by content), since the sweeps watch the same ids at every level and
        call."""
        import numpy as np
        key = (ids.dtype.str, ids.tobytes())
        if key not in self._located:
            los, _, ranked, _ = self.plan()
            ids = ids.astype(np.int64)
            lo = ids >> self.sweep_bits << self.sweep_bits
            at = ranked[np.searchsorted(los[ranked], lo).clip(max=len(los) - 1)]
            self._located[key] = (np.where(los[at] == lo, at, -1), ids - lo, {})
        return self._located[key]

    def swept(self, ids: np.ndarray) -> np.ndarray:
        """Per m, how many of ids with m edges the plan sweeps."""
        import numpy as np
        rank, _, derived = self.locate(ids)
        if "swept" not in derived:
            derived["swept"] = np.bincount(np.bitwise_count(ids[rank >= 0]), minlength=self.U + 1)
        return derived["swept"]

    def sweeps(self, ids: np.ndarray) -> np.ndarray:
        """Per id, whether plan() covers it: every id, or on a link kernel
        those whose link is the least labelling of its class."""
        import numpy as np
        if not self.link:
            return np.ones(len(ids), dtype=bool)
        reps = _link_reps(self.n, self.s)[0]
        H = ids.astype(np.int64) >> self.split
        return reps[np.searchsorted(reps, H).clip(max=len(reps) - 1)] == H

    def _singles(self, k: int | tuple[int, ...]) -> tuple:
        """For block() on single ids: the masks of level k (edge_masks), or
        of each level of the tuple k one after the other, kept per tuple;
        where each level's masks start; and the counts' dtype."""
        import numpy as np
        if not isinstance(k, tuple):
            return (self.edge_masks(k), np.zeros(1, dtype=np.intp),
                    np.min_scalar_type(comb(self.n, k)))
        if k not in self._tuples:
            km = [self.kmasks[j] if j in self.kmasks else self.masks(j) for j in k]
            self._tuples[k] = (np.concatenate(km), np.cumsum([0] + [len(a) for a in km[:-1]]),
                               np.min_scalar_type(max(comb(self.n, j) for j in k)))
        return self._tuples[k]

    def _level(self, k: int, bits: int) -> tuple:
        """For blocks of 2^bits ids: per k-set, its (mid, low) pattern index
        in N and its bits above a block; the tables [a <= x] of every mid and
        low half x against the patterns a; and the counts' dtype."""
        import numpy as np
        if (k, bits) not in self._levels:
            # single ids read the masks themselves (block() at bits = 0), and
            # a link kernel counts the watched ids off its plan as single
            # ids, so it keeps every level's masks
            km = self.edge_masks(k) if self.link or k in self.kmasks else self.masks(k)
            lb = bits // 2
            mb = bits - lb

            def table(part: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
                # the patterns that occur, ascending, and each k-set's rank among them
                part = part & ((1 << width) - 1)
                seen = np.bincount(part, minlength=1 << width) > 0
                pats, inv = np.flatnonzero(seen).astype(np.uint32), (np.cumsum(seen) - 1)[part]
                # at least two patterns: numpy's matmul is slow for an inner dimension of 1
                pats = np.pad(pats, (0, max(0, 2 - len(pats))))
                x = np.arange(1 << width, dtype=np.uint32)[:, None] & pats
                return (x == pats).astype(np.float32), inv
            zm, mi = table(km >> lb, mb)
            zl, li = table(km, lb)
            self._levels[k, bits] = (mi * zl.shape[1] + li, km >> bits, zm,
                                     np.ascontiguousarray(zl.T),
                                     np.min_scalar_type(comb(self.n, k)))
        return self._levels[k, bits]

    def block(self, k: int | tuple[int, ...], lo, full: bool = True,
              bits: Optional[int] = None) -> np.ndarray:
        """Per id of the 2^bits ids from lo (a multiple of 2^bits, bits being
        self.bits unless given), in id order, the number of k-sets whose edge
        mask lies inside the family (full) or meets it (not full).  When lo
        is an array of block starts, all its blocks are counted at once, and
        the count of id lo[i] | mid << lb | low is at [mid, i, low] (lb =
        bits // 2).  With bits = 0 each id of lo is counted on its own (at
        [0, i, 0]) by testing it against every k-set's mask, and k may be a
        tuple of levels: their full counts then come from one test against
        all their masks, as [level, i], in the narrowest dtype that holds
        them all.

        The edge mask of a k-set holds the edges containing it when k < s and
        the edges inside it when k >= s, so the counts are k^k (full),
        |shadow_k| (k < s) and |upshadow_k| (k > s).  A meet count is C(n,k)
        minus the full count of the complement id, and the complements of a
        block's ids are the ids of the block from 2^U - 2^bits - lo, reversed.

        Full counts come a whole block at a time, as a subset-sum split in two
        halves over the mask patterns that occur.  An id of the block with
        high bits H is H | mid << lb | low, and a k-set counts for it when its
        high part is inside H and its mid and low patterns a, c are inside mid
        and low.  So the block's counts are Zm @ N_H @ Zl.T, with
        Zm[mid, a] = [a <= mid], Zl[low, c] = [c <= low] and N_H[a, c] the
        number of k-sets with patterns a, c whose high part is inside H.  The
        N_H of all blocks come from one bincount, laid side by side, so the
        tables are applied in two 2D products whatever the number of blocks.
        Every factor is a non-negative integer and every partial sum is at
        most C(n,k) <= C(24,12) = 2,704,156 < 2^24, so the float32 products
        are exact in any summation order; __init__ refuses a shape whose
        C(n, n // 2) reaches 2^24.  The dtype is the narrowest that holds
        C(n,k), so no count wraps.
        """
        import numpy as np
        bits = self.bits if bits is None else bits
        several = isinstance(lo, np.ndarray)
        if not full:
            comp = self.block(k, (1 << self.U) - (1 << bits) - lo, True, bits)
            return comb(self.n, k) - (comp[::-1, :, ::-1] if several else comp[::-1])
        if not bits:
            km, starts, dtype = self._singles(k)
            H = np.asarray(lo, dtype=np.uint32).reshape(-1, 1)
            cnt = np.add.reduceat((km | H) == H, starts, axis=1, dtype=dtype)
            return cnt.T if isinstance(k, tuple) else cnt.reshape((1, -1, 1) if several else -1)
        idx, high, zm, zlT, dtype = self._level(k, bits)
        A, C = zm.shape[1], zlT.shape[0]
        if not several:
            H = lo >> bits
            N = np.bincount(idx, weights=(high | H) == H, minlength=A * C).astype(np.float32)
            return (zm @ N.reshape(A, C) @ zlT).ravel().astype(dtype)
        # N_H of block i sits at columns i * C .. of an A x (nb * C) matrix
        nb, H = len(lo), (lo >> bits).astype(np.uint32)[:, None]
        mid, low = np.divmod(idx, C)
        N = np.bincount((mid * (nb * C) + low + C * np.arange(nb)[:, None]).ravel(),
                        weights=((high | H) == H).ravel(), minlength=A * nb * C).astype(np.float32)
        cnt = (zm @ N.reshape(A, nb * C)).reshape(-1, C) @ zlT
        return cnt.astype(dtype).reshape(len(zm), nb, -1)


@cache
def _popcount_runs(bits: int, hs: tuple[int, ...] = (0,)) -> tuple[np.ndarray, ...]:
    """For blocks of 2^bits ids laid out as block() returns them, [mid, block,
    low], whose bits above the block have popcounts h0 + hs (hs ascending,
    steps of at most one): the entries in edge-count order (each run
    ascending), and where the run of each edge count h0, h0 + 1, ... starts
    and how wide it is.  With hs = (0,) the layout is one block in id order:
    hits() reads a block's ids with m edges off one run, the search a
    chunk's, and _scan gathers a chunk's counts into this order once per
    chunk and level.  The int64 order is 0.5 MB at 16 bits, but a narrower
    one makes the gather 2x slower."""
    import numpy as np
    lb = bits // 2
    pc = np.bitwise_count(np.arange(1 << (bits - lb), dtype=np.uint32)).astype(np.intp)
    m = (pc[:, None, None] + np.array(hs)[:, None] + pc[:1 << lb]).ravel()
    order = np.argsort(m, kind="stable")
    starts = np.searchsorted(m[order], np.arange(bits + hs[-1] + 1))
    return order, starts, np.diff(starts, append=len(order))


@cache
def _link_reps(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The least labelling (canonical_form's) of every class of
    (s-1)-uniform families on [n - 1], as ids over the C(n-1, s-1) edges
    through vertex n, ascending, and the size of each class: _classes over
    every id.  Read-only."""
    import numpy as np
    n1, s1 = n - 1, s - 1
    U1 = comb(n1, s1)
    every = ([comb(U1, m) for m in range(U1 + 1)] if _symmetric(n1, s1)
             else np.arange(1 << U1, dtype=np.uint32))
    reps, sizes = np.array(sorted(_classes(n1, s1, every)), dtype=np.int64).T
    if int(sizes.sum()) != 1 << U1:
        raise InternalCheckError(f"link classes of ({n},{s}) cover {int(sizes.sum())} "
                                 f"of 2^{U1} links")
    reps.flags.writeable = sizes.flags.writeable = False
    return reps, sizes


def _kernel(n: int, s: int) -> _Kernel:
    """The kernel of (n, s) at the current BLOCK_BITS, a link kernel where
    that pays (_link_pays): kept for the process when n <= KEEP_KERNEL_N,
    built afresh otherwise."""
    if n <= KEEP_KERNEL_N:
        return _kept_kernel(n, s, BLOCK_BITS)
    return _Kernel(n, s, link=_link_pays(n, s, BLOCK_BITS))


@cache
def _kept_kernel(n: int, s: int, bits: int) -> _Kernel:
    # bits is the BLOCK_BITS the kernel reads when built: a kernel's tables
    # depend on its block size, so the size is part of the key
    return _Kernel(n, s, link=_link_pays(n, s, bits))


def _link_pays(n: int, s: int, bits: int) -> bool:
    """Whether a sweep of (n, s) does less work over one family per link
    class than over every id.  A universe of one block is one product per
    level, which the split would only cut into more calls; and every block
    costs a bincount over all C(n,k) k-sets, so the link blocks must hold at
    least as many ids as the widest level has k-sets.  At s = n - 1 the link
    blocks hold two ids each; at s = 1 both sweeps count the same blocks."""
    return comb(n, s) > bits and 1 << min(comb(n - 1, s), bits) >= comb(n, n // 2)


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

    Counts the ids of ker.plan() a chunk at a time, as the sweeps do: every
    id, or on a link kernel one family per class of links at vertex n.  The
    edge count, the i-degree and the u- and t-clique counts are unchanged by
    relabelling, so the optimum over those ids is the optimum over all.  Of
    each chunk it takes the ids with m edges (one run of its popcount order),
    filters them by i-degree, then u-clique count, and compares the t-clique
    counts of the survivors.  families_scanned still counts every family that
    passes the filters: each swept id stands for its link class's size.  The
    witnesses are one per isomorphism class, the least labelling of each class
    of the swept attainers (_classes), sorted by canonical form.  An orbit
    id missing from the swept attainers must be one the plan skips, and is
    recounted against the constraints and the optimum, so an attainer set
    not closed under relabelling is an InternalCheckError; at s in {0, 1,
    n - 1, n} the search keeps only the number of attainers per edge count,
    and the check is that it is C(U, m).  threads is kept for compatibility
    and has no effect; it must be >= 1.
    """
    import numpy as np
    if threads < 1:
        raise ValueError("threads must be >= 1")
    ker = _kernel(spec.n, spec.s)
    caps = () if spec.i is None else ker.edge_masks(spec.i)
    b = ker.sweep_bits
    lb = b // 2
    weights = ker.plan()[3]
    # blocks per block() call, as _scan takes them for the widest level read
    widest = max(comb(spec.n, k) for k in (spec.t, spec.u) if k is not None)
    per = min(1 << (ker.bits - b), max(1, (1 << 20) // widest))
    symmetric = _symmetric(spec.n, spec.s)

    def capped(F: np.ndarray) -> np.ndarray:
        # one mask over all caps: a boolean gather per cap costs more
        ok = np.ones(len(F), dtype=bool)
        for im in caps:
            ok &= np.bitwise_count(F & im) <= spec.max_degree
        return ok

    best: Optional[int] = None
    # the attainers so far: per edge count, weighted, where that is all
    # _classes reads; elsewhere their ids, in one growing array
    tally = np.zeros(ker.U + 1, dtype=np.int64)
    found, size = np.zeros(0, dtype=np.uint32), 0
    scanned = 0
    for c0, lo, ms, order, starts, widths in ker.chunks(per):
        if spec.m is None:
            pos = np.arange(len(order), dtype=np.uint32)
        elif 0 <= (p := spec.m - ms.start) < len(widths) and widths[p]:
            pos = order[starts[p]:starts[p] + widths[p]]
        else:
            continue
        # one block is laid out in id order, several as [mid, block, low]
        nb = 1 if isinstance(lo, int) else len(lo)
        if nb == 1:
            F = (pos + lo).astype(np.uint32, copy=False)
        else:
            mid, blk = np.divmod(pos >> lb, nb)
            F = (lo[blk] | mid << lb | pos & ((1 << lb) - 1)).astype(np.uint32)
        if spec.i is not None:
            keep = capped(F)
            F, pos = F[keep], pos[keep]
        if spec.u is not None:
            keep = ker.block(spec.u, lo, True, b).ravel()[pos] == spec.p
            F, pos = F[keep], pos[keep]
        # each id stands for as many families as its block's link class holds
        w = weights[c0 + (pos >> lb) % nb]
        scanned += int(w.sum())
        if not len(F):
            continue
        cnt = ker.block(spec.t, lo, True, b).ravel()[pos]
        top = int(cnt.max())
        if best is None or top > best:
            best, size = top, 0
            tally[:] = 0
        if top == best:
            hit = cnt == top
            if symmetric:
                tally += np.bincount(np.bitwise_count(F[hit]), weights=w[hit],
                                     minlength=ker.U + 1).astype(np.int64)
                continue
            F = F[hit]
            if size + len(F) > len(found):
                found = np.concatenate((found[:size], np.empty(max(size, len(F)), dtype=np.uint32)))
            found[size:size + len(F)] = F
            size += len(F)

    if best is None:
        return SearchResult("infeasible", None, [], 0, scanned)

    def attains(ids: np.ndarray) -> np.ndarray:
        ok = ker.block(spec.t, ids, True, 0).ravel() == best
        ok &= capped(ids)
        if spec.m is not None:
            ok &= np.bitwise_count(ids) == spec.m
        if spec.u is not None:
            ok &= ker.block(spec.u, ids, True, 0).ravel() == spec.p
        return ok
    found = found[:size]
    found.sort()
    # an orbit id that is not a swept attainer must be one the plan skips
    # and attain on a recount
    classes = _classes(spec.n, spec.s, tally if symmetric else found,
                       lambda ids: ~ker.sweeps(ids) & attains(ids))
    reps = sorted(ker.masks_of(least) for least, _ in classes)
    witnesses = [SetFamily(spec.n, spec.s, frozenset(r)) for r in reps]
    return SearchResult("ok", best, witnesses, len(reps), scanned)


# ---------------------------------------------------------------------------
# whole-space sweeps

# The expected rows and verdict rows met so far, keyed by (function name, U,
# its arguments after m), and verify_kkt's table per shape, keyed by
# ("verify_kkt", n, s), each held as (functions, array).  The functions are
# this module's bindings of the names the array was built from, and the
# array is built again once a binding changes, so a stub or wrapper bound
# here is still the one called, and each key keeps one entry whatever was
# bound.
_ROWS: dict[tuple, tuple[tuple[Callable, ...], np.ndarray]] = {}


def _kept(key: tuple, names: tuple[str, ...], build: Callable[[], np.ndarray]) -> np.ndarray:
    """_ROWS[key]'s array, made read-only from build() unless it was built
    with this module's current bindings of names."""
    fns = tuple(globals()[name] for name in names)
    hit = _ROWS.get(key)
    if hit is None or any(a is not b for a, b in zip(hit[0], fns)):
        arr = build()
        arr.flags.writeable = False
        _ROWS[key] = hit = (fns, arr)
    return hit[1]


def _row(name: str, U: int, *args: int, verdict: bool = False) -> np.ndarray:
    """[f(m, *args) for m = 0..U] (their .verdict when verdict is set) as a
    read-only int64 array, f being this module's current binding of name."""
    import numpy as np

    def build() -> np.ndarray:
        vals = [globals()[name](m, *args) for m in range(U + 1)]
        return np.array([v.verdict for v in vals] if verdict else vals, dtype=np.int64)
    return _kept((name, U, *args), (name,), build)


def _scan(ker: _Kernel, levels: list[tuple]) -> list[tuple]:
    """Per (k, watched ids ascending, target per m or None) in levels, over
    the blocks of ker.plan(): per m, the largest full count of level k over
    the swept ids with m edges, or with a target how many of those ids count
    target[m]; and the counts of the watched ids.  Watched ids outside the
    plan are counted on their own, as blocks of one id.  Level s counts each
    id's edges, so when it is scanned every count there is checked against
    the id's popcount.

    A level counts its blocks a chunk at a time, one block() call per chunk:
    as many blocks as make 2^bits ids, fewer when C(n,k) is large, since a
    call's bincount reads every k-set once per block.  A chunk's counts are
    gathered into edge-count order once (_popcount_runs, by the popcounts of
    the chunk's bits above the block) and reduced per run."""
    import numpy as np
    b = ker.sweep_bits
    lb = b // 2
    out = []
    # locate() keys its cache by content: look each watched array up once
    located: dict[int, tuple] = {}
    for k, watched, target in levels:
        nK = comb(ker.n, k)
        per_m = np.zeros(ker.U + 1, dtype=np.int64)
        seen = np.zeros(len(watched), dtype=np.int64)
        # blocks per block() call: the call's bincount stays near 2^20 entries
        cap = max(1, (1 << 20) // nK)
        per = min(1 << (ker.bits - b), cap)
        if id(watched) not in located:
            located[id(watched)] = ker.locate(watched)
        rank, off, read = located[id(watched)]
        if per not in read:
            # the watched ids outside the plan, and per chunk the positions
            # of its watched ids and their places in its counts
            places = []
            for c0, _, _, order, _, _ in ker.chunks(per):
                nb = len(order) >> b
                i = np.flatnonzero((rank >= c0) & (rank < c0 + nb))
                o = off[i]
                places.append((i, (((o >> lb) * nb + rank[i] - c0) << lb) + (o & ((1 << lb) - 1))))
            read[per] = (np.flatnonzero(rank < 0), places)
        rest, places = read[per]
        if target is not None:
            # each m's target in the counts' dtype; C(n,k) + 1, which no count
            # takes, for one out of range
            want = np.where((target >= 0) & (target <= nK), target,
                            nK + 1).astype(np.min_scalar_type(nK + 1))
        for (_, lo, ms, order, starts, widths), (i, at) in zip(ker.chunks(per), places):
            cnt = ker.block(k, lo, True, b).ravel()
            srt = cnt[order]
            if k == ker.s and not np.array_equal(
                    srt, np.repeat(np.arange(ms.start, ms.stop, dtype=srt.dtype), widths)):
                raise InternalCheckError("kernel self-test failed: k^s != edge count")
            if target is None:
                np.maximum(per_m[ms], np.maximum.reduceat(srt, starts), out=per_m[ms])
            else:
                per_m[ms] += np.add.reduceat(srt == np.repeat(want[ms], widths), starts,
                                             dtype=np.int64)
            seen[i] = cnt[at]
        for c0 in range(0, len(rest), cap):
            i = rest[c0:c0 + cap]
            cnt = ker.block(k, watched[i], True, 0).ravel()
            if k == ker.s and not np.array_equal(cnt, np.bitwise_count(watched[i])):
                raise InternalCheckError("kernel self-test failed: k^s != edge count")
            seen[i] = cnt
        out.append((per_m, seen))
    return out


def _class_counts(ker: _Kernel) -> tuple[np.ndarray, ...]:
    """At s in {0, 1, n - 1, n}, where every family with m edges is a
    relabelling of C_s(m): the class size C(U, m) per m, and the full count
    of every level 0..n at the least labelling of each class (_classes),
    the colex id 2^m - 1, and at the retlex id with m edges, each as
    [level, m].  Every level goes into one block() call on single ids, cut
    into chunks of ids, and of levels past n = 20, so that a call tests
    about 2^20 (id, k-set) pairs at most, as _scan's calls do; a level of
    more k-sets is tested one id per call.  The level-s counts are every
    id's edge count, which is checked."""
    import numpy as np
    n, U = ker.n, ker.U
    least, sizes = np.array(_classes(n, ker.s, [comb(U, m) for m in range(U + 1)])).T
    ids = np.concatenate((least, (1 << U) - 1 - least[::-1]))
    cap = 1 << 20
    cnt = np.empty((n + 1, len(ids)), dtype=np.int64)
    k = 0
    while k <= n:
        # levels k..j - 1: as many as fit in cap k-sets, one at least
        j, width = k + 1, comb(n, k)
        while j <= n and width + comb(n, j) <= cap:
            width += comb(n, j)
            j += 1
        per = max(1, cap // width)
        for c0 in range(0, len(ids), per):
            cnt[k:j, c0:c0 + per] = ker.block(tuple(range(k, j)), ids[c0:c0 + per], True, 0)
        k = j
    if not np.array_equal(cnt[ker.s], np.bitwise_count(ids)):
        raise InternalCheckError("kernel self-test failed: k^s != edge count")
    return sizes, cnt[:, :U + 1], cnt[:, U + 1:]


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
    segment.  By complements, the least shadow or upshadow at m is C(n,k)
    minus the largest full count at U - m.  At s in {0, 1, n - 1, n} every
    family with m edges is a relabelling of C_s(m), so the per-m extremes
    are the counts of the colex ids (_class_counts); elsewhere they come
    from the block scan (_scan).
    """
    import numpy as np
    ker = _kernel(n, s)
    U = ker.U
    report = SweepReport("kkt", n, s, 1 << U)
    colex_ids = (1 << np.arange(U + 1, dtype=np.int64)) - 1
    # the retlex id with m edges is the complement of the colex id with U - m,
    # so a shadow row reads the retlex ids
    retlex_ids = (1 << U) - 1 - colex_ids[::-1]
    # per level and m: the largest full count, and the segment's count
    if _symmetric(n, s):
        _, top, retlex = _class_counts(ker)
        seen = np.concatenate((retlex[:s], top[s:]))
    else:
        scan = _scan(ker, [(k, retlex_ids if k < s else colex_ids, None) for k in range(n + 1)])
        top, seen = (np.stack([row[j] for row in scan]) for j in (0, 1))

    def build() -> np.ndarray:
        # (kind, check label, level, full, expected per m)
        rows = [("shadow", "min shadow q", q, False, _row("shadow_colex", U, s, q))
                for q in range(s)]
        rows += [("cliques", "max cliques t", t, True, _row("k_colex", U, s, t))
                 for t in range(s, n + 1)]
        # complementing every edge maps the retlex s-segment to the colex
        # (n-s)-segment and its t-upshadow to the (n-t)-shadow of that
        rows += [("upshadow", "min upshadow t", t, False, _row("shadow_colex", U, n - s, n - t))
                 for t in range(s + 1, n + 1)]
        return np.array(
            [(kind, f"{label}={level}", level, full, comb(n, level), want)
             for kind, label, level, full, want in rows],
            dtype=[("kind", object), ("check", object), ("level", np.intp), ("full", bool),
                   ("nK", np.int64), ("want", np.int64, (U + 1,))])
    table = _kept(("verify_kkt", n, s), ("shadow_colex", "k_colex"), build)

    # per row of the table and m: the extreme count and the segment's count,
    # all rows compared at once
    full, nK, want = table["full"][:, None], table["nK"][:, None], table["want"]
    ext, got = top[table["level"]], seen[table["level"]]
    ext = np.where(full, ext, nK - ext[:, ::-1])
    got = np.where(full, got, nK - got[:, ::-1])
    beyond = ext != want
    report.checks = table["check"].tolist()
    for i in np.flatnonzero(beyond.any(axis=1) | (got != want).any(axis=1)):
        kind, level, is_full, expected = (table["kind"][i], int(table["level"][i]),
                                          bool(table["full"][i]), want[i])
        seg, seg_ids = ("retlex", retlex_ids) if kind == "upshadow" else ("colex", colex_ids)
        # one rescan of the ids with a failing m: the lowest id of each m
        # beyond its expected value
        bad = np.flatnonzero(beyond[i]).tolist()
        first: dict[int, int] = {}
        if bad:
            def keep(F, c):
                e = expected[np.bitwise_count(F)]
                return c > e if is_full else c < e
            for F in ker.hits(bad, level, is_full, keep):
                pc = np.bitwise_count(F)
                for j in np.flatnonzero(np.append(True, pc[1:] != pc[:-1])) if len(F) else ():
                    first.setdefault(int(pc[j]), int(F[j]))
                if len(first) == len(bad):
                    break
        for m in bad:
            report.failures.append({
                "kind": kind, "m": m, "level": level,
                "expected": int(expected[m]), "got": int(ext[i, m]),
                "family": ker.family_of(first.get(m, seg_ids[m])).edge_lists(),
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
    recorded with the observed class structure but are not failures.  At s
    in {0, 1, n - 1, n} the orbit of C_s(m) is every family with m edges,
    so it is the attainer set exactly when C_s(m) attains (_class_counts);
    elsewhere the block scan counts the orbits (_colex_orbits) and the
    attainers.
    """
    import numpy as np
    ker = _kernel(n, s)
    U = ker.U
    report = SweepReport("uniqueness", n, s, 1 << U)
    ms = range(U + 1)
    # (kind, level name, goal, level, full, extremal value per m, verdict per m)
    table = [("colex", "q", "min shadow", q, False, _row("shadow_colex", U, s, q),
              _row("is_colex_unique", U, s, q, n, verdict=True)) for q in range(1, s)]
    table += [("clique", "t", "max cliques", t, True, _row("k_colex", U, s, t),
               _row("is_clique_unique", U, s, t, n, verdict=True)) for t in range(s + 1, n + 1)]

    # per row of the table and m: the swept attainers, the orbit ids that
    # attain, and the swept orbit ids
    if _symmetric(n, s):
        sizes, colex, retlex = _class_counts(ker)
        counts = []
        for *_, level, full, ext, _ in table:
            # a meet level counts C_s(m) as C(n,q) minus the full count of
            # its complement, the retlex id with U - m edges; the orbit is
            # the class, so all of it attains or none of it
            have = colex[level] if full else comb(n, level) - retlex[level, ::-1]
            counts.append((sizes, np.where(have == ext, sizes, 0), sizes))
    else:
        orbit_ids, orbit_m, comp_ids, comp_m, sizes = _colex_orbits(n, s)
        # a meet level counts the complements with C(n,q) - shadow_colex at U - m
        levels = [(level, orbit_ids, ext) if full else
                  (level, comp_ids, comb(n, level) - ext[::-1])
                  for _, _, _, level, full, ext, _ in table]
        # a link kernel sweeps one family per link class.  An attainer set is
        # closed under relabelling and holds the orbit (checked below), so it
        # is the orbit iff its swept members are the orbit's swept members
        swept = ker.swept(orbit_ids), ker.swept(comp_ids)
        counts = []
        for (_, _, target), (hits, seen), (*_, full, _, _) in zip(
                levels, _scan(ker, levels), table):
            wm = orbit_m if full else comp_m
            n_orb = np.bincount(wm[seen == target[wm]], minlength=U + 1)
            counts.append((hits, n_orb, swept[0]) if full else
                          (hits[::-1], n_orb[::-1], swept[1][::-1]))

    # the first m, and at it the first row, at which part of the orbit
    # does not attain
    short = np.array([n_orb != sizes for _, n_orb, _ in counts]).reshape(len(table), U + 1)
    if short.any():
        m = int(short.any(axis=0).argmax())
        kind, var, goal, level, *_ = table[int(short[:, m].argmax())]
        raise InternalCheckError(f"colex orbit not attaining {goal} at m={m}, {var}={level}")

    # per row, its failure per m; a False clique verdict is "not decided",
    # so only True can fail
    rows = []
    for (kind, var, _, level, full, ext, verdicts), (n_att, _, n_swept) in zip(table, counts):
        verdict, unique = verdicts.astype(bool), n_att == n_swept
        fails = (verdict != unique) & (verdict | (kind == "colex") & (np.arange(U + 1) > s + 1))
        # one rescan of the ids with every edge count whose attainers are
        # more than the orbit: the full attainer set, and its lowest id
        # outside the orbit
        redo = np.flatnonzero(fails & ~unique).tolist()
        if redo:
            hit = np.concatenate(list(ker.hits(
                redo, level, full, lambda F, c, ext=ext: c == ext[np.bitwise_count(F)])))
            hit_m = np.bitwise_count(hit)
        failed = {}
        for m in np.flatnonzero(fails).tolist():
            attainers, family = int(sizes[m]), None
            if not unique[m]:
                own = hit[hit_m == m]
                attainers = len(own)
                family = ker.family_of(own[~np.isin(own, orbit_ids)][0]).edge_lists()
            failed[m] = {
                "kind": f"{kind}_unique", "m": m, "level": level, "verdict": bool(verdict[m]),
                "attainers": attainers, "orbit": int(sizes[m]), "family": family,
            }
        rows.append((kind, var, level, failed))
    for m in ms:
        for kind, var, level, failed in rows:
            report.checks.append(f"{kind} m={m} {var}={level}")
            if m in failed:
                report.failures.append(failed[m])
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


def verify_equality_theorems() -> EqualityReport:
    """Confirm that the stated extremal structures attain each bound exactly.

    Covers: j-shadow sizes of packings, Steiner shadows attaining the vertex
    bound, packing shadows attaining the edge bound, disjoint cliques attaining
    the clique bound under divisibility, and (by tiny exhaustive searches) the
    converse direction that attainers are shadows of packings.
    """
    rep = EqualityReport()

    for name, i in (("fano", 2), ("s348", 3), ("pg23", 2), ("ag23", 2)):
        d = builtin_design(name)
        b = len(d.blocks.edges)
        for j in range(i, d.r + 1):
            got = len(shadow(d.blocks, j).edges) if j < d.r else b
            rep.add(f"{name} |shadow_{j}| = C(r,j)*blocks", comb(d.r, j) * b, got)

    # Steiner shadows meet the vertex bound with equality
    pg = builtin_design("pg23")
    H = shadow_of_design(pg, 3)
    for t in (3, 4):
        vb = vertex_bound(13, 2, 3, t, max_degree(H, 2))
        got = len(cliques(H, t).edges)
        rep.add(f"pg23 shadow k^{t} = vertex bound", (vb.value, "yes"),
                (Fraction(got), vb.equality_possible))

    # packing shadows meet the edge bound with equality
    for (a, r, i, s) in ((2, 4, 1, 3), (3, 4, 1, 3), (2, 5, 2, 4), (2, 5, 1, 3)):
        d = builtin_design(f"disjoint({a},{r})")
        Hs = shadow_of_design(d, s)
        m = len(Hs.edges)
        for t in range(s + 1, r + 1):
            eb = edge_bound(m, i, s, t, max_degree(Hs, i))
            got = len(cliques(Hs, t).edges)
            rep.add(f"disjoint({a},{r}) shadow_{s} k^{t} = edge bound",
                    (eb.value, a * comb(r, t)), (Fraction(got), got))

    # disjoint copies of K_r meet the clique bound when C(r,u) divides p
    for (a, r, s, u, t) in ((2, 4, 2, 3, 4), (3, 4, 2, 3, 4), (2, 5, 3, 4, 5)):
        d = builtin_design(f"disjoint({a},{r})")
        Hs = shadow_of_design(d, s) if s < r else d.blocks
        p = len(cliques(Hs, u).edges)
        cb = clique_bound(p, 1, s, u, t, max_degree(Hs, 1))
        got = len(cliques(Hs, t).edges)
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
