"""Uniform set families on [n], n <= 64, as integer bitmasks.

An edge {v1, ..., vs} with labels in 1..n is the mask with bits v-1 set.
Masks compare as integers exactly in colex order (the larger of two distinct
sets in colex is the one containing max of the symmetric difference, i.e. the
one with the higher top bit), which makes colex sorting and initial segments
trivial: sort by integer value.

Usage:
    >>> H = SetFamily.from_edge_lists(4, 2, [(1, 2), (1, 3), (2, 3)])
    >>> cliques(H, 3).edges == {mask_of((1, 2, 3))}
    True
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .cascade import cascade_of
from .errors import InternalCheckError

MAX_GROUND = 64


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a set of 1-based vertex labels."""
    m = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex labels are 1-based, got {v}")
        b = 1 << (v - 1)
        if m & b:
            raise ValueError(f"repeated vertex {v}")
        m |= b
    return m


def _bit_positions(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex labels of a mask."""
    return tuple([p + 1 for p in _bit_positions(mask)])


def _submasks(mask: int, k: int) -> Iterator[int]:
    """The k-subsets of a mask, as masks, in lexicographic order of their bits."""
    return map(sum, combinations([1 << p for p in _bit_positions(mask)], k))


def _colex_masks(n: int, k: int) -> Iterator[int]:
    """The k-subsets of [n], as masks, in ascending integer (= colex) order,
    each one Gosper next-combination step (HAKMEM item 175) after the last."""
    x, top = (1 << k) - 1, 1 << n
    while x < top:
        yield x
        if not x:  # the empty set is the only 0-subset
            return
        low = x & -x
        ripple = x + low  # carries the lowest run of ones up one place
        x = ripple | ((x ^ ripple) >> 2) // low


@dataclass(frozen=True)
class SetFamily:
    """An s-uniform family of subsets of [n]; edges are vertex bitmasks.

    Arity 0 is allowed (the single edge is the empty mask) so that
    complement_family is an involution even at s = n.
    """

    n: int
    s: int
    edges: frozenset[int]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground set size must be in 0..{MAX_GROUND}, got {self.n}")
        if not 0 <= self.s <= MAX_GROUND:
            raise ValueError(f"arity must be in 0..{MAX_GROUND}, got {self.s}")
        full = (1 << self.n) - 1
        for e in self.edges:
            if e & ~full:
                raise ValueError(f"edge {vertices_of(e)} leaves the ground set [{self.n}]")
            if e.bit_count() != self.s:
                raise ValueError(
                    f"edge {vertices_of(e)} has {e.bit_count()} vertices, expected {self.s}"
                )

    @classmethod
    def from_edge_lists(cls, n: int, s: int, edge_lists: Iterable[Iterable[int]]) -> "SetFamily":
        masks = []
        for el in edge_lists:
            masks.append(mask_of(el))
        seen = set(masks)
        if len(seen) != len(masks):
            raise ValueError("repeated edge in input")
        return cls(n, s, frozenset(seen))

    def edge_lists(self) -> list[tuple[int, ...]]:
        """Edges as vertex tuples, colex ordered."""
        return [vertices_of(e) for e in sorted(self.edges)]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.edges))


class Neighborhood(NamedTuple):
    """Relabelled link of an i-set; labels[j] is the original vertex of new label j+1."""

    family: SetFamily
    labels: tuple[int, ...]


def support(H: SetFamily) -> int:
    """Mask of all vertices covered by some edge."""
    m = 0
    for e in H.edges:
        m |= e
    return m


def degree(H: SetFamily, I: int) -> int:
    """Number of edges containing the vertex set I (a mask)."""
    return sum(1 for e in H.edges if e & I == I)


def max_degree(H: SetFamily, i: int) -> int:
    """Max over i-sets I of the number of edges containing I (0 for no edges)."""
    if not 1 <= i <= H.s:
        raise ValueError(f"need 1 <= i <= s = {H.s}, got i={i}")
    counts = Counter(sub for e in H.edges for sub in _submasks(e, i))
    return max(counts.values(), default=0)


def shadow(H: SetFamily, q: int) -> SetFamily:
    """All q-subsets of edges of H (0 <= q < s)."""
    if not 0 <= q < H.s:
        raise ValueError(f"need 0 <= q < s = {H.s}, got q={q}")
    out = frozenset(sub for e in H.edges for sub in _submasks(e, q))
    return SetFamily(H.n, q, out)


def upshadow(H: SetFamily, t: int) -> SetFamily:
    """All t-supersets (within [n]) of edges of H (s < t <= n)."""
    if not H.s < t <= H.n:
        raise ValueError(f"need s < t <= n, got s={H.s}, t={t}, n={H.n}")
    rest_all = [p for p in range(H.n)]
    out = set()
    for e in H.edges:
        rest = [p for p in rest_all if not e >> p & 1]
        for sub in combinations(rest, t - H.s):
            m = e
            for p in sub:
                m |= 1 << p
            out.add(m)
    return SetFamily(H.n, t, frozenset(out))


def cliques(H: SetFamily, t: int) -> SetFamily:
    """The t-cliques of H: t-sets all of whose s-subsets are edges (t >= s).

    t-cliques are found by extending (t-1)-cliques past their top vertex, so
    each clique appears exactly once.  t > n gives the empty family.
    """
    if t < H.s:
        raise ValueError(f"need t >= s = {H.s}, got t={t}")
    if t > H.n:
        return SetFamily(H.n, t, frozenset())
    if t == H.s:
        return H
    edge_set = H.edges
    s1 = H.s - 1
    level = list(H.edges)
    for _ in range(H.s, t):
        nxt = []
        for c in level:
            submasks = list(_submasks(c, s1))
            for v in range(c.bit_length(), H.n):
                vb = 1 << v
                for sm in submasks:
                    if (sm | vb) not in edge_set:
                        break
                else:
                    nxt.append(c | vb)
        level = nxt
    return SetFamily(H.n, t, frozenset(level))


def neighborhood(H: SetFamily, I: int) -> Neighborhood:
    """Link of the vertex set I: {E \\ I : I subset of E in H}, relabelled.

    The returned family lives on ground set [d] where d is the size of the
    union of the link's edges; labels maps new labels back to originals.
    """
    i = I.bit_count()
    if i > H.s:
        raise ValueError(f"|I| = {i} exceeds arity s = {H.s}")
    link = [e ^ I for e in H.edges if e & I == I]
    supp = 0
    for m in link:
        supp |= m
    positions = _bit_positions(supp)
    newbit = {p: j for j, p in enumerate(positions)}
    edges = set()
    for m in link:
        nm = 0
        for p in _bit_positions(m):
            nm |= 1 << newbit[p]
        edges.add(nm)
    fam = SetFamily(len(positions), H.s - i, frozenset(edges))
    return Neighborhood(fam, tuple(p + 1 for p in positions))


def relabel(H: SetFamily, perm: Iterable[int]) -> SetFamily:
    """Apply a vertex relabelling: old label v becomes perm[v-1] (a permutation of 1..n)."""
    p = tuple(perm)
    if sorted(p) != list(range(1, H.n + 1)):
        raise ValueError(f"perm must be a permutation of 1..{H.n}")
    out = set()
    for e in H.edges:
        ne = 0
        for pos in _bit_positions(e):
            ne |= 1 << (p[pos] - 1)
        out.add(ne)
    return SetFamily(H.n, H.s, frozenset(out))


def complement_family(H: SetFamily) -> SetFamily:
    """{[n] \\ E : E in H}, an (n-s)-uniform family on the same ground set."""
    if H.s > H.n:
        raise ValueError(f"cannot complement arity {H.s} on ground set [{H.n}]")
    full = (1 << H.n) - 1
    return SetFamily(H.n, H.n - H.s, frozenset(full ^ e for e in H.edges))


def colex_compare(A: Iterable[int], B: Iterable[int]) -> int:
    """-1/0/1 for A <,=,> B in colex: larger max of the symmetric difference loses."""
    sa, sb = set(A), set(B)
    if sa == sb:
        return 0
    return -1 if max(sa ^ sb) in sb else 1


def retlex_compare(A: Iterable[int], B: Iterable[int]) -> int:
    """-1/0/1 in reverse-3 lex: the set containing max of the symmetric difference
    comes first (so on equal sizes this reverses colex)."""
    sa, sb = set(A), set(B)
    if sa == sb:
        return 0
    return -1 if max(sa ^ sb) in sa else 1


def _colex_segment_blocks(m: int, s: int) -> set[int]:
    # Closed form from the cascade (a_s, a_{s-1}, ...): block k consists of the
    # common prefix {a_s + 1, ..., a_{s-k+1} + 1} joined with every
    # (s-k)-subset of [a_{s-k}].  Blocks are disjoint and their union is the
    # colex segment.
    ent = cascade_of(m, s).entries
    fixed = 0
    out: set[int] = set()
    for k, a in enumerate(ent):
        lvl = s - k
        out.update(fixed | sub for sub in _submasks((1 << a) - 1, lvl))
        fixed |= 1 << a
    return out


def colex_segment(m: int, s: int) -> SetFamily:
    """First m s-sets in colex, on the minimal ground set (smallest n with C(n,s) >= m).

    Computed twice -- as the first m masks of the colex enumeration and by
    the cascade block closed form -- and cross-checked; a mismatch raises
    InternalCheckError.
    """
    if s < 1:
        raise ValueError(f"arity must be >= 1, got {s}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if m == 0:
        return SetFamily(0, s, frozenset())
    n = s
    while comb(n, s) < m:
        n += 1
        if n > MAX_GROUND:
            raise ValueError(
                f"colex segment with {m} edges needs {n} vertices, beyond the "
                f"{MAX_GROUND}-vertex family representation; use the cascade "
                f"counting functions instead"
            )
    seg = frozenset(islice(_colex_masks(n, s), m))
    blocks = _colex_segment_blocks(m, s)
    if seg != blocks:
        raise InternalCheckError(
            f"colex segment mismatch at m={m}, s={s}: sorted order and cascade "
            f"blocks disagree"
        )
    return SetFamily(n, s, seg)


def retlex_segment(n: int, m: int, s: int) -> SetFamily:
    """First m s-sets of [n] in retlex order: the last m in colex order.

    Complementing in [n] reverses colex order, so these are the complements
    of the first m (n-s)-sets in colex order.  Cross-checked against the
    complements of the cascade-block form of that colex segment.
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    if not 0 <= m <= comb(n, s):
        raise ValueError(f"need 0 <= m <= C(n,s) = {comb(n, s)}, got m={m}")
    full = (1 << n) - 1
    seg = frozenset(full ^ e for e in islice(_colex_masks(n, n - s), m))
    if s < n:
        alt = frozenset(full ^ e for e in _colex_segment_blocks(m, n - s))
        if seg != alt:
            raise InternalCheckError(
                f"retlex segment mismatch at n={n}, m={m}, s={s}: reverse-colex "
                f"order and complement identity disagree"
            )
    return SetFamily(n, s, seg)


def to_text(H: SetFamily) -> str:
    """Plain text: header line "n s", then one edge per line, colex ordered."""
    lines = [f"{H.n} {H.s}"]
    for e in sorted(H.edges):
        lines.append(" ".join(str(v) for v in vertices_of(e)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> SetFamily:
    """Parse the to_text format, rejecting malformed input with a clear message."""
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty family file: expected a header line 'n s'")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n s', got {rows[0]!r}")
    try:
        n, s = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"header must be two integers, got {rows[0]!r}") from exc
    if n > MAX_GROUND:
        raise ValueError(f"ground set size {n} exceeds the {MAX_GROUND}-vertex limit")
    masks = []
    for ln in rows[1:]:
        try:
            vs = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"bad edge line {ln!r}") from exc
        if len(vs) != s:
            raise ValueError(f"edge {vs} has {len(vs)} vertices, expected arity {s}")
        if any(v < 1 or v > n for v in vs):
            raise ValueError(f"edge {vs} leaves the ground set [{n}]")
        masks.append(mask_of(vs))
    if len(set(masks)) != len(masks):
        raise ValueError("repeated edge in family file")
    return SetFamily(n, s, frozenset(masks))


def to_json_obj(H: SetFamily) -> dict:
    return {"n": H.n, "s": H.s, "edges": [list(t) for t in H.edge_lists()]}


def from_json_obj(obj: dict) -> SetFamily:
    try:
        n, s, edges = int(obj["n"]), int(obj["s"]), obj["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"family JSON needs keys n, s, edges: {exc}") from exc
    if n > MAX_GROUND:
        raise ValueError(f"ground set size {n} exceeds the {MAX_GROUND}-vertex limit")
    return SetFamily.from_edge_lists(n, s, edges)
