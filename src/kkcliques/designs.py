"""Steiner systems, packings, their shadows, and shadow recognition.

A packing P(i, r) is a family of r-blocks covering every i-set at most once
(equivalently: pairwise block intersections smaller than i); a Steiner system
S(i, r, n) covers every i-set of [n] exactly once.  Their s-shadows are the
extremal families for the degree-bounded clique problems, and the recognition
routine inverts the shadow map constructively: each covered i-set I, together
with the vertex support of its neighborhood, spans the unique block through I.
Recognition and the neighborhood criterion read every link from one pass over
the edges (_links), which groups them by the i-sets they cover.

The embedded designs (Fano plane, S(3,4,8), PG(2,3) lines, AG(2,3) lines) are
stored as literal block lists in data/designs.json and re-verified at load.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from importlib import resources
from math import comb
from typing import Optional

from .errors import InternalCheckError, UnsupportedError
from .families import (
    SetFamily,
    _colex_masks,
    _submasks,
    cliques,
    shadow,
    vertices_of,
)


@dataclass(frozen=True)
class BlockDesign:
    """A family of r-blocks on [n]."""

    n: int
    r: int
    blocks: SetFamily

    def __post_init__(self) -> None:
        if self.blocks.s != self.r or self.blocks.n != self.n:
            raise ValueError(
                f"blocks must be {self.r}-uniform on [{self.n}], got arity "
                f"{self.blocks.s} on [{self.blocks.n}]"
            )


@dataclass(frozen=True)
class DesignCertificate:
    """Classification of a block family at level i.

    kind is "steiner", "packing", or "neither".  witness is a doubly covered
    i-set for "neither", an uncovered i-set for "packing" (why it is not a
    Steiner system), and None for "steiner".
    """

    kind: str
    i: int
    r: int
    n: int
    witness: Optional[tuple[int, ...]]


def verify_design(A: BlockDesign, i: int) -> DesignCertificate:
    """Classify A by i-set coverage counting, cross-checked against the
    pairwise-intersection packing criterion (|B1 cap B2| < i)."""
    if not 1 <= i <= A.r:
        raise ValueError(f"need 1 <= i <= r = {A.r}, got i={i}")
    counts = Counter(sub for b in A.blocks.edges for sub in _submasks(b, i))
    over = sorted(I for I, c in counts.items() if c > 1)
    blocks = sorted(A.blocks.edges)
    pairwise_ok = all(
        (b1 & b2).bit_count() < i
        for j, b1 in enumerate(blocks)
        for b2 in blocks[j + 1 :]
    )
    if pairwise_ok != (not over):
        raise InternalCheckError(
            f"coverage counting and pairwise intersections disagree on packing "
            f"status at i={i}"
        )
    if over:
        return DesignCertificate("neither", i, A.r, A.n, vertices_of(over[0]))
    if len(counts) == comb(A.n, i):
        return DesignCertificate("steiner", i, A.r, A.n, None)
    # lowest-colex uncovered i-set as the non-Steiner witness
    witness = next(c for c in _colex_masks(A.n, i) if c not in counts)
    return DesignCertificate("packing", i, A.r, A.n, vertices_of(witness))


def shadow_of_design(A: BlockDesign, s: int) -> SetFamily:
    """The s-shadow of A's blocks (s < r)."""
    if s >= A.r:
        raise ValueError(f"need s < block size r = {A.r}, got s={s}")
    return shadow(A.blocks, s)


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of packing-shadow recognition: the design, or the lowest-colex
    i-set whose neighborhood is not a complete K^(s-i) on r-i vertices."""

    design: Optional[BlockDesign]
    witness: Optional[tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return self.design is not None


def _links(H: SetFamily, i: int) -> dict[int, list[int]]:
    """The link of every covered i-set I, as {I: [e ^ I for each edge e
    through I]}: one pass over the edges of H, unrelabelled on [n]."""
    links: dict[int, list[int]] = defaultdict(list)
    for e in H.edges:
        for I in _submasks(e, i):
            links[I].append(e ^ I)
    return links


def recognize_packing_shadow(H: SetFamily, i: int, r: int) -> RecognitionResult:
    """Decide whether H is the s-shadow of a packing P(i, r), reconstructing
    the blocks when it is.

    For each covered i-set I the candidate block is I together with the vertex
    support of the neighborhood H(I); H is a packing shadow iff every H(I) is a
    complete (s-i)-graph on exactly r-i vertices.  Requires i+2 <= s (the
    s = i+1 case is an open problem and raises UnsupportedError).  Success is
    post-validated: the blocks must form a packing whose s-shadow is exactly H,
    the blocks themselves when r = s (violations indicate a bug, not bad input).
    """
    s = H.s
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    if s <= i:
        raise ValueError(f"arity s = {s} must exceed i = {i}")
    if s == i + 1:
        raise UnsupportedError(
            "recognition of packing shadows at s = i+1 is an open problem"
        )
    if r < s:
        raise ValueError(f"block size r = {r} must be at least the arity s = {s}")
    want_n = r - i
    want_edges = comb(r - i, s - i)
    links = _links(H, i)
    blocks = set()
    for I in sorted(links):
        supp = 0
        for m in links[I]:
            supp |= m
        # complete iff the support has exactly r-i vertices carrying all
        # C(r-i, s-i) possible edges
        if supp.bit_count() != want_n or len(links[I]) != want_edges:
            return RecognitionResult(None, vertices_of(I))
        blocks.add(I | supp)
    design = BlockDesign(H.n, r, SetFamily(H.n, r, frozenset(blocks)))
    cert = verify_design(design, i)
    if cert.kind == "neither":
        raise InternalCheckError(
            f"reconstructed blocks are not a packing (doubly covered {cert.witness})"
        )
    if (design.blocks if r == s else shadow_of_design(design, s)).edges != H.edges:
        raise InternalCheckError("reconstructed packing's shadow differs from the input family")
    return RecognitionResult(design, None)


def check_neighborhood_clique_criterion(
    H: SetFamily, i: int, r: int, t: int, mode: str = "covered"
) -> bool:
    """Does every i-set's neighborhood carry exactly C(r-i, t-i) (t-i)-cliques?

    mode="covered" quantifies over i-sets contained in an edge (true iff H is a
    packing shadow); mode="all" over every i-set of [n] (true iff H is a
    Steiner shadow), where an uncovered i-set's neighborhood is empty.
    Requires i+2 <= s <= t <= r and max i-degree at most C(r-i, s-i).  Each
    neighborhood's cliques are counted on [n] without relabelling, which
    leaves their number unchanged.  The verdict is cross-validated against
    recognize_packing_shadow.
    """
    s = H.s
    if mode not in ("covered", "all"):
        raise ValueError(f"mode must be 'covered' or 'all', got {mode!r}")
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    if s <= i:
        raise ValueError(f"arity s = {s} must exceed i = {i}")
    if s == i + 1:
        raise UnsupportedError(
            "the neighborhood clique criterion at s = i+1 is an open problem"
        )
    if not s <= t <= r:
        raise ValueError(f"need s <= t <= r, got s={s}, t={t}, r={r}")
    links = _links(H, i)
    if max(map(len, links.values()), default=0) > comb(r - i, s - i):
        raise ValueError(
            f"max {i}-degree exceeds C(r-i, s-i) = {comb(r - i, s - i)}; "
            f"the criterion presumes the degree bound"
        )
    want = comb(r - i, t - i)
    # want >= 1, so an uncovered i-set's empty neighborhood fails mode="all"
    result = (mode == "covered" or len(links) == comb(H.n, i)) and all(
        len(cliques(SetFamily(H.n, s - i, frozenset(link)), t - i).edges) == want
        for link in links.values()
    )
    rec = recognize_packing_shadow(H, i, r)
    if mode == "covered":
        expected = rec.ok
    else:
        expected = rec.ok and verify_design(rec.design, i).kind == "steiner"
    if result != expected:
        raise InternalCheckError(
            f"neighborhood clique criterion ({mode}) = {result} disagrees with "
            f"shadow recognition = {expected}"
        )
    return result


_DISJOINT_RE = re.compile(r"^disjoint\((\d+),\s*(\d+)\)$")


@cache
def _load_builtin_table() -> dict:
    # parsed once per process; builtin_design still verifies every design it builds
    text = resources.files("kkcliques").joinpath("data/designs.json").read_text()
    return json.loads(text)


def builtin_design(name: str) -> BlockDesign:
    """Named fixture designs.

    fano = S(2,3,7); s348 = S(3,4,8); pg23 = PG(2,3) lines, an S(2,4,13);
    ag23 = AG(2,3) lines, an S(2,3,9); disjoint(a,r) = a pairwise disjoint
    r-blocks on a*r vertices (a packing P(i,r) for every i >= 1).  The stored
    designs are re-verified on every load.
    """
    m = _DISJOINT_RE.match(name)
    if m:
        a, r = int(m.group(1)), int(m.group(2))
        if a < 0 or r < 1:
            raise ValueError(f"disjoint(a,r) needs a >= 0, r >= 1, got {name}")
        if a * r > 64:
            raise ValueError(f"disjoint({a},{r}) needs {a * r} vertices, beyond the 64-vertex limit")
        blocks = [list(range(j * r + 1, j * r + r + 1)) for j in range(a)]
        design = BlockDesign(a * r, r, SetFamily.from_edge_lists(a * r, r, blocks))
        cert = verify_design(design, 1)
        if cert.kind not in ("packing", "steiner"):
            raise InternalCheckError(f"disjoint blocks failed packing verification: {cert}")
        return design
    table = _load_builtin_table()
    if name not in table:
        known = ", ".join(sorted(table)) + ", disjoint(a,r)"
        raise ValueError(f"unknown design {name!r}; known: {known}")
    entry = table[name]
    design = BlockDesign(
        entry["n"], entry["r"],
        SetFamily.from_edge_lists(entry["n"], entry["r"], entry["blocks"]),
    )
    cert = verify_design(design, entry["steiner_i"])
    if cert.kind != "steiner":
        raise InternalCheckError(
            f"stored design {name} failed verification as S({entry['steiner_i']},"
            f"{entry['r']},{entry['n']}): {cert}"
        )
    return design
