"""Jumping and uniqueness predicates for colex extremal families.

An edge count m is *jumping* at level q if adding any edge to the colex
segment C_s(m) strictly increases the q-shadow; equivalently, the cascade of
m has length <= q.  Uniqueness predicates decide whether the colex segment is
the only family (up to relabelling) attaining the extremal shadow or clique
count.  The shadow characterisation is an iff; the clique version is
sufficient only, so a False verdict there means "not decided by these
conditions", except where the sweep oracle has checked it exhaustively.

Every closed-form clause is double-checked against the definitional
comparison (shadow_colex / k_colex at m and its neighbour); a disagreement
raises InternalCheckError since it would mean the cascade arithmetic and the
counting disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .cascade import _binom_floor_index, cascade_of, k_colex, shadow_colex
from .errors import InternalCheckError


@dataclass(frozen=True)
class UniquenessVerdict:
    predicate: str          # "jumping" | "colex_unique" | "clique_jumping" | "clique_unique"
    m: int
    s: int
    level: int              # q for shadow predicates, t for clique predicates
    n: Optional[int]        # ambient ground-set size, None when not part of the question
    verdict: bool
    triggered_condition: str

    def __bool__(self) -> bool:
        return self.verdict


def is_jumping(m: int, s: int, q: int) -> UniquenessVerdict:
    """Does every (m+1)-edge family have strictly larger minimal q-shadow than m?

    Holds iff the cascade of m at level s has length <= q.
    """
    if not 1 <= q < s:
        raise ValueError(f"need 1 <= q < s, got q={q}, s={s}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    length = cascade_of(m, s).length
    verdict = length <= q
    # definitional check: the minimum shadow formula must actually move
    definitional = shadow_colex(m + 1, s, q) > shadow_colex(m, s, q)
    if verdict != definitional:
        raise InternalCheckError(
            f"is_jumping({m},{s},{q}): cascade length test {verdict} but "
            f"shadow comparison {definitional}"
        )
    cond = (
        f"cascade length {length} <= q={q}"
        if verdict
        else f"cascade length {length} > q={q}"
    )
    return UniquenessVerdict("jumping", m, s, q, None, verdict, cond)


def is_colex_unique(m: int, s: int, q: int, n: int) -> UniquenessVerdict:
    """Is the m-edge minimiser of the q-shadow on [n] unique up to relabelling?

    True iff m <= s+1, or the cascade of m has length <= q, or m+1 is a
    binomial coefficient C(n', s) with n' <= n.  This is a full
    characterisation: a False verdict with m > s+1 guarantees at least two
    isomorphism classes of minimisers.
    """
    if not 1 <= q < s:
        raise ValueError(f"need 1 <= q < s, got q={q}, s={s}")
    if not s <= n:
        raise ValueError(f"need s <= n, got s={s}, n={n}")
    if not 0 <= m <= comb(n, s):
        raise ValueError(f"need 0 <= m <= C({n},{s})={comb(n, s)}, got {m}")

    if m <= s + 1:
        return UniquenessVerdict(
            "colex_unique", m, s, q, n, True, f"m={m} <= s+1={s + 1}"
        )

    length = cascade_of(m, s).length
    short = length <= q
    r = _binom_floor_index(m + 1, s)
    near_complete = comb(r, s) == m + 1 and r <= n
    # For m > s+1 the two clauses cannot both hold: a cascade of length <= q < s
    # has every entry > s, so its value plus one is never exactly C(n', s).
    if short and near_complete:
        raise InternalCheckError(
            f"is_colex_unique({m},{s},{q},{n}): short-cascade and "
            f"near-complete clauses both fired"
        )
    if short:
        cond = f"cascade length {length} <= q={q}"
    elif near_complete:
        cond = f"m+1 = C({r},{s})"
    else:
        cond = f"cascade length {length} > q={q} and m+1 not C(n',{s}) for n' <= {n}"
    return UniquenessVerdict("colex_unique", m, s, q, n, short or near_complete, cond)


def is_clique_jumping(m: int, s: int, t: int, n: int) -> UniquenessVerdict:
    """Does the maximal t-clique count strictly increase from m to m+1 edges on [n]?

    Holds iff, for the cascade (a_s, ..., a_{s-l+1}) of m+1, we have
    t <= l + a_{s-l+1} - 1, i.e. the bottom entry is within reach of t.
    """
    if not 1 <= s < t <= n:
        raise ValueError(f"need 1 <= s < t <= n, got s={s}, t={t}, n={n}")
    if not 0 < m < comb(n, s):
        raise ValueError(f"need 0 < m < C({n},{s})={comb(n, s)}, got {m}")
    c = cascade_of(m + 1, s)
    length, bottom = c.length, c.entries[-1]
    verdict = t <= length + bottom - 1
    definitional = k_colex(m + 1, s, t) > k_colex(m, s, t)
    if verdict != definitional:
        raise InternalCheckError(
            f"is_clique_jumping({m},{s},{t},{n}): cascade test {verdict} but "
            f"k_colex comparison {definitional}"
        )
    cond = (
        f"t={t} {'<=' if verdict else '>'} length+bottom-1 = "
        f"{length}+{bottom}-1 on cascade of m+1"
    )
    return UniquenessVerdict("clique_jumping", m, s, t, n, verdict, cond)


def is_clique_unique(m: int, s: int, t: int, n: int) -> UniquenessVerdict:
    """Is the m-edge maximiser of the t-clique count on [n] unique up to relabelling?

    Sufficient conditions only (a False verdict is "not decided"):
      * m = 0 or m = C(n,s): the empty/complete family is trivially unique;
      * m >= C(n,s) - n + s - 1 (within the top run);
      * the cascade (a_s, ..., a_{s-l+1}) of m satisfies t <= l + a_{s-l+1} - 1,
        i.e. m-1 -> m is clique-jumping;
      * m = C(n,s) - C(n', n-s) + 1 for some n-s+2 <= n' <= n.

    The case t = n is degenerate (only the complete family has an n-clique, so
    every m-edge family attains the maximum 0) and the conditions above do not
    apply to it; it is handled separately: True when all m-edge families are
    relabellings of each other, as at n = s + 1, at s = 1, and at m <= 1 or
    m >= C(n,s) - 1.
    """
    if not 1 <= s < t <= n:
        raise ValueError(f"need 1 <= s < t <= n, got s={s}, t={t}, n={n}")
    total = comb(n, s)
    if not 0 <= m <= total:
        raise ValueError(f"need 0 <= m <= C({n},{s})={total}, got {m}")

    if m == 0:
        return UniquenessVerdict(
            "clique_unique", m, s, t, n, True, "empty family is unique"
        )
    if m == total:
        return UniquenessVerdict(
            "clique_unique", m, s, t, n, True, "complete family is unique"
        )

    if t == n:
        # k^n = 0 for every incomplete family, so the attainers are all
        # m-edge families; uniqueness means they are all isomorphic.
        if n == s + 1:
            return UniquenessVerdict(
                "clique_unique", m, s, t, n, True,
                "t=n: s-sets of [s+1] are vertex complements, any two "
                "m-edge families are isomorphic",
            )
        if s == 1:
            return UniquenessVerdict(
                "clique_unique", m, s, t, n, True,
                "t=n: any two m-sets of points are relabellings of each other",
            )
        if m <= 1 or m >= total - 1:
            return UniquenessVerdict(
                "clique_unique", m, s, t, n, True,
                "t=n: at most one edge or co-edge, all such families isomorphic",
            )
        return UniquenessVerdict(
            "clique_unique", m, s, t, n, False,
            "t=n degenerate: every m-edge family attains k^n = 0",
        )

    threshold = total - n + s - 1
    if m >= threshold:
        return UniquenessVerdict(
            "clique_unique", m, s, t, n, True,
            f"m={m} >= C({n},{s})-n+s-1 = {threshold}",
        )

    c = cascade_of(m, s)
    length, bottom = c.length, c.entries[-1]
    jump_in = t <= length + bottom - 1
    # clause (a) says exactly that the maximum jumped arriving at m
    definitional = k_colex(m, s, t) > k_colex(m - 1, s, t)
    if jump_in != definitional:
        raise InternalCheckError(
            f"is_clique_unique({m},{s},{t},{n}): cascade clause {jump_in} but "
            f"k_colex comparison {definitional}"
        )
    if jump_in:
        return UniquenessVerdict(
            "clique_unique", m, s, t, n, True,
            f"t={t} <= length+bottom-1 = {length}+{bottom}-1 on cascade of m",
        )
    for np_ in range(n - s + 2, n + 1):
        if m == total - comb(np_, n - s) + 1:
            return UniquenessVerdict(
                "clique_unique", m, s, t, n, True,
                f"m = C({n},{s}) - C({np_},{n - s}) + 1",
            )
    return UniquenessVerdict(
        "clique_unique", m, s, t, n, False,
        "no sufficient condition applies",
    )
