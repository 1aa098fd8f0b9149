"""Independent correctness references for the benchmark.

Nothing here imports kkcliques: every expected value is derived from
math.comb, math.isqrt and itertools (and the stored design blocks), so a
wrong answer from the library cannot leak into the reference it is checked
against.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, floor, isqrt
from pathlib import Path

DESIGN_TABLE = Path("src/kkcliques/data/designs.json")


def floor_index(m: int, k: int) -> int:
    """Largest a with C(a, k) <= m, for m >= 1, by doubling and bisection."""
    lo = hi = k
    while comb(hi, k) <= m:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, k) <= m:
            lo = mid
        else:
            hi = mid
    return lo


def cascade(m: int, s: int) -> tuple[int, ...]:
    """Greedy s-cascade entries of m (largest binomial that fits, level by level)."""
    out = []
    rem, lvl = m, s
    while rem > 0:
        a = floor_index(rem, lvl)
        out.append(a)
        rem -= comb(a, lvl)
        lvl -= 1
    return tuple(out)


def is_greedy_cascade(m: int, s: int, entries) -> bool:
    """Round-trip and greedy-chain conditions of a strict s-cascade of m.

    Entries strictly decrease, there are at most s of them, the bottom one is
    at least its level, they sum back to m, and each entry is the largest
    index whose binomial fits the remainder at its level.
    """
    entries = list(entries)
    if len(entries) > s:
        return False
    rem = m
    for j, a in enumerate(entries):
        lvl = s - j
        if a < lvl or (j and entries[j - 1] <= a):
            return False
        if comb(a, lvl) > rem or comb(a + 1, lvl) <= rem:
            return False
        rem -= comb(a, lvl)
    return rem == 0


def evaluate(entries, level: int) -> int:
    """Sum of C(entry_j, level - j), stopping below level 0."""
    total = 0
    for j, a in enumerate(entries):
        if level - j < 0:
            break
        total += comb(a, level - j)
    return total


def k_colex(m: int, s: int, t: int) -> int:
    return m if t == s else evaluate(cascade(m, s), t)


def shadow_colex(m: int, s: int, q: int) -> int:
    return evaluate(cascade(m, s), q)


def mask(vs) -> int:
    out = 0
    for v in vs:
        out |= 1 << v
    return out


def colex_first(m: int, s: int) -> tuple[int, list[int]]:
    """Minimal ground size n and the first m s-sets of [n] in colex, as masks."""
    n = s
    while comb(n, s) < m:
        n += 1
    return n, sorted(mask(c) for c in combinations(range(n), s))[:m]


def brute_cliques(edges, n: int, s: int, t: int) -> set[int]:
    """t-sets of [n] all of whose s-subsets are edges, by plain enumeration."""
    es = set(edges)
    return {
        mask(T) for T in combinations(range(n), t)
        if all(mask(S) in es for S in combinations(T, s))
    }


def brute_shadow(edges, q: int) -> set[int]:
    return {mask(Q) for e in edges for Q in combinations(bits(e), q)}


def brute_upshadow(edges, n: int, s: int, t: int) -> set[int]:
    """t-sets of [n] with at least one s-subset among the edges."""
    es = set(edges)
    return {mask(T) for T in combinations(range(n), t)
            if any(mask(S) in es for S in combinations(T, s))}


def bits(x: int) -> list[int]:
    return [p for p in range(x.bit_length()) if x >> p & 1]


def brute_max_degree(edges, i: int) -> int:
    counts: dict[int, int] = {}
    for e in edges:
        for sub in combinations(bits(e), i):
            k = mask(sub)
            counts[k] = counts.get(k, 0) + 1
    return max(counts.values(), default=0)


def small_counts_agree(m: int, s: int, t: int, q: int) -> bool:
    """Brute-force counts on the materialised colex segment match the cascade forms."""
    n, seg = colex_first(m, s)
    return (len(brute_cliques(seg, n, s, t)) == k_colex(m, s, t)
            and len(brute_shadow(seg, q)) == shadow_colex(m, s, q))


# --- bounds --------------------------------------------------------------

def _fraction_floor(v: Fraction) -> tuple[int, Fraction]:
    return floor(v), v


def edge_exact(m: int, i: int, s: int, t: int, r: int) -> tuple[int, Fraction]:
    """Edge bound at Delta = C(r-i, s-i), integer r: m C(r,t)/C(r,s), 0 when r < t."""
    if r < t:
        return 0, Fraction(0)
    return _fraction_floor(Fraction(m * comb(r, t), comb(r, s)))


def ratio_floor_irrational(m: int, i: int, lo: int, delta: int) -> int:
    """floor(m (x-lo)/(lo+1)) where x = i + (1 + sqrt(1+8 Delta))/2, i.e.
    C(x-i, 2) = Delta.  With lo = s this is the edge bound at t = s+1 and
    s - i = 2; with lo = u it is the clique bound at t = u+1:

        (m (2i - 2 lo + 1) + isqrt(m^2 (1 + 8 Delta))) // (2 (lo + 1)).
    """
    return (m * (2 * i - 2 * lo + 1) + isqrt(m * m * (1 + 8 * delta))) // (2 * (lo + 1))


def clique_exact(p: int, i: int, s: int, u: int, t: int, r: int) -> tuple[int, Fraction]:
    """Clique bound at Delta = C(r-i, s-i), integer r, s < u: p C(r,t)/C(r,u),
    with p for u = t and 0 when r < u or r < t."""
    if r < u:
        return 0, Fraction(0)
    if u == t:
        return p, Fraction(p)
    if r < t:
        return 0, Fraction(0)
    return _fraction_floor(Fraction(p * comb(r, t), comb(r, u)))


def vertex(n: int, i: int, s: int, t: int, delta: int) -> tuple[int, Fraction]:
    """Vertex bound C(n,i) k_colex(Delta, s-i, t-i) / C(t,i)."""
    return _fraction_floor(Fraction(comb(n, i) * k_colex(delta, s - i, t - i), comb(t, i)))


def graph(p: int, u: int, t: int, r: int) -> tuple[int, Fraction]:
    return _fraction_floor(Fraction(p * comb(r, t), comb(r, u)))


def jung(s: int, t: int, m_max: int) -> list[int]:
    out, best = [], Fraction(0)
    for m in range(1, m_max + 1):
        ratio = Fraction(k_colex(m, s, t), m)
        if ratio >= best:
            best = ratio
            out.append(m)
    return out


# --- uniqueness ----------------------------------------------------------

def jumping(m: int, s: int, q: int) -> bool:
    """Definition: the minimal q-shadow strictly grows from m to m+1 edges."""
    return shadow_colex(m + 1, s, q) > shadow_colex(m, s, q)


def clique_jumping(m: int, s: int, t: int) -> bool:
    """Definition: the maximal t-clique count strictly grows from m to m+1 edges."""
    return k_colex(m + 1, s, t) > k_colex(m, s, t)


def colex_unique(m: int, s: int, q: int, n: int) -> bool:
    """Characterisation: m <= s+1, or a cascade of length <= q, or m+1 = C(n', s), n' <= n."""
    if m <= s + 1 or len(cascade(m, s)) <= q:
        return True
    a = floor_index(m + 1, s)
    return comb(a, s) == m + 1 and a <= n


def clique_unique(m: int, s: int, t: int, n: int) -> bool:
    """The sufficient conditions for a unique clique maximiser, clause by clause."""
    total = comb(n, s)
    if m in (0, total):
        return True
    if t == n:
        return n == s + 1 or m <= 1 or m >= total - 1
    if m >= total - n + s - 1:
        return True
    if k_colex(m, s, t) > k_colex(m - 1, s, t):
        return True
    return any(m == total - comb(k, n - s) + 1 for k in range(n - s + 2, n + 1))


# --- designs -------------------------------------------------------------

def coverage_kind(blocks, n: int, i: int) -> str:
    """"steiner" / "packing" / "neither" by counting how often each i-set is covered."""
    counts: dict[int, int] = {}
    for b in blocks:
        for sub in combinations(bits(b), i):
            k = mask(sub)
            counts[k] = counts.get(k, 0) + 1
    if any(c > 1 for c in counts.values()):
        return "neither"
    return "steiner" if len(counts) == comb(n, i) else "packing"


def link_degree(edges, I: int) -> int:
    return sum(1 for e in edges if e & I == I)


def neighborhood(edges, I: int) -> tuple[set[int], tuple[int, ...]]:
    """Link of I relabelled onto [d] in increasing order of original vertex."""
    link = [e ^ I for e in edges if e & I == I]
    support = 0
    for e in link:
        support |= e
    pos = bits(support)
    new = {p: j for j, p in enumerate(pos)}
    return {mask(new[p] for p in bits(e)) for e in link}, tuple(p + 1 for p in pos)


def known_design(name: str) -> tuple[int, int, frozenset]:
    """(n, r, block masks) of a built-in design: the stored blocks, or built for disjoint(a,r)."""
    if name.startswith("disjoint("):
        a, r = (int(v) for v in name[9:-1].split(","))
        return a * r, r, frozenset(mask(range(j * r, j * r + r)) for j in range(a))
    entry = json.loads(DESIGN_TABLE.read_text())[name]
    return entry["n"], entry["r"], frozenset(mask(v - 1 for v in b) for b in entry["blocks"])
