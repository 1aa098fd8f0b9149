"""Signpost upper bounds on clique counts of bounded-degree uniform hypergraphs.

Three bounds, each exact rational arithmetic wherever the degree parameter has
the block form C(x-i, s-i) for integer x, and certified from an exact integer
bracket of the root x otherwise:

  * vertex_bound  -- n vertices, max i-degree Delta;
  * edge_bound    -- m edges, max i-degree Delta;
  * clique_bound  -- p u-cliques, max i-degree Delta.

The edge bound is the clique bound at u = s, and both run on one engine.
Also here: the 2-graph specialization graph_clique_bound, the
per-neighborhood clique/edge ratio, a scanner for the ratio-maximality
condition on k_colex(m,s,t)/m, and the Steiner-system divisibility test the
equality verdicts rest on.

Each bound returns a BoundReport carrying the exact value, its floor (the
operative integer bound), and a tri-state equality_possible verdict with the
reasons recorded in notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from math import comb
from typing import Optional, Union

from .cascade import (_binom_root, _ratio, _root_bracket, _scaled_falling, binom_real,
                      falling_factorial, k_colex)
from .errors import InternalCheckError

Real = Union[int, float, Fraction]

# Digits after the point kept in an irrational bound's value.
DIGITS = 17


@dataclass(frozen=True)
class BoundReport:
    """A certified upper bound on a t-clique count.

    value is exact (int or Fraction) whenever x is an integer.  When x is
    irrational it is a Decimal with DIGITS digits after the point: the bound
    truncated toward -infinity, so value <= bound < value + 10^-DIGITS, and x
    is the root rounded to the nearest double.  integer_value = floor(bound)
    is the operative bound, since clique counts are integers, and is exact in
    both cases.  equality_possible is "yes" when a witness construction
    exists, "no" when the extremal characterisation rules it out, "unknown"
    otherwise (non-integral x, the open s = i+1 cases, or t = s without a
    Steiner system).
    """

    value: Union[Real, Decimal]
    integer_value: int
    source: str
    x: Optional[Real]
    equality_possible: str
    notes: tuple[str, ...] = ()


def steiner_divisibility(i: int, r: int, n: int) -> tuple[bool, list[tuple[int, int, int, bool]]]:
    """Necessary divisibility conditions for S(i, r, n):

        (r-j)_(i-j) divides (n-j)_(i-j)   for 0 <= j < i.

    Returns (all hold, per-j breakdown of (j, divisor, dividend, ok)).
    Sufficient only for large n; never a proof of existence here.
    """
    if not i <= r <= n:
        raise ValueError(f"need i <= r <= n, got i={i}, r={r}, n={n}")
    rows = []
    ok = True
    for j in range(i):
        d = falling_factorial(r - j, i - j)
        target = falling_factorial(n - j, i - j)
        hit = target % d == 0
        rows.append((j, d, target, hit))
        ok = ok and hit
    return ok, rows


def _sum_of_two_squares(q: int) -> Optional[bool]:
    """Whether q >= 1 is a sum of two squares: by Fermat, iff every prime
    p = 3 (mod 4) divides q an even number of times.  Trial division stops
    at the divisor 2^14, so None when a cofactor above 2^28 is left."""
    d = 2
    while d * d <= q:
        if d > 1 << 14:
            return None
        e = 0
        while q % d == 0:
            q //= d
            e += 1
        if e % 2 and d % 4 == 3:
            return False
        d += 1
    return q % 4 != 3       # q is now 1 or a prime


def _steiner_existence(i: int, r: int, n: int) -> str:
    """"yes" / "no" / "unknown" for existence of S(i, r, n).

    Decidable cases: r = n (single block), i = 1 (r | n), and the classical
    families S(2,3,n), S(2,4,n), S(3,4,n) where the divisibility conditions
    are known to be sufficient.  Divisibility failure is always "no", and so
    is a failure of Fisher's inequality: for i >= 2 and r < n an S(i,r,n) is
    a 2-design, which has at least n blocks, so C(n,i) >= n C(r,i).  An
    S(2, q+1, q^2+q+1) is a projective plane of order q, which by Bruck and
    Ryser (1949) does not exist when q = 1 or 2 (mod 4) and q is not a sum
    of two squares: "no" for q = 6, 14, 21, 22, ...
    """
    if r > n:
        return "no"
    if r == n:
        return "yes"
    if i == 1:
        return "yes" if n % r == 0 else "no"
    if not steiner_divisibility(i, r, n)[0] or comb(n, i) < n * comb(r, i):
        return "no"
    q = r - 1
    if i == 2 and n == q * q + q + 1 and q % 4 in (1, 2) and _sum_of_two_squares(q) is False:
        return "no"
    if (i, r) in {(2, 3), (2, 4), (3, 4)}:
        # Divisibility is sufficient for these block sizes (classical
        # triple/quadruple system existence results).
        return "yes"
    return "unknown"


def vertex_bound(n: int, i: int, s: int, t: int, delta: int) -> BoundReport:
    """k^t <= C(n,i) * k_colex(Delta, s-i, t-i) / C(t,i) for n-vertex s-graphs
    with max i-degree at most Delta.

    Primary form is the exact cascade expression; with Delta = C(x-i, s-i)
    the real form C(n,i)C(x-i,t-i)/C(t,i) is computed as a cross-check: equal
    at integer x; at irrational x (reported as the nearest double) the real
    form at the upper end of an exact bracket of x must dominate.
    """
    if not 1 <= i < s <= t:
        raise ValueError(f"need 1 <= i < s <= t, got i={i}, s={s}, t={t}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if delta < 0:
        raise ValueError(f"need Delta >= 0, got {delta}")

    kc = k_colex(delta, s - i, t - i)
    value = _ratio(comb(n, i) * kc, comb(t, i))
    x = None

    # Real-form cross-check (Lovasz dominance; equality at integer x).
    if delta > 0:
        a, x, Y, K = _binom_root(delta, s - i, i)
        if isinstance(x, int):
            alt = _ratio(comb(n, i) * comb(a, t - i), comb(t, i))
            if alt != value:
                raise InternalCheckError(
                    f"vertex bound forms disagree at integer x={x}: cascade {value} vs real {alt}"
                )
        else:
            # The real form is 0 for x < t, else C(n,i)C(y,t-i)/C(t,i) with
            # y = x - i < hi = (Y+1)/2^K; C(y, t-i) increases for y >= t-i-1,
            # so C(hi, t-i) >= kc, or in integers 2^(K(t-i)) (hi)_(t-i) >= (t-i)! kc.
            if kc and (i + a < t or _scaled_falling(Y + 1, K, t - i)
                       < math.factorial(t - i) * kc << (K * (t - i))):
                raise InternalCheckError(
                    f"real vertex-bound form at the upper end of x fell below "
                    f"the exact cascade form {value}"
                )

    if value == 0:
        eq, note = "yes", "bound is zero; the empty family attains it"
    elif n < t:
        eq, note = "no", f"no {t}-clique fits in {n} vertices, so the bound cannot be met"
    elif isinstance(value, Fraction):
        eq, note = "no", "bound is not an integer"
    elif not isinstance(x, int):
        eq, note = "unknown", "degree parameter is not C(x-i, s-i) for integer x; tightness is open"
    elif (exist := _steiner_existence(i, x, n)) == "yes":
        eq, note = "yes", f"the s-shadow of a Steiner system S({i},{x},{n}) attains the bound"
    elif exist == "no" and t > s and s >= i + 2:
        eq, note = "no", (f"no S({i},{x},{n}) exists, and for s >= i+2 only Steiner "
                          "shadows attain the bound")
    elif x > n:
        eq, note = "no", f"x = {x} > n: the bound exceeds C({n},{t}), the number of {t}-sets"
    elif exist == "unknown":
        eq, note = "unknown", (f"divisibility conditions for S({i},{x},{n}) hold but "
                               "existence is not decided here")
    elif t == s:
        eq, note = "unknown", (f"no S({i},{x},{n}) exists, but at t = s any {s}-graph whose "
                               f"{i}-sets all have degree {delta} attains the bound")
    else:
        eq, note = "unknown", (f"no S({i},{x},{n}) exists, but at s = i+1 non-Steiner "
                               "extremal families are not ruled out")
    return BoundReport(value, math.floor(value), "vertex", x, eq, (note,))


def _shares_root(f: list[int], h: list[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether h vanishes at the one root of f in (lo, hi), for f with exactly
    one root there, simple and irrational.  Coefficient lists run from the
    constant term up.

    The common roots of f and h are the roots of g = gcd(f, h) over the
    rationals.  Every root of g is a root of f, so g has at most that one root
    in (lo, hi) and it is simple: g has it iff g changes sign on [lo, hi].
    """
    f, g = [Fraction(c) for c in f], [Fraction(c) for c in h]
    while g:                            # Euclid: (f, g) <- (g, f mod g)
        while len(f) >= len(g):
            q, shift = f[-1] / g[-1], len(f) - len(g)
            f = [c - q * g[j - shift] if j >= shift else c for j, c in enumerate(f)]
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    if len(f) < 2:
        return False
    at = [sum(c * z ** j for j, c in enumerate(f)) for z in (lo, hi)]
    return (at[0] < 0) != (at[1] < 0)


def _falling_poly(lead: int, roots: range, const: int) -> list[int]:
    """Coefficients, constant term first, of lead * prod_{r in roots} (y - r) - const."""
    c = [lead]
    for r in roots:
        c = [(c[j - 1] if j else 0) - r * (c[j] if j < len(c) else 0) for j in range(len(c) + 1)]
    c[0] -= const
    return c


def _certified_digits(p: int, i: int, s: int, u: int, t: int, delta: int,
                      Y: int, K: int) -> int:
    """floor(10^DIGITS * V) for V = p * C(x,t) / C(x,u) = p u!/t! (x-u)...(x-t+1),
    where x = i + y, y the irrational root of C(y, s-i) = Delta, x >= t, and
    Y/2^K <= y < (Y+1)/2^K.

    V increases for x >= t-1, so when the floors at the two ends of the
    bracket agree they are the floor at x.  Otherwise K doubles.  The floors
    never agree when 10^DIGITS * V is an integer N at the irrational x; a
    polynomial gcd decides that case (at s - i = 2 it cannot happen: the
    conjugate root 1 - y gives a larger |V|).
    """
    k, scale = s - i, p * math.factorial(u) * 10**DIGITS
    den = math.factorial(t)

    def floor_at(Yv: int) -> int:     # x - j = (Yv + (i << K))/2^K - j
        return scale * _scaled_falling(Yv + (i << K), K, t - u, u) // den >> (K * (t - u))

    checked = None
    while True:
        lo, hi = floor_at(Y), floor_at(Y + 1)
        if lo == hi:
            return lo
        if hi == lo + 1 and hi != checked:
            f = _falling_poly(1, range(k), math.factorial(k) * delta)
            h = _falling_poly(scale, range(u - i, t - i), den * hi)
            if _shares_root(f, h, Fraction(Y, 1 << K), Fraction(Y + 1, 1 << K)):
                return hi
            checked = hi
        Y = _root_bracket(delta, k, 2 * K, (Y + 1) << K)[0]
        K *= 2


def _ratio_bound(p: int, i: int, s: int, u: int, t: int, delta: int,
                 source: str) -> BoundReport:
    """k^t <= p * C(x,t) / C(x,u) for s-graphs with p u-cliques (p edges at
    u = s) and max i-degree at most Delta = C(x-i, s-i), x >= s real; 0 when
    x < t.  The equality analysis differs at u = s only where a note names
    edges, and when C(x,u) does not divide p: beyond u = s the u-clique edges
    form a packing shadow, at u = s that is forced only for s >= i+2."""
    if p == 0:
        return BoundReport(0, 0, source, None, "yes", (
            "no edges, no cliques" if u == s else "no u-cliques, no t-cliques",))
    if delta == 0:
        return BoundReport(0, 0, source, None, "no", (
            "max i-degree 0 admits no nonempty family, so the bound is vacuous",))

    # floor(x) = i + a, so x < u iff i + a < u, and likewise for t
    a, x, Y, K = _binom_root(delta, s - i, i)
    # x >= s and the callers take u = t = s, so these two arise only for u > s
    if i + a < u:
        return BoundReport(0, 0, source, x, "no", (
            "x < u: the degree bound forbids any u-clique, so no family has p > 0",))
    if u == t:
        return BoundReport(p, p, source, x, "yes", ("u = t: the ratio of binomials is 1",))
    if i + a < t:
        return BoundReport(0, 0, source, x, "yes", (
            "x < t: the degree bound rules out any t-clique; m pairwise disjoint edges attain 0"
            if u == s else
            "u <= x < t: no t-clique can occur; p disjoint copies of K^(s)_u attain 0",))
    if not isinstance(x, int):
        q, r = divmod(_certified_digits(p, i, s, u, t, delta, Y, K), 10**DIGITS)
        note = "degree parameter is not C(x-i, s-i) for integer x; tightness is open"
        return BoundReport(Decimal(f"{q}.{r:0{DIGITS}d}"), q, source, x, "unknown", (note,))
    value = _ratio(p * comb(x, t), comb(x, u))
    bu = comb(x, u)
    if p % bu == 0:
        eq, note = "yes", f"{p // bu} disjoint complete blocks K^({s})_{x} attain equality"
    elif u > s:
        eq, note = "no", (f"equality forces the edges lying in u-cliques to form a packing shadow, "
                          f"so C({x},{u}) = {bu} must divide p")
    elif s >= i + 2:
        eq, note = "no", (f"equality forces a packing shadow, whose edge count is a "
                          f"multiple of C({x},{s}) = {bu}")
    else:
        eq, note = "unknown", (f"C({x},{s}) does not divide m, but at s = i+1 "
                               f"non-packing extremal families are not ruled out")
    return BoundReport(value, math.floor(value), source, x, eq, (note,))


def edge_bound(m: int, i: int, s: int, t: int, delta: int) -> BoundReport:
    """k^t <= m * C(x,t) / C(x,s) for m-edge s-graphs with max i-degree at most
    Delta = C(x-i, s-i), x >= s real; 0 when x < t.  The clique bound at u = s."""
    if not 1 <= i < s < t:
        raise ValueError(f"need 1 <= i < s < t, got i={i}, s={s}, t={t}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if delta < 0:
        raise ValueError(f"need Delta >= 0, got {delta}")
    return _ratio_bound(m, i, s, s, t, delta, "edge")


def clique_bound(p: int, i: int, s: int, u: int, t: int, delta: int) -> BoundReport:
    """k^t <= p * C(x,t) / C(x,u) for s-graphs with exactly p u-cliques and max
    i-degree at most Delta = C(x-i, s-i); 0 when x < u (no u-clique exists) or
    u <= x < t.  At u = s this is the edge bound."""
    if not 1 <= i < s <= u <= t:
        raise ValueError(f"need 1 <= i < s <= u <= t, got i={i}, s={s}, u={u}, t={t}")
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    if delta < 0:
        raise ValueError(f"need Delta >= 0, got {delta}")

    if u == t == s:
        # Degenerate u = t = s: the count bounded is the edge count itself.
        return BoundReport(p, p, "clique", None, "yes",
                           ("u = t = s: the bound is the edge count",))
    rep = _ratio_bound(p, i, s, u, t, delta, "clique")
    return replace(rep, notes=rep.notes + ("u = s reduces to the edge bound",)) if u == s else rep


def graph_clique_bound(p: int, u: int, t: int, r: int) -> BoundReport:
    """2-graph form: k^t <= p * C(r,t) / C(r,u) for graphs with p u-cliques and
    max degree at most r - 1 (3 <= u <= t <= r).  For u < t equality holds
    iff C(r,u) | p; for u = t the bound is p itself and is always attained."""
    if not 3 <= u <= t <= r:
        raise ValueError(f"need 3 <= u <= t <= r, got u={u}, t={t}, r={r}")
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    rep = clique_bound(p, 1, 2, u, t, r - 1)
    # Direct formula cross-check of the specialization.
    direct = _ratio(p * comb(r, t), comb(r, u))
    if rep.value != direct:
        raise InternalCheckError(
            f"graph clique bound mismatch: specialized {rep.value} vs direct {direct}"
        )
    expected_eq = "yes" if u == t or p % comb(r, u) == 0 else "no"
    if p > 0 and rep.equality_possible != expected_eq:
        raise InternalCheckError(
            f"graph clique bound equality verdict {rep.equality_possible!r} "
            f"disagrees with divisibility ({expected_eq!r})"
        )
    return replace(rep, source="graph", x=r)


def neighborhood_ratio_bound(i: int, s: int, t: int, x: Real) -> Real:
    """Upper bound on k^{t-i}(J)/|J| over neighborhoods J of i-sets in any
    s-graph with max i-degree at most C(x-i, s-i):

        (x-s)_(t-s) / (t-i)_(t-s)   [ = C(x-i,t-i) / C(x-i,s-i) ]

    Exact (int or Fraction) for every x: a float x is taken at its exact
    binary value.  Strictly increasing in x >= t-1.
    """
    if not 1 <= i < s < t:
        raise ValueError(f"need 1 <= i < s < t, got i={i}, s={s}, t={t}")
    if x < t - 1:
        raise ValueError(f"need x >= t-1 = {t - 1}, got x={x}")
    x = Fraction(x)
    value = _ratio(falling_factorial(x - s, t - s), falling_factorial(t - i, t - s))
    # The two closed forms must agree exactly.
    alt_num = binom_real(x - i, t - i)
    alt_den = binom_real(x - i, s - i)
    if alt_num != value * alt_den:
        raise InternalCheckError(f"neighborhood ratio forms disagree: {value} vs {alt_num}/{alt_den}")
    return value


def jung_scan(s: int, t: int, m_max: int) -> list[int]:
    """All m <= m_max where k_colex(m,s,t)/m equals max over m' <= m of the
    same ratio (exact rational comparison; ties qualify).

    Every m = C(r, s) with integer r >= t is such a maximizer; this is
    asserted internally.
    """
    if not s < t:
        raise ValueError(f"need s < t, got s={s}, t={t}")
    if m_max < 1:
        raise ValueError(f"need m_max >= 1, got {m_max}")
    out = []
    best = Fraction(0)
    for m in range(1, m_max + 1):
        ratio = Fraction(k_colex(m, s, t), m)
        if ratio >= best:
            best = ratio
            out.append(m)
    hits = set(out)
    r = t
    while comb(r, s) <= m_max:
        if comb(r, s) not in hits:
            raise InternalCheckError(
                f"m = C({r},{s}) = {comb(r, s)} should maximize k_colex(m,{s},{t})/m but was not flagged"
            )
        r += 1
    return out
