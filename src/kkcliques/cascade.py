"""Exact binomial arithmetic and cascade (combinatorial) representations.

Every m >= 0 has a unique greedy expansion at level s >= 1,

    m = C(a_s, s) + C(a_{s-1}, s-1) + ... + C(a_{s-l+1}, s-l+1),

with a_s > a_{s-1} > ... and the bottom index at least its level.  Evaluating
the same entries one row up or down the triangle gives the t-clique count and
q-shadow size of the colex initial segment with m edges (Kruskal-Katona), so
this module is the numeric core everything else leans on.

Usage:
    >>> cascade_of(7, 3)
    Cascade(level=3, entries=(4, 3))
    >>> k_colex(7, 3, 4), shadow_colex(7, 3, 2)
    (2, 9)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Union

from .errors import InternalCheckError

Real = Union[int, float, Fraction]

_FACT = tuple(math.factorial(k) for k in range(32))


def binom_exact(n: int, k: int) -> int:
    """C(n, k) as an exact integer, 0 whenever k < 0 or n < k."""
    if k < 0 or n < k:
        return 0
    return comb(n, k)


def falling_factorial(x: Real, k: int) -> Real:
    """x(x-1)...(x-k+1); preserves int/Fraction/float type of x."""
    if k < 0:
        raise ValueError(f"falling_factorial needs k >= 0, got {k}")
    out: Real = 1
    for j in range(k):
        out = out * (x - j)
    return out


def _ratio(num: Union[int, Fraction], den: int) -> Real:
    """num/den exactly: an int when den divides num, else a Fraction."""
    q = Fraction(num, den)
    return int(q) if q.denominator == 1 else q


def binom_real(x: Real, k: int) -> Real:
    """Generalized binomial C(x, k) = x(x-1)...(x-k+1)/k! for real x.

    Exact (int or Fraction) when x is int or Fraction; float for float x.
    Negative k gives 0, matching binom_exact.
    """
    if k < 0:
        return 0
    num = falling_factorial(x, k)
    fact = _FACT[k] if k < len(_FACT) else math.factorial(k)
    if isinstance(num, float):
        return num / fact
    return _ratio(num, fact)


def _nth_root_floor(m: int, k: int) -> int:
    # Integer Newton iteration; exact for arbitrarily large m >= 1.
    x = 1 << ((m.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def binom_inverse(m: Real, k: int) -> Real:
    """The unique x >= k-1 with C(x, k) = m, for m >= 0 and k >= 1.

    Returns an exact int when m is a binomial coefficient C(r, k); otherwise
    the root rounded to the nearest double, read off an exact integer bracket
    (_root_bracket), so the float is correctly rounded at any size of m.
    C(x, k) is strictly increasing for x >= k-1 with C(k-1, k) = 0, so the
    root exists and is unique for every m >= 0.
    """
    if k < 1:
        raise ValueError(f"binom_inverse needs k >= 1, got {k}")
    if m < 0:
        raise ValueError(f"binom_inverse needs m >= 0, got {m}")
    return _binom_root(m, k)[1] if m else k - 1


def _root_bracket(m: Real, k: int, K: int, start: int) -> tuple[int, bool]:
    """Bracket the root y >= k-1 of C(y, k) = m (m > 0) to within 2^-K.

    Returns (Y, exact) with Y/2^K <= y < (Y+1)/2^K, exact when y = Y/2^K
    (so Y = r * 2^K when m = C(r, k)).  start is any integer >= y * 2^K, such
    as (a + 1) << K for a = _binom_floor_index(m, k).

    All in integers.  With S = 2^K and m = num/den,
    G(Y) = den * Y(Y-S)...(Y-(k-1)S) - num * k! * S^k = den k! S^k (C(Y/S, k) - m)
    has the sign of C(Y/S, k) - m.  C(y, k) is increasing and convex for
    y >= k-1, so Newton steps from above, rounded up, stay above the root;
    a sign fix-up then steps down to the largest Y with G(Y) <= 0.
    """
    q = Fraction(m)
    den, target = q.denominator, q.numerator * math.factorial(k) << (K * k)
    Y = start
    while True:
        P, D = den, 0                   # G(Y) + target and G'(Y)
        for j in range(k):
            f = Y - (j << K)
            P, D = P * f, D * f + P
        step = (P - target) // D
        if step <= 0:
            break
        Y -= step
    while P > target:
        Y -= 1
        P = den * _scaled_falling(Y, K, k)
    return Y, P == target


def _scaled_falling(Y: int, K: int, k: int, j0: int = 0) -> int:
    """2^(Kk) (z - j0)(z - j0 - 1)...(z - j0 - k + 1) at z = Y/2^K, an integer."""
    out = 1
    for j in range(j0, j0 + k):
        out *= Y - (j << K)
    return out


def _to_double(n: int, K: int) -> float:
    """n / 2^K rounded to the nearest double; inf beyond the double range."""
    try:
        return n / (1 << K)             # int true division rounds correctly
    except OverflowError:
        return math.inf


def _binom_root(m: Real, k: int, shift: int = 0) -> tuple[int, Real, int, int]:
    """(a, x, Y, K) for the root y >= k-1 of C(y, k) = m > 0: a = floor(y),
    Y/2^K <= y < (Y+1)/2^K, and x = shift + y, the int shift + a when
    C(a, k) = m (then Y = a and K = 0), else rounded to the nearest double.

    K doubles from about 64 significant bits until both ends of the bracket
    round to the same double, or the bracket hits the root exactly.
    """
    # C(a, k) <= m < C(a + 1, k); the comparison is exact for int, Fraction
    # and float m, so an integral root comes back as an int
    a = _binom_floor_index(math.floor(m), k) if m >= 1 else k - 1
    if comb(a, k) == m:
        return a, shift + a, a, 0
    K = max(16, 64 - a.bit_length())
    Y, exact = _root_bracket(m, k, K, (a + 1) << K)
    while True:
        x = _to_double((shift << K) + Y, K)
        if exact or x == _to_double((shift << K) + Y + 1, K):
            return a, x, Y, K
        Y, exact = _root_bracket(m, k, 2 * K, (Y + 1) << K)
        K *= 2


def _binom_floor_index(m: int, k: int) -> int:
    """Largest a with C(a, k) <= m, for m >= 1 and k >= 1 (so a >= k).

    Exact at every size, with O(k) ``comb`` calls.  With P = k! * m and
    r = floor(P ** (1/k)), the answer lies in [r, r + k - 1], because
    (a - k + 1)^k <= a(a-1)...(a-k+1) <= a^k.  A float guess is used only
    while the root is below 2^50, where it is off by a few units; above that
    the guess starts from the exact integer root.
    """
    if k == 1:
        return m
    if m <= k:          # C(k, k) = 1 <= m < k + 1 = C(k + 1, k)
        return k
    if k == 2:
        # r = isqrt(8m+1), a = (r+1) >> 1: (2a-1)^2 <= r^2 <= 8m+1 < (r+1)^2 <= (2a+1)^2,
        # and C(a, 2) = ((2a-1)^2 - 1)/8, so C(a, 2) <= m < C(a+1, 2)
        return (isqrt(8 * m + 1) + 1) >> 1
    if k < len(_FACT):
        prod = m * _FACT[k]
    elif m.bit_length() < k:
        # no root: prod = 0 guesses below k, so the climb starts from a = k,
        # and C(k+j+1, k) / C(k+j, k) = (k+j+1)/(j+1) >= 2 while j < k, so
        # it takes at most bit_length(m) unit steps
        prod = 0
    else:
        prod = m * math.factorial(k)
    if prod.bit_length() <= (50 * k if k <= 20 else 1000):
        a = int(prod ** (1.0 / k) + (k - 1) * 0.5)
    else:
        a = _nth_root_floor(prod, k) + (k - 1) // 2
    if a < k:
        a = k
    while comb(a + 1, k) <= m:
        a += 1
    while comb(a, k) > m:
        a -= 1
    return a


@dataclass(frozen=True, slots=True)
class Cascade:
    """Greedy expansion of an integer at a fixed level.

    entries[j] is the index of the binomial read at level ``level - j``;
    entries are strictly decreasing and the bottom entry is at least its
    level (which forces the same for every entry above it).
    """

    level: int
    entries: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.entries)

    def value(self) -> int:
        return cascade_eval(self, self.level)

    def is_strict(self) -> bool:
        """Strictly decreasing entries, each at least its own level."""
        ent, s = self.entries, self.level
        if len(ent) > s:
            return False
        for j, e in enumerate(ent):
            if j and ent[j - 1] <= e:
                return False
            if e < s - j:
                return False
        return True


def cascade_of(m: int, s: int) -> Cascade:
    """Unique strict s-cascade of m (greedy: take the largest C(a, level) <= rest).

    Exact at every size: each level is one _binom_floor_index call, so
    O(level) binomial evaluations per level however large m is.
    """
    if s < 1:
        raise ValueError(f"cascade level must be >= 1, got {s}")
    if m < 0:
        raise ValueError(f"cascade_of needs m >= 0, got {m}")
    entries = []
    rem = m
    lvl = s
    while rem > 0:
        a = _binom_floor_index(rem, lvl)
        entries.append(a)
        rem -= comb(a, lvl)
        lvl -= 1
    return Cascade(level=s, entries=tuple(entries))


def cascade_eval(cascade: Cascade, level: int) -> int:
    """Evaluate the cascade's entries at another level: sum of C(entry, level - j).

    Out-of-range binomials contribute 0 (and C(e, 0) = 1), so this is total
    in level >= 0.
    """
    if level < 0:
        raise ValueError(f"evaluation level must be >= 0, got {level}")
    total = 0
    lvl = level
    for e in cascade.entries:
        if lvl < 0:
            break
        if lvl <= e:
            total += comb(e, lvl)
        lvl -= 1
    return total


def k_colex(m: int, s: int, t: int) -> int:
    """t-clique count of the colex segment with m edges at arity s (t >= s).

    By Kruskal-Katona this is the maximum of k^t over all m-edge s-graphs.
    k_colex(m, s, s) = m by convention.
    """
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    return cascade_eval(cascade_of(m, s), t)


def shadow_colex(m: int, s: int, q: int) -> int:
    """q-shadow size of the colex segment with m edges at arity s (0 <= q < s).

    By Kruskal-Katona this is the minimum of |shadow_q| over m-edge s-graphs.
    """
    if not 0 <= q < s:
        raise ValueError(f"need 0 <= q < s, got q={q}, s={s}")
    return cascade_eval(cascade_of(m, s), q)


def complement_cascade(m: int, s: int, n: int) -> Cascade:
    """(n-s)-cascade of C(n, s) - m, built from the s-cascade of m directly.

    The two cascades share their bottom entry b, and their remaining entries
    partition {b+1, ..., n-1}; in particular the lengths sum to n - b + 1.
    Cross-checked against the greedy expansion of C(n, s) - m; a mismatch
    raises InternalCheckError.
    """
    if not 1 <= s < n:
        raise ValueError(f"need 1 <= s < n, got s={s}, n={n}")
    if not 0 <= m <= comb(n, s):
        raise ValueError(f"need 0 <= m <= C(n, s) = {comb(n, s)}, got m={m}")
    if m == comb(n, s):
        out = Cascade(level=n - s, entries=())
    elif m == 0:
        out = Cascade(level=n - s, entries=(n,))
    else:
        ent = cascade_of(m, s).entries
        b = ent[-1]
        upper = set(ent[:-1])
        co = [x for x in range(n - 1, b, -1) if x not in upper]
        co.append(b)
        out = Cascade(level=n - s, entries=tuple(co))
    direct = cascade_of(comb(n, s) - m, n - s)
    if out != direct:
        raise InternalCheckError(
            f"complement cascade mismatch for m={m}, s={s}, n={n}: "
            f"{out} vs greedy {direct}"
        )
    return out


def k_via_complement(m: int, s: int, t: int, n: int) -> int:
    """k_colex(m, s, t) computed through the complement identity on [n]:

        k = C(n, t) - shadow_{n-t} of the colex (n-s)-segment with C(n,s) - m edges.

    Requires 0 <= s <= t <= n and 0 <= m <= C(n, s).
    """
    if not 0 <= s <= t <= n:
        raise ValueError(f"need 0 <= s <= t <= n, got s={s}, t={t}, n={n}")
    if not 0 <= m <= comb(n, s):
        raise ValueError(f"need 0 <= m <= C(n, s) = {comb(n, s)}, got m={m}")
    if s == n:
        # t = n as well; the only s-set is [n] itself.
        return m
    co = cascade_of(comb(n, s) - m, n - s)
    return comb(n, t) - cascade_eval(co, n - t)


def lovasz_clique_bound(m: int, s: int, t: int) -> Real:
    """Lovasz-form Kruskal-Katona bound: C(x, t) where C(x, s) = m exactly.

    Zero when x < t.  Always >= k_colex(m, s, t); exact integer (and equal
    to k_colex) when x is an integer.  At irrational x it is C(z, t) at the
    upper end z of an integer bracket of x (_binom_root's, fine enough to
    round x correctly), rounded toward +inf: C(., t) increases for z >= t-1,
    so the double is never below C(x, t).
    """
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if m < comb(t, s):          # x < t, as C(., s) increases for x >= s-1
        return 0
    a, x, Y, K = _binom_root(m, s)
    if isinstance(x, int):
        return comb(a, t)
    return _double_up(_scaled_falling(Y + 1, K, t), math.factorial(t) << (K * t))


def _double_up(num: int, den: int) -> float:
    """num/den for positive ints, rounded toward +inf to a double (inf past
    the double range)."""
    try:
        d = num / den                   # int true division rounds correctly
    except OverflowError:
        return math.inf
    p, q = d.as_integer_ratio()
    return math.nextafter(d, math.inf) if p * den < num * q else d
