"""Reference values that share no code with singtrace.

Each oracle recomputes a quantity the benchmark asked singtrace for, by a
route of its own:

- ``math.fsum`` over the public ``mu`` values for partial sums inside the
  direct-summation range (n <= 2^16),
- ``mpmath`` at 30 digits for the closed forms beyond it:
  H_n = psi(n+1) + gamma and sum_{k<=n} k^a = zeta(-a) - zeta(-a, n+1),
- ``fractions.Fraction`` for the block-constant aq family and the
  square-window rational (s+r+1)/(2(s+r)),
- exact block-intersection counts for structured sets,
- ``numpy.linalg.eigvalsh`` for matrix spectra.

Everything here runs after the timed region.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

mpmath = None   # set by load(): building the jobs does not import mpmath


def load():
    """Import mpmath at 30 digits; call before the first check."""
    global mpmath
    if mpmath is None:
        import mpmath as mp

        mp.mp.dps = 30
        mpmath = mp

DIRECT = 1 << 16


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def close(got, want, rel, floor=0.0, ref=0.0, what="value"):
    """Check |got - want| <= rel |want| + floor; return the relative error.

    ``floor`` is an absolute slack for values whose error is set by
    something other than their own size, such as a summable S_n = sigma_n -
    trace, whose rounding scales with the trace.  The error is reported
    relative to max(|want|, ``ref``), so a value that is exactly zero can
    be judged against the size of the terms it came from.
    """
    want = _mp(want)
    diff = abs(_mp(got) - want)
    if not diff <= rel * abs(want) + floor:
        raise CheckFailed(
            f"{what}: got {got!r}, oracle {mpmath.nstr(want, 17)} "
            f"(|diff| {mpmath.nstr(diff, 3)} > {rel:g} |oracle| + {mpmath.nstr(floor, 3)})"
        )
    den = max(abs(want), _mp(ref))
    return float(diff / den) if den else float(diff)


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Sequence families
# ---------------------------------------------------------------------------


class Family:
    """One eigenvalue-sequence family: its singtrace descriptor and its oracle.

    ``kind`` is one of harmonic, power, powlog, geometric, logstep, aq; the
    parameter is alpha, alpha, r or q respectively.
    """

    def __init__(self, kind: str, param=None):
        self.kind = kind
        self.param = param
        self.public_mu = None     # () -> singtrace's mu for this family, set by the caller
        self._pub = None          # public mu values 1..len, filled lazily
        self._far = None          # powlog terms beyond DIRECT, numpy-computed
        if kind == "powlog":
            self.shift = _powlog_shift(param)

    @property
    def desc(self) -> str:
        if self.kind in ("harmonic", "logstep"):
            return self.kind
        key = {"power": "alpha", "powlog": "alpha", "geometric": "r", "aq": "q"}[self.kind]
        return f"{self.kind}:{key}={self.param}"

    @property
    def summable(self) -> bool:
        return (self.kind == "power" and self.param < -1) or self.kind == "geometric"

    def trace(self):
        if self.kind == "power" and self.param < -1:
            return mpmath.zeta(-self.param)
        if self.kind == "geometric":
            r = mpmath.mpf(self.param)
            return r / (1 - r)
        return None

    def mu(self, n):
        if self.kind == "harmonic":
            return mpmath.mpf(1) / n
        if self.kind == "power":
            return mpmath.mpf(n) ** self.param
        if self.kind == "powlog":
            x = mpmath.mpf(n + self.shift)
            return mpmath.log(x) ** self.param / x
        if self.kind == "geometric":
            return mpmath.mpf(self.param) ** n
        if self.kind == "logstep":
            return mpmath.log1p(mpmath.mpf(1) / n)
        return _aq_mu(self.param, n)

    def sigma(self, n):
        if n == 0:
            return mpmath.mpf(0)
        kind, a = self.kind, self.param
        if kind == "logstep":
            return mpmath.log(mpmath.mpf(n) + 1)
        if kind == "geometric":
            r = mpmath.mpf(a)
            return r * (1 - r**n) / (1 - r)
        if kind == "aq":
            s = _aq_sigma(a, n)
            return mpmath.mpf(s.numerator) / s.denominator
        if kind == "power" and a < -1:
            return mpmath.zeta(-a) - mpmath.zeta(-a, mpmath.mpf(n) + 1)
        if n <= DIRECT:
            return mpmath.mpf(math.fsum(self._public(n)))
        if kind == "harmonic" or (kind == "power" and a == -1):
            return mpmath.psi(0, mpmath.mpf(n) + 1) + mpmath.euler
        if kind == "power":
            return mpmath.zeta(-a) - mpmath.zeta(-a, mpmath.mpf(n) + 1)
        # powlog: exact float sum of public values up to DIRECT, numpy terms beyond
        return mpmath.mpf(math.fsum(self._public(DIRECT) + self._far_terms(n)))

    def S(self, n):
        if self.kind == "power" and self.param < -1:
            return -mpmath.zeta(-self.param, mpmath.mpf(n) + 1)
        if self.kind == "geometric":
            r = mpmath.mpf(self.param)
            return -(r ** (n + 1)) / (1 - r)
        return self.sigma(n)

    def _public(self, n):
        """singtrace's public mu_1..mu_n (the values fsum adds)."""
        if self._pub is None:
            self._pub = []
            self._pub_mu = self.public_mu()
        pub = self._pub
        pub.extend(self._pub_mu(i) for i in range(len(pub) + 1, n + 1))
        return pub[:n]

    def _far_terms(self, n):
        """mu_i for DIRECT < i <= n, computed with numpy from the definition."""
        need = n - DIRECT
        if need > 1 << 22:
            raise ValueError(f"no powlog oracle beyond index {DIRECT + (1 << 22)}")
        if self._far is None or len(self._far) < need:
            x = np.arange(DIRECT + 1, DIRECT + 1 + max(need, DIRECT), dtype=float) + self.shift
            self._far = (np.log(x) ** self.param / x).tolist()
        return self._far[:need]


def _powlog_shift(alpha: float) -> int:
    # smallest shift n0 >= max(1, ceil(e^alpha) - 1) whose first 64 terms
    # (log(i+n0))^alpha/(i+n0) do not increase (the family's definition)
    shift = max(1, math.ceil(math.exp(alpha)) - 1)
    while True:
        vals = [math.log(i + shift) ** alpha / (i + shift) for i in range(1, 65)]
        if all(b <= a * (1.0 + 1e-15) for a, b in zip(vals, vals[1:])):
            return shift
        shift += 1


def _aq_block(q: int, e: int) -> tuple[int, int]:
    """Exponents (lo, hi) = (n_k, n_{k+1}) with n_k < e <= n_{k+1}, for e >= 2."""
    k = 0
    while 2 ** ((k + 1) * q) < e:
        k += 1
    return 2 ** (k * q), 2 ** ((k + 1) * q)


def _aq_lam(lo: int, hi: int) -> Fraction:
    return Fraction(hi - lo, 2**hi - 2**lo)


def _aq_sigma(q: int, n: int) -> Fraction:
    """Exact sigma_n of aq:q; indices 1 and 2 carry the first block's value."""
    lam0 = _aq_lam(1, 2**q)
    if n <= 2:
        return n * lam0
    lo, hi = _aq_block(q, (n - 1).bit_length())   # 2^lo < n <= 2^hi
    # every full block (2^n_j, 2^n_{j+1}] below carries mass n_{j+1} - n_j
    return 2 * lam0 + (lo - 1) + (n - 2**lo) * _aq_lam(lo, hi)


def _aq_mu(q: int, n: int) -> Fraction:
    return _aq_lam(*_aq_block(q, max(n - 1, 2).bit_length()))


def aq_sigma_pow2(q: int, m: int) -> Fraction:
    """sigma(2^m) of the Cesaro benchmark (sigma(2^1) = 0, no padding)."""
    if m == 1:
        return Fraction(0)
    lo, hi = _aq_block(q, m)
    return lo - 1 + Fraction(2**m - 2**lo, 2**hi - 2**lo) * (hi - lo)


def cesaro(q: int, p_exp: int):
    """(1/(p log 2)) sum_{m<=p} sigma(2^m)/m at p = 2^p_exp, in mpmath.

    On a block n_k < m <= n_{k+1}, sigma(2^m) = c0 + c1 2^m, so the block
    sum is c0 (H_top - H_lo) + c1 sum 2^m/m.  The geometric part is summed
    down from its top term until the terms fall below 2^-160 of it.
    """
    p = 2**p_exp
    two = mpmath.mpf(2)
    H = lambda x: mpmath.psi(0, mpmath.mpf(x) + 1) + mpmath.euler
    total = mpmath.mpf(0)
    k = 0
    while 2 ** (k * q) < p:
        lo, hi = 2 ** (k * q), 2 ** ((k + 1) * q)
        top = min(hi, p)
        c1 = (hi - lo) / (two**hi - two**lo)
        c0 = (lo - 1) - c1 * two**lo
        geo = mpmath.mpf(0)
        m = top
        while m > lo and top - m < 160:
            geo += two ** (m - top) / m
            m -= 1
        total += c0 * (H(top) - H(lo)) + c1 * geo * two**top
        k += 1
    return total / (mpmath.mpf(p) * mpmath.log(2))


# ---------------------------------------------------------------------------
# Structured sets: exact hit counts from block intersections
# ---------------------------------------------------------------------------


def set_blocks(kind: str, lo: int, hi: int, intervals=()):
    """Closed blocks [a, b] of the set that meet [lo - 1, hi + 1], in order."""
    if kind == "squares":
        # block j is [(2j-1)^2, (2j)^2]; start at the first with (2j)^2 >= lo - 1
        t = math.isqrt(max(lo - 2, 0)) + 1
        j = max(1, (t + 1) // 2 - 1)
        while (2 * j - 1) ** 2 <= hi + 1:
            if (2 * j) ** 2 >= lo - 1:
                yield (2 * j - 1) ** 2, (2 * j) ** 2
            j += 1
    elif kind == "dyadicblocks":
        # block e is (2^(2e-1), 2^(2e)]
        e = 1
        while 2 ** (2 * e - 1) + 1 <= hi + 1:
            if 2 ** (2 * e) >= lo - 1:
                yield 2 ** (2 * e - 1) + 1, 2 ** (2 * e)
            e += 1
    else:
        for a, b in intervals[bisect_left(intervals, lo - 1, key=lambda iv: iv[1]):]:
            if a > hi + 1:
                break
            yield a, b


def hits(kind: str, lo: int, hi: int, intervals=()) -> int:
    """Members of the set in [lo, hi]."""
    return sum(
        max(0, min(b, hi) - max(a, lo) + 1) for a, b in set_blocks(kind, lo, hi, intervals)
    )


def tail_oscillation(kind: str, lo: int, n: int, intervals=()) -> Fraction:
    """max - min of the prefix means hits_j/j over the final quarter j > n - n//4
    of the window lo..lo+n-1.

    The prefix mean rises inside a block and falls outside one, so its
    extrema over a range sit at the range ends and at block boundaries.
    """
    first = n - max(1, n // 4) + 1
    cand = {first, n}
    blocks = list(set_blocks(kind, lo, lo + n - 1, intervals))
    for a, b in blocks:
        for idx in (a - 1, a, b, b + 1):
            j = idx - lo + 1
            if first <= j <= n:
                cand.add(j)
    vals = []
    for j in cand:
        top = lo + j - 1
        count = sum(max(0, min(b, top) - max(a, lo) + 1) for a, b in blocks)
        vals.append(Fraction(count, j))
    return max(vals) - min(vals)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def spectrum(matrix) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(np.asarray(matrix, dtype=float)))[::-1]
