"""Finite-window invariant-state evaluators and structured subsets of N.

Window states replace the non-constructive invariant means: a translation
window averages a over k+1..k+n, a dyadic window averages over the
geometric orbit (2m-1) 2^(i-1) for i in the same range.  The bijection
(m, n) -> (2m-1) 2^(n-1) turns doubling on N into translation in the
second coordinate, which is what makes the two window modes interchange.

Indicator sequences (structured sets) are counted in exact integer
arithmetic; floating point enters only in the final division.  A set's
membership test is built once, with the set, and each evaluator visits
each window index once: the shifted window of the translation defect and
the second of two overlapping equivalence windows are counted from the
first window's count plus the few indices where the two differ.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Callable

from .errors import ParameterError, PartitionError, SequenceSpecError
from .summation import NeumaierSum


@dataclass(frozen=True)
class WindowState:
    """Finite averaging window: translation over an index range, or dyadic
    along the orbit of an odd seed.

    ``m`` selects the odd part (2m-1) in dyadic mode and is ignored for
    translation windows; ``n = 1`` degenerates to point evaluation.
    """

    mode: str               # "translation" | "dyadic"
    k: int                  # start offset >= 0
    n: int                  # window length >= 1
    m: int = 1              # odd-part selector, dyadic mode only

    def __post_init__(self):
        if self.mode not in ("translation", "dyadic"):
            raise ParameterError(f"unknown window mode {self.mode!r}")
        if self.k < 0:
            raise ParameterError(f"window offset k must be >= 0, got {self.k}")
        if self.n < 1:
            raise ParameterError(f"window length n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ParameterError(f"odd-part selector m must be >= 1, got {self.m}")
        # the bit length decides, so a huge k + n never builds its power of two
        if self.mode == "dyadic" and (2 * self.m - 1).bit_length() + self.k + self.n > 64:
            raise ParameterError(
                f"dyadic window reaches index (2m-1) 2^{self.k + self.n - 1} with "
                f"m = {self.m}, beyond the 64-bit range"
            )

    def indices(self):
        if self.mode == "translation":
            return range(self.k + 1, self.k + self.n + 1)
        odd = 2 * self.m - 1
        return (odd << (i - 1) for i in range(self.k + 1, self.k + self.n + 1))


@dataclass
class StateEstimate:
    """Window mean with the oscillation of its prefix means.

    ``hits`` is the exact integer count for indicator sequences and None
    otherwise.
    """

    mean: float
    count: int
    oscillation: float
    hits: int | None = None


@dataclass(frozen=True)
class SetSpec:
    """Structured subset of N: squares, dyadicblocks, or explicit intervals.

    An intervals set also carries ``edges`` = (lo_1, hi_1 + 1, lo_2,
    hi_2 + 1, ...), built once here for its membership test.
    """

    kind: str                               # "squares" | "dyadicblocks" | "intervals"
    intervals: tuple = ()

    def __post_init__(self):
        if self.kind not in ("squares", "dyadicblocks", "intervals"):
            raise SequenceSpecError(f"unknown set kind {self.kind!r}")
        if self.kind == "intervals":
            prev_hi = 0
            if not self.intervals:
                raise SequenceSpecError("intervals set needs at least one interval")
            for lo, hi in self.intervals:
                if lo > hi or lo < 1:
                    raise SequenceSpecError(f"bad interval [{lo}, {hi}]")
                if lo <= prev_hi:
                    raise SequenceSpecError(
                        f"intervals must be sorted and disjoint; [{lo}, {hi}] overlaps"
                    )
                prev_hi = hi
            edges = tuple(e for lo, hi in self.intervals for e in (lo, hi + 1))
            object.__setattr__(self, "edges", edges)


def _squares_chi(i: int) -> int:
    # blocks [(2j-1)^2, (2j)^2], both endpoints included: every perfect
    # square is a block boundary, and a non-square sits in a block exactly
    # when its integer square root is odd
    if i < 1:
        return 0
    root = math.isqrt(i)
    return 1 if root & 1 or root * root == i else 0


def _dyadicblocks_chi(i: int) -> int:
    # blocks (2^(2q-1), 2^(2q)]: even bit-length of i-1, from (2, 4]
    return 1 if i > 2 and not (i - 1).bit_length() & 1 else 0


def _intervals_chi(edges: tuple, i: int) -> int:
    # i lies in an interval exactly when an odd number of edges is <= i;
    # where one interval ends right before the next, bisect counts both edges
    return bisect_right(edges, i) & 1


class IndicatorAccessor:
    """0/1 accessor for a structured set with O(1) membership tests."""

    is_indicator = True

    def __init__(self, spec: SetSpec):
        self.spec = spec
        if spec.kind == "intervals":
            self._chi = partial(_intervals_chi, spec.edges)
        else:
            self._chi = _squares_chi if spec.kind == "squares" else _dyadicblocks_chi

    def contains(self, i: int) -> bool:
        return self._chi(i) == 1

    def __call__(self, i: int) -> int:
        return self._chi(i)


def structured_set(spec) -> IndicatorAccessor:
    """Accessor for a SetSpec or one of the descriptor strings
    ``squares``, ``dyadicblocks``, ``intervals:file=<path>``."""
    if isinstance(spec, SetSpec):
        return IndicatorAccessor(spec)
    text = str(spec).strip()
    if text == "squares":
        return IndicatorAccessor(SetSpec("squares"))
    if text == "dyadicblocks":
        return IndicatorAccessor(SetSpec("dyadicblocks"))
    if text.startswith("intervals:"):
        rest = text[len("intervals:") :]
        if not rest.startswith("file="):
            raise SequenceSpecError("intervals syntax is intervals:file=<path>")
        return IndicatorAccessor(SetSpec("intervals", load_intervals(rest[len("file=") :])))
    raise SequenceSpecError(f"unknown set descriptor {spec!r}")


def load_intervals(path: str) -> tuple:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                lo, hi = map(int, line.split(","))
            except ValueError:
                raise SequenceSpecError(
                    f"{path} line {number}: an interval line is 'lo,hi' in integers, "
                    f"got {line!r}"
                ) from None
            out.append((lo, hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# The doubling <-> translation bijection
# ---------------------------------------------------------------------------


def eta(m: int, n: int) -> int:
    """(m, n) -> (2m - 1) 2^(n - 1), a bijection of N x N onto N."""
    if m < 1 or n < 1:
        raise ParameterError(f"eta needs m, n >= 1, got ({m}, {n})")
    if (2 * m - 1).bit_length() + n > 64:
        raise ParameterError(f"eta({m}, {n}) = (2m-1) 2^{n - 1} exceeds the 64-bit range")
    return (2 * m - 1) << (n - 1)


def eta_inv(j: int) -> tuple[int, int]:
    if j < 1:
        raise ParameterError(f"eta_inv needs j >= 1, got {j}")
    n = (j & -j).bit_length()  # trailing zeros + 1
    odd = j >> (n - 1)
    return (odd + 1) // 2, n


# ---------------------------------------------------------------------------
# Window means
# ---------------------------------------------------------------------------


def window_mean(a: Callable, w: WindowState) -> StateEstimate:
    """Mean of ``a`` over the window, with prefix-mean oscillation.

    Indicator accessors (``is_indicator`` attribute) are counted in integer
    arithmetic and divided once, so 0/1 means are exact rationals rounded
    a single time.  The oscillation is max - min of the prefix means of
    the final quarter, kept as a running max and min.
    """
    indices = iter(w.indices())
    head = w.n - max(1, w.n // 4)
    if getattr(a, "is_indicator", False):
        values = map(a, indices)
        hits = sum(islice(values, head + 1))
        hi = lo = hits / (head + 1)
        for j, v in enumerate(values, start=head + 2):
            hits += v
            mean = hits / j
            if mean > hi:
                hi = mean
            elif mean < lo:
                lo = mean
        return StateEstimate(mean=hits / w.n, count=w.n, oscillation=hi - lo, hits=hits)
    acc = NeumaierSum()
    for i in islice(indices, head + 1):
        acc.add(float(a(i)))
    hi = lo = acc.value / (head + 1)
    for j, i in enumerate(indices, start=head + 2):
        acc.add(float(a(i)))
        mean = acc.value / j
        if mean > hi:
            hi = mean
        elif mean < lo:
            lo = mean
    return StateEstimate(mean=acc.value / w.n, count=w.n, oscillation=hi - lo)


# ---------------------------------------------------------------------------
# Ergodicity probes
# ---------------------------------------------------------------------------


@dataclass
class ErgodicityRecord:
    window: WindowState
    estimate: StateEstimate
    translation_defect: float
    closed_form: float | None = None
    closed_form_exact: bool | None = None
    single_block: bool | None = None


def _even_square_root(x: int) -> int | None:
    root = math.isqrt(x)
    if root * root == x and root % 2 == 0 and root > 0:
        return root // 2
    return None


def ergodicity_probe(spec, windows) -> list:
    """Window means of the set indicator with a finite translation defect.

    For each window the defect |mean(chi) - mean(chi shifted by one)| is
    the finite stand-in for the invariance of the limiting state.  On
    square-aligned windows k = (2r)^2, k+n = (2s)^2 over the squares set,
    the exact rational (s+r+1)/(2(s+r)) is emitted next to the measured
    mean and compared in integer arithmetic.  For the dyadicblocks set the
    record notes whether the window sits inside a single block (in which
    case the measured mean is 0 or 1, however long the window runs).
    """
    chi = structured_set(spec) if not isinstance(spec, IndicatorAccessor) else spec
    out = []
    for w in windows:
        est = window_mean(chi, w)
        if w.mode == "translation":
            # the shifted window k+2..k+n+1 differs from k+1..k+n at its ends
            shift_hits = est.hits - chi(w.k + 1) + chi(w.k + w.n + 1)
        else:
            shift_hits = sum(map(chi, (i + 1 for i in w.indices())))
        record = ErgodicityRecord(
            window=w,
            estimate=est,
            translation_defect=abs(est.mean - shift_hits / w.n),
        )
        if chi.spec.kind == "squares" and w.mode == "translation":
            r = _even_square_root(w.k)
            s = _even_square_root(w.k + w.n)
            if r is not None and s is not None and s > r:
                cf = Fraction(s + r + 1, 2 * (s + r))
                record.closed_form = float(cf)
                record.closed_form_exact = (
                    est.hits * cf.denominator == cf.numerator * w.n
                )
        if chi.spec.kind == "dyadicblocks" and w.mode == "translation":
            lo, hi = w.k + 1, w.k + w.n
            record.single_block = (lo - 1).bit_length() == (hi - 1).bit_length()
        out.append(record)
    return out


# ---------------------------------------------------------------------------
# Window equivalence and interval splitting
# ---------------------------------------------------------------------------


def window_equivalence_defect(
    w1: WindowState, w2: WindowState, a: Callable
) -> tuple[float, float]:
    """|mean_{w1}(a) - mean_{w2}(a)| with its offset/length bound.

    Both windows must be translation mode.  The bound
    sup|a| (2|k-l| + 2|p-n|) / min(n, p) uses the sup over the values the
    two windows actually touch; the defect may not exceed it (up to 1e-12).
    """
    if w1.mode != "translation" or w2.mode != "translation":
        raise ParameterError("window equivalence requires two translation windows")
    sum1, sup1 = _sum_and_sup(a, w1.indices())
    (k, n), (l, p) = (w1.k, w1.n), (w2.k, w2.n)
    if getattr(a, "is_indicator", False) and abs(k - l) + abs(k + n - l - p) < p:
        # the windows overlap: count window 2 from window 1, taking off
        # the indices only window 1 covers and adding those only window 2
        # covers (each range below is empty unless its ends are in order)
        sum2 = (
            sum1
            - sum(map(a, range(k + 1, l + 1)))
            + sum(map(a, range(l + 1, k + 1)))
            - sum(map(a, range(l + p + 1, k + n + 1)))
            + sum(map(a, range(k + n + 1, l + p + 1)))
        )
        sup2 = 1.0 if sum2 else 0.0
    else:
        sum2, sup2 = _sum_and_sup(a, w2.indices())
    defect = abs(sum1 / n - sum2 / p)
    sup = max(sup1, sup2)
    bound = sup * (2 * abs(k - l) + 2 * abs(p - n)) / min(n, p)
    if defect > bound + 1e-12:
        raise ParameterError(
            f"window equivalence defect {defect:g} exceeds its bound {bound:g}"
        )
    return defect, bound


def interval_split_check(interval, parts, a: Callable) -> float:
    """Residual of the weighted-mean identity over a 3-way interval split.

    ``interval`` is a closed integer interval (lo, hi) and ``parts`` a
    triple (I0, J, I1) of consecutive sub-intervals covering it exactly;
    any part may be None (empty, weight zero).  The identity
    mean_I = sum (|part|/|I|) mean_part is exact, so the residual must stay
    below 1e-12 sup|a|; a larger residual raises.
    """
    lo, hi = interval
    if lo > hi:
        raise PartitionError(f"empty base interval [{lo}, {hi}]")
    cleaned = [p for p in parts if p is not None]
    if len(parts) != 3:
        raise PartitionError("expected a partition triple (I0, J, I1)")
    cursor = lo
    for p in cleaned:
        p_lo, p_hi = p
        if p_lo > p_hi:
            raise PartitionError(f"empty part [{p_lo}, {p_hi}] must be passed as None")
        if p_lo != cursor:
            raise PartitionError(
                f"parts must tile [{lo}, {hi}] in order; gap or overlap at {p_lo}"
            )
        cursor = p_hi + 1
    if cursor != hi + 1:
        raise PartitionError(f"parts stop at {cursor - 1}, expected {hi}")

    total = hi - lo + 1
    acc_all, weighted, sup = NeumaierSum(), NeumaierSum(), 0.0
    for p_lo, p_hi in cleaned:
        size = p_hi - p_lo + 1
        part, part_sup = _sum_and_sup(a, range(p_lo, p_hi + 1), acc_all)
        weighted.add((size / total) * (part / size))
        sup = max(sup, part_sup)
    residual = acc_all.value / total - weighted.value
    if abs(residual) > 1e-12 * max(sup, 1e-300):
        raise PartitionError(
            f"split residual {residual:g} exceeds 1e-12 * sup|a| = {1e-12 * sup:g}"
        )
    return residual


def _sum_and_sup(a: Callable, indices, total: NeumaierSum | None = None):
    """Sum of a(i) over ``indices`` and sup |a(i)| in one pass, also added
    to ``total``: an exact count for indicators, else float by float."""
    if getattr(a, "is_indicator", False):
        hits = sum(map(a, indices))
        if total is not None:
            total.add(float(hits))
        return hits, (1.0 if hits else 0.0)
    acc, sup = NeumaierSum(), 0.0
    for i in indices:
        v = float(a(i))
        acc.add(v)
        if total is not None:
            total.add(v)
        if abs(v) > sup:
            sup = abs(v)
    return acc.value, sup


def eta_pullback(a: Callable, m: int):
    """Row of ``a`` along the eta orbit: i -> a((2m-1) 2^(i-1)).

    The dyadic mean of ``a`` over (k, m, n) equals the translation mean of
    this pullback over (k, n) exactly.  The row of an indicator is an
    indicator, counted in integers as ``a`` is.
    """
    odd = 2 * m - 1

    def row(i: int):
        return a(odd << (i - 1))

    row.is_indicator = getattr(a, "is_indicator", False)
    return row
