"""Finite-cutoff trace estimates and the averaging/dilation constructions.

The states behind Dixmier- and Varga-type traces are not constructive, so
every estimator here replaces them with a finite window mean plus an
oscillation diagnostic: a small oscillation certifies that any choice of
generalized limit over that window agrees with the reported value to
within the oscillation.  The +infinity verdict (a non-summable numerator
over a summable denominator) is a distinguished result value, never an
exception, so parameter sweeps do not abort.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .eccentric import extract_pk
from .errors import (
    DegenerateRatioError,
    InvariantViolationError,
    NotEccentricError,
    ParameterError,
)
from .seqcore import (
    NON_SUMMABLE,
    SUMMABLE,
    SpectralSequence,
    SumSequence,
)
from .summation import neumaier_mean, oscillation_of_tail, running_means

_RATIO_TAIL_KEEP = 5


@dataclass
class TraceEstimate:
    """Finite-cutoff trace value with its convergence diagnostics."""

    value: float
    method: str                  # "dixmier" | "varga"
    cutoff: object               # omega, or the list of sample indices n_k
    oscillation: float
    samples: list = field(default_factory=list)  # every ratio the value averages
    infinite: bool = False
    low_confidence: bool = False

    @property
    def ratios_tail(self) -> list:
        return self.samples[-_RATIO_TAIL_KEEP:]


class DilationDefect(NamedTuple):
    defect: float
    telescoped: float


@dataclass
class DilationPair:
    """Block-averaged sequence S with its k-fold dilation S_tilde."""

    S: SpectralSequence
    S_tilde: SpectralSequence
    k: int
    source: SpectralSequence


@dataclass
class DilationCheckReport:
    """Per-index diagnostics for the two dilation eigenvalue estimates.

    estimate one:  mu_n(S) >= 2k * mu_{k(n-1)+1}(S)
    estimate two:  mu_{k(n-1)+j}(S_tilde) >= 2 * mu_{k(n-1)+j}(S),  j = 1..k

    Both are theorems only under the hypothesis sup S_kn/S_n <= 1/3, so
    they are recorded, not enforced.
    """

    k: int
    horizon: int
    estimate_one_violations: list
    estimate_two_violations: list
    first_underflow_n: int | None

    @property
    def estimate_one_holds(self) -> bool:
        return not self.estimate_one_violations

    @property
    def estimate_two_holds(self) -> bool:
        return not self.estimate_two_violations


def _is_infinite_pair(a: SpectralSequence, t: SpectralSequence) -> bool:
    return (
        a.summability().classification == NON_SUMMABLE
        and t.summability().classification == SUMMABLE
    )


def _infinite_estimate(method: str, cutoff) -> TraceEstimate:
    return TraceEstimate(
        value=math.inf,
        method=method,
        cutoff=cutoff,
        oscillation=0.0,
        infinite=True,
    )


def dixmier_estimate(
    a_seq: SpectralSequence, t_seq: SpectralSequence, omega: int
) -> TraceEstimate:
    """Mean of S_{2^k}(A)/S_{2^k}(T) over k = 1..omega.

    The oscillation is taken over the running Cesaro means of the final
    quarter of the window.  When A is non-summable but T is summable the
    ratio sequence is unbounded and the distinguished infinite estimate is
    returned instead.
    """
    if omega < 1:
        raise ParameterError(f"omega must be >= 1, got {omega}")
    if _is_infinite_pair(a_seq, t_seq):
        return _infinite_estimate("dixmier", omega)
    ratios = dixmier_ratios(a_seq, t_seq, omega)
    means = running_means(ratios)
    return TraceEstimate(
        value=neumaier_mean(ratios),
        method="dixmier",
        cutoff=omega,
        oscillation=oscillation_of_tail(means, omega),
        samples=ratios,
    )


def dixmier_ratios(a_seq, t_seq, omega: int) -> list:
    out = []
    for k in range(1, omega + 1):
        n = 1 << k
        st = t_seq.S(n)
        if st == 0.0:
            raise DegenerateRatioError(f"S_{n}(T) = 0 inside the window (k = {k})")
        out.append(a_seq.S(n) / st)
    return out


def varga_estimate(
    a_seq: SpectralSequence,
    t_seq: SpectralSequence,
    k_max: int,
    horizon: int,
) -> TraceEstimate:
    """Mean of S_{n_k}(A)/S_{n_k}(T) along the witness samples n_k = k p_k.

    The p_k come from :func:`extract_pk` on T; a witness whose k p_k lies
    past the end of finite data (``deviation_k`` None) gives no sample.
    With fewer than three samples the estimate is flagged low-confidence.
    The oscillation is the spread (max - min) of the raw samples, standing
    for the freedom in the choice of limit point.
    """
    if _is_infinite_pair(a_seq, t_seq):
        return _infinite_estimate("varga", [])
    cutoffs = [
        w.k * w.p for w in extract_pk(t_seq, k_max, horizon) if w.deviation_k is not None
    ]
    if not cutoffs:
        raise NotEccentricError(
            f"T = {t_seq.descriptor} has no ratio witnesses up to horizon {horizon}"
        )
    samples = []
    for n_k in cutoffs:
        st = t_seq.S(n_k)
        if st == 0.0:
            raise DegenerateRatioError(f"S_{n_k}(T) = 0 at a witness sample")
        samples.append(a_seq.S(n_k) / st)
    return TraceEstimate(
        value=neumaier_mean(samples),
        method="varga",
        cutoff=cutoffs,
        oscillation=max(samples) - min(samples),
        samples=samples,
        low_confidence=len(samples) < 3,
    )


def dilation_invariance_defect(a: Callable, omega: int) -> DilationDefect:
    """Defect of the window state under doubling, with its telescoped form.

    phi_omega(x) = (1/omega) sum_{k<=omega} x_{2^k}; the defect
    phi_omega({a_2n}) - phi_omega({a_n}) telescopes to
    (a_{2^(omega+1)} - a_2)/omega exactly, so the two returned numbers must
    agree to rounding; for bounded a the defect is at most 2 sup|a|/omega.
    """
    if omega < 1:
        raise ParameterError(f"omega must be >= 1, got {omega}")
    values = [a(1 << k) for k in range(1, omega + 2)]
    mean_base = neumaier_mean(values[:omega])
    mean_doubled = neumaier_mean(values[1:])
    defect = mean_doubled - mean_base
    telescoped = (values[-1] - values[0]) / omega
    return DilationDefect(defect=defect, telescoped=telescoped)


def additivity_defect(
    a_seq: SpectralSequence,
    b_seq: SpectralSequence,
    t_seq: SpectralSequence,
    omega: int,
) -> tuple[float, float]:
    """|est(A+B) - est(A) - est(B)| under the Dixmier window, with a bound.

    A and B must be simultaneously diagonal, so the spectrum of A+B is the
    termwise sum.  The bound adds the two slack terms of the inequality
    chain: the window mean of |S_2n - S_n|(A+B)/|S_n(T)| and the sup ratio
    times the window mean of |1 - S_2n(T)/S_n(T)|.  When exactly one of A, B
    is summable, S(A+B) = S(A) + S(B) + tr of that one, so the bound also
    carries |tr| times the window mean of 1/|S_n(T)|.  The defect must not
    exceed the bound (up to 1e-10); a violation raises.
    """
    ab = SumSequence(a_seq, b_seq)
    est_ab = dixmier_estimate(ab, t_seq, omega)
    est_a = dixmier_estimate(a_seq, t_seq, omega)
    est_b = dixmier_estimate(b_seq, t_seq, omega)
    if est_ab.infinite or est_a.infinite or est_b.infinite:
        raise ParameterError("additivity defect is undefined for infinite estimates")
    defect = abs(est_ab.value - est_a.value - est_b.value)

    gap_terms = []
    trend_terms = []
    inverse_terms = []
    ratio_sup = 0.0
    for k in range(1, omega + 1):
        n = 1 << k
        st = t_seq.S(n)
        s_ab = ab.S(n)
        gap_terms.append(abs(ab.S(2 * n) - s_ab) / abs(st))
        trend_terms.append(abs(1.0 - t_seq.S(2 * n) / st))
        inverse_terms.append(1.0 / abs(st))
        ratio_sup = max(ratio_sup, abs(s_ab / st))
    bound = neumaier_mean(gap_terms) + ratio_sup * neumaier_mean(trend_terms)
    summable = [x for x in (a_seq, b_seq) if x.summability().classification == SUMMABLE]
    if len(summable) == 1:
        bound += abs(summable[0].summability().trace) * neumaier_mean(inverse_terms)
    if defect > bound + 1e-10:
        raise InvariantViolationError(
            f"additivity defect {defect:g} exceeds its bound {bound:g}"
        )
    return defect, bound


# ---------------------------------------------------------------------------
# Averaging / dilation constructions
# ---------------------------------------------------------------------------


class AveragedSequence(SpectralSequence):
    """Block average of a source sequence over k-adic blocks.

    mu_n = (S_{k^L} - S_{k^(L-1)})(T) / (k^L - k^(L-1)) on the block
    k^(L-1) < n <= k^L, and mu_1 = mu_1(T).  Deep blocks of a summable
    source may underflow to zero in 64-bit floats; such values are kept
    (the sequence stays non-increasing) and surface in the check report
    rather than raising.

    ``_blocks[L]`` is (k^L, mu on the block ending there); ``_blocks[0]``
    is (1, mu_1(T)).  The constructor evaluates the blocks up to
    min(horizon, 4096), so data too short for them, or (horizon >= 2) an
    undetermined source, fails there with the source's own error.  A
    lookup writes slot L with ``blocks[L:L + 1]``, as
    ``SpectralSequence._sums`` writes its checkpoints, and for the same
    reason: an entry depends only on its level.
    """

    family = "averaged"

    def __init__(self, source: SpectralSequence, k: int, horizon: int):
        super().__init__()
        if k < 2:
            raise ParameterError(f"averaging parameter k must be >= 2, got {k}")
        if horizon < 1:
            raise ParameterError(f"horizon must be >= 1, got {horizon}")
        self.source = source
        self.k = k
        self.horizon = horizon
        self._blocks: list[tuple[int, float]] = [(1, source.mu(1))]
        self._mu(min(horizon, 4096))

    def _mu(self, n):
        blocks = self._blocks
        while blocks[-1][0] < n:
            L = len(blocks)
            lo, ceiling = blocks[L - 1]
            hi = lo * self.k
            raw = max(self.source.S(hi) - self.source.S(lo), 0.0) / (hi - lo)
            # the true block means are non-increasing; snap off rounding dust
            blocks[L:L + 1] = [(hi, min(raw, ceiling))]
        return blocks[bisect_left(blocks, (n,))][1]

    @property
    def descriptor(self):
        return f"averaged:k={self.k},({self.source.descriptor})"

    def mu(self, n):
        # underflowed block values are legitimate data here
        if n < 1:
            raise ParameterError(f"mu index must be >= 1, got {n}")
        return self._mu(n)

    def _summability_info(self):
        return self.source.summability()


class DilatedSequence(SpectralSequence):
    """k-fold dilation: each mu_n of the base repeats k times, divided by k."""

    family = "dilated"

    def __init__(self, base: SpectralSequence, k: int):
        super().__init__()
        if k < 2:
            raise ParameterError(f"dilation parameter k must be >= 2, got {k}")
        self.base = base
        self.k = k

    @property
    def descriptor(self):
        return f"dilated:k={self.k},({self.base.descriptor})"

    def _mu(self, m):
        n = (m - 1) // self.k + 1
        return self.base.mu(n) / self.k

    def mu(self, m):
        if m < 1:
            raise ParameterError(f"mu index must be >= 1, got {m}")
        return self._mu(m)

    def _summability_info(self):
        return self.base.summability()


def averaged_operator(
    t_seq: SpectralSequence, k: int, horizon: int
) -> AveragedSequence:
    """Block-averaged companion of T over k-adic blocks (see the class doc)."""
    return AveragedSequence(t_seq, k, horizon)


def k_dilation_with_checks(
    s_seq: SpectralSequence, k: int, horizon: int
) -> tuple[DilationPair, DilationCheckReport]:
    """Build the k-dilation of ``s_seq`` and record both eigenvalue estimates.

    For every n in 2..horizon the report records whether
    mu_n(S) >= 2k mu_{k(n-1)+1}(S) and whether each of the k dilated copies
    satisfies mu(S_tilde) >= 2 mu(S) at the same index.  Violations are
    stored (up to 256 of them), not raised: both estimates are only
    guaranteed under the sup S_kn/S_n <= 1/3 hypothesis.  The n = 1
    instance is skipped because k(n-1)+1 = 1 compares an eigenvalue with
    itself, which no positive sequence can satisfy with factor 2k.
    """
    tilde = DilatedSequence(s_seq, k)
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    source = s_seq.source if isinstance(s_seq, AveragedSequence) else s_seq
    pair = DilationPair(S=s_seq, S_tilde=tilde, k=k, source=source)

    e1_viol: list[int] = []
    e2_viol: list[tuple[int, int]] = []
    first_underflow = None
    cap = 256
    s_mu, tilde_mu = s_seq.mu, tilde.mu
    for n in range(2, horizon + 1):
        mu_n = s_mu(n)
        if mu_n == 0.0 and first_underflow is None:
            first_underflow = n
        start = k * (n - 1)
        if mu_n < 2.0 * k * s_mu(start + 1) and len(e1_viol) < cap:
            e1_viol.append(n)
        for j in range(1, k + 1):
            if tilde_mu(start + j) < 2.0 * s_mu(start + j) and len(e2_viol) < cap:
                e2_viol.append((n, j))
    report = DilationCheckReport(
        k=k,
        horizon=horizon,
        estimate_one_violations=e1_viol,
        estimate_two_violations=e2_viol,
        first_underflow_n=first_underflow,
    )
    return pair, report
