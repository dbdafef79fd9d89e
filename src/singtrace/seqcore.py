"""Eigenvalue-sequence families, partial sums and summability.

A :class:`SpectralSequence` stands for a positive compact operator through
the non-increasing sequence mu_1 >= mu_2 >= ... > 0 of its singular values.
The integral sequence S_n equals sigma_n for non-summable sequences and
sigma_n - trace for summable ones, so S_n <= 0 and S_n -> 0 monotonically
in the summable case.

``SpectralSequence.sigma`` and ``SpectralSequence.S`` are the only
dispatch.  Up to a family's ``_direct_limit`` sigma_n is a compensated
(Neumaier) sum in ascending order: ``DIRECT_CAP`` by default, none for the
closed-form and delegating families (geometric, logstep, aq, scaled,
sums), and every value for explicit data.  One kernel computes it: it reads
mu in runs of at most ``RUN`` values from the family's ``_mu_run`` hook,
which has exactly the bits of ``_mu``, and saves a checkpoint at every
multiple of ``RUN`` (1024) it passes, so a direct sigma_n adds at most
``RUN - 1`` terms, in any query order.  Beyond the direct range the
family's hooks take over: ``_sigma_large`` (closed forms, or
Euler-Maclaurin anchored at ``DIRECT_CAP``) and, for summable families,
the tail form ``_S_tail``, so that dyadic windows at indices like 2**10000
stay evaluable in 64-bit floats.  :func:`S_walk`
yields S_n at ascending indices in one pass through the same kernel, with
O(1) memory: one run of at most ``RUN`` values.  Scans belong there: a
loop of one ``S(n)`` call per ascending index pays up to ``RUN - 1`` terms
per call.

Index arguments are Python ints and may exceed 2**64; each family raises
:class:`IndexRangeError` where a value would leave its float-safe domain
(mu underflowing to zero, or sigma overflowing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    IndexRangeError,
    MonotonicityError,
    ParameterError,
    SequenceSpecError,
    UndeterminedSummabilityError,
)

EULER_GAMMA = 0.5772156649015328606
LOG2 = math.log(2.0)

DIRECT_CAP = 1 << 16        # compensated direct summation up to this index
RUN = 1024                  # values per run of the direct summation kernel
PROBE_PREFIX = 10_000       # monotonicity probe length at construction
_BIG_FLOAT_INT = 1 << 1020  # ints beyond this cannot be converted to float
_EM_PLAIN_X = 1e150         # beyond this the EM correction terms are dropped

SUMMABLE = "summable"
NON_SUMMABLE = "non-summable"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SummabilityInfo:
    """Summability class of a sequence with its trace when it has one.

    ``trace_error_bound`` is the width of the integral-test bracket used
    for the tail, 0.0 when the trace is a closed form.
    """

    classification: str
    trace: float | None = None
    trace_error_bound: float | None = None

    @property
    def summable(self) -> bool:
        return self.classification == SUMMABLE


def _pow_big(n, e: float) -> float:
    """n**e for a positive integer n of any size and float e <= small."""
    if n <= _BIG_FLOAT_INT:
        return float(n) ** e
    return math.exp(e * math.log(n))


class SpectralSequence:
    """Lazily evaluable non-increasing positive sequence with partial sums."""

    family = "abstract"

    def __init__(self):
        self._ckpts: list[tuple[float, float]] = [(0.0, 0.0)]  # state at k * RUN
        self._info: SummabilityInfo | None = None

    # ---- hooks implemented by the families --------------------------------
    _direct_limit = DIRECT_CAP  # last index of the direct Neumaier sum

    def _mu(self, n) -> float:
        raise NotImplementedError

    def _mu_run(self, lo: int, hi: int):
        """mu_lo, ..., mu_hi with exactly the bits of ``_mu``; asked only for
        indices up to ``_direct_limit`` or the construction probe."""
        return map(self._mu, range(lo, hi + 1))

    def _sigma_large(self, n) -> float:
        """sigma_n for n > _direct_limit; families without a closed/EM form raise."""
        raise IndexRangeError(
            f"{self.descriptor}: sigma beyond index {self._direct_limit} is not supported"
        )

    def _S_tail(self, n) -> float:
        """S_n for summable families at n > _direct_limit (tail form)."""
        raise IndexRangeError(
            f"{self.descriptor}: S beyond index {self._direct_limit} is not supported"
        )

    def _summability_info(self) -> SummabilityInfo:
        raise NotImplementedError

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def safe_mu_horizon(self):
        """Largest index at which mu is representable as a positive float."""
        return 1 << 62

    # ---- public surface ----------------------------------------------------
    def mu(self, n) -> float:
        if n < 1:
            raise ParameterError(f"mu index must be >= 1, got {n}")
        if n > self.safe_mu_horizon():
            raise IndexRangeError(
                f"{self.descriptor}: index {n} exceeds the float-safe domain"
            )
        v = self._mu(n)
        if not v > 0.0 or math.isinf(v):
            raise IndexRangeError(
                f"{self.descriptor}: mu_{n} not representable as a positive float"
            )
        return v

    def sigma(self, n) -> float:
        if n < 0:
            raise ParameterError(f"sigma index must be >= 0, got {n}")
        if n == 0:
            return 0.0
        if n <= self._direct_limit:
            return self._sigma_direct(n)
        return self._sigma_large(n)

    def S(self, n) -> float:
        info = self.summability()
        if info.classification == UNDETERMINED:
            raise UndeterminedSummabilityError(
                f"{self.descriptor}: summability class unknown; sigma is still available"
            )
        if info.classification == NON_SUMMABLE:
            return self.sigma(n)
        if n == 0:
            return -info.trace
        if n <= self._direct_limit:
            return self.sigma(n) - info.trace
        return self._S_tail(n)

    def summability(self) -> SummabilityInfo:
        if self._info is None:
            self._info = self._summability_info()
        return self._info

    def __repr__(self):
        return f"<SpectralSequence {self.descriptor}>"

    # ---- checkpointed direct summation -------------------------------------
    def _sigma_direct(self, n: int) -> float:
        return next(self._sums(n, 1, n, 0.0))

    def _sums(self, n: int, step: int, stop: int, offset: float):
        """Yield sigma_m - offset at m = n, n + step, ... <= stop: one
        Neumaier chain with NeumaierSum.add inlined.

        The chain resumes from the checkpoint at or below n; resuming from a
        saved (partial, carry) state is bitwise a fresh pass from index 1.
        Terms come from ``_mu_run`` in runs that end at multiples of RUN,
        none past ``stop``.  ``_ckpts[k]`` is the state at k * RUN.  Every
        term and partial sum is >= 0, so ``s >= x`` is NeumaierSum's
        ``abs(s) >= abs(x)``.

        No lock guards ``_ckpts``: a chain saves the multiple m * RUN it
        passes with the slot write ``ckpts[m:m + 1] = [state]``, one atomic
        operation in CPython, before it yields that state.  It starts at or
        below the last checkpoint and the list never shrinks, so the list
        then holds at least m entries.  The write appends, or it rewrites
        slot m, which a competing chain (a thread, or a re-entrant call)
        saved after the length test, with equal bits: every chain's state
        at m * RUN is a fresh pass's.  The list never gets a gap.
        """
        ckpts = self._ckpts
        k = min(n // RUN, len(ckpts) - 1)
        i, (s, c) = k * RUN, ckpts[k]
        while True:
            if i == len(ckpts) * RUN:
                ckpts[i // RUN:i // RUN + 1] = [(s, c)]
            if i == n:
                yield s + c - offset
                n += step
            if n > stop:
                return
            hi = min(i + RUN, stop)
            for j, x in enumerate(self._mu_run(i + 1, hi), i + 1):
                t = s + x
                if s >= x:
                    c += (s - t) + x
                else:
                    c += (x - t) + s
                s = t
                if j == n and j < hi:  # the top of the loop saves, then yields, hi
                    yield s + c - offset
                    n += step
            i = hi

    # ---- construction-time validation ---------------------------------------
    def _validate_prefix(self) -> None:
        horizon = min(PROBE_PREFIX, self.safe_mu_horizon())
        prev = None
        for i, v in enumerate(self._mu_run(1, horizon), 1):
            if not v > 0.0:
                raise MonotonicityError(
                    f"{self.descriptor}: mu_{i} = {v!r} is not positive"
                )
            if prev is not None and v > prev * (1.0 + 1e-15):
                raise MonotonicityError(
                    f"{self.descriptor}: mu_{i} = {v!r} exceeds mu_{i - 1} = {prev!r}"
                )
            prev = v


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class HarmonicSequence(SpectralSequence):
    family = "harmonic"

    @property
    def descriptor(self):
        return "harmonic"

    def safe_mu_horizon(self):
        return (1 << 1073) - 1

    def _mu(self, n):
        return 1 / n  # int/int stays finite for huge n

    def _mu_run(self, lo, hi):
        return [1 / j for j in range(lo, hi + 1)]

    def _sigma_large(self, n):
        return _harmonic_asymptotic(n)

    def _summability_info(self):
        return SummabilityInfo(NON_SUMMABLE)


def _harmonic_asymptotic(n) -> float:
    ln = math.log(n)
    inv = 1 / n  # int/int division is exact about huge n
    inv2 = inv * inv
    return ln + EULER_GAMMA + inv / 2.0 - inv2 / 12.0 + inv2 * inv2 / 120.0


_HARMONIC_SHARED = HarmonicSequence()


def harmonic_number(n) -> float:
    """H_n for any positive int; direct sum below DIRECT_CAP, expansion above."""
    if n <= 0:
        return 0.0
    return _HARMONIC_SHARED.sigma(n)


# Euler-Maclaurin evaluation shared by the power / powlog families:
# Sum_{k=a+1}^{b} f(k) = int_a^b f + (f(b)-f(a))/2 + (f'(b)-f'(a))/12
#                        - (f'''(b)-f'''(a))/720 + R,  |R| ~ f^(5)
# Tail_{k>n} f(k)      = int_n^inf f - f(n)/2 - f'(n)/12 + f'''(n)/720


class _EMSequence(SpectralSequence):
    """mu_n = f(n + shift) for a family with parameter alpha that is
    summable exactly when alpha < -1.

    Subclasses supply f, f', f''' (``_f``, ``_fp``, ``_f3``) and the
    integrals ``_fint(a, b)`` and ``_fint_inf(x)``.  Beyond DIRECT_CAP
    sigma is the direct sum at DIRECT_CAP plus an EM segment, or the trace
    minus the EM tail when the sequence is summable.
    """

    shift = 0

    @cached_property
    def _anchor(self):
        return self._sigma_direct(DIRECT_CAP)

    def _em_terms(self, x):
        # beyond _EM_PLAIN_X the correction terms are dropped
        if x > _EM_PLAIN_X:
            return 0.0, 0.0, 0.0
        return self._f(x), self._fp(x), self._f3(x)

    def _S_tail(self, n):
        x = n + self.shift
        f, fp, f3 = self._em_terms(x)
        return -(self._fint_inf(x) - f / 2.0 - fp / 12.0 + f3 / 720.0)

    def _sigma_large(self, n):
        info = self.summability()
        if info.summable:
            return info.trace + self._S_tail(n)
        a, b = DIRECT_CAP + self.shift, n + self.shift
        total = self._fint(a, b)
        (fa, pa, ta), (fb, pb, tb) = self._em_terms(a), self._em_terms(b)
        return self._anchor + (total + (fb - fa) / 2.0 + (pb - pa) / 12.0 - (tb - ta) / 720.0)

    def _summability_info(self):
        if self.alpha >= -1.0:
            return SummabilityInfo(NON_SUMMABLE)
        trace = self._anchor - self._S_tail(DIRECT_CAP)
        # integral-test bracket [int_{N+1}^inf, int_N^inf]: width = int_N^{N+1}
        a = DIRECT_CAP + self.shift
        return SummabilityInfo(SUMMABLE, trace, abs(self._fint(a, a + 1)))


class PowerSequence(_EMSequence):
    """mu_n = n**alpha with alpha <= 0; summable exactly when alpha < -1."""

    family = "power"

    def __init__(self, alpha: float):
        super().__init__()
        if not alpha <= 0.0:
            raise ParameterError(
                f"power family needs alpha <= 0 for a non-increasing sequence, got {alpha}"
            )
        self.alpha = float(alpha)
        self._validate_prefix()

    @property
    def descriptor(self):
        return f"power:alpha={self.alpha:g}"

    def safe_mu_horizon(self):
        if self.alpha == 0.0:
            return 1 << 62
        # keep n**alpha above the subnormal floor
        return int(math.exp(min(700.0, -744.0 / self.alpha)))

    # f(x) = x**alpha
    def _f(self, x):
        return _pow_big(x, self.alpha)

    _mu = _f

    def _mu_run(self, lo, hi):
        a = self.alpha  # _pow_big's expression for j <= _BIG_FLOAT_INT
        return [float(j) ** a for j in range(lo, hi + 1)]

    def _fp(self, x):
        return self.alpha * _pow_big(x, self.alpha - 1.0)

    def _f3(self, x):
        a = self.alpha
        return a * (a - 1.0) * (a - 2.0) * _pow_big(x, a - 3.0)

    def _fint(self, a, b):
        ap1 = self.alpha + 1.0
        if ap1 == 0.0:
            return math.log(b) - math.log(a)
        if ap1 > 0.0 and ap1 * math.log(b) > 709.0:
            raise IndexRangeError(f"{self.descriptor}: sigma_{b} overflows a float")
        return (_pow_big(b, ap1) - _pow_big(a, ap1)) / ap1

    def _fint_inf(self, x):
        ap1 = self.alpha + 1.0
        return -_pow_big(x, ap1) / ap1  # ap1 < 0 here


class PowLogSequence(_EMSequence):
    """mu_n = (log(n + n0))**alpha / (n + n0).

    n0 is the smallest shift that makes the sequence non-increasing from
    n = 1 (and keeps log positive); it changes nothing asymptotically.
    """

    family = "powlog"

    def __init__(self, alpha: float):
        super().__init__()
        self.alpha = float(alpha)
        shift = max(1, math.ceil(math.exp(self.alpha)) - 1)
        while not self._prefix_monotone(shift):
            shift += 1
        self.shift = shift
        self._validate_prefix()

    def _prefix_monotone(self, shift: int, probe: int = 64) -> bool:
        vals = [
            math.log(i + shift) ** self.alpha / (i + shift)
            for i in range(1, probe + 1)
        ]
        return all(b <= a * (1.0 + 1e-15) for a, b in zip(vals, vals[1:]))

    @property
    def descriptor(self):
        return f"powlog:alpha={self.alpha:g}"

    def safe_mu_horizon(self):
        return (1 << 1000) - 1

    def _mu(self, n):
        x = n + self.shift
        return self._f(x)

    def _mu_run(self, lo, hi):
        a, k = self.alpha, self.shift  # _f's expression for x <= _BIG_FLOAT_INT
        return [math.log(x) ** a / x for x in range(lo + k, hi + k + 1)]

    # f(x) = (ln x)**alpha / x and derivatives, big-int safe
    def _f(self, x):
        lx = math.log(x)
        if x <= _BIG_FLOAT_INT:
            return lx**self.alpha / x
        e = self.alpha * math.log(lx) - lx
        return math.exp(e) if e > -745.0 else 0.0

    def _fp(self, x):
        lx = math.log(x)
        return lx ** (self.alpha - 1.0) * (self.alpha - lx) / (float(x) * float(x))

    def _f3(self, x):
        a = self.alpha
        lx = math.log(x)
        g3 = lx ** (a - 3.0)
        num = (
            a * (a - 1.0) * (a - 2.0) * g3
            - 6.0 * a * (a - 1.0) * g3 * lx
            + 11.0 * a * g3 * lx * lx
            - 6.0 * g3 * lx * lx * lx
        )
        x2 = float(x) * float(x)
        return num / (x2 * x2)

    def _fint(self, a, b):
        ap1 = self.alpha + 1.0
        la, lb = math.log(a), math.log(b)
        if ap1 == 0.0:
            return math.log(lb) - math.log(la)
        return (lb**ap1 - la**ap1) / ap1

    def _fint_inf(self, x):
        ap1 = self.alpha + 1.0
        return -(math.log(x) ** ap1) / ap1  # ap1 < 0 in the summable regime


class GeometricSequence(SpectralSequence):
    """mu_n = r**n with 0 < r < 1; trace r/(1-r) in closed form."""

    family = "geometric"
    _direct_limit = 0

    def __init__(self, r: float):
        super().__init__()
        if not 0.0 < r < 1.0:
            raise ParameterError(f"geometric ratio must lie in (0, 1), got {r}")
        self.r = float(r)
        self._trace = self.r / (1.0 - self.r)
        horizon = int(-744.0 / math.log(self.r))
        while horizon > 1 and self.r**horizon == 0.0:
            horizon -= 1
        self._safe_mu = horizon
        self._validate_prefix()

    @property
    def descriptor(self):
        return f"geometric:r={self.r:g}"

    def safe_mu_horizon(self):
        return self._safe_mu

    def _rpow(self, n) -> float:
        if n > _BIG_FLOAT_INT:
            return 0.0
        return self.r**n

    _mu = _rpow

    def _sigma_large(self, n):
        return self._trace * (1.0 - self._rpow(n))

    def _S_tail(self, n):
        return -self._trace * self._rpow(n)

    def _summability_info(self):
        return SummabilityInfo(SUMMABLE, self._trace, 0.0)


class LogStepSequence(SpectralSequence):
    """mu_n = log(n + 1) - log(n), so that sigma_n = log(n + 1) exactly."""

    family = "logstep"
    _direct_limit = 0

    @property
    def descriptor(self):
        return "logstep"

    def safe_mu_horizon(self):
        return (1 << 1073) - 1

    def _mu(self, n):
        return math.log1p(1 / n)

    def _sigma_large(self, n):
        return math.log(n + 1)

    def _summability_info(self):
        return SummabilityInfo(NON_SUMMABLE)


@dataclass(frozen=True)
class AqParams:
    """Block parameter q >= 1; block exponents are n_k = 2^(kq), n_0 = 1."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 1:
            raise ParameterError(f"aq block parameter must be an integer >= 1, got {self.q}")

    def exponent(self, k: int) -> int:
        return 2 ** (k * self.q)

    def block_of(self, m: int) -> int:
        """k with n_k < m <= n_{k+1}; defined for m >= 2."""
        if m < 2:
            raise ParameterError(f"block lookup needs m >= 2, got {m}")
        # e = (m - 1).bit_length() is the smallest e with m <= 2^e, so
        # n_k < m <= n_{k+1} iff kq < e <= (k + 1)q, i.e. k + 1 = ceil(e / q)
        return ((m - 1).bit_length() + self.q - 1) // self.q - 1


class AqSequence(SpectralSequence):
    """Block-constant sequence with dyadic blocks (2**n_k, 2**n_{k+1}].

    Block exponents are n_k = 2**(k*q) with n_0 = 1; on its block the value
    is (n_{k+1} - n_k) / (2**n_{k+1} - 2**n_k).  The underlying definition
    starts at index 3; indices 1 and 2 are padded with the first block value
    so the library sequence is defined from 1 and stays non-increasing.
    All arithmetic runs on integer block exponents; ratios are evaluated as
    exact big-integer quotients rounded once to float, so no intermediate
    2**n_k is ever materialised as a float.
    """

    family = "aq"
    _direct_limit = 0

    def __init__(self, q: int):
        super().__init__()
        self.params = AqParams(q)
        if q > 10:
            raise ParameterError(
                f"aq:q={q} has no float-representable eigenvalues (first block underflows)"
            )
        self.q = q
        self._lambda0 = self._lam(0)
        safe_k = 0
        while self._lam(safe_k + 1) > 0.0:
            safe_k += 1
        self._safe_mu = 1 << self.params.exponent(safe_k + 1)
        self._validate_prefix()

    def _lam(self, k: int) -> float:
        a, b = self.params.exponent(k), self.params.exponent(k + 1)
        if b > 10_000_000:
            raise IndexRangeError(f"aq:q={self.q}: block exponent {b} too large")
        return (b - a) / ((1 << b) - (1 << a))

    def _block_of(self, n) -> int:
        # k with 2**n_k < n <= 2**n_{k+1}, for n >= 3; (n - 1).bit_length()
        # is the smallest e with n <= 2**e
        return self.params.block_of((n - 1).bit_length())

    @property
    def descriptor(self):
        return f"aq:q={self.q}"

    def safe_mu_horizon(self):
        return self._safe_mu

    def _mu(self, n):
        if n <= 2:
            return self._lambda0
        return self._lam(self._block_of(n))

    def _sigma_large(self, n):
        if n <= 2:
            return n * self._lambda0
        k = self._block_of(n)
        a, b = self.params.exponent(k), self.params.exponent(k + 1)
        if b > 10_000_000:
            raise IndexRangeError(f"aq:q={self.q}: sigma_{n} block exponent too large")
        part = ((n - (1 << a)) * (b - a)) / ((1 << b) - (1 << a))
        return 2.0 * self._lambda0 + (a - 1) + part

    def _summability_info(self):
        # each block contributes mass n_{k+1} - n_k; the total diverges
        return SummabilityInfo(NON_SUMMABLE)


class ScaledSequence(SpectralSequence):
    """c * inner, delegating all evaluations so homogeneity is exact."""

    family = "scaled"
    _direct_limit = 0

    def __init__(self, c: float, inner: SpectralSequence):
        super().__init__()
        if not c > 0.0 or math.isinf(c):
            raise ParameterError(f"scale factor must be a positive float, got {c}")
        self.c = float(c)
        self.inner = inner

    @property
    def descriptor(self):
        return f"scale:c={self.c:g},({self.inner.descriptor})"

    def safe_mu_horizon(self):
        return self.inner.safe_mu_horizon()

    def _mu(self, n):
        return self.c * self.inner._mu(n)

    def _sigma_large(self, n):
        return self.c * self.inner.sigma(n)

    def _S_tail(self, n):
        return self.c * self.inner.S(n)

    def _summability_info(self):
        info = self.inner.summability()
        if info.classification != SUMMABLE:
            return info
        return SummabilityInfo(
            SUMMABLE, self.c * info.trace, self.c * info.trace_error_bound
        )


class ExplicitSequence(SpectralSequence):
    """Finite explicit sequence, e.g. loaded from a file.

    The summability class is whatever the caller declares; without a
    declaration it stays undetermined and S_n refuses to evaluate while
    sigma_n remains available.
    """

    family = "explicit"

    def __init__(self, values, trace: float | None = None, summable: bool | None = None):
        super().__init__()
        vals = [float(v) for v in values]
        if not vals:
            raise ParameterError("explicit sequence must contain at least one value")
        for i, v in enumerate(vals):
            if not v > 0.0:
                raise MonotonicityError(f"explicit value #{i + 1} = {v!r} is not positive")
            if i and v > vals[i - 1] * (1.0 + 1e-15):
                raise MonotonicityError(
                    f"explicit values increase at position {i + 1}: {vals[i - 1]!r} -> {v!r}"
                )
        self._values = vals
        self._direct_limit = len(vals)
        if trace is not None and summable is False:
            raise ParameterError("a declared trace contradicts summable=False")
        self._declared_trace = trace
        self._declared_summable = summable if trace is None else True
        self._source = "values"

    @property
    def descriptor(self):
        return f"file:<{self._source}>"

    def __len__(self):
        return len(self._values)

    def safe_mu_horizon(self):
        return len(self._values)

    def _mu(self, n):
        if n > len(self._values):
            raise IndexRangeError(
                f"explicit sequence has {len(self._values)} values, index {n} requested"
            )
        return self._values[n - 1]

    def _mu_run(self, lo, hi):
        return self._values[lo - 1 : hi]

    def _sigma_large(self, n):
        raise IndexRangeError(
            f"explicit sequence has {len(self._values)} values, index {n} requested"
        )

    _S_tail = _sigma_large

    def _summability_info(self):
        if self._declared_trace is not None:
            return SummabilityInfo(SUMMABLE, float(self._declared_trace), 0.0)
        if self._declared_summable is False:
            return SummabilityInfo(NON_SUMMABLE)
        return SummabilityInfo(UNDETERMINED)


class SumSequence(SpectralSequence):
    """Pointwise sum of two simultaneously diagonal sequences.

    mu_n = mu_n(A) + mu_n(B) is non-increasing because both parts are, and
    sigma/S delegate additively.  A sum with one non-summable part is
    non-summable; note that in the mixed case S_n = S_n(A) + S_n(B) + tr(B)
    carries the trace of the summable part as a constant offset.
    """

    family = "sum"
    _direct_limit = 0

    def __init__(self, a: SpectralSequence, b: SpectralSequence):
        super().__init__()
        ca = a.summability().classification
        cb = b.summability().classification
        if UNDETERMINED in (ca, cb):
            raise UndeterminedSummabilityError(
                "both parts of a pointwise sum need a certified summability class"
            )
        self.a = a
        self.b = b

    @property
    def descriptor(self):
        return f"sum({self.a.descriptor},{self.b.descriptor})"

    def safe_mu_horizon(self):
        return min(self.a.safe_mu_horizon(), self.b.safe_mu_horizon())

    def _mu(self, n):
        return self.a._mu(n) + self.b._mu(n)

    def _sigma_large(self, n):
        return self.a.sigma(n) + self.b.sigma(n)

    def _S_tail(self, n):
        return self.a.S(n) + self.b.S(n)

    def _summability_info(self):
        ia, ib = self.a.summability(), self.b.summability()
        if ia.summable and ib.summable:
            return SummabilityInfo(
                SUMMABLE, ia.trace + ib.trace, ia.trace_error_bound + ib.trace_error_bound
            )
        return SummabilityInfo(NON_SUMMABLE)


# ---------------------------------------------------------------------------
# Descriptor DSL
#   harmonic | power:alpha=<float> | powlog:alpha=<float> | geometric:r=<float>
#   | logstep | aq:q=<int> | scale:c=<float>,(<spec>) | file:<path>
# ---------------------------------------------------------------------------


def _parse_params(family: str, text: str) -> dict:
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise SequenceSpecError(f"{family}: malformed parameter {item!r}")
        key, _, raw = item.partition("=")
        out[key.strip()] = raw.strip()
    return out


def _require_float(family: str, params: dict, key: str) -> float:
    if key not in params:
        raise SequenceSpecError(f"{family} needs parameter {key!r}")
    try:
        return float(params[key])
    except ValueError as exc:
        raise SequenceSpecError(f"{family}: {key}={params[key]!r} is not a float") from exc


def make_family(spec: str) -> SpectralSequence:
    """Build a SpectralSequence from its descriptor string.

    The first 10**4 terms (or the family's full float-safe domain if that
    is shorter) are probed for positivity and monotonicity at construction.
    """
    text = spec.strip()
    if not text:
        raise SequenceSpecError("empty sequence descriptor")
    name, sep, rest = text.partition(":")
    name = name.strip()
    if name == "harmonic":
        if sep:
            raise SequenceSpecError("harmonic takes no parameters")
        return HarmonicSequence()
    if name == "logstep":
        if sep:
            raise SequenceSpecError("logstep takes no parameters")
        return LogStepSequence()
    if name == "power":
        return PowerSequence(_require_float("power", _parse_params("power", rest), "alpha"))
    if name == "powlog":
        return PowLogSequence(_require_float("powlog", _parse_params("powlog", rest), "alpha"))
    if name == "geometric":
        return GeometricSequence(_require_float("geometric", _parse_params("geometric", rest), "r"))
    if name == "aq":
        params = _parse_params("aq", rest)
        if "q" not in params:
            raise SequenceSpecError("aq needs parameter 'q'")
        try:
            q = int(params["q"])
        except ValueError as exc:
            raise SequenceSpecError(f"aq: q={params['q']!r} is not an integer") from exc
        return AqSequence(q)
    if name == "scale":
        return _parse_scale(rest)
    if name == "file":
        if not rest:
            raise SequenceSpecError("file: needs a path")
        return load_sequence_file(rest)
    raise SequenceSpecError(f"unknown sequence family {name!r}")


def _parse_scale(rest: str) -> ScaledSequence:
    head, sep, tail = rest.partition(",")
    if not sep or not tail.startswith("(") or not tail.endswith(")"):
        raise SequenceSpecError("scale syntax is scale:c=<float>,(<spec>)")
    params = _parse_params("scale", head)
    c = _require_float("scale", params, "c")
    inner = make_family(tail[1:-1])
    return ScaledSequence(c, inner)


def load_sequence_file(path: str) -> ExplicitSequence:
    """Load an explicit sequence: one positive decimal per line.

    An optional first line ``# trace=<float>`` or ``# trace=nonsummable``
    declares the summability class.
    """
    trace: float | None = None
    summable: bool | None = None
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    body = [ln for ln in lines if ln]
    if body and body[0].startswith("#"):
        header = body.pop(0)
        decl = header.lstrip("#").strip()
        if not decl.startswith("trace="):
            raise SequenceSpecError(f"unrecognised header {header!r}")
        value = decl[len("trace=") :].strip()
        if value == "nonsummable":
            summable = False
        else:
            try:
                trace = float(value)
            except ValueError as exc:
                raise SequenceSpecError(f"bad trace declaration {header!r}") from exc
    for ln in body:
        if ln.startswith("#"):
            raise SequenceSpecError(f"unexpected comment line {ln!r} after data start")
        try:
            values.append(float(ln))
        except ValueError as exc:
            raise SequenceSpecError(f"bad sequence value {ln!r}") from exc
    seq = ExplicitSequence(values, trace=trace, summable=summable)
    seq._source = path
    return seq


def from_values(values, trace: float | None = None, summable: bool | None = None) -> ExplicitSequence:
    """Explicit in-memory sequence with an optionally declared class."""
    return ExplicitSequence(values, trace=trace, summable=summable)


def scale(c: float, seq: SpectralSequence) -> ScaledSequence:
    return ScaledSequence(c, seq)


def pointwise_sum(a: SpectralSequence, b: SpectralSequence) -> SumSequence:
    return SumSequence(a, b)


# -- module-level conveniences matching the operation surface ----------------


def mu(seq: SpectralSequence, n) -> float:
    return seq.mu(n)


def sigma_and_S(seq: SpectralSequence, n) -> tuple[float, float]:
    return seq.sigma(n), seq.S(n)


def trace_value(seq: SpectralSequence) -> SummabilityInfo:
    return seq.summability()


def S_walk(seq, first: int, step: int = 1):
    """Yield S_first, S_{first+step}, ..., each bitwise equal to ``seq.S(n)``.

    For a :class:`SpectralSequence` of certified class, indices up to its
    ``_direct_limit`` come from one ascending pass of the direct Neumaier
    kernel: it resumes once from the checkpoint below ``first``, adds
    ``step`` terms per value, yields each value as it reaches it and saves
    a checkpoint at each multiple of ``RUN`` it passes.  It holds one run
    of at most ``RUN`` values, so memory is O(1), and it fetches no value
    more than one run past the last one taken, nor past ``_direct_limit``.
    Beyond that limit the walk calls the family's ``_S_tail`` (summable) or
    ``_sigma_large`` hook, the value ``S`` returns there.  Any other
    object, or a negative start, goes through ``seq.S(n)``.
    """
    if step < 1:
        raise ParameterError(f"walk step must be >= 1, got {step}")
    n = first
    if isinstance(seq, SpectralSequence) and n >= 0:
        info = seq.summability()
        if info.classification != UNDETERMINED:
            offset = info.trace or 0.0  # x - 0.0 keeps every bit of x
            limit = seq._direct_limit
            if n <= limit:
                yield from seq._sums(n, step, limit, offset)
                n += ((limit - n) // step + 1) * step
            beyond = seq._S_tail if info.summable else seq._sigma_large
            while True:
                yield beyond(n)
                n += step
    while True:
        yield seq.S(n)
        n += step
