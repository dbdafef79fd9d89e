"""Dixmier/Varga estimators, defect diagnostics, averaging and dilation."""

import math
import random

import pytest

from singtrace import eccentric as ec
from singtrace import seqcore as sc
from singtrace import traces as tr
from singtrace.errors import (
    IndexRangeError,
    NotEccentricError,
    ParameterError,
    UndeterminedSummabilityError,
)


def fsum_mean(values):
    return math.fsum(values) / len(values)


# ---------------------------------------------------------------------------
# dixmier_estimate
# ---------------------------------------------------------------------------


def test_self_trace_is_exactly_one():
    h = sc.make_family("harmonic")
    for omega in (1, 10, 100, 1000):
        est = tr.dixmier_estimate(h, h, omega)
        assert est.value == 1.0
        assert est.oscillation == 0.0


def test_dixmier_harmonic_over_logstep():
    h = sc.make_family("harmonic")
    ls = sc.make_family("logstep")
    est = tr.dixmier_estimate(h, ls, 1000)
    # oracle: mean of H_{2^k}/log(2^k + 1) with H via fsum for small k and
    # the standard expansion beyond (validated in test_seqcore)
    oracle = fsum_mean(
        [h.S(1 << k) / math.log((1 << k) + 1) for k in range(1, 1001)]
    )
    assert est.value == pytest.approx(oracle, rel=1e-12)
    assert est.value == pytest.approx(1.006, abs=1.5e-3)
    assert est.oscillation > 0.0
    assert len(est.ratios_tail) == 5


def test_dixmier_mean_is_arithmetic_mean_of_ratios():
    a = sc.make_family("power:alpha=-2")
    t = sc.make_family("logstep")
    omega = 64
    est = tr.dixmier_estimate(a, t, omega)
    ratios = tr.dixmier_ratios(a, t, omega)
    assert est.value == pytest.approx(fsum_mean(ratios), rel=1e-14)


def test_estimates_keep_every_sample():
    a = sc.make_family("power:alpha=-2")
    t = sc.make_family("harmonic")
    est = tr.dixmier_estimate(a, t, 40)
    assert [x.hex() for x in est.samples] == [
        x.hex() for x in tr.dixmier_ratios(a, t, 40)
    ]
    assert est.ratios_tail == est.samples[-5:]
    est = tr.varga_estimate(a, t, 4, 1 << 12)
    assert est.samples == [a.S(n) / t.S(n) for n in est.cutoff]
    assert est.ratios_tail == est.samples[-5:]


def test_dixmier_homogeneity():
    t = sc.make_family("logstep")
    base = tr.dixmier_estimate(sc.make_family("harmonic"), t, 300).value
    for c in (0.5, 2.0, 3.0, 10.0):
        scaled = tr.dixmier_estimate(sc.make_family(f"scale:c={c},(harmonic)"), t, 300).value
        assert scaled == pytest.approx(c * base, rel=1e-12)


def test_dixmier_infinite_verdict_is_value_not_error():
    est = tr.dixmier_estimate(
        sc.make_family("harmonic"), sc.make_family("geometric:r=0.5"), 50
    )
    assert est.infinite
    assert math.isinf(est.value)


def test_dixmier_trace_class_over_nonsummable_vanishes():
    est = tr.dixmier_estimate(
        sc.make_family("power:alpha=-2"), sc.make_family("logstep"), 2000
    )
    assert abs(est.value) <= 1e-3


# ---------------------------------------------------------------------------
# varga_estimate
# ---------------------------------------------------------------------------


def test_varga_self_trace():
    h = sc.make_family("harmonic")
    est = tr.varga_estimate(h, h, 4, 1 << 16)
    assert est.value == 1.0
    assert est.oscillation == 0.0
    assert not est.low_confidence


def test_varga_trace_class_near_zero():
    est = tr.varga_estimate(
        sc.make_family("power:alpha=-2"), sc.make_family("harmonic"), 4, 1 << 16
    )
    assert abs(est.value) <= 0.02
    # samples sit at n_k = k p_k for the found witnesses
    assert est.cutoff == [2 * 8, 3 * 285, 4 * 36792]


def test_varga_homogeneity():
    h = sc.make_family("harmonic")
    est = tr.varga_estimate(sc.make_family("scale:c=3.0,(harmonic)"), h, 4, 1 << 16)
    assert est.value == 3.0
    assert est.oscillation == 0.0


def test_varga_requires_witnesses():
    # both summable, so the infinite verdict does not apply and the missing
    # witness list is the failure
    with pytest.raises(NotEccentricError):
        tr.varga_estimate(
            sc.make_family("power:alpha=-2"), sc.make_family("geometric:r=0.5"), 4, 1 << 12
        )


def test_varga_infinite_verdict_takes_precedence():
    est = tr.varga_estimate(
        sc.make_family("harmonic"), sc.make_family("geometric:r=0.5"), 4, 1 << 12
    )
    assert est.infinite and math.isinf(est.value)


def test_varga_skips_witnesses_past_the_end_of_finite_data():
    # extract_pk keeps the witnesses for k = 3..6 with deviation_k None,
    # since 3 * 361 and beyond lie past the 1000 values; only k = 2 samples
    values = [1.0] * 400 + [1e-12] * 600
    t = sc.from_values(values, summable=False)
    assert [w.deviation_k is None for w in ec.extract_pk(t, 6, 500)] == [False] + [True] * 4
    est = tr.varga_estimate(sc.from_values(values, summable=False), t, 6, 500)
    assert est.cutoff == [2 * 321]
    assert est.samples == [1.0]
    assert est.low_confidence


def test_varga_low_confidence_flag():
    est = tr.varga_estimate(
        sc.make_family("harmonic"), sc.make_family("harmonic"), 2, 1 << 12
    )
    assert est.low_confidence  # a single witness (k = 2)


# ---------------------------------------------------------------------------
# dilation_invariance_defect
# ---------------------------------------------------------------------------


def test_defect_constant_sequence():
    defect, telescoped = tr.dilation_invariance_defect(lambda n: 1.0, 50)
    assert defect == 0.0 and telescoped == 0.0


def test_defect_alternating_sequence():
    defect, telescoped = tr.dilation_invariance_defect(lambda n: (-1.0) ** (n % 2), 10)
    assert defect == 0.0 and telescoped == 0.0  # both endpoints are even powers


def test_defect_log_telescopes_to_log2():
    defect, telescoped = tr.dilation_invariance_defect(lambda n: math.log(n), 100)
    assert telescoped == pytest.approx(math.log(2), rel=1e-14)
    assert defect == pytest.approx(telescoped, abs=1e-12)


def test_defect_bounded_by_window_sup():
    def a(n):
        return math.cos(float(n % 997))

    for omega in (100, 1000):
        defect, telescoped = tr.dilation_invariance_defect(a, omega)
        assert abs(defect - telescoped) <= 1e-12
        sup = max(abs(a(1 << k)) for k in range(1, omega + 2))
        assert abs(defect) <= 2.0 * sup / omega + 1e-15


# ---------------------------------------------------------------------------
# additivity_defect
# ---------------------------------------------------------------------------


def test_additivity_exact_for_identical_parts():
    h = sc.make_family("harmonic")
    defect, bound = tr.additivity_defect(h, h, h, 100)
    assert defect == 0.0
    assert bound >= 0.0


def test_additivity_defect_below_bound_and_decreasing():
    h = sc.make_family("harmonic")
    p2 = sc.make_family("power:alpha=-2")
    ls = sc.make_family("logstep")
    rows = [tr.additivity_defect(h, p2, ls, omega) for omega in (100, 1000, 10_000)]
    for defect, bound in rows:
        assert defect <= bound + 1e-10
    assert rows[0][0] > rows[1][0] > rows[2][0]
    assert rows[0][1] > rows[1][1] > rows[2][1]


def test_additivity_mixed_pair_carries_the_trace_offset():
    # exactly one part summable: S(A+B) = S(A) + S(B) + tr(B) termwise
    h = sc.make_family("harmonic")
    b = sc.make_family("power:alpha=-1.327")
    ls = sc.make_family("logstep")
    omega = 181
    defect, bound = tr.additivity_defect(h, b, ls, omega)
    assert defect <= bound + 1e-10
    offset = b.summability().trace * math.fsum(
        1.0 / abs(ls.S(1 << k)) for k in range(1, omega + 1)
    ) / omega
    assert defect == pytest.approx(offset, rel=1e-12)


def test_additivity_interleaved_summable_parts():
    a = sc.make_family("geometric:r=0.5")
    b = sc.make_family("geometric:r=0.25")
    ls = sc.make_family("logstep")
    defect, bound = tr.additivity_defect(a, b, ls, 500)
    assert defect <= bound + 1e-10


def test_additivity_interleaved_test_doubles():
    # interleaved geometric doubles: each value repeated twice, trace known
    values = [0.5 ** (i // 2 + 1) for i in range(128)]
    trace = 2.0 * sum(0.5 ** (i + 1) for i in range(64))
    a = sc.from_values(values, trace=trace)
    b = sc.from_values(values, trace=trace)
    defect, bound = tr.additivity_defect(a, b, sc.make_family("logstep"), 6)
    assert defect <= bound + 1e-10


# ---------------------------------------------------------------------------
# averaged_operator
# ---------------------------------------------------------------------------


def test_averaged_harmonic_block_value():
    avg = tr.averaged_operator(sc.make_family("harmonic"), 2, 1 << 14)
    h8 = math.fsum(1.0 / i for i in range(1, 9))
    h4 = math.fsum(1.0 / i for i in range(1, 5))
    h2 = 1.5
    assert avg.mu(3) == pytest.approx((h4 - h2) / 2, rel=1e-14)
    assert avg.mu(4) == avg.mu(3)  # constant on the block (2, 4]
    assert avg.mu(3) == pytest.approx(7 / 24, rel=1e-14)
    assert avg.mu(5) == pytest.approx((h8 - h4) / 4, rel=1e-14)
    assert avg.mu(1) == 1.0


def test_averaged_geometric_quarter():
    avg = tr.averaged_operator(sc.make_family("geometric:r=0.25"), 2, 4096)
    expected = (0.25**3 + 0.25**4) / 2  # (S_4 - S_2)/2
    assert avg.mu(3) == pytest.approx(expected, rel=1e-14)
    assert avg.mu(3) == pytest.approx(5 / 512, rel=1e-14)


def test_averaging_idempotent_on_block_constant():
    base = tr.averaged_operator(sc.make_family("harmonic"), 2, 1 << 13)
    again = tr.averaged_operator(base, 2, 1 << 12)
    for n in range(2, 1 << 12):
        assert again.mu(n) == base.mu(n)


def test_averaged_monotone_within_horizon():
    for spec in ["harmonic", "geometric:r=0.25", "aq:q=1"]:
        avg = tr.averaged_operator(sc.make_family(spec), 3, 2000)
        values = [avg.mu(n) for n in range(1, 2001)]
        assert all(x >= y for x, y in zip(values, values[1:])), spec


def _block_mean_reference(source, k, n):
    """mu_n of the k-adic block average by a level loop over k**L."""
    value, level = source.mu(1), 1
    while k ** (level - 1) < n:
        hi, lo = k**level, k ** (level - 1)
        raw = max(source.S(hi) - source.S(lo), 0.0) / (hi - lo)
        value = min(raw, value)
        level += 1
    return value


@pytest.mark.parametrize("spec", ["harmonic", "geometric:r=0.25", "aq:q=1"])
def test_averaged_mu_matches_level_loop_at_block_ends(spec):
    rng = random.Random(spec)
    for k in range(2, 8):
        ns = [k**L + d for L in range(1, 13) for d in (-1, 0, 1)]
        ns += [rng.randint(1, 10**6) for _ in range(40)]
        rng.shuffle(ns)
        avg = tr.averaged_operator(sc.make_family(spec), k, 4096)
        source = sc.make_family(spec)
        got = [avg.mu(n).hex() for n in ns]
        assert got == [_block_mean_reference(source, k, n).hex() for n in ns], k


class _ReentrantHarmonic(sc.HarmonicSequence):
    """Harmonic source whose S call number ``trigger`` first runs ``competing``."""

    def __init__(self, trigger):
        super().__init__()
        self.trigger, self.calls, self.competing = trigger, 0, None

    def S(self, n):
        self.calls += 1
        if self.calls == self.trigger:
            self.competing()
        return super().S(n)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("trigger", range(1, 9))
def test_averaged_table_survives_a_reentrant_lookup(k, trigger):
    # the competing lookup runs to the end inside one S call of a shorter
    # one, as a thread switch there would allow; the shorter lookup then
    # rewrites its slot, and the table must equal a lone run's
    source = _ReentrantHarmonic(trigger)
    avg = tr.averaged_operator(source, k, 1)  # no S call before arming
    source.competing = lambda: avg.mu(k**6)
    avg.mu(k**4)
    lone = tr.averaged_operator(sc.make_family("harmonic"), k, 1)
    lone.mu(k**6)
    assert source.calls >= trigger
    assert avg._blocks == lone._blocks
    ns = range(1, k**6 + 2, max(1, k**6 // 500))
    assert [avg.mu(n) for n in ns] == [lone.mu(n) for n in ns]


def test_averaged_constructor_evaluates_its_blocks():
    values = [1.0, 0.5, 0.25, 0.2, 0.1]
    short = sc.from_values(values, summable=False)
    tr.averaged_operator(short, 2, 4)  # blocks end at 1, 2, 4
    with pytest.raises(
        IndexRangeError, match=r"^explicit sequence has 5 values, index 8 requested$"
    ):
        tr.averaged_operator(short, 2, 5)
    tr.averaged_operator(sc.from_values(values), 2, 1)  # mu_1 only
    with pytest.raises(UndeterminedSummabilityError):
        tr.averaged_operator(sc.from_values(values), 2, 2)


# ---------------------------------------------------------------------------
# k_dilation_with_checks
# ---------------------------------------------------------------------------


def test_dilation_pair_relation_exact():
    avg = tr.averaged_operator(sc.make_family("harmonic"), 2, 1 << 13)
    pair, _ = tr.k_dilation_with_checks(avg, 2, 500)
    for n in range(1, 200):
        for j in (1, 2):
            m = 2 * (n - 1) + j
            assert pair.S_tilde.mu(m) == pair.S.mu(n) / 2
            # k = 2 divides exactly, so the product form is also exact
            assert pair.S_tilde.mu(m) * 2 == pair.S.mu(n)


def test_dilated_blocks_constant():
    avg = tr.averaged_operator(sc.make_family("geometric:r=0.25"), 3, 2000)
    pair, _ = tr.k_dilation_with_checks(avg, 3, 100)
    for n in (2, 5, 17):
        vals = {pair.S_tilde.mu(3 * (n - 1) + j) for j in (1, 2, 3)}
        assert len(vals) == 1


def test_estimates_hold_for_geometric_quarter():
    for k in (2, 3):
        avg = tr.averaged_operator(sc.make_family("geometric:r=0.25"), k, 2000)
        _, report = tr.k_dilation_with_checks(avg, k, 1000)
        assert report.estimate_one_holds
        assert report.estimate_two_holds


def test_estimate_one_fails_for_harmonic():
    avg = tr.averaged_operator(sc.make_family("harmonic"), 2, 1 << 13)
    _, report = tr.k_dilation_with_checks(avg, 2, 1000)
    assert not report.estimate_one_holds
    n = report.estimate_one_violations[0]
    # exhibit the failure numerically
    assert avg.mu(n) < 4.0 * avg.mu(2 * (n - 1) + 1)


def test_hypothesis_behind_the_estimates():
    # S_2n/S_n = 4^-n <= 1/4 <= 1/3 for geometric r = 1/4
    g = sc.make_family("geometric:r=0.25")
    for n in range(1, 40):
        assert g.S(2 * n) / g.S(n) <= 1 / 3
    # harmonic violates the hypothesis: ratios approach 1
    h = sc.make_family("harmonic")
    assert h.S(1 << 11) / h.S(1 << 10) > 1 / 3


def test_dilate_rejects_bad_parameters():
    h = sc.make_family("harmonic")
    with pytest.raises(ParameterError):
        tr.averaged_operator(h, 1, 100)
    avg = tr.averaged_operator(h, 2, 100)
    with pytest.raises(ParameterError):
        tr.k_dilation_with_checks(avg, 2, 0)
    # the k check comes first
    with pytest.raises(ParameterError, match=r"^dilation parameter k must be >= 2, got 1$"):
        tr.k_dilation_with_checks(avg, 1, 0)
