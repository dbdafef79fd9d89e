"""Eccentricity classification, witness extraction and the ideal tests.

Oracles: brute-force scans over directly summed partial sums, and the
division-free concavity bound re-derived from scratch on random data.
"""

import math

import numpy as np
import pytest

from singtrace import eccentric as ec
from singtrace import seqcore as sc
from singtrace.errors import IndexRangeError, ParameterError, UndeterminedSummabilityError
from singtrace.summation import NeumaierSum


def harmonic_oracle(n):
    return math.fsum(1.0 / i for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# analyze_eccentricity
# ---------------------------------------------------------------------------


def test_harmonic_is_eccentric_at_2_20():
    rep = ec.analyze_eccentricity(sc.make_family("harmonic"), 1 << 20, 0.05)
    assert rep.verdict == "eccentric-within-horizon"
    ratio_at_top = dict(rep.trajectory)[1 << 20]
    assert ratio_at_top == pytest.approx(1.048, abs=5e-4)
    assert rep.best_deviation <= 0.05


def test_geometric_has_no_witness():
    rep = ec.analyze_eccentricity(sc.make_family("geometric:r=0.5"), 1 << 20, 0.05)
    assert rep.verdict == "no-witness-found"
    assert dict(rep.trajectory)[4] == pytest.approx(2.0**-4, rel=1e-12)
    assert rep.best_deviation == pytest.approx(0.5, rel=1e-12)
    # deep probes underflow to S_n = 0 and are reported, not fatal
    assert rep.degenerate_points


def test_trajectory_sorted_and_bounded_by_horizon():
    rep = ec.analyze_eccentricity(sc.make_family("aq:q=1"), 1 << 14, 0.05)
    ns = [n for n, _ in rep.trajectory]
    assert ns == sorted(ns)
    assert max(ns) <= 1 << 14


def test_verdict_matches_best_deviation_invariant():
    for spec in ["harmonic", "geometric:r=0.5", "power:alpha=-2", "aq:q=2"]:
        rep = ec.analyze_eccentricity(sc.make_family(spec), 1 << 16, 0.05)
        assert (rep.verdict == "eccentric-within-horizon") == (rep.best_deviation <= 0.05)
        for w in rep.witnesses:
            assert w.deviation_2 <= 1.0 / (w.k * w.k) + 1e-15


def test_monotone_in_horizon():
    for spec in ["harmonic", "geometric:r=0.5", "powlog:alpha=1", "aq:q=1"]:
        seq = sc.make_family(spec)
        devs = [
            ec.analyze_eccentricity(seq, horizon, 0.05).best_deviation
            for horizon in (1 << 14, 1 << 17, 1 << 20)
        ]
        assert devs[0] >= devs[1] >= devs[2], spec


def test_analyze_on_short_explicit_data():
    # probes whose 2n falls beyond finite data are skipped and reported
    seq = sc.from_values([1.0, 0.5, 0.25], trace=1.75)
    rep = ec.analyze_eccentricity(seq, 8, 0.5)
    assert rep.verdict == "no-witness-found"
    assert rep.trajectory == [(1, pytest.approx((1.5 - 1.75) / (1.0 - 1.75)))]
    assert rep.degenerate_points == [2, 4, 8]
    # extract_pk stops its scan at the evaluable boundary instead of raising
    assert ec.extract_pk(seq, 3, 8) == []


def test_analyze_preconditions():
    with pytest.raises(ParameterError):
        ec.analyze_eccentricity(sc.make_family("harmonic"), 4, 0.05)
    with pytest.raises(UndeterminedSummabilityError):
        undeclared = sc.from_values([1.0 / i for i in range(1, 65)])
        ec.analyze_eccentricity(undeclared, 16, 0.05)


# ---------------------------------------------------------------------------
# extract_pk
# ---------------------------------------------------------------------------


def test_harmonic_p2_is_exactly_8():
    # brute force: the smallest p with |1 - H_2p/H_p| <= 1/4
    smallest = next(
        p for p in range(1, 100)
        if abs(1.0 - harmonic_oracle(2 * p) / harmonic_oracle(p)) <= 0.25
    )
    assert smallest == 8
    witnesses = ec.extract_pk(sc.make_family("harmonic"), 2, 1 << 16)
    assert witnesses[0].k == 2
    assert witnesses[0].p == 8


def test_harmonic_witnesses_satisfy_derived_bound():
    witnesses = ec.extract_pk(sc.make_family("harmonic"), 4, 1 << 16)
    assert {w.k for w in witnesses} == {2, 3, 4}
    h = sc.make_family("harmonic")
    for w in witnesses:
        # independent re-verification of both threshold inequalities
        dev2 = abs(1.0 - h.S(2 * w.p) / h.S(w.p))
        devk = abs(1.0 - h.S(w.k * w.p) / h.S(w.p))
        assert dev2 <= 1.0 / (w.k * w.k)
        assert devk <= (w.k - 1) / (w.k * w.k)
        assert w.bound_ok
        # minimality: p - 1 must fail the threshold
        if w.p > 1:
            prev = abs(1.0 - h.S(2 * (w.p - 1)) / h.S(w.p - 1))
            assert prev > 1.0 / (w.k * w.k)


class FlatTail:
    def S(self, n):
        return 5.0


class ZeroHead:
    # S_p = 0 is skipped, not the end of the scan
    def S(self, n):
        return 0.0 if n < 5 else 5.0


def test_flat_test_double_yields_p_equal_1():
    witnesses = ec.extract_pk(FlatTail(), 4, 16)
    assert [(w.k, w.p) for w in witnesses] == [(2, 1), (3, 1), (4, 1)]


def test_geometric_witnesses_absent():
    # |1 - 2^-n| >= 1/2 > 1/4 for every n >= 1
    assert ec.extract_pk(sc.make_family("geometric:r=0.5"), 2, 1 << 16) == []


def per_term_S(seq):
    """S(n) for n >= 1: up to ``_direct_limit`` from a per-term NeumaierSum
    over public mu, which shares no code with the kernel; ``seq.S`` beyond
    it and for test doubles."""
    limit = getattr(seq, "_direct_limit", 0)
    offset = (seq.summability().trace or 0.0) if limit else 0.0
    acc, sums = NeumaierSum(), [0.0]

    def S(n):
        if n > limit:
            return seq.S(n)
        while len(sums) <= n:
            acc.add(seq.mu(len(sums)))
            sums.append(acc.value)
        return sums[n] - offset

    return S


def reference_pk(seq, k_max, horizon):
    """(k, p_k, deviation, k-step deviation) from one S(p) and one S(2p)
    value per p, in order; S_p and S_2p define a witness, so one whose S(kp)
    is not evaluable is kept with a None k-step deviation."""
    S = per_term_S(seq)
    pending = {k: 1.0 / (k * k) for k in range(2, k_max + 1)}
    found = []
    for p in range(1, horizon + 1):
        if not pending:
            break
        try:
            sp = S(p)
            if sp == 0.0:
                continue
            dev = abs(1.0 - S(2 * p) / sp)
        except IndexRangeError:
            break
        for k in [k for k, thr in pending.items() if dev <= thr]:
            found.append((k, p, dev))
            del pending[k]
    out = []
    for k, p, dev in sorted(found):
        try:
            devk = abs(1.0 - S(k * p) / S(p))
        except IndexRangeError:
            devk = None
        out.append((k, p, dev, devk))
    return out


def _hex(x):
    return None if x is None else x.hex()


@pytest.mark.parametrize(
    "make, k_max, horizon",
    [
        (FlatTail, 4, 16),
        (ZeroHead, 3, 16),
        (lambda: sc.make_family("geometric:r=0.5"), 4, 3000),  # S_p is 0 from p = 1075
        (lambda: sc.make_family("power:alpha=-20"), 6, 500),   # S_p is 0 from p = 6
        (lambda: sc.make_family("power:alpha=-0.5"), 6, (1 << 15) + 64),  # S_2p crosses DIRECT_CAP
        (lambda: sc.make_family("powlog:alpha=1"), 3, 4000),
        # explicit data shorter than 2 * horizon: S_2p leaves it at p = 151
        (lambda: sc.from_values([1.0 / i for i in range(1, 301)], summable=False), 6, 400),
        # S_2p stays inside the data, S_kp leaves it for k = 3..6
        (lambda: sc.from_values([1.0] * 400 + [1e-12] * 600, summable=False), 6, 500),
    ],
    ids=[
        "flat", "zero-head", "geometric", "power-20", "power-0.5", "powlog",
        "explicit", "explicit-kp-past-end",
    ],
)
def test_extract_pk_matches_per_call_scan(make, k_max, horizon):
    witnesses = ec.extract_pk(make(), k_max, horizon)
    want = reference_pk(make(), k_max, horizon)
    assert [(w.k, w.p, w.deviation_2.hex(), _hex(w.deviation_k)) for w in witnesses] == [
        (k, p, dev.hex(), _hex(devk)) for k, p, dev, devk in want
    ]
    for w in witnesses:
        assert (w.bound_ok is None) == (w.deviation_k is None)


# ---------------------------------------------------------------------------
# concavity interpolation
# ---------------------------------------------------------------------------


def test_concavity_harmonic_example():
    holds, residual = ec.concavity_interpolation_check(sc.make_family("harmonic"), 4, 3)
    assert holds
    expected = harmonic_oracle(8) - (harmonic_oracle(4) + harmonic_oracle(12)) / 2
    assert residual == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.1246, abs=5e-5)


def test_concavity_k2_residual_zero():
    for spec in ["harmonic", "geometric:r=0.5", "aq:q=1"]:
        holds, residual = ec.concavity_interpolation_check(sc.make_family(spec), 9, 2)
        assert holds
        assert residual == 0.0


def test_concavity_geometric():
    holds, residual = ec.concavity_interpolation_check(
        sc.make_family("geometric:r=0.5"), 2, 4
    )
    assert holds and residual >= 0.0


def test_division_free_lemma_bound():
    # |S_kn - S_n| <= (k-1) |S_2n - S_n| for all families, both classes
    for spec in ["harmonic", "geometric:r=0.5", "power:alpha=-2", "powlog:alpha=1", "aq:q=1"]:
        seq = sc.make_family(spec)
        for n in (1, 3, 8, 40, 256):
            for k in (2, 3, 5, 9):
                lhs = abs(seq.S(k * n) - seq.S(n))
                rhs = (k - 1) * abs(seq.S(2 * n) - seq.S(n))
                assert lhs <= rhs + 1e-12 * max(1.0, abs(seq.S(k * n))), (spec, n, k)


# ---------------------------------------------------------------------------
# domination test
# ---------------------------------------------------------------------------


def test_domination_self():
    h = sc.make_family("harmonic")
    rep = ec.domination_test(h, h, 1, 2000)
    assert rep.K_estimate == 1.0
    assert rep.bounded


def test_domination_scaling():
    rep = ec.domination_test(
        sc.make_family("scale:c=2.0,(harmonic)"), sc.make_family("harmonic"), 1, 2000
    )
    assert rep.K_estimate == 2.0


def test_domination_power_by_harmonic():
    rep = ec.domination_test(
        sc.make_family("power:alpha=-2"), sc.make_family("harmonic"), 1, 2000
    )
    assert rep.K_estimate == 1.0  # max of 1/n at n = 1
    assert rep.bounded


def test_domination_with_layers():
    # r = 2: mu_{2n-1}(harmonic)/mu_n(harmonic) = n/(2n-1) <= 1
    rep = ec.domination_test(sc.make_family("harmonic"), sc.make_family("harmonic"), 2, 500)
    assert rep.K_estimate == 1.0


# ---------------------------------------------------------------------------
# doubling inequality
# ---------------------------------------------------------------------------


def test_doubling_commuting_example():
    left, right = ec.doubling_inequality_check([4.0, 1.0], [3.0, 2.0], 1)
    assert left and right
    # sigma_1(A+B) = 7 = sigma_1(A) + sigma_1(B), sigma_2(A+B) = 10
    sums = sorted((4 + 3, 1 + 2), reverse=True)
    assert sums[0] == 7.0 and sums[0] + sums[1] == 10.0


def test_doubling_equal_lists_left_equality():
    a = [5.0, 3.0, 2.0, 1.0]
    left, right = ec.doubling_inequality_check(a, a, 2)
    assert left and right
    # a = b makes the left side an identity: sigma_n(2A) = 2 sigma_n(A)
    assert math.fsum(x + x for x in a[:2]) == 2 * math.fsum(a[:2])


def test_doubling_dimension_mismatch():
    with pytest.raises(ParameterError):
        ec.doubling_inequality_check([2.0, 1.0], [1.0], 1)
    with pytest.raises(ParameterError):
        ec.doubling_inequality_check([2.0, 1.0], [2.0, 1.0], 2)  # 2n > length


def test_doubling_commuting_seeded_trials():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(2, 64))
        a = np.sort(rng.exponential(size=d))[::-1]
        b = np.sort(rng.exponential(size=d))[::-1]
        n = int(rng.integers(1, d // 2 + 1))
        left, right = ec.doubling_inequality_check(a, b, n)
        assert left and right


def test_doubling_matrix_seeded_trials():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 17))
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, d))
        a = a @ a.T
        b = b @ b.T
        n = int(rng.integers(1, d // 2 + 1))
        left, right = ec.doubling_inequality_check(a, b, n, mode="matrix")
        assert left and right


def test_doubling_matrix_rejects_non_psd():
    with pytest.raises(ParameterError):
        ec.doubling_inequality_check(
            [[1.0, 0.0], [0.0, -2.0]], [[1.0, 0.0], [0.0, 1.0]], 1, mode="matrix"
        )
