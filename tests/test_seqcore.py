"""Family construction, partial sums, summability and their invariants.

Expected values come from independent oracles: direct summation with
math.fsum, closed forms, and small rational computations.
"""

import copy
import math
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from singtrace import seqcore as sc
from singtrace.eccentric import extract_pk
from singtrace.errors import (
    IndexRangeError,
    MonotonicityError,
    ParameterError,
    SequenceSpecError,
    SingtraceError,
    UndeterminedSummabilityError,
)
from singtrace.summation import NeumaierSum
from singtrace.traces import DilatedSequence, averaged_operator

ALL_SPECS = [
    "harmonic",
    "power:alpha=-0.5",
    "power:alpha=-2",
    "powlog:alpha=1",
    "powlog:alpha=-2",
    "geometric:r=0.5",
    "logstep",
    "aq:q=1",
    "aq:q=2",
    "scale:c=2.5,(harmonic)",
]


# ---------------------------------------------------------------------------
# make_family / DSL
# ---------------------------------------------------------------------------


def test_make_family_examples():
    assert sc.make_family("harmonic").mu(1) == 1.0
    assert sc.make_family("geometric:r=0.5").mu(3) == 0.125
    # paper-index 3 of the aq family is library index 3 as well
    assert sc.make_family("aq:q=1").mu(3) == 0.5


def test_parse_errors():
    for bad in ["", "unknown", "geometric", "geometric:r=abc", "power", "scale:c=1.0",
                "scale:c=1.0,harmonic", "aq:q=1.5"]:
        with pytest.raises(SequenceSpecError):
            sc.make_family(bad)


def test_domain_errors():
    with pytest.raises(ParameterError):
        sc.make_family("geometric:r=1.5")
    with pytest.raises(ParameterError):
        sc.make_family("geometric:r=0")
    with pytest.raises(ParameterError):
        sc.make_family("power:alpha=0.5")  # increasing prefix
    with pytest.raises(ParameterError):
        sc.make_family("aq:q=0")
    with pytest.raises(ParameterError):
        sc.make_family("scale:c=-1,(harmonic)")


def test_monotonicity_probe_on_explicit_values():
    with pytest.raises(MonotonicityError):
        sc.from_values([1.0, 2.0])
    with pytest.raises(MonotonicityError):
        sc.from_values([1.0, 0.0])


# ---------------------------------------------------------------------------
# mu
# ---------------------------------------------------------------------------


def test_mu_values():
    assert sc.mu(sc.make_family("harmonic"), 4) == 0.25
    assert sc.mu(sc.make_family("power:alpha=-2"), 3) == pytest.approx(1 / 9, rel=1e-15)
    # block (4, 16] of aq:q=1 carries (4 - 2)/(16 - 4)
    assert sc.mu(sc.make_family("aq:q=1"), 5) == pytest.approx(1 / 6, rel=1e-15)


def test_mu_rejects_bad_index():
    h = sc.make_family("harmonic")
    with pytest.raises(ParameterError):
        h.mu(0)


def test_mu_overflow_guard():
    g = sc.make_family("geometric:r=0.5")
    with pytest.raises(IndexRangeError):
        g.mu(10**6)  # far below any representable positive float


def test_mu_determinism():
    seq = sc.make_family("powlog:alpha=1")
    assert [seq.mu(n) for n in range(1, 50)] == [seq.mu(n) for n in range(1, 50)]


def test_descriptor_roundtrip():
    for spec in ALL_SPECS:
        seq = sc.make_family(spec)
        again = sc.make_family(seq.descriptor)
        assert again.descriptor == seq.descriptor
        assert [again.mu(n) for n in (1, 5, 100)] == [seq.mu(n) for n in (1, 5, 100)]


# ---------------------------------------------------------------------------
# sigma and S
# ---------------------------------------------------------------------------


def test_sigma_and_S_harmonic():
    h = sc.make_family("harmonic")
    sigma, s_val = sc.sigma_and_S(h, 4)
    assert sigma == pytest.approx(25 / 12, rel=1e-15)
    assert s_val == sigma  # non-summable


def test_sigma_and_S_geometric():
    g = sc.make_family("geometric:r=0.5")
    assert sc.sigma_and_S(g, 0) == (0.0, -1.0)
    sigma, s_val = sc.sigma_and_S(g, 3)
    assert sigma == 0.875
    assert s_val == -0.125


def test_S_refused_when_undetermined_but_sigma_available():
    seq = sc.from_values([3.0, 2.0, 1.0])
    assert seq.sigma(2) == 5.0
    with pytest.raises(UndeterminedSummabilityError):
        seq.S(2)


def test_sigma_direct_matches_fsum_oracle():
    for spec in ["harmonic", "power:alpha=-0.5", "powlog:alpha=1", "powlog:alpha=-2"]:
        seq = sc.make_family(spec)
        n = 2500
        oracle = math.fsum(seq.mu(i) for i in range(1, n + 1))
        assert seq.sigma(n) == pytest.approx(oracle, rel=1e-14), spec


def test_sigma_large_consistent_with_direct_oracle():
    # the Euler-Maclaurin path must continue the direct chain seamlessly
    n = sc.DIRECT_CAP + 1237
    for spec in ["harmonic", "power:alpha=-0.5", "power:alpha=-2",
                 "powlog:alpha=1", "powlog:alpha=-2", "powlog:alpha=-1"]:
        seq = sc.make_family(spec)
        oracle = math.fsum(seq.mu(i) for i in range(1, n + 1))
        assert seq.sigma(n) == pytest.approx(oracle, rel=1e-12), spec


def test_sigma_huge_indices_evaluate():
    h = sc.make_family("harmonic")
    expected = 10_000 * math.log(2) + sc.EULER_GAMMA
    assert h.sigma(1 << 10_000) == pytest.approx(expected, rel=1e-14)
    ls = sc.make_family("logstep")
    assert ls.sigma((1 << 500) - 1) == pytest.approx(500 * math.log(2), rel=1e-14)


def test_S_step_equals_mu_at_cached_indices():
    for spec in ALL_SPECS[:-1]:
        seq = sc.make_family(spec)
        for n in [1, 2, 7, 64, 1000, sc.DIRECT_CAP, sc.DIRECT_CAP + 1]:
            if n + 1 > seq.safe_mu_horizon():
                continue
            step = seq.S(n + 1) - seq.S(n)
            mu_next = seq.mu(n + 1)
            # abs floor: S is a difference of O(1) quantities, so the step
            # carries one rounding of those, ~1e-16 absolute
            assert step == pytest.approx(mu_next, rel=1e-9, abs=1e-15), (spec, n)


def test_summable_S_sign_and_monotonicity():
    for spec in ["geometric:r=0.5", "power:alpha=-2", "powlog:alpha=-2"]:
        seq = sc.make_family(spec)
        previous = seq.S(0)
        for j in range(0, 40):
            s_val = seq.S(1 << j)
            assert s_val <= 0.0
            assert s_val >= previous - 1e-18
            previous = s_val


def test_concavity_of_S():
    # S_{n+1} - S_n <= S_n - S_{n-1} is equivalent to mu non-increasing
    for spec in ALL_SPECS:
        seq = sc.make_family(spec)
        s = {n: seq.S(n) for n in range(1, 401)}
        for n in range(2, 400):
            lhs = s[n + 1] - s[n]
            rhs = s[n] - s[n - 1]
            assert lhs <= rhs + 1e-12 * max(1.0, abs(s[n])), (spec, n)


# ---------------------------------------------------------------------------
# trace_value
# ---------------------------------------------------------------------------


def test_trace_geometric_closed_form():
    info = sc.trace_value(sc.make_family("geometric:r=0.5"))
    assert info.summable
    assert info.trace == 1.0
    assert info.trace_error_bound == 0.0
    info2 = sc.trace_value(sc.make_family("geometric:r=0.25"))
    assert info2.trace == pytest.approx(1 / 3, rel=1e-15)


def test_trace_power_minus2_matches_zeta2():
    info = sc.trace_value(sc.make_family("power:alpha=-2"))
    assert info.summable
    assert info.trace_error_bound <= 1e-8
    assert abs(info.trace - math.pi**2 / 6) <= 1e-8
    # direct-summation oracle with an integral-test bracket
    partial = math.fsum(1.0 / (k * k) for k in range(1, 10_001))
    assert partial <= info.trace <= partial + 1e-4


def test_trace_classifications():
    assert sc.trace_value(sc.make_family("harmonic")).classification == "non-summable"
    assert sc.trace_value(sc.make_family("logstep")).classification == "non-summable"
    assert sc.trace_value(sc.make_family("power:alpha=-1")).classification == "non-summable"
    assert sc.trace_value(sc.make_family("powlog:alpha=1")).classification == "non-summable"
    assert sc.trace_value(sc.make_family("powlog:alpha=-2")).classification == "summable"
    assert sc.trace_value(sc.make_family("aq:q=1")).classification == "non-summable"
    assert sc.trace_value(sc.from_values([1.0, 0.5])).classification == "undetermined"


def test_trace_scaled():
    info = sc.trace_value(sc.make_family("scale:c=3.0,(geometric:r=0.5)"))
    assert info.trace == 3.0


def test_powlog_trace_against_fsum_oracle():
    seq = sc.make_family("powlog:alpha=-2")
    info = seq.summability()
    n_oracle = 200_000
    partial = math.fsum(seq.mu(i) for i in range(1, n_oracle + 1))
    tail_hi = 1.0 / math.log(n_oracle + seq.shift)
    assert partial < info.trace < partial + tail_hi


# ---------------------------------------------------------------------------
# family-wide invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_mu_positive_and_non_increasing_to_2_16(spec):
    seq = sc.make_family(spec)
    horizon = min(1 << 16, seq.safe_mu_horizon())
    prev = None
    for n in range(1, horizon + 1):
        v = seq.mu(n)
        assert v > 0.0
        if prev is not None:
            assert v <= prev * (1.0 + 1e-15)
        prev = v


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_sigma_non_decreasing_on_dyadic_grid(spec):
    seq = sc.make_family(spec)
    limit = min(1 << 16, seq.safe_mu_horizon())
    previous = 0.0
    n = 1
    while n <= limit:
        value = seq.sigma(n)
        assert value >= previous
        previous = value
        n *= 2


def test_recomputation_determinism_bitwise():
    a = sc.make_family("powlog:alpha=1")
    b = sc.make_family("powlog:alpha=1")
    # mixed access order must not change any bit
    xs = [17, 5000, 123, 60_000, 123, 17, 65_536, 1 << 20]
    vals_a = [a.sigma(n) for n in xs]
    vals_b = [b.sigma(n) for n in reversed(xs)]
    assert vals_a == list(reversed(vals_b))


def _neumaier_sums(seq, top):
    """sigma_0..sigma_top from a per-term NeumaierSum over public mu."""
    acc, sums = NeumaierSum(), [0.0]
    for j in range(1, top + 1):
        acc.add(seq.mu(j))
        sums.append(acc.value)
    return sums


def _run_threads(target, args):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target, args=(a,)) for a in args]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_cache_thread_safety_bitwise():
    # cold queries in shuffled order from several threads: each thread
    # writes the checkpoints it passes to their slots, with no lock
    spec, top = "power:alpha=-0.5", 30_000
    sums = _neumaier_sums(sc.make_family(spec), top)
    fresh = sc.make_family(spec)
    errors = []

    def worker(seed):
        ns = [999, 4096, 30_000, 1, sc.RUN, 3 * sc.RUN + 1] + list(range(seed, top, 977))
        random.Random(seed).shuffle(ns)
        for n in ns:
            if fresh.sigma(n) != sums[n]:
                errors.append((seed, n))

    _run_threads(worker, range(1, 7))
    assert not errors
    lone = sc.make_family(spec)
    lone.sigma(top)
    assert fresh._ckpts == lone._ckpts


def test_walks_in_threads_bitwise():
    # walks record checkpoints from several threads while sigma calls read
    # them; every value and the checkpoint list must match a lone run
    spec, top = "power:alpha=-0.5", 20_000
    reference = _neumaier_sums(sc.make_family(spec), top)
    shared = sc.make_family(spec)
    errors = []

    def walker(step):
        walk = sc.S_walk(shared, step, step)
        for n in range(step, top + 1, step):
            if next(walk) != reference[n]:
                errors.append((step, n))
        if shared.sigma(top - 7) != reference[top - 7]:
            errors.append(("sigma", top - 7))

    _run_threads(walker, [1 + j % 2 for j in range(6)])
    assert not errors
    lone = sc.make_family(spec)
    lone.sigma(top)
    assert shared._ckpts == lone._ckpts


def test_checkpoint_slot_write_survives_every_interleaving():
    # at the N-th length test of the checkpoint list, a competing sigma runs
    # to the end before the test sees the length it read, as a thread switch
    # or a re-entrant call between the test and the slot write would allow;
    # for every N the value and the list must equal a lone run's
    spec, n = "power:alpha=-0.5", 3 * sc.RUN + 5

    class Interleave(list):
        def __init__(self, items, seq, at):
            super().__init__(items)
            self.seq, self.at, self.calls = seq, at, 0

        def __len__(self):
            length = super().__len__()
            self.calls += 1
            if self.calls == self.at:
                self.seq.sigma(n)
            return length

    lone = sc.make_family(spec)
    lone._ckpts = Interleave(lone._ckpts, lone, None)
    expected = lone.sigma(n)
    assert lone._ckpts.calls > 3
    for at in range(1, lone._ckpts.calls + 1):
        seq = sc.make_family(spec)
        seq._ckpts = Interleave(seq._ckpts, seq, at)
        assert seq.sigma(n) == expected, at
        assert seq._ckpts.calls > at
        assert list(seq._ckpts) == list(lone._ckpts), at


PICKLE_SPECS = [
    "harmonic",
    "power:alpha=-0.5",
    "powlog:alpha=-2",
    "geometric:r=0.5",
    "aq:q=2",
    "logstep",
    "scale:c=3,(harmonic)",
    "sum",
    "values",
    "averaged",
    "dilated",
]


def _pickle_case(name):
    if name == "sum":
        return sc.pointwise_sum(sc.make_family("harmonic"), sc.make_family("power:alpha=-2"))
    if name == "values":
        return sc.from_values([1.0 / j for j in range(1, 5001)], summable=False)
    if name == "averaged":
        return averaged_operator(sc.make_family("power:alpha=-0.5"), 2, 1000)
    if name == "dilated":
        return DilatedSequence(sc.make_family("harmonic"), 3)
    return sc.make_family(name)


def _outcomes(seq):
    """sigma, S and mu below and above DIRECT_CAP: the value's bits, or the
    error type where the family is not evaluable there."""
    out = []
    for n in [1, 777, 3 * sc.RUN + 5, sc.DIRECT_CAP, sc.DIRECT_CAP + 1, 1 << 20, 10**30]:
        for f in (seq.sigma, seq.S, seq.mu):
            try:
                out.append(f(n).hex())
            except IndexRangeError as exc:
                out.append(type(exc).__name__)
    return out


@pytest.mark.parametrize("name", PICKLE_SPECS)
def test_sequences_pickle_and_deepcopy_with_their_checkpoints(name):
    seq = _pickle_case(name)
    seq.sigma(3 * sc.RUN + 5)
    seq.S(2 * sc.RUN)
    copies = [pickle.loads(pickle.dumps(seq)), copy.deepcopy(seq)]
    for c in copies:
        assert c._ckpts == seq._ckpts
    expected = _outcomes(seq)
    for c in copies:
        assert _outcomes(c) == expected


def _count_fetches(seq):
    """Wrap ``seq._mu_run``; the returned list gets each (lo, hi) fetched."""
    inner, runs = seq._mu_run, []

    def counted(lo, hi):
        runs.append((lo, hi))
        return inner(lo, hi)

    seq._mu_run = counted
    return runs


def _fetched(runs):
    return sum(hi - lo + 1 for lo, hi in runs)


def test_anchor_calls_keep_ascending_cursor():
    # beyond DIRECT_CAP the EM path anchors at sigma(DIRECT_CAP); computing
    # that anchor must not restart the ascending scan, and every value of
    # the direct sum is fetched through _mu_run
    seq = sc.make_family("power:alpha=-0.5")
    runs = _count_fetches(seq)
    extract_pk(seq, 6, 2**15 + 8192)
    assert _fetched(runs) <= 2 * sc.DIRECT_CAP
    # the S_2p walk saved every multiple of RUN it passed, the anchor included
    assert len(seq._ckpts) == sc.DIRECT_CAP // sc.RUN + 1
    runs.clear()
    seq.sigma(sc.DIRECT_CAP)
    assert _fetched(runs) == 0


# ---------------------------------------------------------------------------
# S_walk: one ascending pass, bitwise equal to S(n) at every index
# ---------------------------------------------------------------------------

_EXPLICIT_LEN = 280
_LONG_SQUARES = [1 / i**2 for i in range(1, sc.DIRECT_CAP + 42)]
_WALK_FAMILIES = {
    **{
        spec: (lambda spec=spec: sc.make_family(spec))
        for spec in ALL_SPECS + ["scale:c=2,(power:alpha=-2)"]
    },
    "sum-mixed": lambda: sc.pointwise_sum(
        sc.make_family("harmonic"), sc.make_family("power:alpha=-2")
    ),
    "sum-summable": lambda: sc.pointwise_sum(
        sc.make_family("power:alpha=-2"), sc.make_family("geometric:r=0.5")
    ),
    "averaged": lambda: averaged_operator(sc.make_family("power:alpha=-0.5"), 4, 1 << 10),
    "dilated": lambda: DilatedSequence(sc.make_family("harmonic"), 3),
    # summable data that runs out at _EXPLICIT_LEN
    "explicit": lambda: sc.from_values(
        [1.0 / i**1.5 for i in range(1, _EXPLICIT_LEN + 1)], trace=2.6
    ),
    # non-summable data past DIRECT_CAP, where sigma stays a direct sum
    "explicit-long": lambda: sc.from_values(
        [1.0 / i for i in range(1, sc.DIRECT_CAP + 41)], summable=False
    ),
    # summable data past DIRECT_CAP
    "explicit-long-summable": lambda: sc.from_values(_LONG_SQUARES, trace=1.6449),
}
_WALK_REFS: dict = {}
_WALK_STARTS = hs.one_of(
    hs.sampled_from([(1 << j) + d for j in range(17) for d in (-1, 0, 1)]),
    hs.integers(sc.DIRECT_CAP - 60, sc.DIRECT_CAP),
    hs.integers(_EXPLICIT_LEN - 60, _EXPLICIT_LEN + 1),
)


def _S_bits(seq, n):
    try:
        return seq.S(n).hex()
    except SingtraceError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(_WALK_FAMILIES))
@given(first=_WALK_STARTS, step=hs.sampled_from([1, 2]), warm=hs.booleans())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_S_walk_matches_S_bitwise(name, first, step, warm):
    # the oracle is S(n) per index on a separate instance; errors must match
    # in type, message and index
    if name not in _WALK_REFS:
        _WALK_REFS[name] = _WALK_FAMILIES[name]()
    ref = _WALK_REFS[name]
    seq = _WALK_FAMILIES[name]()
    if warm:
        # saved states below, at and above the start
        for n in (3, max(0, first - 1), first + 5, 1 << 15):
            _S_bits(seq, n)
    walk = sc.S_walk(seq, first, step)
    for n in range(first, first + 40 * step, step):
        want = _S_bits(ref, n)
        try:
            got = next(walk).hex()
        except SingtraceError as exc:
            got = type(exc), str(exc)
        assert got == want, (name, n)
        if isinstance(want, tuple):
            break


def test_long_summable_explicit_S_follows_sigma_to_its_last_value():
    # explicit data is summed directly over all its values, so S past
    # DIRECT_CAP is sigma - trace rather than a refusal
    seq = sc.from_values(_LONG_SQUARES, trace=1.6449)
    size = len(_LONG_SQUARES)
    for n in range(sc.DIRECT_CAP - 2, size + 1):
        assert seq.S(n).hex() == (seq.sigma(n) - 1.6449).hex(), n
    assert seq.sigma(size) == pytest.approx(math.fsum(_LONG_SQUARES), rel=1e-15)
    for n in (size + 1, sc.DIRECT_CAP * 2, 1 << 100):
        with pytest.raises(IndexRangeError, match=f"has {size} values, index {n} requested"):
            seq.S(n)


def test_only_the_base_class_dispatches_sigma_and_S():
    # families supply hooks (_direct_limit, _sigma_large, _S_tail); the
    # evaluation path of sigma and S is chosen in SpectralSequence alone
    classes, todo = [], [sc.SpectralSequence]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__ in ("singtrace.seqcore", "singtrace.traces"):
            classes.append(cls)
    names = {cls.__name__ for cls in classes}
    assert {"GeometricSequence", "ScaledSequence", "SumSequence", "ExplicitSequence",
            "AveragedSequence", "DilatedSequence"} <= names
    for cls in classes[1:]:
        assert not {"sigma", "S"} & set(vars(cls)), cls.__name__


def test_S_walk_saves_every_multiple_of_RUN_it_passes():
    # S_5, S_8, ..., S_{2 RUN}: the state at 2 RUN is saved before the walk
    # yields it, so stopping right there leaves it in the list
    seq = sc.make_family("harmonic")
    sums = _neumaier_sums(seq, 2 * sc.RUN)
    walk = sc.S_walk(seq, 5, 3)
    for _ in range((2 * sc.RUN - 5) // 3 + 1):
        next(walk)
    assert [s + c for s, c in seq._ckpts] == [sums[0], sums[sc.RUN], sums[2 * sc.RUN]]


def test_S_walk_rejects_bad_step():
    with pytest.raises(ParameterError):
        next(sc.S_walk(sc.make_family("harmonic"), 1, 0))


# ---------------------------------------------------------------------------
# direct kernel: mu read in runs, one Neumaier loop for sigma and S_walk
# ---------------------------------------------------------------------------

_RISING = [1.0, 0.5, math.nextafter(0.5, 1.0), 0.25, 0.25, math.nextafter(0.25, 1.0)]
_KERNEL_FAMILIES = {
    **{
        spec: (lambda spec=spec: sc.make_family(spec))
        for spec in ["harmonic", "power:alpha=-0.5", "power:alpha=-2", "power:alpha=0",
                     "powlog:alpha=1", "powlog:alpha=3", "powlog:alpha=-2"]
    },
    "averaged": _WALK_FAMILIES["averaged"],
    "dilated": _WALK_FAMILIES["dilated"],
    "explicit": _WALK_FAMILIES["explicit"],
    # rises by one ulp within the 1e-15 slack, so the term can exceed the
    # partial sum and the other Neumaier branch runs
    "explicit-rising": lambda: sc.from_values(_RISING, trace=3.0),
}
_KERNEL_ORACLES: dict = {}


@pytest.mark.parametrize("name", sorted(_KERNEL_FAMILIES) + ["power:alpha=-70"])
@given(data=hs.data())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_mu_run_matches_mu_bitwise(name, data):
    # mu_j underflows to 0 inside 2^16 at alpha = -70, so that family is
    # only read here, where the oracle is _mu itself
    seq = sc.make_family(name) if name == "power:alpha=-70" else _KERNEL_FAMILIES[name]()
    limit = min(seq._direct_limit, sc.DIRECT_CAP)
    edge = data.draw(hs.sampled_from([1 << j for j in range(17) if 1 << j <= limit] + [limit]))
    lo = data.draw(hs.integers(max(1, edge - 40), edge))
    hi = data.draw(hs.integers(lo, min(limit, edge + 2 * sc.RUN)))
    got = [v.hex() for v in seq._mu_run(lo, hi)]
    assert got == [seq._mu(j).hex() for j in range(lo, hi + 1)], (lo, hi)


def _neumaier_oracle(name):
    """Per-term NeumaierSum over public mu: the states at 0..N, and the trace."""
    if name not in _KERNEL_ORACLES:
        seq = _KERNEL_FAMILIES[name]()
        sums = _neumaier_sums(seq, min(seq._direct_limit, sc.DIRECT_CAP))
        _KERNEL_ORACLES[name] = sums, seq.summability().trace or 0.0
    return _KERNEL_ORACLES[name]


@pytest.mark.parametrize("name", sorted(_KERNEL_FAMILIES))
def test_sigma_and_S_walk_match_a_per_term_neumaier_loop(name):
    sums, trace = _neumaier_oracle(name)
    top = len(sums) - 1
    points = sorted({n for j in range(17) for n in ((1 << j) - 1, 1 << j, (1 << j) + 1)
                     if 1 <= n <= top} | {top, top - 3, 3 * top // 5})
    for n in {1, 2, 1023, 1024, 1025, 3 * top // 5, top}:
        if n <= top:
            assert _KERNEL_FAMILIES[name]().sigma(n).hex() == sums[n].hex(), ("cold", n)
    warm = _KERNEL_FAMILIES[name]()
    for n in points + points[::-1]:
        assert warm.sigma(n).hex() == sums[n].hex(), ("warm", n)
    for step in (1, 2, 3):
        for first in (0, 1, 2, 1023, 1025, top - 5):
            seq = _KERNEL_FAMILIES[name]()
            walk = sc.S_walk(seq, first, step)
            for n in range(first, min(top, first + 300 * step) + 1, step):
                assert next(walk).hex() == (sums[n] - trace).hex(), (step, first, n)


@pytest.mark.parametrize("name", ["harmonic", "power:alpha=-0.5", "averaged", "explicit"])
def test_direct_kernel_fetches_no_value_past_its_target(name):
    limit = min(_KERNEL_FAMILIES[name]()._direct_limit, sc.DIRECT_CAP)
    for n in (1, 2, 3, 1000, sc.RUN, sc.RUN + 1, 5000, limit):
        if n > limit:
            continue
        seq = _KERNEL_FAMILIES[name]()
        runs = _count_fetches(seq)
        seq.sigma(n)
        assert _fetched(runs) == n and runs[-1][1] == n, n
    # warm: each query starts from the checkpoint below it
    seq = _KERNEL_FAMILIES[name]()
    seq.sigma(limit)
    runs = _count_fetches(seq)
    ns = list(range(1, limit + 1, 2999))
    ns += [n for n in (sc.RUN - 1, sc.RUN, sc.RUN + 1, limit - 1, limit) if n <= limit]
    random.Random(limit).shuffle(ns)
    for n in ns + sorted(ns, reverse=True):
        runs.clear()
        seq.sigma(n)
        assert _fetched(runs) == n % sc.RUN, n
    for first, step, taken in ((1, 1, 1), (1, 1, 2000), (7, 2, 900), (3, 3, 70), (limit - 9, 2, 5)):
        taken = min(taken, (limit - first) // step + 1)
        seq = _KERNEL_FAMILIES[name]()
        runs = _count_fetches(seq)
        walk = sc.S_walk(seq, first, step)
        for _ in range(taken):
            next(walk)
        last = first + (taken - 1) * step
        assert last <= runs[-1][1] <= min(last + sc.RUN, seq._direct_limit), (first, step)
        # the runs tile 1..top in ascending order: no value is fetched twice
        assert [lo for lo, _ in runs] == [1] + [hi + 1 for _, hi in runs[:-1]]


@pytest.mark.parametrize("bad, message", [
    (0.5, r"^bumped: mu_7 = 0.5 exceeds mu_6 = 0.16666666666666666$"),
    (0.0, r"^bumped: mu_7 = 0.0 is not positive$"),
])
def test_construction_probe_reports_the_first_bad_index(bad, message):
    class Bumped(sc.SpectralSequence):
        descriptor = "bumped"

        def _mu(self, n):
            return bad if n in (7, 9) else 1 / n

    with pytest.raises(MonotonicityError, match=message):
        Bumped()._validate_prefix()


def test_file_roundtrip(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# trace=1.75\n1.0\n0.5\n0.25\n")
    seq = sc.make_family(f"file:{path}")
    assert seq.mu(2) == 0.5
    assert seq.summability().trace == 1.75
    assert seq.S(3) == pytest.approx(1.75 - 1.75, abs=1e-15)

    path2 = tmp_path / "seq2.txt"
    path2.write_text("# trace=nonsummable\n1.0\n1.0\n")
    seq2 = sc.make_family(f"file:{path2}")
    assert seq2.S(2) == 2.0

    path3 = tmp_path / "bad.txt"
    path3.write_text("1.0\nnot-a-number\n")
    with pytest.raises(SequenceSpecError):
        sc.make_family(f"file:{path3}")


def test_power_minus_one_matches_harmonic():
    # the alpha = -1 branch routes through the log integral; it must agree
    # with the dedicated harmonic family everywhere
    pm1 = sc.make_family("power:alpha=-1")
    h = sc.make_family("harmonic")
    for n in (5, 1000, 1 << 16, 1 << 30, 1 << 200):
        assert pm1.sigma(n) == pytest.approx(h.sigma(n), rel=1e-14)


def test_pointwise_sum_classes():
    h = sc.make_family("harmonic")
    p2 = sc.make_family("power:alpha=-2")
    mixed = sc.pointwise_sum(h, p2)
    assert mixed.summability().classification == "non-summable"
    assert mixed.sigma(10) == pytest.approx(h.sigma(10) + p2.sigma(10), rel=1e-15)
    both = sc.pointwise_sum(p2, sc.make_family("geometric:r=0.5"))
    assert both.summability().trace == pytest.approx(p2.summability().trace + 1.0, rel=1e-12)
    assert both.S(5) == pytest.approx(p2.S(5) + sc.make_family("geometric:r=0.5").S(5), rel=1e-12)
