"""Seeded job lists for the three workloads.

A workload is one pass: a list of jobs run in order by a single client.
Each job is built from the seed alone and carries three things:

- ``run(ctx)``: the timed call into singtrace; ``ctx`` is a dict that
  lives for one pass, so jobs of one pk_scan session share a sequence;
- ``check(out)``: the untimed oracle check, which raises
  :class:`oracles.CheckFailed` or returns the relative error it measured;
- ``kind``: a label for reports.

What sets a job's cost is fixed per job position: sizes (horizons,
window lengths, matrix dimensions) follow log-spaced grids with a few
percent of seeded jitter, each position keeps its family kind or set,
and the order of the positions is the same for every seed.  So the work
in a pass hardly depends on the seed.  Offsets, query points, family
parameters and set contents are drawn from the seed.

singtrace is always reached as ``st.<name>`` at call time, never bound at
import, so the traced run's wrappers see every call.  Building the jobs
needs no mpmath: checks reach it as ``O.mpmath`` once ``oracles.load()``
has run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import singtrace as st
import singtrace.cli  # noqa: F401  (makes st.cli available)

import oracles as O
from oracles import Family, close, expect

GOLDENS = Path(__file__).resolve().parent / "goldens"

REL = 1e-11     # closed forms, EM paths and compensated sums, relative
CANCEL = 4e-15  # times the trace: rounding of a summable S_n = sigma_n - trace


class Job:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _jit(rng, x, spread=0.03):
    return int(round(x * (1.0 + spread * rng.random())))


def _mixed(jobs):
    """The jobs in one fixed shuffled order, the same for every seed.

    The order sets what is still allocated when a large job runs, and so
    peak memory: with a seeded order, the windows workload's peak moved
    between 130 and 148 MB from seed to seed.
    """
    random.Random(0).shuffle(jobs)
    return jobs


def _grid(lo_exp, hi_exp, count):
    return [2.0 ** (lo_exp + (hi_exp - lo_exp) * j / (count - 1)) for j in range(count)]


def _attach(fam):
    """Give an oracle family access to singtrace's public mu (for fsum)."""
    fam.public_mu = lambda d=fam.desc: st.make_family(d).mu
    return fam


def _floor(fam, n):
    """Absolute slack on singtrace's S_n beyond its relative error."""
    return CANCEL * fam.trace() if fam.summable and n <= O.DIRECT else 0.0


def _s_err(fam, n, got):
    return close(got, fam.S(n), REL, _floor(fam, n), what=f"S_{n}({fam.desc})")


def _ratio_band(fam, n):
    """S_2n/S_n from the oracle, with the absolute slack singtrace's may need."""
    sn, s2n = fam.S(n), fam.S(2 * n)
    band = 1e-10 * abs(s2n / sn) + _floor(fam, n) / abs(sn) + abs(s2n) * _floor(fam, n) / sn**2
    return s2n / sn, band


def _check_witness(fam, k, p, dev2, devk, bound, bound_ok):
    """p is the least index with |1 - S_2p/S_p| <= 1/k^2 (checked at p and p-1)."""
    thr = O.mpmath.mpf(1) / (k * k)
    ratio, band = _ratio_band(fam, p)
    dev = abs(1 - ratio)
    expect(dev <= thr + band, f"{fam.desc}: p_{k} = {p} misses the threshold (dev {O.mpmath.nstr(dev, 8)})")
    if p > 1:
        r_prev, band_prev = _ratio_band(fam, p - 1)
        expect(abs(1 - r_prev) > thr - band_prev, f"{fam.desc}: p_{k} = {p} is not minimal")
    err = close(dev2, dev, 0, band, what=f"deviation_2 at p_{k}")
    sk = fam.S(k * p) / fam.S(p)
    err = max(err, close(devk, abs(1 - sk), 0, band * k, what="deviation_k"))
    expect(bound == (k - 1) / (k * k), "derived bound")
    expect(bound_ok == (devk <= bound + 1e-12), "bound_ok flag")
    return err


def _check_witnesses(fam, witnesses, k_max):
    expect(all(2 <= w.k <= k_max for w in witnesses), "witness k out of range")
    return max(
        [_check_witness(fam, w.k, w.p, w.deviation_2, w.deviation_k, w.derived_bound, w.bound_ok)
         for w in witnesses],
        default=0.0,
    )


# ---------------------------------------------------------------------------
# pk_scan: a few sequences, each scanned at length on one instance
# ---------------------------------------------------------------------------


def pk_scan(seed):
    rng = random.Random(seed)
    em_power = Family("power", round(rng.uniform(-1.0, -0.4), 3))
    em_powlog = Family("powlog", round(rng.uniform(-0.3, 1.0), 3))
    # (family, long-scan horizon, long k_max choices, varga partner or None)
    # Except on aq, whose witnesses all come early, the long scans never meet
    # every threshold and run to their horizon; the EM-path families cross
    # 2^15, where S_2p leaves the direct range.
    plan = [
        (Family("harmonic"), _jit(rng, 0.97 * 2**16), (5, 6), Family("logstep")),
        (em_power, 2**15 + _jit(rng, 2048), (4, 5, 6), None),
        (em_powlog, 2**15 + _jit(rng, 2048), (6,), None),
        (Family("geometric", round(rng.uniform(0.3, 0.8), 3)), _jit(rng, 2**16 * 0.97), (4, 5, 6), None),
        (Family("aq", rng.choice([1, 2, 3])), _jit(rng, 2**16 * 0.97), (4, 5, 6), Family("harmonic")),
        (Family("logstep"), _jit(rng, 2**16 * 0.97), (5, 6), Family("harmonic")),
        (Family("power", round(rng.uniform(-3.0, -1.5), 3)), _jit(rng, 2**15), (4, 5, 6), None),
    ]
    jobs = []
    for idx, (fam, long_h, long_k, partner) in enumerate(plan):
        _attach(fam)
        # 40 point queries, one near the middle of each fortieth of [1, top],
        # taken in bit-reversed order of the fortieths: out of order, but in
        # the same order and nearly the same place for every seed, since the
        # cache state a query meets and its distance from the last cached
        # index set its cost.  Half run before the long scan fills the
        # cache, half after.
        top = int(1000 / -math.log2(fam.param)) if fam.kind == "geometric" else 2**16
        order = sorted(range(40), key=lambda j: int(f"{j:06b}"[::-1], 2))
        ns = [j * top // 40 + _jit(rng, top // 80) for j in order]
        queries = [_pk_point(idx, fam, n, j % 2 == 0) for j, n in enumerate(ns)]
        # k_max, horizons and eps set how far a scan runs: they follow idx
        jobs += [_pk_build(idx, fam), _pk_extract(idx, fam, 2 + idx % 2, _jit(rng, 2**13))]
        jobs += queries[:20]
        jobs.append(_pk_extract(idx, fam, long_k[idx % len(long_k)], long_h))
        if fam.kind != "geometric":
            # geometric S_n underflows inside any long dyadic probe
            jobs.append(_pk_analyze(idx, fam, _jit(rng, 2 ** (16 + 2 * idx / 3)), (0.02, 0.05, 0.1)[idx % 3]))
        if partner is not None:
            k_max = 6 if fam.kind == "aq" else 3   # witnesses found early: short scan
            jobs.append(_pk_varga(idx, _attach(partner), fam, k_max, _jit(rng, 2 ** (17 + idx / 2))))
        jobs += queries[20:]
    return jobs


def _pk_build(idx, fam):
    def run(ctx):
        seq = ctx[idx] = st.make_family(fam.desc)
        info = seq.summability()
        return info.classification, info.trace

    def check(out):
        cls, trace = out
        expect(cls == ("summable" if fam.summable else "non-summable"), f"{fam.desc}: class {cls}")
        return close(trace, fam.trace(), REL, what="trace") if fam.summable else 0.0

    return Job("build", run, check)


def _pk_extract(idx, fam, k_max, horizon):
    def run(ctx):
        return st.extract_pk(ctx[idx], k_max, horizon)

    return Job("extract_pk", run, lambda out: _check_witnesses(fam, out, k_max))


def _pk_analyze(idx, fam, horizon, eps):
    def run(ctx):
        return st.analyze_eccentricity(ctx[idx], horizon, eps)

    def check(rep):
        err = 0.0
        for n, ratio in rep.trajectory:
            want, band = _ratio_band(fam, n)
            err = max(err, close(ratio, want, 0, band, what=f"ratio at {n}"))
        expect(not rep.degenerate_points, "unexpected degenerate points")
        best = min(abs(1.0 - r) for _, r in rep.trajectory)
        expect(rep.best_deviation == best, "best deviation")
        expect((rep.verdict == "eccentric-within-horizon") == (best <= eps), "verdict")
        for w in rep.witnesses:
            hits = [n for n, r in rep.trajectory if abs(1.0 - r) <= 1.0 / w.k**2]
            expect(w.p == min(hits), f"trajectory witness p_{w.k}")
        return err

    return Job("analyze", run, check)


def _pk_varga(idx, a_fam, t_fam, k_max, horizon):
    def run(ctx):
        return st.varga_estimate(st.make_family(a_fam.desc), ctx[idx], k_max, horizon)

    def check(est):
        expect(not est.infinite and est.cutoff, "varga returned no samples")
        want_cut = [k * p for k, p in _oracle_pk(t_fam, k_max, max(est.cutoff))]
        expect(est.cutoff == want_cut, f"varga cutoffs {est.cutoff} vs oracle {want_cut}")
        samples = [a_fam.S(n) / t_fam.S(n) for n in est.cutoff]
        want = O.mpmath.fsum(samples) / len(samples)
        floor = max(_floor(a_fam, n) / abs(t_fam.S(n)) for n in est.cutoff)
        err = close(est.value, want, REL, floor, what="varga value")
        spread = max(samples) - min(samples)
        err = max(err, close(est.oscillation, spread, REL, 2 * floor + REL * abs(want), what="varga spread"))
        expect(est.low_confidence == (len(samples) < 3), "low_confidence flag")
        return err

    return Job("varga", run, check)


def _oracle_pk(fam, k_max, limit):
    """(k, least p <= limit with |1 - S_2p/S_p| <= 1/k^2), by scanning the oracle."""
    found = {}
    for p in range(1, limit + 1):
        ratio, _ = _ratio_band(fam, p)
        dev = abs(1 - ratio)
        for k in range(2, k_max + 1):
            if k not in found and dev <= O.mpmath.mpf(1) / (k * k):
                found[k] = p
        if len(found) == k_max - 1:
            break
    return sorted(found.items())


def _pk_point(idx, fam, n, use_s):
    def run(ctx):
        seq = ctx[idx]
        return seq.S(n) if use_s else seq.sigma(n)

    def check(v):
        if use_s:
            return _s_err(fam, n, v)
        return close(v, fam.sigma(n), REL, what=f"sigma_{n}({fam.desc})")

    return Job("S_query" if use_s else "sigma_query", run, check)


# ---------------------------------------------------------------------------
# fresh_queries: many short jobs, each on freshly built inputs
# ---------------------------------------------------------------------------


def _family(rng, kind, cycle=None):
    """A family of ``kind`` with seeded parameters; power_s is a summable power.

    aq's q sets its cost, so within :func:`_families` it follows the
    position (``cycle``) instead of the seed.
    """
    if kind == "power":
        return Family("power", round(rng.uniform(-1.0, -0.2), 3))
    if kind == "power_s":
        return Family("power", round(rng.uniform(-3.0, -1.3), 3))
    if kind == "powlog":
        return Family("powlog", round(rng.uniform(-1.0, 1.5), 3))
    if kind == "geometric":
        return Family("geometric", round(rng.uniform(0.2, 0.9), 3))
    if kind == "aq":
        return Family("aq", rng.randint(1, 4) if cycle is None else 1 + cycle % 4)
    return Family(kind)


def _families(rng, kinds, count):
    """``count`` families cycling through ``kinds`` in order, with seeded
    parameters.  The kind sets much of a job's cost, so each job position
    keeps its kind whatever the seed."""
    return [_family(rng, kinds[j % len(kinds)], j // len(kinds)) for j in range(count)]


def _huge_exp(rng, fam):
    """Exponent e for S(2^e) inside the family's float range."""
    if fam.kind in ("harmonic", "logstep", "aq"):
        return int(2 ** rng.uniform(math.log2(17), math.log2(10000)))
    if fam.summable:
        return rng.randint(17, int(700 / (-fam.param - 1)))
    return rng.randint(17, 1000)


def fresh_queries(seed):
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    jobs = []
    kinds = ("harmonic", "power", "powlog", "geometric", "logstep", "aq", "power_s")
    for j, fam in enumerate(_families(rng, kinds, 8)):
        scale = round(rng.uniform(0.1, 10.0), 3) if j % 2 else None
        jobs.append(_fq_build(fam, scale))
    for pair in (("harmonic", "power_s"), ("power", "logstep"), ("geometric", "power_s"), ("logstep", "aq")):
        a, b = (_family(rng, k) for k in pair)
        jobs.append(_fq_sum(a, b, [rng.randint(1, 2**16), 2 ** rng.randint(17, 60) + rng.randint(0, 99)]))
    for j, size in enumerate((2000, 4000, 6000, 8000)):
        n_vals = _jit(rng, size)
        vals = sorted((rng.uniform(0.0, 1.0) ** 3 + 1e-6 for _ in range(n_vals)), reverse=True)
        trace = math.fsum(vals) + rng.uniform(0.0, 1.0) if j % 2 else None
        jobs.append(_fq_values(vals, trace, [rng.randint(1, n_vals) for _ in range(3)]))
    for fam in _families(rng, ("harmonic", "logstep", "aq", "power", "power_s"), 24):
        jobs.append(_fq_huge(fam, 2 ** _huge_exp(rng, fam) + rng.randint(0, 2**16)))
    numerators = _families(rng, ("harmonic", "logstep", "power", "power_s", "aq", "harmonic"), 6)
    references = _families(rng, ("harmonic", "logstep", "power"), 6)
    for a, t, omega in zip(numerators, references, (100, 200, 400, 600, 800, 1000)):
        jobs.append(_fq_dixmier(a, t, _jit(rng, omega)))
    jobs.append(_fq_dixmier(Family("harmonic"), _family(rng, "geometric"), 50))
    # A and B both non-summable or both summable: with one of each, S(A+B)
    # carries tr(B) as an offset that the defect bound does not cover
    for kinds, t, omega in ((("harmonic", "power"), "harmonic", 60), (("logstep", "power"), "logstep", 120),
                            (("power_s",), "harmonic", 200)):
        a, b = _families(rng, kinds, 2)
        jobs.append(_fq_additivity(a, b, _family(rng, t), _jit(rng, omega)))
    for fam, omega in zip(_families(rng, ("harmonic", "logstep", "power"), 3), (100, 250, 500)):
        jobs.append(_fq_dilation_defect(fam, _jit(rng, omega)))
    for fam in _families(rng, ("harmonic", "logstep", "power", "power_s", "aq"), 8):
        jobs.append(_fq_concavity(fam, 2 ** (_huge_exp(rng, fam) - 7) + rng.randint(1, 999), rng.randint(2, 64)))
    for kind, k, horizon in (("geometric", 2, 300), ("harmonic", 3, 600), ("power_s", 2, 1000)):
        jobs.append(_fq_dilate(_family(rng, kind), k, _jit(rng, horizon)))
    for (a_kind, t_kind), horizon in zip((("power", "harmonic"), ("power_s", "power"), ("power", "power")), (500, 1000, 2000)):
        jobs.append(_fq_domination(_family(rng, a_kind), _family(rng, t_kind), rng.randint(1, 4), _jit(rng, horizon)))
    # Cesaro at p = 2^(qs+r): the direct method's cost grows with p, so
    # q and r follow the position, not the seed
    for q, p_exp in zip((1, 2, 3), (10, 12, 13)):
        jobs.append(_fq_example4(q, (p_exp - 1) // q, 1, "direct"))
    for q, p_exp in zip((1, 2, 3, 2), (20, 60, 150, 400)):   # in-domain: the block path overflows past 2^1000
        jobs.append(_fq_example4(q, (_jit(rng, p_exp) - 1) // q, 1, "block"))
    for q in (1, 2, 3, 4):
        jobs.append(_fq_sigma_pow2(q, [rng.randint(1, 2000) for _ in range(16)]))
    for length in (64, 128, 256, 512, 768, 1024):
        n = _jit(rng, length)
        a = sorted(rng.uniform(0.0, 1.0) for _ in range(n))[::-1]
        b = sorted(rng.uniform(0.0, 1.0) ** 2 for _ in range(n))[::-1]
        jobs.append(_fq_doubling_commuting(a, b, rng.randint(1, n // 2)))
    for dim in (2, 5, 11, 23, 41, 64):
        x = nrng.standard_normal((dim, dim))
        y = nrng.standard_normal((dim, max(1, dim // 2)))
        jobs.append(_fq_doubling_matrix(x @ x.T, y @ y.T, rng.randint(1, max(1, dim // 2))))
    for argv, golden in readme_commands():
        jobs.append(_fq_cli(argv, golden))
    return _mixed(jobs)


def readme_commands():
    """The README's command examples with their recorded stdout bytes."""
    lines = (GOLDENS / "commands.txt").read_text().splitlines()
    return [
        (shlex.split(line), (GOLDENS / f"{i:02d}.out").read_bytes())
        for i, line in enumerate(lines, start=1)
    ]


def _fq_build(fam, scale):
    desc = fam.desc if scale is None else f"scale:c={scale},({fam.desc})"

    def run(ctx):
        seq = st.make_family(desc)
        info = seq.summability()
        return info.classification, info.trace, seq.mu(1), seq.mu(100), seq.sigma(1000)

    def check(out):
        _attach(fam)
        c = 1 if scale is None else O.mpmath.mpf(scale)
        cls, trace, mu1, mu100, sig = out
        expect(cls == ("summable" if fam.summable else "non-summable"), f"{desc}: class {cls}")
        err = close(mu1, c * fam.mu(1), 1e-15, what="mu_1")
        err = max(err, close(mu100, c * fam.mu(100), 1e-14, what="mu_100"))
        err = max(err, close(sig, c * fam.sigma(1000), REL, what="sigma_1000"))
        if fam.summable:
            err = max(err, close(trace, c * fam.trace(), REL, what="trace"))
        return err

    return Job("make_family", run, check)


def _fq_sum(a, b, ns):
    def run(ctx):
        seq = st.pointwise_sum(st.make_family(a.desc), st.make_family(b.desc))
        return [seq.S(n) for n in ns]

    def check(out):
        _attach(a), _attach(b)
        err = 0.0
        for n, v in zip(ns, out):
            if a.summable and b.summable:
                want, floor = a.S(n) + b.S(n), _floor(a, n) + _floor(b, n)
            else:
                want, floor = a.sigma(n) + b.sigma(n), 0.0
            err = max(err, close(v, want, REL, floor, what=f"S_{n}(sum)"))
        return err

    return Job("pointwise_sum", run, check)


def _fq_values(vals, trace, ns):
    def run(ctx):
        seq = st.from_values(vals, trace=trace) if trace is not None else st.from_values(vals, summable=False)
        return [(seq.sigma(n), seq.S(n)) for n in ns]

    def check(out):
        err = 0.0
        for n, (sig, s) in zip(ns, out):
            want = math.fsum(vals[:n])
            err = max(err, close(sig, want, REL, what=f"sigma_{n}(values)"))
            want_s = want - O.mpmath.mpf(trace) if trace is not None else want
            floor = CANCEL * trace if trace is not None else 0.0
            err = max(err, close(s, want_s, REL, floor, what="S(values)"))
        return err

    return Job("from_values", run, check)


def _fq_huge(fam, n):
    def run(ctx):
        return st.make_family(fam.desc).S(n)

    return Job("S_huge", run, lambda v: _s_err(fam, n, v))


def _dixmier_oracle(a, t, omega):
    ratios = [a.S(2**k) / t.S(2**k) for k in range(1, omega + 1)]
    means, acc = [], O.mpmath.mpf(0)
    for j, r in enumerate(ratios, start=1):
        acc += r
        means.append(acc / j)
    tail = means[-max(1, omega // 4):]
    return acc / omega, max(tail) - min(tail), ratios


def _fq_dixmier(a, t, omega):
    def run(ctx):
        return st.dixmier_estimate(st.make_family(a.desc), st.make_family(t.desc), omega)

    def check(est):
        _attach(a), _attach(t)
        if not a.summable and t.summable:
            expect(est.infinite and est.value == math.inf, "expected the infinite verdict")
            return 0.0
        value, osc, ratios = _dixmier_oracle(a, t, omega)
        # summable numerators cancel for 2^k <= 2^16 and underflow far out
        floor = _floor(a, 2) / abs(t.S(2)) + 1e-300
        err = close(est.value, value, REL, floor, what="dixmier value")
        err = max(err, close(est.oscillation, osc, REL, REL * abs(value) + 2 * floor, ref=abs(value), what="oscillation"))
        for got, want in zip(est.ratios_tail, ratios[-5:]):
            err = max(err, close(got, want, REL, floor, ref=abs(value), what="ratio tail"))
        return err

    return Job("dixmier", run, check)


def _fq_additivity(a, b, t, omega):
    def run(ctx):
        return st.additivity_defect(
            st.make_family(a.desc), st.make_family(b.desc), st.make_family(t.desc), omega
        )

    def check(out):
        for f in (a, b, t):
            _attach(f)
        defect, bound = out
        mean = lambda f: O.mpmath.fsum(f.S(2**k) / t.S(2**k) for k in range(1, omega + 1)) / omega
        # S(A+B) = S(A) + S(B), so the defect is rounding in a difference of
        # estimates of this size
        size = abs(mean(a)) + abs(mean(b))
        err = close(defect, 0, 0, 1e-13 * size, ref=size, what="additivity defect")
        expect(defect <= bound + 1e-10, "defect exceeds its bound")
        return err

    return Job("additivity", run, check)


def _fq_dilation_defect(fam, omega):
    def run(ctx):
        return st.dilation_invariance_defect(st.make_family(fam.desc).S, omega)

    def check(out):
        _attach(fam)
        want = (fam.S(2 ** (omega + 1)) - fam.S(2)) / omega
        # two means of omega values up to |S(2^(omega+1))| each
        floor = 1e-13 * max(abs(fam.S(2 ** (omega + 1))), 1)
        err = close(out.defect, want, REL, floor, what="dilation defect")
        return max(err, close(out.telescoped, want, REL, what="telescoped"))

    return Job("dilation_defect", run, check)


def _fq_concavity(fam, n, k):
    def run(ctx):
        return st.concavity_interpolation_check(st.make_family(fam.desc), n, k)

    def check(out):
        _attach(fam)
        holds, residual = out
        s_n, s_2n, s_kn = fam.S(n), fam.S(2 * n), fam.S(k * n)
        want = s_2n - ((k - 2) * s_n + s_kn) / (k - 1)
        floor = 1e-12 * max(abs(s_kn), abs(s_n)) + 3 * _floor(fam, n)
        expect(holds and want >= -floor, "concavity must hold")
        return close(residual, want, REL, floor, ref=max(abs(s_kn), abs(s_n)), what="concavity residual")

    return Job("concavity", run, check)


def _fq_dilate(fam, k, horizon):
    def run(ctx):
        avg = st.averaged_operator(st.make_family(fam.desc), k, horizon)
        pair, report = st.k_dilation_with_checks(avg, k, horizon)
        return [pair.S.mu(n) for n in range(1, k * horizon + 1)], report

    def check(out):
        _attach(fam)
        mus, rep = out
        err, level = 0.0, 1
        while k ** (level - 1) < len(mus):
            # block k^(L-1) < n <= k^L holds the mean of mu over it
            lo, hi = k ** (level - 1), k**level
            want = (fam.S(hi) - fam.S(lo)) / (hi - lo)
            if want > 1e-280:
                floor = 2 * _floor(fam, hi) / (hi - lo)
                for n in range(lo + 1, min(hi, len(mus)) + 1):
                    err = max(err, close(mus[n - 1], want, 1e-9, floor, what=f"averaged mu_{n}"))
            level += 1
        mu = lambda n: mus[n - 1]
        e1 = [n for n in range(2, horizon + 1) if mu(n) < 2.0 * k * mu(k * (n - 1) + 1)][:256]
        e2 = [(n, j) for n in range(2, horizon + 1) for j in range(1, k + 1)
              if mu(n) / k < 2.0 * mu(k * (n - 1) + j)][:256]
        expect(rep.estimate_one_violations == e1, "estimate one violations")
        expect(rep.estimate_two_violations == e2, "estimate two violations")
        first = next((n for n in range(2, horizon + 1) if mu(n) == 0.0), None)
        expect(rep.first_underflow_n == first, "first underflow")
        return err

    return Job("averaged_dilation", run, check)


def _fq_domination(a, t, r, horizon):
    def run(ctx):
        return st.domination_test(st.make_family(a.desc), st.make_family(t.desc), r, horizon)

    def check(rep):
        ratios = [a.mu(r * (n - 1) + 1) / t.mu(n) for n in range(1, horizon + 1)]
        want = max(ratios)
        tenth = max(ratios[: max(1, horizon // 10)])
        expect(rep.bounded == (want <= tenth * O.mpmath.mpf(1.01)), "bounded flag")
        return close(rep.K_estimate, want, 1e-14, what="K estimate")

    return Job("domination", run, check)


def _fq_example4(q, s, r, method):
    def run(ctx):
        return st.reproduce(st.AqParams(q), s, r, method)

    def check(rep):
        ref = Fraction(1, 2**r) * (Fraction(q, 2**q - 1) + r)
        expect(rep.p == 2 ** (s * q + r), "cutoff p")
        err = close(rep.reference, ref, 1e-15, what="reference value")
        err = max(err, close(rep.estimate, O.cesaro(q, s * q + r), 1e-12, what=f"cesaro {method}"))
        expect(rep.error == abs(rep.estimate - rep.reference), "error field")
        return err

    return Job(f"example4_{method}", run, check)


def _fq_sigma_pow2(q, ms):
    def run(ctx):
        params = st.AqParams(q)
        return [st.aq_sigma_pow2(params, m) for m in ms]

    def check(out):
        return max(close(v, O.aq_sigma_pow2(q, m), 1e-15, 1e-15, what=f"sigma(2^{m})") for m, v in zip(ms, out))

    return Job("aq_sigma_pow2", run, check)


def _doubling_expect(sa, sb, s_n, s_2n):
    slack = 1e-10 * abs(s_2n)
    return s_n <= sa + sb + slack, sa + sb <= s_2n + slack


def _fq_doubling_commuting(a, b, n):
    def run(ctx):
        return st.doubling_inequality_check(a, b, n, "commuting")

    def check(out):
        spec = sorted((x + y for x, y in zip(a, b)), reverse=True)
        want = _doubling_expect(math.fsum(a[:n]), math.fsum(b[:n]), math.fsum(spec[:n]), math.fsum(spec[: 2 * n]))
        expect(tuple(out) == want == (True, True), f"commuting doubling {out} vs {want}")
        return 0.0

    return Job("doubling_commuting", run, check)


def _fq_doubling_matrix(ma, mb, n):
    def run(ctx):
        return st.doubling_inequality_check(ma, mb, n, "matrix")

    def check(out):
        ea, eb, es = O.spectrum(ma), O.spectrum(mb), O.spectrum(ma + mb)
        want = _doubling_expect(ea[:n].sum(), eb[:n].sum(), es[:n].sum(), es[: 2 * n].sum())
        expect(tuple(out) == want == (True, True), f"matrix doubling {out} vs {want}")
        # the spectra behind the verdict: singtrace's solver against eigvalsh
        got = st.eig_sym_small(ma + mb)
        scale = max(1.0, float(np.abs(es).max()))
        return max(close(g, w, 0, 1e-10 * scale, what="eigenvalue") for g, w in zip(got, es))

    return Job("doubling_matrix", run, check)


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout bytes). stderr is dropped."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = st.cli.main(list(argv))
    return code, buf.getvalue().encode()


def _fq_cli(argv, golden):
    def check(out):
        code, data = out
        expect(code == 0 and data == golden, f"`singtrace {shlex.join(argv)}` differs from its golden")
        return 0.0

    return Job("cli", lambda ctx: run_cli(argv), check)


def out_of_domain(seed):
    """Seeded requests whose correct outcome is a SingtraceError (CLI exit 1).

    Returns (label, outcome) pairs; ``outcome()`` runs the request and
    returns None when singtrace answers correctly, else what went wrong.
    They run untimed after the fresh_queries loop.
    """
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for _ in range(3):
        s = rng.randint(400, 2000)   # cesaro_block overflows a float past p = 2^1024
        out.append((f"cesaro_block(AqParams(3), {s}, 2)", _lib_request(st.cesaro_block, st.AqParams(3), s, 2)))
        argv = ["example4", "--q", "3", "--s", str(s), "--r", "2", "--method", "block"]
        out.append((f"singtrace {shlex.join(argv)}", _cli_request(argv)))
    desc = f"power:alpha={round(rng.uniform(0.1, 2.0), 3)}"
    out.append((f"make_family({desc!r})", _lib_request(st.make_family, desc)))
    desc = f"aq:q={rng.randint(11, 40)}"
    out.append((f"make_family({desc!r})", _lib_request(st.make_family, desc)))
    argv = ["pk", "--seq", f"geometric:r={round(rng.uniform(1.1, 3.0), 3)}"]
    out.append((f"singtrace {shlex.join(argv)}", _cli_request(argv)))
    return out


def _lib_request(fn, *args):
    def outcome():
        try:
            fn(*args)
        except st.SingtraceError:
            return None
        except Exception as exc:  # any other exception is the defect being counted
            return f"{type(exc).__name__}: {exc}"
        return "returned normally"

    return outcome


def _cli_request(argv):
    def outcome():
        try:
            code, _ = run_cli(argv)
        except Exception as exc:  # an uncaught exception is a traceback and exit 1
            return f"{type(exc).__name__}: {exc}"
        return None if code == 1 else f"exit code {code}"

    return outcome


def check_out_of_domain(seed):
    """Run the out-of-domain requests; returns (attempted, failure lines)."""
    requests = out_of_domain(seed)
    failures = [f"{label}: {msg}" for label, outcome in requests if (msg := outcome()) is not None]
    return len(requests), failures


# ---------------------------------------------------------------------------
# windows: window states over structured sets
# ---------------------------------------------------------------------------


SETS = ("squares", "dyadicblocks", "intervals")


def _intervals(rng):
    """About 2000 disjoint intervals covering [1, 2^25], gaps and lengths log-uniform."""
    out, hi = [], 0
    while hi < 2**25:
        lo = hi + 1 + int(2 ** rng.uniform(0, 16))
        hi = lo + int(2 ** rng.uniform(0, 16))
        out.append((lo, hi))
    return tuple(out)


def windows(seed):
    rng = random.Random(seed)
    ivals = _intervals(rng)
    specs = {kind: st.SetSpec(kind, ivals if kind == "intervals" else ()) for kind in SETS}
    jobs = []
    # ops from the top of the length grid down.  Each grid position has a
    # fixed op and set, so the largest jobs, and with them peak memory, do
    # not depend on the seed; window_mean, the cheapest per index, takes
    # the 2^20 window.
    ops = ("mean", "split", "probe", "equivalence")
    lengths = _grid(12, 20, 20)
    for j, length in enumerate(lengths):
        op = ops[(len(lengths) - 1 - j) % 4]
        kind = SETS[j % 3]
        n = _jit(rng, length)
        k = rng.randint(0, 2**24 if kind == "intervals" else 2**32)
        if op == "probe" and kind == "squares":
            r = rng.randint(1, 2**14)
            s = math.isqrt(r * r + n // 4) + 1
            k, n = (2 * r) ** 2, (2 * s) ** 2 - (2 * r) ** 2
        jobs.append(_win_long(op, kind, specs[kind], ivals, k, n, rng))
    # 80 short jobs of one fixed composition, so their latencies cluster and
    # the median job falls well inside the cluster.  With half the jobs long
    # it sat in the gap between short and long jobs, and with several kinds
    # of short job in the gap between two kinds; p50 then jumped from seed
    # to seed.
    for j in range(80):
        kind = SETS[j % 3]
        windows = []
        for _ in range(3):
            m = rng.randint(1, 2**16)
            windows.append((rng.randint(0, 62 - 24 - (2 * m - 1).bit_length()), 24, m))
        pairs = []
        for _ in range(64):
            m = rng.randint(1, 2**30)
            pairs.append((m, rng.randint(1, 63 - (2 * m - 1).bit_length())))
        jobs.append(_win_short(kind, specs[kind], ivals, windows, pairs))
    jobs.append(_win_cli_sweep())
    return _mixed(jobs)


def _exact_mean_checks(kind, ivals, k, n, est):
    want = O.hits(kind, k + 1, k + n, ivals)
    expect(est.hits == want, f"{kind} hits over ({k}, {k + n}]: {est.hits} vs {want}")
    expect(est.mean == float(Fraction(want, n)), "mean is not the exact ratio rounded once")
    osc = O.tail_oscillation(kind, k + 1, n, ivals)
    return close(est.oscillation, osc, 1e-12, 1e-15, what="oscillation")


def _win_long(op, kind, spec, ivals, k, n, rng):
    w = st.WindowState("translation", k=k, n=n)
    if op == "probe":
        def run(ctx):
            return st.ergodicity_probe(st.structured_set(spec), [w])

        def check(records):
            rec = records[0]
            err = _exact_mean_checks(kind, ivals, k, n, rec.estimate)
            shifted = O.hits(kind, k + 2, k + n + 1, ivals)
            defect = abs(Fraction(rec.estimate.hits - shifted, n))
            err = max(err, close(rec.translation_defect, defect, 1e-12, 1e-15, what="defect"))
            if kind == "squares":
                r, s = math.isqrt(k) // 2, math.isqrt(k + n) // 2
                cf = Fraction(s + r + 1, 2 * (s + r))
                expect(rec.closed_form == float(cf) and rec.closed_form_exact is True, "square-window rational")
                expect(Fraction(rec.estimate.hits, n) == cf, "square window count")
            if kind == "dyadicblocks":
                expect(rec.single_block == (k.bit_length() == (k + n - 1).bit_length()), "single_block")
            return err

        return Job("probe", run, check)
    if op == "mean":
        def run(ctx):
            return st.window_mean(st.structured_set(spec), w)

        return Job("window_mean", run, lambda est: _exact_mean_checks(kind, ivals, k, n, est))
    if op == "equivalence":
        l, p = k + rng.randint(0, 64), n + rng.randint(-64, 64)
        w2 = st.WindowState("translation", k=l, n=p)

        def run(ctx):
            return st.window_equivalence_defect(w, w2, st.structured_set(spec))

        def check(out):
            h1, h2 = O.hits(kind, k + 1, k + n, ivals), O.hits(kind, l + 1, l + p, ivals)
            defect = abs(Fraction(h1, n) - Fraction(h2, p))
            sup = 1 if h1 or h2 else 0
            bound = Fraction(sup * (2 * abs(k - l) + 2 * abs(p - n)), min(n, p))
            err = close(out[0], defect, 1e-12, 1e-15, what="equivalence defect")
            return max(err, close(out[1], bound, 1e-15, what="equivalence bound"))

        return Job("equivalence", run, check)
    lo, hi = k + 1, k + n
    cut1 = lo + rng.randint(0, n // 2)
    cut2 = cut1 + rng.randint(0, hi - cut1)
    parts = ((lo, cut1 - 1) if cut1 > lo else None, (cut1, cut2), (cut2 + 1, hi) if cut2 < hi else None)

    def run(ctx):
        return st.interval_split_check((lo, hi), parts, st.structured_set(spec))

    def check(residual):
        expect(abs(residual) <= 1e-12, f"split residual {residual}")
        return 0.0

    return Job("split", run, check)


def _win_short(kind, spec, ivals, windows, pairs):
    """Dyadic windows (k, n, m) over indices (2m-1) 2^(i-1), k < i <= k+n, each
    also as the translation window of the eta pullback, plus eta round trips."""
    def run(ctx):
        chi = st.structured_set(spec)
        means = []
        for k, n, m in windows:
            dyadic = st.window_mean(chi, st.WindowState("dyadic", k=k, n=n, m=m))
            pulled = st.window_mean(st.eta_pullback(chi, m), st.WindowState("translation", k=k, n=n))
            means.append((dyadic.hits, dyadic.mean, pulled.mean))
        js = [st.eta(m, n) for m, n in pairs]
        return means, js, [st.eta_inv(j) for j in js]

    def check(out):
        means, js, back = out
        for (hits, dyadic, pulled), (k, n, m) in zip(means, windows):
            want = sum(O.hits(kind, (2 * m - 1) * 2 ** (i - 1), (2 * m - 1) * 2 ** (i - 1), ivals)
                       for i in range(k + 1, k + n + 1))
            expect(hits == want and dyadic == float(Fraction(want, n)), f"dyadic window over {kind}")
            expect(pulled == dyadic, "eta transport identity")
        expect(js == [(2 * m - 1) * 2 ** (n - 1) for m, n in pairs], "eta values")
        expect(back == pairs, "eta_inv(eta(m, n)) != (m, n)")
        return 0.0

    return Job("short", run, check)


def _win_cli_sweep():
    def check(out):
        code, data = out
        expect(code == 0, f"exit code {code}")
        doc = json.loads(data)
        err = 0.0
        for win in doc["results"]["windows"]:
            k, n = win["k"], win["n"]
            want = O.hits("squares", k + 1, k + n)
            expect(win["hits"] == want, f"sweep hits at n = {n}")
            err = max(err, close(win["mean"], Fraction(want, n), 1e-11, what="sweep mean"))
        return err

    return Job("cli_state_sweep", lambda ctx: run_cli(["state", "--set", "squares"]), check)


WORKLOADS = {"pk_scan": pk_scan, "fresh_queries": fresh_queries, "windows": windows}
