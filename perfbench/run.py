#!/usr/bin/env python3
"""Closed-loop, single-client, in-process benchmark of singtrace.

    python3 perfbench/run.py --workload pk_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; singtrace is imported from ``src/``.
One client runs the seeded job list of a workload in passes until
``--seconds`` of pass time have elapsed, with no threads and
``SINGTRACE_THREADS`` removed from the environment.  Each pass runs in a
child forked from the set-up state, so every pass pays the cold costs a
one-shot caller pays.  The first pass is checked against the oracles
(``oracles.py``) after its timing; later passes must repeat it bit for bit.

Times are reported at reference speed: a pass's latencies are scaled by
REF_S over the best time of a fixed reference loop run between its jobs
(see :func:`reference`), which takes out the box's own drift in speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced (``tracer.py``) and prints the
per-layer metrics; the full report, with spans, environment and the
one-off measurements in ``context.json``, goes to ``perfbench/out/``.
The last line of stdout is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import dataclasses
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("pk_scan", "fresh_queries", "windows")
SETUP_PROBES = 3    # set-up probes after each pass
MIN_PASSES = 5
REF_S = 1e-3        # the reference loop's time at reference speed
REF_EVERY = 0.02    # seconds of jobs between two reference timings


def import_singtrace():
    if not (SRC / "singtrace" / "__init__.py").is_file():
        sys.exit(f"perfbench: no singtrace sources at {SRC}; run from a checkout root")
    os.environ.pop("SINGTRACE_THREADS", None)
    sys.path.insert(0, str(SRC))
    import singtrace

    return singtrace


def _reference_loop():
    # interpreter work of the kind singtrace does: float arithmetic, calls,
    # list and dict traffic; about 1 ms on a 2-core x86_64 box, Python 3.11
    acc, xs, d = 0.0, [], {}
    for i in range(1, 6600):
        x = 1.0 / i
        acc += x * x - math.log1p(x)
        xs.append(acc)
        d[i & 31] = x
    return acc + len(xs) + len(d)


def reference():
    """One timing of the reference loop, in seconds.

    The box's speed drifts by up to 2x over minutes, and no statistic
    within one run removes a slow spell that covers it.  Times are scaled
    by REF_S over the best reference timing taken among them, so a run
    reads the same whether the box is fast or slow.  Best against best:
    a job's best pass and the best reference timing both see the box when
    nothing slowed it down.
    """
    t = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t


def run_pass(jobs, pass_no=0, tracer=None):
    """One pass over ``jobs`` in this process.

    The reference loop runs before the first job and after every
    REF_EVERY seconds of jobs.  Returns (latencies, scale, outputs,
    raised): ``scale`` is REF_S over the pass's best reference timing;
    ``raised`` maps a job that raised to its traceback (its latency still
    counts).
    """
    clock = time.perf_counter
    ctx, lat, outs, raised = {}, [], [], {}
    refs, since = [reference()], 0.0
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (pass_no, idx)
        t = clock()
        try:
            out = job.run(ctx)
        except Exception:
            out = None
            raised[idx] = traceback.format_exc(limit=3)
        dt = clock() - t
        lat.append(dt)
        outs.append(out)
        since += dt
        if since >= REF_EVERY:
            refs.append(reference())
            since = 0.0
    refs.append(reference())
    return lat, REF_S / min(refs), outs, raised


def in_child(fn):
    """Run ``fn()`` in a child forked from this process; return its result."""
    sys.stdout.flush()
    sys.stderr.flush()
    rd, wr = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rd)
            with os.fdopen(wr, "wb") as fh:
                pickle.dump(fn(), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wr)
    with os.fdopen(rd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"pass process failed (wait status {status})")
    return pickle.loads(data)


def isolated_pass(jobs, pass_no, first=None, tracer=None):
    """One pass in a child forked from the set-up state.

    Nothing a pass leaves in the process, such as a module-level cache,
    reaches the next, so each pass pays what a fresh caller pays.  The
    child digests its outputs.  Without ``first`` it oracle-checks them
    and hands the digests back; with the first pass's digests it hands
    back only the jobs whose output differs, so the parent, and with it
    every later child, does not grow pass by pass.  It also hands back
    the tracer's records when tracing.
    """
    def body():
        t = time.perf_counter()
        lat, scale, outs, raised = run_pass(jobs, pass_no, tracer)
        res = {
            "wall": time.perf_counter() - t,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "lat": lat,
            "scale": scale,
            "raised": raised,
            "failed": [],
            "differs": [],
            "worst": (0.0, None),
        }
        digests = [None if i in raised else digest(out) for i, out in enumerate(outs)]
        if first is None:
            res["digests"] = digests
            res["failed"], res["worst"] = check_pass(jobs, outs, raised)
        else:
            res["differs"] = [i for i, d in enumerate(digests) if i not in raised and d != first[i]]
        if tracer is not None:
            res["trace"] = tracer.snapshot()
        return res

    return in_child(body)


def run_passes(jobs, seconds, tracer=None, first=None, start=0, between=None):
    """Isolated passes until ``seconds`` of pass time, and at least
    MIN_PASSES.  Without ``first`` digests, the first pass here is the one
    oracle-checked and the others are compared with it.  ``between()``, if
    given, runs after each pass."""
    passes = []
    while sum(p["wall"] for p in passes) < seconds or len(passes) < MIN_PASSES:
        res = isolated_pass(jobs, start + len(passes), first, tracer)
        if first is None:
            first = res["digests"]
        passes.append(res)
        if between is not None:
            between()
    return passes


def digest(x):
    """Bit-exact, comparable form of a job output."""
    if isinstance(x, float):
        return x.hex()
    if x is None or isinstance(x, (bool, int, str, bytes)):
        return x
    if isinstance(x, (list, tuple)):
        return [digest(v) for v in x]
    if dataclasses.is_dataclass(x):
        # runtime_ms (example4 reports) is a timing, not a result
        return {f.name: digest(getattr(x, f.name)) for f in dataclasses.fields(x) if f.name != "runtime_ms"}
    if hasattr(x, "tolist"):
        return digest(x.tolist())
    if hasattr(x, "descriptor"):
        return x.descriptor
    return repr(x)


def check_pass(jobs, outs, raised):
    """Oracle-check one pass's outputs; returns (failures, (worst error, kind))."""
    import oracles

    oracles.load()
    failed, worst = [], (0.0, None)
    for i, (job, out) in enumerate(zip(jobs, outs)):
        if i in raised:
            continue
        try:
            worst = max(worst, (job.check(out), job.kind), key=lambda w: w[0])
        except oracles.CheckFailed as exc:
            failed.append(f"pass 0 job {i} ({job.kind}): {exc}")
        except Exception:  # an output the oracle cannot read is a wrong output
            failed.append(f"pass 0 job {i} ({job.kind}): check raised\n{traceback.format_exc(limit=3)}")
    return failed, worst


def failures(jobs, passes):
    """Oracle failures of the first pass, every job that raised, and every
    output of a later pass that differs from the first."""
    failed = []
    for p, res in enumerate(passes):
        failed += res["failed"]
        failed += [f"pass {p} job {i} ({jobs[i].kind}): raised\n{tb}" for i, tb in sorted(res["raised"].items())]
        failed += [f"pass {p} job {i} ({jobs[i].kind}): differs from pass 0" for i in res["differs"]]
    return failed


def setup_probes(workload, seed, count):
    """Wall times of ``count`` fresh processes from start to the first job,
    with the reference timings taken between them."""
    times, refs = [], []
    for _ in range(count):
        refs += [reference() for _ in range(3)]
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT, env=os.environ.copy(),
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t)
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
    return times, refs + [reference() for _ in range(3)]


def environment(st):
    import mpmath
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "singtrace": st.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def job_best(passes):
    """Each job's fastest latency over the passes, at reference speed.

    The box's speed also swings by a third within seconds; a job's best
    pass is its cost when it was not slowed down, as ``timeit`` reports
    it.  The rate and the percentiles are taken over these.
    """
    return [min(p["lat"][i] * p["scale"] for p in passes) for i in range(len(passes[0]["lat"]))]


def quantile(values, q):
    """The Harrell-Davis estimate of the q-th percentile.

    It is a Beta-weighted mean of all order statistics, centred on the
    q-th.  Job costs come in clusters with gaps between them, and a single
    order statistic jumped across a gap when a few jobs changed rank from
    seed to seed; the weighted mean moves smoothly instead.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n, p = len(xs), q / 100
    weights = np.diff(betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n))
    return float(weights @ xs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        # one process per workload, so set-up and peak memory stay per workload
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                return 1
        return 0

    st = import_singtrace()
    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        return traced_run(st, args, jobs)

    # set-up: the best probe, scaled by REF_S over the best reference timing
    # among the probes; both are spread over the whole run, as the passes are
    probes, refs = [], []

    def probe():
        times, ref = setup_probes(args.workload, args.seed, SETUP_PROBES)
        probes.extend(times)
        refs.extend(ref)

    passes = run_passes(jobs, args.seconds, between=probe)
    failed = failures(jobs, passes)
    setup_s = min(probes) * REF_S / min(refs)
    attempted = len(jobs) * len(passes)
    per_job = job_best(passes)
    speed = [p["scale"] for p in passes]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(jobs) / sum(per_job), "1/s"),
        "job_p50_ms": (quantile(per_job, 50) * 1e3, "ms"),
        "job_p90_ms": (quantile(per_job, 90) * 1e3, "ms"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    worst = passes[0]["worst"]
    info = {
        "error_rate": (len(failed) / attempted, "1"),
        "oracle_rel_err_max": (worst[0], f"1  (job kind {worst[1]})"),
        "box_speed": (statistics.median(speed), f"1  (REF_S over best reference time per pass; {min(speed):.3g}-{max(speed):.3g})"),
    }
    print(f"workload {args.workload}  seed {args.seed}  jobs {attempted} "
          f"({len(passes)} passes of {len(jobs)})  failed {len(failed)}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"  {name:<22} {value:.6g} {unit}")
    if args.workload == "fresh_queries":
        tried, ood = workloads.check_out_of_domain(args.seed)
        print(f"  {'ood_error_rate':<22} {len(ood) / tried:.6g} 1  "
              f"({len(ood)} of {tried} out-of-domain requests not answered with SingtraceError)")
        for line in ood:
            print(f"    {line}")
    for line in failed[:20]:
        print(f"  FAILED {line}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(st, args, jobs):
    import tracer as tracing

    half = args.seconds / 2
    plain = run_passes(jobs, half)
    rate = len(jobs) / sum(job_best(plain))
    tr = tracing.Tracer()
    tr.install(st)
    try:
        # the children record; their records are merged once all have run
        traced = run_passes(jobs, half, tracer=tr, first=plain[0]["digests"], start=len(plain))
    finally:
        tr.uninstall()
    for res in traced:
        tr.merge(res["trace"])
    t_rate = len(jobs) / sum(job_best(traced))
    overhead = t_rate / rate
    # traced passes are held to the untraced first pass: tracing changes no result
    failed = failures(jobs, plain + traced)
    layer = tr.metrics(len(traced), overhead)
    units = dict(tracing.metric_names())

    OUT.mkdir(exist_ok=True)
    context = HERE / "context.json"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(st),
        "context": json.loads(context.read_text()) if context.is_file() else None,
        "untraced": {"jobs": len(jobs) * len(plain), "passes": len(plain), "jobs_per_s": rate},
        "traced": {"jobs": len(jobs) * len(traced), "passes": len(traced), "jobs_per_s": t_rate},
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in layer.items()},
        "failures": failed,
        **tr.report(),
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  traced passes {len(traced)}  "
          f"tracing_overhead {overhead:.3f}  report {path.relative_to(ROOT)}")
    for line in failed[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs) * (len(plain) + len(traced)),
        "failed": len(failed),
        "metrics": report["per_layer"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
