#!/usr/bin/env python3
"""One-off measurements kept next to the benchmark, in ``context.json``.

    python3 perfbench/context.py

Times, once each and in a fresh process each, the pathological cases the
repeated runs leave out, measures the wall time of the tier-1 test suite
once, and records the environment.  Nothing here is gated; the traced
report of ``run.py --trace 1`` embeds the file as its ``context``.
Takes a few minutes.
"""

import json
import os
import re
import resource
import subprocess
import sys
import time

import run

CASES = {
    "pk powlog:alpha=1 horizon 65536": lambda st: _cli(
        st, ["pk", "--seq", "powlog:alpha=1", "--horizon", "65536"]
    ),
    "state dyadicblocks default sweep": lambda st: _cli(st, ["state", "--set", "dyadicblocks"]),
    "ergodicity_probe squares window 2^22": lambda st: st.ergodicity_probe(
        "squares", [st.WindowState("translation", k=0, n=1 << 22)]
    ),
    "eig_sym_small 64x64": lambda st: st.eig_sym_small(_symmetric(64)),
}


def _cli(st, argv):
    from workloads import run_cli

    code, _ = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")


def _symmetric(dim):
    import numpy as np

    x = np.random.default_rng(64).standard_normal((dim, dim))
    return x + x.T


def run_case(name):
    st = run.import_singtrace()
    t = time.perf_counter()
    CASES[name](st)
    seconds = time.perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"seconds": seconds, "peak_rss_mb": peak}))


def tier1():
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=run.ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t
    summary = [ln for ln in proc.stdout.splitlines() if re.search(r"\d+ (passed|failed)", ln)]
    return {"wall_s": wall, "summary": summary[-1] if summary else None}


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        run_case(sys.argv[2])
        return 0
    st = run.import_singtrace()
    cases = {}
    for name in CASES:
        out = subprocess.run(
            [sys.executable, __file__, "--case", name], cwd=run.ROOT,
            capture_output=True, text=True, check=True,
        ).stdout
        cases[name] = json.loads(out.strip().splitlines()[-1])
        print(f"{name}: {cases[name]}", file=sys.stderr)
    doc = {
        "environment": run.environment(st),
        "pathological": cases,
        "tier1": tier1(),
    }
    (run.HERE / "context.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
