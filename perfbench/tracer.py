"""Spans around singtrace's public functions, installed from outside the package.

:class:`Tracer` wraps functions where their callers look them up (every
module attribute bound to the original, so ``from .summation import
neumaier_sum`` in ``states`` is covered) and the ``S``/``sigma``/``mu``
methods of every sequence class that defines them.  A span records its
name, start, end, parent span and job; self time is its duration minus
the time of its child calls.  ``S``, ``sigma`` and ``mu`` run up to ~10^6
times per pass, so they are aggregated per parent name instead of kept
as spans.  Everything stays in memory until :meth:`Tracer.report`.

The benchmark runs each pass in a forked child: the child hands back
:meth:`Tracer.snapshot` and the parent adds it up with :meth:`Tracer.merge`.
Span ids are unique within a pass; the job field, (pass, index), tells
passes apart.
"""

from __future__ import annotations

import statistics
import sys
import time
import weakref
from array import array
from collections import defaultdict

# traced functions as <module>.<function>
FUNCTIONS = [
    "seqcore.make_family",
    "summation.neumaier_sum", "summation.neumaier_mean",
    "summation.running_means", "summation.oscillation_of_tail",
    "eccentric.extract_pk", "eccentric.analyze_eccentricity",
    "eccentric.doubling_inequality_check", "eccentric.concavity_interpolation_check",
    "eccentric.domination_test",
    "traces.dixmier_estimate", "traces.varga_estimate", "traces.additivity_defect",
    "traces.dilation_invariance_defect", "traces.k_dilation_with_checks",
    "states.ergodicity_probe", "states.window_mean",
    "states.window_equivalence_defect", "states.interval_split_check",
    "example4.cesaro_direct", "example4.cesaro_block", "example4.reproduce",
    "eigs.eig_sym_small",
    "cli.main",
]
MODULES = ("seqcore", "summation", "eccentric", "traces", "states", "example4", "eigs", "cli")
CLI_COMMANDS = ("analyze", "pk", "trace", "dilate", "state", "example4", "sweep")

# the spans reported per layer: FUNCTIONS, with S, sigma and mu added, S
# split by path, the doubling check by mode and cli.main by subcommand
REPORTED = [
    "seqcore.make_family", "seqcore.mu", "seqcore.sigma",
    "seqcore.S.direct_cold", "seqcore.S.direct_warm", "seqcore.S.large",
    "summation.neumaier_sum", "summation.neumaier_mean",
    "summation.running_means", "summation.oscillation_of_tail",
    "eccentric.extract_pk", "eccentric.analyze_eccentricity",
    "eccentric.doubling_inequality_check.commuting", "eccentric.doubling_inequality_check.matrix",
    "eccentric.concavity_interpolation_check", "eccentric.domination_test",
    "traces.dixmier_estimate", "traces.varga_estimate", "traces.additivity_defect",
    "traces.dilation_invariance_defect", "traces.k_dilation_with_checks",
    "states.ergodicity_probe", "states.window_mean",
    "states.window_equivalence_defect", "states.interval_split_check",
    "example4.cesaro_direct", "example4.cesaro_block", "example4.reproduce",
    "eigs.eig_sym_small",
] + [f"cli.main.{c}" for c in CLI_COMMANDS]
STATS = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"))
# indicator calls per window index are counted per outermost scope: an
# ergodicity_probe called directly, or the CLI's `state` sweep (its own
# doubling loop plus the probe it calls)
CHI_SCOPES = {"states.ergodicity_probe": "states.chi_calls_per_index",
              "cli.main.state": "cli.main.state.chi_calls_per_index"}
RATIOS = (
    ("seqcore.S.direct_warm.p99_us", "us"),
    ("eccentric.extract_pk.S_calls_per_p", "ratio"),
    ("states.chi_calls_per_index", "ratio"),
    ("cli.main.state.chi_calls_per_index", "ratio"),
    ("bench.tracing_overhead", "ratio"),
)


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{f}.{stat}", unit) for f in REPORTED for stat, unit in STATS]
    return out + list(RATIOS)


def _ratio(num, den):
    return num / den if den else 0.0


class _Stat:
    __slots__ = ("calls", "self_s", "durs")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durs = array("d")


class Tracer:
    def __init__(self):
        self.stack = []      # open frames: [name, child seconds, nearest span id]
        self.stats = defaultdict(_Stat)
        self.spans = []      # (id, name, start, end, parent span id, job)
        self.aggregated = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.job = None
        self.direct = None   # singtrace's direct-summation range for S_n
        self._next_id = 1
        self._undo = []
        self._seen = weakref.WeakSet()   # sequences whose S has been called
        self._chi_calls = 0
        self._scope = []          # [outermost scope name, chi calls at entry, depth]
        # chi.<scope> and indices.<scope>: indicator calls and window indices
        # handed to ergodicity_probe, per outermost scope; pk_S_calls: S calls
        # made directly by extract_pk; pk_scanned: indices p it scanned
        self.counts = defaultdict(int)

    # ---- installation -----------------------------------------------------
    def install(self, st):
        self.direct = sys.modules["singtrace.seqcore"].DIRECT_CAP
        mods = [st] + [sys.modules[f"singtrace.{m}"] for m in MODULES]
        for name in FUNCTIONS:
            mod, attr = name.split(".")
            orig = getattr(sys.modules[f"singtrace.{mod}"], attr)
            wrapper = self._wrap(orig, *self._naming(name))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapper)
        classes, todo = [], [st.SpectralSequence]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for meth, namer in (("S", self._s_name), ("sigma", "seqcore.sigma"), ("mu", "seqcore.mu")):
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrap(vars(cls)[meth], namer, aggregate=True))
        chi_call = st.IndicatorAccessor.__call__

        def counted(chi, i):
            self._chi_calls += 1
            return chi_call(chi, i)

        self._patch(st.IndicatorAccessor, "__call__", counted)

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def _patch(self, obj, key, new):
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, new)

    def _naming(self, name):
        """(namer, before, after) hooks for one traced function; the hooks
        get the span name, and ``after`` the call's arguments and result."""
        if name == "eccentric.doubling_inequality_check":
            def namer(args, kwargs):
                mode = args[3] if len(args) > 3 else kwargs.get("mode", "commuting")
                return f"{name}.{mode}"
            return namer, None, None
        if name == "cli.main":
            def namer(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                return f"cli.main.{argv[0]}"
            return namer, self._enter_scope, self._leave_scope
        if name == "states.ergodicity_probe":
            def after(span, args, kwargs, result):
                self.counts[f"indices.{self._scope[0]}"] += sum(w.n for w in args[1])
                self._leave_scope(span, args, kwargs, result)
            return name, self._enter_scope, after
        if name == "eccentric.extract_pk":
            def after(span, args, kwargs, result):
                if result is None:
                    return
                _, k_max, horizon = args
                done = len(result) == k_max - 1
                self.counts["pk_scanned"] += max(w.p for w in result) if done else horizon
            return name, None, after
        return name, None, None

    # chi calls are attributed to the outermost ergodicity_probe / cli.main
    def _enter_scope(self, span):
        if not self._scope:
            self._scope = [span, self._chi_calls, 0]
        self._scope[2] += 1

    def _leave_scope(self, span, args, kwargs, result):
        self._scope[2] -= 1
        if self._scope[2] == 0:
            self.counts[f"chi.{self._scope[0]}"] += self._chi_calls - self._scope[1]
            self._scope = []

    def _s_name(self, args, kwargs):
        seq, n = args[0], args[1]
        stack = self.stack
        if stack and stack[-1][0] == "eccentric.extract_pk":
            self.counts["pk_S_calls"] += 1
        if n > self.direct:
            return "seqcore.S.large"
        if seq in self._seen:
            return "seqcore.S.direct_warm"
        self._seen.add(seq)
        return "seqcore.S.direct_cold"

    def _wrap(self, fn, namer, before=None, after=None, aggregate=False):
        tracer = self
        clock = time.perf_counter
        fixed = namer if isinstance(namer, str) else None

        def wrapper(*args, **kwargs):
            name = fixed or namer(args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if aggregate:
                frame = [name, 0.0, parent[2] if parent else 0]
            else:
                frame = [name, 0.0, tracer._next_id]
                tracer._next_id += 1
            if before is not None:
                before(name)
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                stat = tracer.stats[name]
                stat.calls += 1
                stat.self_s += dur - frame[1]
                stat.durs.append(dur)
                if aggregate:
                    agg = tracer.aggregated[(parent[0] if parent else None, name)]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    tracer.spans.append(
                        (frame[2], name, t0, t1, parent[2] if parent else 0, tracer.job)
                    )
                if after is not None:   # result is None when fn raised
                    after(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- results ------------------------------------------------------------
    def metrics(self, passes: int, overhead: float) -> dict:
        """Per-layer metrics per pass, keyed as in :func:`metric_names`."""
        out = {}
        for f in REPORTED:
            stat = self.stats.get(f)
            durs = stat.durs if stat else ()
            out[f"{f}.calls"] = (stat.calls if stat else 0) / passes
            out[f"{f}.self_s"] = (stat.self_s if stat else 0.0) / passes
            out[f"{f}.p50_us"] = statistics.median(durs) * 1e6 if durs else 0.0
        warm = self.stats.get("seqcore.S.direct_warm")
        out["seqcore.S.direct_warm.p99_us"] = (
            statistics.quantiles(warm.durs, n=100)[98] * 1e6 if warm and len(warm.durs) > 1 else 0.0
        )
        out["eccentric.extract_pk.S_calls_per_p"] = _ratio(self.counts["pk_S_calls"], self.counts["pk_scanned"])
        for scope, metric in CHI_SCOPES.items():
            out[metric] = _ratio(self.counts[f"chi.{scope}"], self.counts[f"indices.{scope}"])
        out["bench.tracing_overhead"] = overhead
        return out

    def snapshot(self) -> dict:
        """Everything recorded so far, in picklable form."""
        return {
            "stats": {k: (v.calls, v.self_s, v.durs) for k, v in self.stats.items()},
            "spans": self.spans,
            "aggregated": dict(self.aggregated),
            "counts": dict(self.counts),
        }

    def merge(self, snap: dict):
        """Add up a :meth:`snapshot` taken in another process."""
        for name, (calls, self_s, durs) in snap["stats"].items():
            stat = self.stats[name]
            stat.calls += calls
            stat.self_s += self_s
            stat.durs.extend(durs)
        self.spans += snap["spans"]
        for key, (calls, secs) in snap["aggregated"].items():
            agg = self.aggregated[key]
            agg[0] += calls
            agg[1] += secs
        for key, value in snap["counts"].items():
            self.counts[key] += value

    def report(self) -> dict:
        return {
            "aggregated": [[p, n, c, s] for (p, n), (c, s) in sorted(self.aggregated.items(), key=str)],
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
        }
