"""Command-line front end: parse descriptors, dispatch, emit JSON/CSV.

Output is deterministic: identical argv produces byte-identical output.
All numbers are printed with 12 significant digits, every JSON document
has the shape {"command", "params", "results", "diagnostics"}, and the
diagnostics always carry the horizon/cutoff and oscillation behind each
reported number.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import example4 as ex4
from . import traces
from .eccentric import analyze_eccentricity, extract_pk
from .errors import ParameterError, SingtraceError
from .seqcore import make_family
from .states import WindowState, ergodicity_probe, structured_set
from .summation import running_means

_EXAMPLE4_HEADER = ["q", "s", "r", "p", "estimate", "reference", "error"]


def _round12(x):
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            return None
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    return x


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


class UsageError(Exception):
    pass


def _emit(doc: dict, csv_rows, args) -> None:
    if args.format == "json":
        payload = json.dumps(_round12(doc), indent=2) + "\n"
    else:
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        payload = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# the longest window `state` evaluates, per index; also the default sweep's top
STATE_WINDOW_BUDGET = 1 << 24


def _parse_window(args) -> WindowState:
    """The window of --window or --window-square, refused before any index
    is evaluated when it is longer than STATE_WINDOW_BUDGET."""
    if args.window_square:
        r, s = _parse_ints(args.window_square, ("r", "s"))
        if not 0 < r < s:
            raise UsageError(f"--window-square needs 0 < r < s, got r={r}, s={s}")
        mode, k, n, m = "translation", (2 * r) ** 2, (2 * s) ** 2 - (2 * r) ** 2, 1
    elif args.window:
        mode, m = args.mode, args.m
        k, n = _parse_ints(args.window, ("k", "n"))
    else:
        raise UsageError("state needs either --window k=..,n=.. or --window-square r=..,s=..")
    if n > STATE_WINDOW_BUDGET:
        raise ParameterError(
            f"window length {n} exceeds the state budget of {STATE_WINDOW_BUDGET} indices"
        )
    return WindowState(mode, k=k, n=n, m=m)


def _parse_ints(text: str, keys) -> list:
    params = _parse_kv(text, keys)
    try:
        return [int(params[key]) for key in keys]
    except ValueError as exc:
        raise UsageError(f"expected integer {','.join(keys)}, got {text!r}") from exc


def _parse_kv(text: str, keys) -> dict:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    out = {}
    if all("=" in p for p in parts):
        for p in parts:
            key, _, val = p.partition("=")
            out[key.strip()] = val.strip()
    elif len(parts) == len(keys):
        out = dict(zip(keys, parts))
    else:
        raise UsageError(f"expected {','.join(keys)} pairs, got {text!r}")
    missing = [k for k in keys if k not in out]
    if missing:
        raise UsageError(f"missing {missing} in {text!r}")
    return out


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> None:
    seq = make_family(args.seq)
    report = analyze_eccentricity(seq, args.horizon, args.eps)
    doc = {
        "command": "analyze",
        "params": {"seq": args.seq, "horizon": args.horizon, "eps": args.eps},
        "results": {
            "verdict": report.verdict,
            "best_deviation": report.best_deviation,
            "best_n": report.best_n,
            "trajectory": [[n, r] for n, r in report.trajectory],
            "witnesses": [
                {
                    "k": w.k,
                    "p": w.p,
                    "deviation_2": w.deviation_2,
                    "deviation_k": w.deviation_k,
                    "bound_ok": w.bound_ok,
                }
                for w in report.witnesses
            ],
        },
        "diagnostics": {
            "horizon": report.horizon,
            "epsilon": report.epsilon,
            "degenerate_points": report.degenerate_points,
        },
    }
    _emit(doc, (["n", "ratio"], report.trajectory), args)


def _cmd_pk(args) -> None:
    seq = make_family(args.seq)
    witnesses = extract_pk(seq, args.kmax, args.horizon)
    found_k = {w.k for w in witnesses}
    doc = {
        "command": "pk",
        "params": {"seq": args.seq, "kmax": args.kmax, "horizon": args.horizon},
        "results": {
            "witnesses": [
                {
                    "k": w.k,
                    "p": w.p,
                    "deviation_2": w.deviation_2,
                    "deviation_k": w.deviation_k,
                    "derived_bound": w.derived_bound,
                    "bound_ok": w.bound_ok,
                }
                for w in witnesses
            ],
            "absent": [k for k in range(2, args.kmax + 1) if k not in found_k],
        },
        "diagnostics": {"horizon": args.horizon},
    }
    rows = [
        (w.k, w.p, w.deviation_2, w.deviation_k, w.bound_ok) for w in witnesses
    ]
    _emit(doc, (["k", "p", "deviation_2", "deviation_k", "bound_ok"], rows), args)


def _estimate_doc(command, params, est) -> dict:
    return {
        "command": command,
        "params": params,
        "results": {
            "value": None if est.infinite else est.value,
            "infinite": est.infinite,
            "method": est.method,
        },
        "diagnostics": {
            "cutoff": est.cutoff,
            "oscillation": est.oscillation,
            "ratios_tail": est.ratios_tail,
            "low_confidence": est.low_confidence,
        },
    }


def _cmd_trace(args) -> None:
    a_seq = make_family(args.a)
    t_seq = make_family(args.t)
    if args.kind == "dixmier":
        est = traces.dixmier_estimate(a_seq, t_seq, args.omega)
        params = {"a": args.a, "t": args.t, "omega": args.omega}
    else:
        est = traces.varga_estimate(a_seq, t_seq, args.kmax, args.horizon)
        params = {"a": args.a, "t": args.t, "kmax": args.kmax, "horizon": args.horizon}
    rows = list(enumerate(running_means(est.samples), start=1))
    doc = _estimate_doc(f"trace {args.kind}", params, est)
    _emit(doc, (["omega", "mean"], rows), args)


def _cmd_dilate(args) -> None:
    seq = make_family(args.seq)
    averaged = traces.averaged_operator(seq, args.k, args.horizon)
    pair, report = traces.k_dilation_with_checks(averaged, args.k, args.horizon)
    doc = {
        "command": "dilate",
        "params": {"seq": args.seq, "k": args.k, "horizon": args.horizon},
        "results": {
            "estimate_one_holds": report.estimate_one_holds,
            "estimate_two_holds": report.estimate_two_holds,
            "estimate_one_violations": report.estimate_one_violations[:32],
            "estimate_two_violations": [
                list(v) for v in report.estimate_two_violations[:32]
            ],
        },
        "diagnostics": {
            "k": report.k,
            "horizon": report.horizon,
            "first_underflow_n": report.first_underflow_n,
            "averaged_mu_head": [pair.S.mu(n) for n in range(1, 9)],
        },
    }
    e1 = set(report.estimate_one_violations)
    e2 = {n for n, _ in report.estimate_two_violations}
    rows = ((n, n not in e1, n not in e2) for n in range(2, args.horizon + 1))
    _emit(doc, (["n", "estimate_one_ok", "estimate_two_ok"], rows), args)


def _cmd_state(args) -> None:
    chi = structured_set(args.set)
    if args.window or args.window_square:
        records = ergodicity_probe(chi, [_parse_window(args)])
        sweep_note = None
    else:
        # default sweep: double the window until the mean moves < 1e-3
        records = []
        n = 1 << 10
        prev = None
        while n <= STATE_WINDOW_BUDGET:
            (rec,) = ergodicity_probe(chi, [WindowState("translation", k=args.k0, n=n)])
            records.append(rec)
            mean = rec.estimate.mean
            if prev is not None and abs(mean - prev) < 1e-3:
                break
            prev = mean
            n <<= 1
        sweep_note = "window doubled until the mean moved less than 1e-3"
    doc = {
        "command": "state",
        "params": {"set": args.set},
        "results": {
            "windows": [
                {
                    "mode": rec.window.mode,
                    "k": rec.window.k,
                    "m": rec.window.m,
                    "n": rec.window.n,
                    "mean": rec.estimate.mean,
                    "hits": rec.estimate.hits,
                    "oscillation": rec.estimate.oscillation,
                    "translation_defect": rec.translation_defect,
                    "closed_form": rec.closed_form,
                    "closed_form_exact": rec.closed_form_exact,
                    "single_block": rec.single_block,
                }
                for rec in records
            ],
        },
        "diagnostics": {"sweep": sweep_note},
    }
    rows = [
        (
            rec.window.mode,
            rec.window.k,
            rec.window.m,
            rec.window.n,
            rec.estimate.mean,
            rec.estimate.oscillation,
            rec.translation_defect,
            "" if rec.closed_form is None else rec.closed_form,
        )
        for rec in records
    ]
    header = ["mode", "k", "m", "n", "mean", "oscillation", "defect", "closed_form"]
    _emit(doc, (header, rows), args)


def _emit_rows(command, params, header, rows, diagnostics, args) -> None:
    doc = {
        "command": command,
        "params": params,
        "results": {"rows": [dict(zip(header, row)) for row in rows]},
        "diagnostics": diagnostics,
    }
    _emit(doc, (header, rows), args)


def _example4_rows(q: int, r: int, s_values, method: str) -> list:
    """One row per s, run only after every job has passed reproduce's checks."""
    params = ex4.AqParams(q)
    for s in s_values:
        ex4.check_request(params, s, r, method)
    reports = [ex4.reproduce(params, s, r, method) for s in s_values]
    return [tuple(getattr(rep, key) for key in _EXAMPLE4_HEADER) for rep in reports]


def _cmd_example4(args) -> None:
    if args.sweep:
        s_values = sorted(_int_list(args.sweep))
        rows = _example4_rows(args.q, args.r, s_values, args.method)
        params = {"q": args.q, "r": args.r, "sweep": s_values, "method": args.method}
        _emit_rows("example4", params, _EXAMPLE4_HEADER, rows, {"method": args.method}, args)
        return
    rep = ex4.reproduce(ex4.AqParams(args.q), args.s, args.r, args.method)
    doc = {
        "command": "example4",
        "params": {"q": args.q, "s": args.s, "r": args.r, "method": args.method},
        "results": {
            "estimate": rep.estimate,
            "reference": rep.reference,
            "error": rep.error,
            "t": rep.t,
        },
        "diagnostics": {"p": rep.p, "method": rep.method},
    }
    rows = [tuple(getattr(rep, key) for key in _EXAMPLE4_HEADER)]
    _emit(doc, (_EXAMPLE4_HEADER, rows), args)


def _cmd_sweep(args) -> None:
    # sweeps run serially; "threads" stays in their diagnostics so the
    # documents keep their bytes
    if args.task == "example4":
        if not args.s_list:
            raise UsageError("sweep --task example4 needs --s-list")
        s_values = sorted(_int_list(args.s_list))
        rows = _example4_rows(args.q, args.r, s_values, args.method)
        params = {"task": "example4", "q": args.q, "r": args.r,
                  "s_list": s_values, "method": args.method}
        _emit_rows("sweep", params, _EXAMPLE4_HEADER, rows, {"threads": 1}, args)
        return
    if args.task == "dixmier":
        if not (args.a and args.t and args.omega_list):
            raise UsageError("sweep --task dixmier needs --a, --t and --omega-list")
        omegas = sorted(_int_list(args.omega_list))
        a_seq, t_seq = make_family(args.a), make_family(args.t)
        rows = []
        for omega in omegas:
            est = traces.dixmier_estimate(a_seq, t_seq, omega)
            rows.append((omega, None if est.infinite else est.value, est.oscillation))
        params = {"task": "dixmier", "a": args.a, "t": args.t, "omega_list": omegas}
        header = ["omega", "value", "oscillation"]
        _emit_rows("sweep", params, header, rows, {"threads": 1}, args)
        return
    raise UsageError(f"unknown sweep task {args.task!r}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singtrace",
        description="Finite-cutoff singular-trace estimators for eigenvalue sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("analyze", help="classify a sequence via the S_2n/S_n trajectory")
    p.add_argument("--seq", required=True, help="sequence descriptor")
    p.add_argument("--horizon", type=int, default=1 << 20)
    p.add_argument("--eps", type=float, default=0.05)
    add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pk", help="extract witness indices p_k")
    p.add_argument("--seq", required=True)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--horizon", type=int, default=1 << 16)
    add_common(p)
    p.set_defaults(func=_cmd_pk)

    p = sub.add_parser("trace", help="finite-cutoff trace estimates")
    tsub = p.add_subparsers(dest="kind", required=True)
    for kind in ("dixmier", "varga"):
        tp = tsub.add_parser(kind)
        tp.add_argument("--a", required=True, help="numerator sequence descriptor")
        tp.add_argument("--t", required=True, help="reference sequence descriptor")
        if kind == "dixmier":
            tp.add_argument("--omega", type=int, default=1000)
        else:
            tp.add_argument("--kmax", type=int, default=4)
            tp.add_argument("--horizon", type=int, default=1 << 16)
        add_common(tp)
        tp.set_defaults(func=_cmd_trace)

    p = sub.add_parser("dilate", help="block averaging and k-dilation with checks")
    p.add_argument("--seq", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--horizon", type=int, default=1000)
    add_common(p)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("state", help="finite-window means of structured sets")
    p.add_argument("--set", required=True, help="squares | dyadicblocks | intervals:file=<path>")
    p.add_argument("--window", default=None, help="k=<int>,n=<int>")
    p.add_argument("--window-square", default=None, help="r=<int>,s=<int>")
    p.add_argument("--mode", choices=("translation", "dyadic"), default="translation")
    p.add_argument("--m", type=int, default=1, help="odd-part selector for dyadic windows")
    p.add_argument("--k0", type=int, default=0, help="start offset for the default sweep")
    add_common(p)
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("example4", help="Cesaro benchmark for the aq family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", choices=("direct", "block"), default="direct")
    p.add_argument("--sweep", default=None, help="comma-separated s values")
    add_common(p)
    p.set_defaults(func=_cmd_example4)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("--task", choices=("example4", "dixmier"), required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s-list", default=None)
    p.add_argument("--method", choices=("direct", "block"), default="direct")
    p.add_argument("--a", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--omega-list", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "example4" and not args.sweep and args.s is None:
            raise UsageError("example4 needs --s (or --sweep)")
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SingtraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
