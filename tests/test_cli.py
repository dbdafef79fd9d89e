"""CLI dispatch, report schema, determinism and exit codes."""

import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from singtrace import cli
from singtrace import example4 as ex4
from singtrace.cli import main
from singtrace.states import IndicatorAccessor


def run_cli(*argv, capsys=None):
    """Invoke main() in-process and capture stdout/stderr."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_json_verdict(capsys):
    code, out, _ = run_cli(
        "analyze", "--seq", "harmonic", "--horizon", "1048576", "--eps", "0.05",
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc.keys()) == ["command", "diagnostics", "params", "results"]
    assert doc["results"]["verdict"] == "eccentric-within-horizon"
    assert doc["diagnostics"]["horizon"] == 1048576


def test_example4_json(capsys):
    code, out, _ = run_cli("example4", "--q", "1", "--s", "14", "--r", "1", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["reference"] == 1.0
    assert doc["results"]["error"] <= 0.05
    assert doc["diagnostics"]["p"] == 1 << 15


def test_state_square_window_value(capsys):
    code, out, _ = run_cli(
        "state", "--set", "squares", "--window-square", "r=2,s=10", capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    window = doc["results"]["windows"][0]
    assert window["mean"] == 0.541666666667  # 12 significant digits
    assert window["closed_form_exact"] is True


def test_trace_dixmier_json_and_infinite(capsys):
    code, out, _ = run_cli(
        "trace", "dixmier", "--a", "harmonic", "--t", "logstep", "--omega", "200",
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["infinite"] is False
    assert 1.0 < doc["results"]["value"] < 1.1
    assert "oscillation" in doc["diagnostics"]

    code, out, _ = run_cli(
        "trace", "dixmier", "--a", "harmonic", "--t", "geometric:r=0.5",
        "--omega", "20", capsys=capsys,
    )
    doc = json.loads(out)
    assert doc["results"]["infinite"] is True
    assert doc["results"]["value"] is None


def test_trace_dixmier_rows_reuse_the_estimate(capsys, monkeypatch):
    # the running-mean rows come from the estimate's own samples: one S call
    # per sequence and window index
    from singtrace.seqcore import SpectralSequence

    calls = 0
    base_S = SpectralSequence.S

    def counted(seq, n):
        nonlocal calls
        calls += 1
        return base_S(seq, n)

    monkeypatch.setattr(SpectralSequence, "S", counted)
    code, out, _ = run_cli(
        "trace", "dixmier", "--a", "harmonic", "--t", "logstep", "--omega", "50",
        "--format", "csv", capsys=capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 51  # header and one row per omega
    assert calls == 2 * 50


def test_trace_varga(capsys):
    code, out, _ = run_cli(
        "trace", "varga", "--a", "power:alpha=-2", "--t", "harmonic",
        "--kmax", "4", "--horizon", "65536", capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["value"]) <= 0.02


def test_dilate(capsys):
    code, out, _ = run_cli(
        "dilate", "--seq", "geometric:r=0.25", "--k", "2", "--horizon", "500",
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["estimate_one_holds"] is True
    assert doc["results"]["estimate_two_holds"] is True


def test_pk_csv_format(capsys):
    code, out, _ = run_cli(
        "pk", "--seq", "harmonic", "--kmax", "2", "--horizon", "65536",
        "--format", "csv", capsys=capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,p,deviation_2,deviation_k,bound_ok"
    assert lines[1].startswith("2,8,")


def test_analyze_csv_trajectory(capsys):
    code, out, _ = run_cli(
        "analyze", "--seq", "harmonic", "--horizon", "1024", "--format", "csv",
        capsys=capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)


def test_sweep_rows_sorted(capsys):
    code, out, _ = run_cli(
        "sweep", "--task", "example4", "--q", "1", "--r", "1",
        "--s-list", "11,8,14", "--format", "csv", capsys=capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,s,r,p,estimate,reference,error"
    s_values = [int(line.split(",")[1]) for line in lines[1:]]
    assert s_values == [8, 11, 14]


def test_sweep_dixmier(capsys):
    code, out, _ = run_cli(
        "sweep", "--task", "dixmier", "--a", "harmonic", "--t", "logstep",
        "--omega-list", "100,10", capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    omegas = [row["omega"] for row in doc["results"]["rows"]]
    assert omegas == [10, 100]


def test_determinism_byte_identical():
    cmd = [
        sys.executable, "-m", "singtrace.cli",
        "analyze", "--seq", "powlog:alpha=1", "--horizon", "65536",
    ]
    first = subprocess.run(cmd, capture_output=True).stdout
    second = subprocess.run(cmd, capture_output=True).stdout
    assert first == second and first


def test_out_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        "example4", "--q", "2", "--s", "5", "--r", "2", "--out", str(target),
        capsys=capsys,
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "example4"


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(
        "state", "--set", "squares", "--window-square", "r=5,s=100", capsys=capsys
    )
    doc = json.loads(out)
    mean = doc["results"]["windows"][0]["mean"]
    assert mean == float(f"{106 / 210:.12g}")


def test_exit_codes(capsys):
    # domain error: 1
    code, _, err = run_cli("analyze", "--seq", "bogus", capsys=capsys)
    assert code == 1 and "unknown sequence family" in err
    # usage error: 2
    assert main(["analyze"]) == 2
    assert main(["not-a-command"]) == 2
    code, _, err = run_cli("state", "--set", "squares", capsys=capsys)  # missing window is fine: sweep
    assert code == 0
    code, _, err = run_cli(
        "example4", "--q", "3", "--s", "341", "--r", "1", "--method", "block",
        capsys=capsys,
    )
    assert code == 1 and "float range" in err


def test_witnesses_past_the_end_of_finite_data(tmp_path, capsys):
    # S_p and S_2p define a witness; where k*p lies past the data, the
    # k-step check is null instead of dropping the witness or failing
    values = [1.0] * 400 + [1e-12] * 600
    path = tmp_path / "short.txt"
    path.write_text("# trace=nonsummable\n" + "".join(f"{v!r}\n" for v in values))
    sums = [math.fsum(values[:n]) for n in range(len(values) + 1)]
    expected = {
        k: min(p for p in range(1, 501) if abs(1.0 - sums[2 * p] / sums[p]) <= 1.0 / k**2)
        for k in range(2, 7)
    }
    assert expected == {2: 321, 3: 361, 4: 377, 5: 385, 6: 390}

    code, out, _ = run_cli(
        "pk", "--seq", f"file:{path}", "--kmax", "6", "--horizon", "500", capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["absent"] == []
    witnesses = doc["results"]["witnesses"]
    assert {w["k"]: w["p"] for w in witnesses} == expected
    for w in witnesses:
        assert (w["deviation_k"] is None) == (w["k"] * w["p"] > len(values))
        assert (w["bound_ok"] is None) == (w["deviation_k"] is None)
    assert witnesses[0]["bound_ok"] is True

    code, out, _ = run_cli(
        "pk", "--seq", f"file:{path}", "--kmax", "6", "--horizon", "500",
        "--format", "csv", capsys=capsys,
    )
    assert code == 0
    assert out.splitlines()[2] == "3,361,0.108033240998,None,None"

    code, out, _ = run_cli(
        "analyze", "--seq", f"file:{path}", "--horizon", "500", "--eps", "0.05",
        capsys=capsys,
    )
    assert code == 0
    assert any(w["deviation_k"] is None for w in json.loads(out)["results"]["witnesses"])

    # varga samples only at the witness whose k*p lies inside the data
    code, out, _ = run_cli(
        "trace", "varga", "--a", f"file:{path}", "--t", f"file:{path}",
        "--kmax", "6", "--horizon", "500", capsys=capsys,
    )
    assert code == 0
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["cutoff"] == [2 * expected[2]]
    assert diagnostics["low_confidence"] is True


def test_example4_direct_beyond_float_range_exits_1(capsys):
    code, out, err = run_cli(
        "example4", "--q", "2000", "--s", "0", "--r", "1", "--method", "direct",
        capsys=capsys,
    )
    assert code == 1 and out == "" and "float range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--task", "example4", "--q", "3", "--r", "1", "--s-list", "6,7,8,9"],
        ["example4", "--q", "3", "--r", "1", "--sweep", "9,6,7,8"],
        ["example4", "--q", "3", "--r", "1", "--sweep", "8,341", "--method", "block"],
    ],
)
def test_example4_sweeps_check_every_job_first(argv, monkeypatch, capsys):
    # the last job is invalid (p = 2^28 over the direct guard, or beyond the
    # block path's float range), so no job may run
    calls = []

    def counting(*job):
        calls.append(job)
        return 0.0

    monkeypatch.setattr(ex4, "cesaro_direct", counting)
    monkeypatch.setattr(ex4, "cesaro_block", counting)
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 1 and out == ""
    assert calls == []


def test_state_window_arguments_fail_fast(tmp_path, capsys):
    for flag, value in (("--window", "k=x,n=10"), ("--window-square", "r=a,s=3")):
        code, out, err = run_cli("state", "--set", "squares", flag, value, capsys=capsys)
        assert code == 2 and out == "" and "Traceback" not in err
    # m = 0 is not silently replaced by 1
    code, out, err = run_cli(
        "state", "--set", "squares", "--window", "k=0,n=10", "--m", "0", capsys=capsys
    )
    assert code == 1 and out == "" and "m must be >= 1" in err
    bad = tmp_path / "iv.txt"
    bad.write_text("1,5\nx,9\n")
    code, out, err = run_cli(
        "state", "--set", f"intervals:file={bad}", "--window", "k=0,n=10", capsys=capsys
    )
    assert code == 1 and out == "" and "line 2" in err


def test_state_window_budget_refuses_before_evaluating(monkeypatch, capsys):
    chi_calls, probed = [], []
    monkeypatch.setattr(IndicatorAccessor, "__call__", lambda chi, i: chi_calls.append(i) or 0)
    for argv in (
        ("--window", f"k=0,n={cli.STATE_WINDOW_BUDGET + 1}"),
        ("--window-square", "r=1,s=2049"),  # n = 4 * 2049^2 - 4 > 2^24
        ("--mode", "dyadic", "--window", f"k=0,n={cli.STATE_WINDOW_BUDGET + 1}"),
        ("--window", "k=0,n=1000000000000"),
    ):
        code, out, err = run_cli("state", "--set", "squares", *argv, capsys=capsys)
        assert code == 1 and out == "" and "budget" in err, argv
    assert chi_calls == []
    # windows of the budget's length or shorter reach the probe
    monkeypatch.setattr(cli, "ergodicity_probe", lambda chi, ws: probed.extend(ws) or [])
    for argv in (
        ("--window", f"k=0,n={cli.STATE_WINDOW_BUDGET}"),
        ("--window-square", "r=1,s=2048"),
    ):
        assert run_cli("state", "--set", "squares", *argv, capsys=capsys)[0] == 0
    assert [w.n for w in probed] == [cli.STATE_WINDOW_BUDGET, 4 * 2048**2 - 4]


_GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"
_README_COMMANDS = (_GOLDENS / "commands.txt").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "number, line",
    list(enumerate(_README_COMMANDS, start=1)),
    ids=[f"{i:02d}" for i in range(1, len(_README_COMMANDS) + 1)],
)
def test_readme_command_matches_golden(number, line, capsys):
    code, out, _ = run_cli(*shlex.split(line), capsys=capsys)
    assert code == 0
    assert out.encode("utf-8") == (_GOLDENS / f"{number:02d}.out").read_bytes()


def test_json_reports_reparse(capsys):
    # round-trip: every emitted JSON document parses back with the same keys
    for argv in (
        ["analyze", "--seq", "aq:q=1", "--horizon", "4096"],
        ["pk", "--seq", "harmonic", "--kmax", "3", "--horizon", "4096"],
        ["trace", "dixmier", "--a", "aq:q=1", "--t", "logstep", "--omega", "50"],
        ["state", "--set", "dyadicblocks", "--window", "k=2,n=30"],
        ["example4", "--q", "1", "--s", "8", "--r", "1", "--method", "block"],
    ):
        code, out, _ = run_cli(*argv, capsys=capsys)
        assert code == 0, argv
        doc = json.loads(out)
        assert sorted(doc.keys()) == ["command", "diagnostics", "params", "results"]
