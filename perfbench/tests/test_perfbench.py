"""Self-tests of the benchmark: metric names, failure accounting and trace counts.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from qpd_rde import cli, game_core  # noqa: E402
from qpd_rde.errors import OutOfPhase  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {f"{w['name']}.{m['name']}" for w in BENCHMARK["workloads"]
                for m in BENCHMARK[kind]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name.split(".", 1)[1]]
        assert math.isfinite(metric["value"])


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "queries", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_planted_corrupt_sweep_row_is_counted(tmp_path):
    spec = worker.SMOKE_SWEEPS["sweep-pd"]
    out = tmp_path / "sweep.csv"
    assert cli.main(worker.sweep_argv(spec, out)) == 0
    points = [(dg, dr, g) for dg in worker.axis(*spec[0]) for dr in worker.axis(*spec[1])
              for g in worker.axis(*spec[2])]

    def failures(text):
        return worker.check_sweep_rows(worker.parse_sweep(text, "csv"), points, "csv")

    assert failures(out.read_text())[0] == 0
    rows = list(csv.reader(io.StringIO(out.read_text(), newline="")))
    col = rows[0].index("pi_q")
    rows[5][col] = repr(float(rows[5][col]) + 1e-6)
    corrupt = io.StringIO()
    csv.writer(corrupt, lineterminator="\n").writerows(rows)
    failed, counts = failures(corrupt.getvalue())
    assert failed == 1
    assert counts == {"pi_sum": 1}


@pytest.mark.parametrize("workload", list(worker.SMOKE_SWEEPS))
def test_sweep_passes_join_to_the_one_call_output(tmp_path, workload):
    spec = worker.SMOKE_SWEEPS[workload]
    full = tmp_path / "full"
    assert cli.main(worker.sweep_argv(spec, full)) == 0
    run = worker.Run(workload, tmp_path, None)
    digest, failed, _ = worker.sweep_cycle(run, spec, check=True)
    assert digest == hashlib.sha256(full.read_bytes()).hexdigest()
    assert failed == 0


def test_tampered_oracle_is_counted(tmp_path):
    out = tmp_path / "oracle.txt"
    code = cli.main(["oracle-check", "--grid", "3", "--tampered-gate", "--out", str(out)])
    assert checks.oracle_failures(code, out.read_text(), 3, tampered=False) == ["oracle_fail"]
    # As a negative control the same output is the expected one.
    assert checks.oracle_failures(code, out.read_text(), 3, tampered=True) == []


def test_traced_tiny_sweep_gives_exact_call_counts(tmp_path):
    # (0.9, 0.2) has gamma1 = 0.3137 and gamma2 = 0.7137, so the angles
    # 0.1, 0.65 and 1.2 are classical-like, transitional and fully-quantum.
    # thresholds per row: 4, 7 and 4 (ne 1, rde 1 or 3, sensitivity 1 or 2,
    # thresholds column 1).
    argv = ["sweep", "--dg", "0.9", "--dr", "0.2", "--gamma-range", "0.1", "1.2", "3",
            "--quantities", worker.QUANTITIES, "--out", str(tmp_path / "s.csv")]
    original = cli.cmd_sweep
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.root("bench.pass", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert cli.cmd_sweep is original
    calls = {name: stat.calls for name, stat in tracer.stats.items()}
    assert calls["ewl.thresholds"] == 15
    assert calls["game_core.PayoffMatrix2x2"] == 6
    assert calls["game_core.classify_dilemma"] == 3
    assert calls["ewl.classify_quantum_ne"] == 3
    assert calls["quantum_rde.select_rde_quantum"] == 3
    assert calls["cli.cmd_sweep"] == 1
    sens = tracer.stats["quantum_rde.sensitivity_indices"]
    assert (sens.calls, sens.errors) == (3, 2)
    assert not any(name.startswith("risk_dominance.") for name in calls)
    roots = {span[0] for span in tracer.spans}
    assert len(roots) == 1


def test_known_seam_defect_is_counted_and_repeats():
    dg, dr = 0.9, 0.2
    gamma = checks.threshold_angles(dg, dr)[0] - 5e-10
    out = worker.normalise_query(worker.run_query(dg, dr, gamma))
    assert (out["ne_phase"], out["rde_phase"]) == ("classical-like", "transitional")
    failures = checks.query_failures(dg, dr, gamma, out)
    assert failures == ["phase_mismatch"]
    assert checks.is_known_seam_defect(dg, dr, gamma, failures)

    def count(seed):
        queries = worker.make_queries(seed, 500)
        return sum(bool(checks.query_failures(*q, worker.normalise_query(worker.run_query(*q))))
                   for q in queries)

    assert worker.make_queries(3, 500) == worker.make_queries(3, 500)
    assert count(3) == count(3)


def test_planted_query_error_is_counted():
    dg, dr, gamma = 0.6, 0.3, 1.0
    cls = game_core.classify_dilemma(game_core.DilemmaParams(dg, dr))
    out = worker.normalise_query((cls, None, None, None, None, OutOfPhase("planted")))
    assert checks.query_failures(dg, dr, gamma, out) == ["unexpected_error"]
    # Where the closed form is undefined (d_g == d_r at the common threshold)
    # and outside [0, pi/2], a validation error is the expected answer.
    g1 = checks.threshold_angles(0.5, 0.5)[0]
    for point in [(0.5, 0.5, g1), (dg, dr, -5e-10), (dg, dr, math.pi / 2 + 5e-10)]:
        out = worker.normalise_query(worker.run_query(*point))
        assert out["error"]["validation"]
        assert checks.query_failures(*point, out) == []


def test_known_defects_beyond_the_seed_commit_count_are_incorrect():
    result = {"failed": 30, "known_defects": 30, "known_defects_reference": 30}
    assert run.workload_correct(result)
    assert not run.workload_correct({**result, "known_defects_reference": 29})
    assert run.workload_correct({**result, "known_defects_reference": None})
    assert not run.workload_correct({**result, "failed": 31})


def test_reference_formulas():
    assert [checks.dilemma_class(*p) for p in
            [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5), (0.0, 0.0),
             (0.0, 0.3), (0.0, -0.3), (0.3, 0.0), (-0.3, 0.0)]] == \
        ["PD", "CH", "SH", "TRIVIAL", "TRIVIAL", "SH", "CH", "CH", "SH"]
    g1, g2, gs = checks.threshold_angles(0.9, 0.2)
    assert math.isclose(g1, 0.3137279, abs_tol=1e-7)
    assert math.isclose(math.sin(g2) ** 2 * 2.1, 0.9)
    assert math.isclose(math.sin(gs) ** 2 * 2.1, 0.55)
    assert checks.threshold_angles(-0.5, -0.6) == (None, None, None)
