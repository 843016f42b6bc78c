"""Runs one workload in a fresh interpreter and prints its results as JSON.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``. The
loop is closed: one caller, no threads, and the next pass starts when the
previous one returns. Each pass is short and timed between two calibrations
(see clock.py). Outputs are checked outside the timed calls.
"""

from __future__ import annotations

import argparse
import array
import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import clock
from tracer import Tracer

import qpd_rde
from qpd_rde import cli, ewl, game_core, quantum_rde, risk_dominance
from qpd_rde.errors import DegenerateBase, OutOfPhase, QpdError

HERE = Path(__file__).resolve().parent
QUANTITIES = "class,ne,rde,payoffs,sensitivity,thresholds"
HALF_PI = math.pi / 2

# (d_g axis, d_r axis, gamma axis, format); each axis is (start, stop, steps).
# A sweep pass is one d_g value of the grid and a cycle is every d_g value, so
# one cycle computes the full grid; its outputs joined give the bytes of the
# one-call sweep over the grid.
SWEEPS = {
    # ROADMAP's fixed grid: all quantum PD, each (d_g, d_r) reused over 50 angles.
    "sweep-pd": ((0.025, 1.0, 40), (0.025, 1.0, 40), (0.0, HALF_PI, 50), "csv"),
    # Whole cube, hitting 0, +-1 and d_g == d_r exactly; mostly classical rows.
    "sweep-cube": ((-1.0, 1.0, 81), (-1.0, 1.0, 81), (0.0, HALF_PI, 8), "json"),
}
SMOKE_SWEEPS = {
    "sweep-pd": ((0.25, 1.0, 4), (0.25, 1.0, 4), (0.0, HALF_PI, 5), "csv"),
    "sweep-cube": ((-1.0, 1.0, 5), (-1.0, 1.0, 5), (0.0, HALF_PI, 3), "json"),
}
# oracle-check --grid 31 runs once, unclocked, for its checks and digest; the
# timed passes use --grid 11 (1,431 points) so that each stays short.
ORACLE_GRID, ORACLE_PASS_GRID, TAMPERED_GRID = 31, 11, 3
SMOKE_ORACLE_GRID, SMOKE_ORACLE_PASS_GRID = 4, 3
# 10,000 queries keep the run-to-run spread from each seed's mix of cheap and
# expensive queries small. They are timed in passes of 500 (about 15 ms):
# the machine's speed flips within tens of milliseconds, and passes of 2,000
# spread the scaled p50 and p95 1.6 and 2.7 times wider between repeats.
QUERY_COUNT, SMOKE_QUERY_COUNT, QUERY_PASS = 10_000, 200, 500
SEAM_SHARE = 0.1
# Tail percentile reported per workload. For sweeps and oracle it is the
# highest with at least ten samples beyond it in the shortest run (one sweep
# cycle: 40 or 81 passes; ~45 oracle passes). For queries it is p90: above it
# lies the thin tail of the costliest quantum queries, where the scaled times
# moved most between repeats of one seed (IQR/median 0.048 for p90, 0.059 for
# p95 and 0.082 for p99 in one test); p99 is still printed.
TAIL = {"sweep-pd": 0.75, "sweep-cube": 0.875, "oracle": 0.75, "queries": 0.90}
SEAM_PAIRS = ((0.9, 0.2), (0.2, 0.9), (0.5, 0.5))
SEAM_OFFSETS = (-5e-10, 0.0, 5e-10)


class Run:
    """Counters and samples of one workload run."""

    def __init__(self, workload: str, out_dir: Path, tracer: Tracer | None):
        self.workload = workload
        self.out_dir = out_dir
        self.tracer = tracer
        self.traced = False
        self.traced_units = 0
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.failures = Counter()
        # Timed passes, split by whether the tracer was on: [items, raw s, scaled s].
        self.work = {False: [0, 0.0, 0.0], True: [0, 0.0, 0.0]}
        self.latencies_us = array.array("d")  # scaled, per item
        self.peak_rss_mb = 0.0
        self.digest = None

    def record(self, failures: list[str], count: int = 1, known: bool = False) -> None:
        self.attempted += count
        if failures:
            self.failed += count
            self.known_defects += count if known else 0
            for name in failures:
                self.failures[name] += count

    def call_cli(self, argv: list[str]) -> int:
        if self.traced:
            return self.tracer.root("bench.pass", cli.main, argv)
        return cli.main(argv)

    def account(self, items: int, raw: float, scale: float, latency_per_pass: bool) -> None:
        work = self.work[self.traced]
        work[0] += items
        work[1] += raw
        work[2] += raw * scale
        if latency_per_pass and not self.traced:
            self.latencies_us.append(raw * scale / items * 1e6)


def units(seconds: float, trace: bool, run: Run):
    """Yield unit numbers until ``seconds`` have gone by (at least one unit).

    With tracing, the first quarter of the time (at least one unit) is
    untraced, to measure the tracer's overhead; then the tracer is installed
    and at least one traced unit follows.
    """
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if trace and not run.traced and i > 0 and elapsed >= seconds / 4:
            run.tracer.install()
            run.traced = True
        if i > 0 and elapsed >= seconds and (not trace or run.traced_units):
            return
        yield i
        run.traced_units += run.traced
        i += 1


# ---------------------------------------------------------------------------
# sweeps


def axis(start: float, stop: float, steps: int) -> list[float]:
    return [float(x) for x in np.linspace(start, stop, steps)]


def sweep_argv(spec, out: Path, dg: float | None = None) -> list[str]:
    """The full-grid sweep, or with ``dg`` its pass at that d_g value."""
    axes = [("--dr-range", spec[1]), ("--gamma-range", spec[2])]
    argv = ["sweep"] + (["--dg", repr(dg)] if dg is not None else [])
    if dg is None:
        axes.insert(0, ("--dg-range", spec[0]))
    for flag, (start, stop, steps) in axes:
        argv += [flag, repr(float(start)), repr(float(stop)), str(steps)]
    return argv + ["--quantities", QUANTITIES, "--format", spec[3], "--out", str(out)]


def parse_sweep(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    return [dict(zip(header, map(checks.parse_csv_cell, cells))) for cells in reader]


def check_sweep_rows(rows: list[dict], points, fmt: str) -> tuple[int, Counter]:
    """Failed rows of one sweep output, with the failed conditions counted."""
    counts = Counter()
    if len(rows) != len(points):
        counts["row_count"] += 1
    failed = abs(len(rows) - len(points))
    for row, (dg, dr, g) in zip(rows, points):
        names = checks.sweep_row_failures(row, dg, dr, g, exact=fmt == "json")
        failed += bool(names)
        counts.update(names)
    return failed, counts


def add_pass_output(digest, text: str, first: bool, fmt: str) -> None:
    """Feed one pass's output into the digest of the joined full-grid output."""
    if fmt == "csv":
        digest.update((text if first else text.partition("\n")[2]).encode())
    else:  # a JSON list printed with indent=2: "[\n" rows "\n]\n"
        digest.update((("[\n" if first else ",\n") + text[2:-3]).encode())


def sweep_cycle(run: Run, spec, check: bool) -> tuple[str, int, Counter]:
    """One timed pass per d_g value; returns the joined output's digest and,
    if ``check``, the failed rows and conditions."""
    drs, gammas = axis(*spec[1]), axis(*spec[2])
    fmt = spec[3]
    rows = len(drs) * len(gammas)
    out = run.out_dir / f"{run.workload}.{fmt}"
    digest, failed, counts = hashlib.sha256(), 0, Counter()
    for i, dg in enumerate(axis(*spec[0])):
        code, raw, scale = clock.timed(run.call_cli, sweep_argv(spec, out, dg))
        run.account(rows, raw, scale, latency_per_pass=True)
        if code != 0:
            failed += rows
            counts["exit_code"] += 1
            continue
        text = out.read_text()
        add_pass_output(digest, text, i == 0, fmt)
        if check:
            points = [(dg, dr, g) for dr in drs for g in gammas]
            pass_failed, pass_counts = check_sweep_rows(parse_sweep(text, fmt), points, fmt)
            failed += pass_failed
            counts += pass_counts
    if fmt == "json":
        digest.update(b"\n]\n")
    out.unlink(missing_ok=True)
    return digest.hexdigest(), failed, counts


def run_sweep(run: Run, spec, seconds: float, trace: bool) -> None:
    rows = spec[0][2] * spec[1][2] * spec[2][2]
    for i in units(seconds, trace, run):
        digest, failed, counts = sweep_cycle(run, spec, check=i == 0)
        if i == 0:
            run.digest, first_failed, first_counts = digest, failed, counts
            run.peak_rss_mb = peak_rss_mb()
        elif digest != run.digest:
            failed, counts = rows, Counter(nondeterministic=1)
        else:
            failed, counts = first_failed, first_counts
        run.attempted += rows
        run.failed += failed
        run.failures += counts


# ---------------------------------------------------------------------------
# oracle-check


def oracle(run: Run, grid: int, seed: int, tampered: bool = False, timed: bool = False) -> str:
    """One oracle-check run, checked; returns its output."""
    out = run.out_dir / "oracle.txt"
    argv = ["oracle-check", "--grid", str(grid), "--seed", str(seed), "--out", str(out)]
    argv += ["--tampered-gate"] if tampered else []
    if timed:
        code, raw, scale = clock.timed(run.call_cli, argv)
        run.account(grid ** 3 + 100, raw, scale, latency_per_pass=True)
    else:
        code = cli.main(argv)
    text = out.read_text()
    out.unlink()
    run.record(checks.oracle_failures(code, text, grid, tampered))
    return text


def run_oracle(run: Run, grid: int, pass_grid: int, seed: int, seconds: float,
               trace: bool) -> None:
    oracle(run, TAMPERED_GRID, seed, tampered=True)
    run.digest = hashlib.sha256(oracle(run, grid, seed).encode()).hexdigest()
    for i in units(seconds, trace, run):
        oracle(run, pass_grid, seed, timed=True)
        if i == 0:
            run.peak_rss_mb = peak_rss_mb()


# ---------------------------------------------------------------------------
# single-point queries


def make_queries(seed: int, count: int) -> list[tuple[float, float, float]]:
    """Seeded (d_g, d_r, gamma) stream.

    A tenth of the queries sit on a seam: d_g or d_r in {0, +-1}, d_g == d_r,
    or a paper point, at an angle in {0, pi/2, gamma1, gamma2, gamma*} shifted
    by -5e-10, 0 or +5e-10. The rest are uniform over the cube
    [-1, 1]^2 x [0, pi/2], as ``sweep-cube`` covers it: no finer traffic mix
    is known, so none is assumed.
    """
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        if rng.random() < SEAM_SHARE:
            queries.append(seam_query(rng))
        else:
            queries.append((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                            rng.uniform(0.0, HALF_PI)))
    return queries


def seam_query(rng: random.Random) -> tuple[float, float, float]:
    kind = rng.randrange(4)
    if kind == 0:
        dg, dr = rng.choice((0.0, 1.0, -1.0)), rng.uniform(-1.0, 1.0)
    elif kind == 1:
        dg, dr = rng.uniform(-1.0, 1.0), rng.choice((0.0, 1.0, -1.0))
    elif kind == 2:
        dg = dr = rng.uniform(-1.0, 1.0)
    else:
        dg, dr = rng.choice(SEAM_PAIRS)
    angles = [0.0, HALF_PI] + [g for g in checks.threshold_angles(dg, dr) if g is not None]
    return dg, dr, rng.choice(angles) + rng.choice(SEAM_OFFSETS)


def run_query(dg: float, dr: float, gamma: float):
    """Classify, find the NE set and the RDE through the public scalar API."""
    params = game_core.DilemmaParams(dg, dr)
    cls = game_core.classify_dilemma(params)
    try:
        if dg > 0.0 and dr > 0.0:
            ne = ewl.classify_quantum_ne(params, gamma)
            phase, rde = quantum_rde.select_rde_quantum(params, gamma)
            try:
                sens = quantum_rde.sensitivity_indices(params, gamma)
            except (OutOfPhase, DegenerateBase):
                sens = None
            return cls, ne, phase, rde, sens, None
        ne = game_core.enumerate_pure_ne(game_core.build_dilemma_matrix(params))
        if cls.kind is game_core.DilemmaKind.CH:
            rde = risk_dominance.rde_chicken(params)
        elif cls.kind is game_core.DilemmaKind.SH:
            rde = risk_dominance.rde_staghunt(params)
        else:
            rde = None
        return cls, ne, "classical", rde, None, None
    except Exception as exc:  # judged by checks.query_failures
        return cls, None, None, None, None, exc


def normalise_query(result) -> dict:
    cls, ne, phase, rde, sens, exc = result
    out = {"class": cls.kind.value, "boundary": cls.boundary}
    if exc is not None:
        out["error"] = {"type": type(exc).__name__,
                        "validation": isinstance(exc, (QpdError, ValueError))}
        return out
    if isinstance(ne, list):
        records, labels, out["ne_phase"] = ne, ("C", "D"), "classical"
    else:
        records, labels, out["ne_phase"] = ne.equilibria, ("Q", "D"), ne.phase
    out["ne"] = sorted(checks.profile_label(r.profile.p, r.profile.q, labels) for r in records)
    out["rde_phase"] = phase
    out["rde"] = None if rde is None else {
        "kind": rde.kind, "label": rde.label, "p": rde.profile.p, "q": rde.profile.q,
        "payoffs": list(rde.payoffs)}
    if sens is not None:
        out.update(p_star=sens.p_star, index_dg=sens.index_dg, index_dr=sens.index_dr,
                   index_gamma=sens.index_gamma)
    return out


def queries_digest(outputs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def check_queries(queries, outputs):
    """Per query: the failed conditions and whether they are the known seam defect."""
    for (dg, dr, gamma), out in zip(queries, outputs):
        names = checks.query_failures(dg, dr, gamma, out)
        yield names, checks.is_known_seam_defect(dg, dr, gamma, names)


def query_pass(run: Run, queries) -> tuple[list, list[int]]:
    """All queries once, each timed; a query is a root span when tracing."""
    clock_ns = time.perf_counter_ns
    results, latencies = [], []
    for dg, dr, gamma in queries:
        start = clock_ns()
        if run.traced:
            results.append(run.tracer.root("bench.query", run_query, dg, dr, gamma))
        else:
            results.append(run_query(dg, dr, gamma))
        latencies.append(clock_ns() - start)
    return results, latencies


def run_queries(run: Run, queries, seconds: float, trace: bool) -> None:
    """Whole cycles over the query set, in timed passes of QUERY_PASS queries."""
    for i in units(seconds, trace, run):
        outputs = []
        for start in range(0, len(queries), QUERY_PASS):
            part = queries[start:start + QUERY_PASS]
            (results, latencies), raw, scale = clock.timed(query_pass, run, part)
            if not run.traced:
                run.latencies_us.extend(ns * scale / 1e3 for ns in latencies)
            run.account(len(part), raw, scale, latency_per_pass=False)
            outputs += [normalise_query(r) for r in results]
        digest = queries_digest(outputs)
        if i == 0:
            run.digest = digest
            for names, known in check_queries(queries, outputs):
                run.record(names, known=known)
            run.peak_rss_mb = peak_rss_mb()
        elif digest != run.digest:
            run.record(["nondeterministic"], len(queries))


# ---------------------------------------------------------------------------
# results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(fraction * len(sorted_values))) - 1]


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Scaled metrics as (value, unit, samples), and printed-only extras."""
    items, raw_s, scaled_s = run.work[False]
    lat = sorted(run.latencies_us)
    metrics = {
        "items_per_s": (items / scaled_s, "1/s", items),
        "item_p50_us": (statistics.median(lat), "us", len(lat)),
        "item_tail_us": (percentile(lat, TAIL[run.workload]), "us", len(lat)),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
    }
    extra = {"raw_items_per_s (wall clock, unscaled)": (items / raw_s, "1/s", items)}
    if run.workload == "queries":
        extra["query_p99_us"] = (percentile(lat, 0.99), "us", len(lat))
    return metrics, extra


def per_layer(run: Run) -> dict:
    """Per-layer metrics; times are raw seconds per traced unit (cycle or pass)."""
    stats = run.tracer.stats
    layers = run.tracer.layer_totals()
    n_units = run.traced_units
    items, raw_s, scaled_s = run.work[True]
    base_items, _, base_scaled_s = run.work[False]

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return stats[name].self_ns / n_units / 1e9 if name in stats else 0.0

    def layer_self_s(name):
        return layers.get(name, {"self_ns": 0})["self_ns"] / n_units / 1e9

    sens = stats.get("quantum_rde.sensitivity_indices")
    metrics = {
        "game_core.self_s": layer_self_s("game_core"),
        "game_core.PayoffMatrix2x2.per_item": calls("game_core.PayoffMatrix2x2") / items,
        "game_core.classify_dilemma.per_item": calls("game_core.classify_dilemma") / items,
        "risk_dominance.self_s": layer_self_s("risk_dominance"),
        "risk_dominance.per_item": layers.get("risk_dominance", {"calls": 0})["calls"] / items,
        "ewl.self_s": layer_self_s("ewl"),
        "ewl.thresholds.per_item": calls("ewl.thresholds") / items,
        "ewl.thresholds.self_s": self_s("ewl.thresholds"),
        "ewl.classify_quantum_ne.self_s": self_s("ewl.classify_quantum_ne"),
        "ewl.pure_quantum_matrix.self_s": self_s("ewl.pure_quantum_matrix"),
        "ewl.final_state.self_s": self_s("ewl.final_state"),
        "ewl.joint_distribution.self_s": self_s("ewl.joint_distribution"),
        "quantum_rde.self_s": layer_self_s("quantum_rde"),
        "quantum_rde.select_rde_quantum.self_s": self_s("quantum_rde.select_rde_quantum"),
        "quantum_rde.sensitivity_indices.self_s": self_s("quantum_rde.sensitivity_indices"),
        "quantum_rde.sensitivity_indices.useful_ratio":
            (sens.calls - sens.errors) / sens.calls if sens else 0.0,
        "cli.self_s": layer_self_s("cli"),
        "cli.share": layer_self_s("cli") * n_units / raw_s,
        "trace.overhead_ratio": (scaled_s / items) / (base_scaled_s / base_items),
    }
    return {name: (value, layer_unit(name), n_units) for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "calls/item" if name.endswith(".per_item") else "ratio"


def reference(workload: str, seed: int) -> tuple[str | None, int | None]:
    """The seed commit's output digest and, for queries, its known-defect count."""
    refs = json.loads((HERE / "reference" / "digests.json").read_text())
    digest = refs.get(workload)
    if isinstance(digest, dict):
        digest = digest.get(str(seed))
    defects = refs.get("query_known_defects", {}).get(str(seed)) \
        if workload == "queries" else 0
    return digest, defects


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("sweep-pd", "sweep-cube", "oracle", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = parser.parse_args(argv)

    expected_src = os.environ.get("PERFBENCH_SRC")
    if expected_src and not Path(qpd_rde.__file__).resolve().is_relative_to(expected_src):
        print(f"qpd_rde imported from {qpd_rde.__file__}, not {expected_src}", file=sys.stderr)
        return 2

    out_dir = Path.cwd() / ".perfbench"  # run.py starts this in the checkout root
    out_dir.mkdir(exist_ok=True)
    trace = bool(args.trace)
    run = Run(args.workload, out_dir, Tracer() if trace else None)
    if args.workload in SWEEPS:
        spec = (SMOKE_SWEEPS if args.smoke else SWEEPS)[args.workload]
        run_sweep(run, spec, args.seconds, trace)
    elif args.workload == "oracle":
        grids = ((SMOKE_ORACLE_GRID, SMOKE_ORACLE_PASS_GRID) if args.smoke
                 else (ORACLE_GRID, ORACLE_PASS_GRID))
        run_oracle(run, *grids, args.seed, args.seconds, trace)
    else:
        count = SMOKE_QUERY_COUNT if args.smoke else QUERY_COUNT
        run_queries(run, make_queries(args.seed, count), args.seconds, trace)

    if trace:
        run.tracer.uninstall()
        run.tracer.dump(out_dir / f"trace-{args.workload}.json")
        metrics, extra = per_layer(run), {}
    else:
        metrics, extra = end_to_end(run)
    ref, ref_defects = (None, None) if args.smoke else reference(args.workload, args.seed)
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "known_defects": run.known_defects,
        "known_defects_reference": ref_defects,
        "failures": dict(run.failures),
        "digest": run.digest,
        "digest_match": None if ref is None else ref == run.digest,
        "tail_percentile": TAIL[args.workload] * 100,
        "metrics": metrics,
        "extra": extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
