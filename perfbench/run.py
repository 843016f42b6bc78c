"""qpd-rde benchmark: one command, four workloads, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-pd --seed 1 --seconds 15 --trace 0

``--workload all`` runs the four workloads in turn. Each invocation measures
set-up (cold ``import qpd_rde.cli`` in fresh interpreters), gates on the
``tables`` command, then runs the workload in one child interpreter (one
caller, no threads). ``--trace 0`` reports end-to-end metrics; ``--trace 1``
reports per-layer metrics from a traced run. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-pd", "sweep-cube", "oracle", "queries")
SETUP_SAMPLES = 9
# Wall time of a cold ``python -c "import numpy"`` on the reference machine
# (see clock.py) in its fast state.
NUMPY_IMPORT_REFERENCE_S = 0.165
# The whole invocation must end within TIMEOUT_BASE_S plus, per workload,
# TIMEOUT_WORKLOAD_S and TIMEOUT_PER_SECOND times --seconds: room for a
# machine 1.8x slower than usual on top of the traced runs' extra cycles.
# At the default 8 s that is 144 s for one workload.
TIMEOUT_BASE_S, TIMEOUT_WORKLOAD_S, TIMEOUT_PER_SECOND = 60.0, 60.0, 3.0
ITEM_NAMES = {"sweep-pd": "rows", "sweep-cube": "rows", "oracle": "points", "queries": "queries"}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PERFBENCH_SRC"] = str(src)
    # numpy's BLAS pool would add threads; the workloads use 4x4 matrices at most.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def setup_samples(env: dict, samples: int, trace: bool, deadline: float) -> list:
    """Cold ``import qpd_rde.cli`` in ``samples`` fresh interpreters.

    Untraced: the wall time of each, scaled by a cold ``import numpy`` timed
    right after it, as ``wall * NUMPY_IMPORT_REFERENCE_S / numpy wall``.
    Cold-import time drifts by +-16% over minutes with the machine's file and
    page-cache load, which the calibration loop of clock.py does not follow
    but a reference import does (their ratio drifted +-6%). Traced: the
    ``-X importtime`` split into numpy, scipy and qpd_rde's own modules.
    """
    argv = ["-X", "importtime"] if trace else []
    out = []
    for _ in range(samples):
        proc, wall = timed_child(argv + ["-c", "import qpd_rde.cli"], env, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"import qpd_rde.cli failed:\n{proc.stderr}")
        if trace:
            out.append(import_split(proc.stderr))
        else:
            _, reference = timed_child(["-c", "import numpy"], env, deadline)
            out.append({"setup_s": wall * NUMPY_IMPORT_REFERENCE_S / reference,
                        "raw_setup_s": wall})
    return out


def timed_child(argv: list[str], env: dict, deadline: float):
    start = time.perf_counter()
    proc = run_child(argv, env, deadline)
    return proc, time.perf_counter() - start


def median_metrics(samples: list[dict]) -> dict:
    return {name: (statistics.median(s[name] for s in samples), "s", len(samples))
            for name in samples[0]}


def import_split(importtime: str) -> dict:
    """numpy and scipy cumulative import time, and qpd_rde's own self time, in s."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cumulative_us, name = line.split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((name.strip(), int(head.split(":")[1]), int(cumulative_us), depth))

    def outermost(prefix):
        hits = [e for e in entries if e[0] == prefix or e[0].startswith(prefix + ".")]
        if not hits:
            return 0.0
        top = min(e[3] for e in hits)
        return sum(e[2] for e in hits if e[3] == top) / 1e6

    return {
        "setup.numpy_import_s": outermost("numpy"),
        "setup.scipy_import_s": outermost("scipy"),
        "setup.qpd_rde_self_s": sum(e[1] for e in entries
                                    if e[0] == "qpd_rde" or e[0].startswith("qpd_rde.")) / 1e6,
    }


def tables_gate(env: dict, deadline: float) -> bool:
    """``tables`` exits 0 and prints the reference line set."""
    proc = run_child(["-m", "qpd_rde.cli", "tables"], env, deadline)
    expected = (HERE / "reference" / "tables.txt").read_text().splitlines()
    return proc.returncode == 0 and sorted(proc.stdout.splitlines()) == sorted(expected)


def run_workload(workload: str, args, env: dict, deadline: float) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += ["--smoke"] if args.smoke else []
    proc = run_child(argv, env, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def print_summary(workload: str, result: dict, tables_ok: bool) -> None:
    items = ITEM_NAMES[workload]
    print(f"== {workload}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {unit:<10} n={n}")
    tail = f"p{result['tail_percentile']:g}"
    if "item_tail_us" in result["metrics"]:
        print(f"  (item_tail_us is the {tail} on this workload)")
    aliases = {"items_per_s": f"{items}_per_s"}
    if workload == "queries":
        aliases.update(item_p50_us="query_p50_us", item_tail_us=f"query_{tail}_us")
    for name, alias in aliases.items():
        if name in result["metrics"]:
            value, unit, n = result["metrics"][name]
            print(f"  {alias:<46} {value:>14.6g} {unit:<10} n={n}")
    for name, (value, unit, n) in result["extra"].items():
        print(f"  {name:<46} {value:>14.6g} {unit:<10} n={n}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<46} {rate:>14.6g} {'ratio':<10} n={result['attempted']}")
    reference = result["known_defects_reference"]
    print(f"  failures by check: {result['failures'] or 'none'}"
          f"; known seam defects: {result['known_defects']}"
          f" (seed commit: {'none recorded' if reference is None else reference})")
    print(f"  tables gate: {'PASS' if tables_ok else 'FAIL'}")
    print(f"  output sha256: {result['digest']} (seed-commit reference: "
          f"{ {True: 'match', False: 'differs', None: 'none recorded'}[result['digest_match']] })")


def workload_correct(result: dict) -> bool:
    """Only the documented ne/rde seam disagreement may fail without making
    the run incorrect, and no more often than at the seed commit for this
    seed, where that count is recorded. Such failures still count in
    ``failed``."""
    reference = result["known_defects_reference"]
    return result["failed"] == result["known_defects"] and \
        (reference is None or result["known_defects"] <= reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up sample, for the self-tests")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "qpd_rde" / "cli.py").is_file():
        print(f"error: no qpd_rde sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIMEOUT_BASE_S + len(workloads) * (
        TIMEOUT_WORKLOAD_S + TIMEOUT_PER_SECOND * args.seconds)
    env = child_env(src)
    try:
        # Set-up is sampled before and after the workloads, so that its median
        # spans the run rather than one moment of the machine's state.
        run_child(["-c", "import qpd_rde.cli"], env, deadline)  # writes bytecode caches
        half = 1 if args.smoke else SETUP_SAMPLES // 2 + 1
        setup = setup_samples(env, half, bool(args.trace), deadline)
        tables_ok = tables_gate(env, deadline)
        results = {w: run_workload(w, args, env, deadline) for w in workloads}
        if not args.smoke:
            setup += setup_samples(env, SETUP_SAMPLES - half, bool(args.trace), deadline)
        setup = median_metrics(setup)
        raw_setup = {"raw_setup_s (wall clock, unscaled)": setup.pop("raw_setup_s")} \
            if "raw_setup_s" in setup else {}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics, attempted, failed, correct = {}, 1, int(not tables_ok), tables_ok
    for workload, result in results.items():
        result["metrics"] = {**setup, **result["metrics"]}
        result["extra"] = {**raw_setup, **result["extra"]}
        print_summary(workload, result, tables_ok)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and workload_correct(result)
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, (value, unit, _) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
