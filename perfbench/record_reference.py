"""Record the reference outputs that the benchmark compares each run against.

Run from a checkout root, only on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes ``reference/tables.txt`` (the ``tables`` gate) and
``reference/digests.json``: the sha256 of each sweep's output file, of the
oracle output (the same for every seed, because the grid, not the 100 seeded
points, sets the printed maximum deviation; checked on ORACLE_SEEDS seeds),
and of the query outputs for seeds 0..QUERY_SEEDS-1, with each of those
seeds' count of known seam defects (a run may not exceed it).
"""

from __future__ import annotations

import hashlib
import json

import worker
from qpd_rde import cli

ORACLE_SEEDS = 32
QUERY_SEEDS = 1024


def main() -> None:
    out_dir = worker.HERE.parent / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    ref = worker.HERE / "reference"
    out = out_dir / "reference.out"

    cli.main(["tables", "--out", str(out)])
    (ref / "tables.txt").write_text(out.read_text())

    digests = {}
    for name, spec in worker.SWEEPS.items():
        cli.main(worker.sweep_argv(spec, out))
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    oracle = set()
    for seed in range(ORACLE_SEEDS):
        cli.main(["oracle-check", "--grid", str(worker.ORACLE_GRID), "--seed", str(seed),
                  "--out", str(out)])
        oracle.add(hashlib.sha256(out.read_bytes()).hexdigest())
    if len(oracle) != 1:
        raise SystemExit("oracle output depends on the seed; record it per seed")
    digests["oracle"] = oracle.pop()
    digests["queries"], digests["query_known_defects"] = {}, {}
    for seed in range(QUERY_SEEDS):
        queries = worker.make_queries(seed, worker.QUERY_COUNT)
        outputs = [worker.normalise_query(worker.run_query(*q)) for q in queries]
        digests["queries"][str(seed)] = worker.queries_digest(outputs)
        digests["query_known_defects"][str(seed)] = sum(
            known for _, known in worker.check_queries(queries, outputs))
    out.unlink()
    (ref / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
