"""Benchmark record of one change: ``perfbench/run.py`` on the parent and
the change, written to ``BENCH_<number>.json``.

    python3 tools/bench_record.py --number N --parent DIR [--change DIR]

``--parent`` and ``--change`` are source checkouts (the change defaults to
the checkout holding this script).  For every workload of
``BENCHMARK.json`` and each of the seeds 1-10, ``python3 perfbench/run.py
--workload W --seed K --seconds S`` runs once in each checkout, S being the
benchmark's ``run_seconds`` and the side that goes first alternating from
one seed to the next.  The record holds, per side and workload, the median
and quartiles of each end-to-end metric over the seeds and every run's
metrics, operation counts, wall seconds and ``raw:`` lines (standard
error); per workload and metric, the number of seeds on which the change
is better than the parent; each side's commit and total wall seconds; and
the machine: usable CPUs, CPU model, and the Python and numpy versions.
It is written to the change checkout.

Every run has ``PYTHONDONTWRITEBYTECODE=1``, so each process compiles the
package afresh.  A checkout that holds a ``__pycache__`` under ``src/`` is
refused before any run: its processes would read cached bytecode, which
lowers ``peak_rss_mb`` and ``setup_s`` on that side only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__}


def commit(checkout: Path) -> str:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    wall_s = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "wall_s": wall_s,
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw": [line for line in done.stderr.splitlines() if line.startswith("raw:")],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="N of BENCH_<N>.json")
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=HERE, help="change checkout")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if caches := sorted((checkout / "src").rglob("__pycache__")):
            parser.error(f"{caches[0]} holds cached bytecode; remove every __pycache__ "
                         f"under {checkout / 'src'}")

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: {w["name"]: [] for w in declared["workloads"]} for side in sides}
    for workload in runs["change"]:
        for i, seed in enumerate(SEEDS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                run = run_once(sides[side], workload, seed, seconds)
                runs[side][workload].append(run)
                print(side, workload, seed, run["metrics"], file=sys.stderr)

    metrics = declared["end_to_end"]

    def values(side, workload, name):
        return [r["metrics"][name] for r in runs[side][workload]]

    def change_better(m, parent, change):
        return change < parent if m["better"] == "lower" else change > parent

    record = {
        "command": ["python3", "perfbench/run.py", "--workload", "W", "--seed", "K",
                    "--seconds", str(seconds)],
        "seeds": list(SEEDS),
        "machine": machine(),
        "change_better_on_seeds": {
            workload: {m["name"]: sum(change_better(m, p, c) for p, c in zip(
                values("parent", workload, m["name"]), values("change", workload, m["name"])))
                       for m in metrics}
            for workload in runs["change"]
        },
        "sides": {
            side: {
                "commit": commit(path),
                "wall_s": sum(r["wall_s"] for w in runs[side].values() for r in w),
                "medians": {
                    workload: {m["name"]: statistics.median(values(side, workload, m["name"]))
                               for m in metrics}
                    for workload in runs[side]
                },
                "quartiles": {
                    workload: {m["name"]: statistics.quantiles(values(side, workload, m["name"]),
                                                               n=4)[::2]
                               for m in metrics}
                    for workload in runs[side]
                },
                "runs": runs[side],
            }
            for side, path in sides.items()
        },
    }
    out = args.change / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
