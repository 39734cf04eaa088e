"""Benchmark of the ``jcm`` command, end to end and per layer.

    python3 perfbench/run.py --workload tau_scan|large_nbar|phase_space \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/jcm4`` must exist).  The
workload runs in one fresh Python process (``worker.py``) with the numeric
libraries' threads capped at the number of usable CPUs.  With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run.  Set-up is the time from launching a
fresh interpreter to the worker's ``ready`` line: interpreter start,
``import jcm4`` and input generation.  ``setup_s`` is the median of 13
set-up times (the workload's own and 12 probes, run before and after its
timed loop), scaled to a reference host speed: times
REFERENCE_CALIBRATION_S over the run's median calibration time.  The host
this was built on changes speed by 20-30 % from one minute to the next, and
the raw median followed it; the raw value goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from worker import finish, launch

ROOT = Path(__file__).resolve().parent.parent
# Median calibration time on the host the reference figures were taken on.
# setup_s is reported at that host speed (see the module docstring).
REFERENCE_CALIBRATION_S = 0.035


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "jcm4" / "__init__.py").is_file():
        print(f"error: no jcm4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        proc, setup_s = launch(["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--run-dir", str(run_dir)])
        result = json.loads(finish(proc, args.seconds + 150.0).splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = result["metrics"]
    if not args.trace:
        raw = statistics.median([setup_s, *measured.pop("setup_samples")])
        measured["setup_s"] = raw * REFERENCE_CALIBRATION_S / measured.pop("calibration_p50_s")
        print(f"raw: setup_s={raw:.4f}", file=sys.stderr)
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
