"""One workload process: set up, run operations in a closed loop, check.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --run-dir DIR
    python3 perfbench/worker.py --workload W --seed N --run-dir DIR --setup-only

Prints ``ready`` once ``jcm4`` is imported and the inputs are made (whoever
launched the process times set-up up to that line), then, unless
``--setup-only``, one JSON line with the run's results.  Each operation
calls the ``jcm`` subcommands of the workload in-process through
``jcm4.cli.main`` and writes into its own directory under the run
directory; the next operation starts when the previous one ends.  The
calibration of ``calibration.py`` is timed between operations, so each
operation has one right before and one right after it; it is not part of
the loop's time.  Half the set-up probes (``--setup-only`` copies of the
worker, launched and timed by it) run before the loop and half after it,
so none disturbs an operation.  Peak RSS is read before any check runs.  Every operation is then checked: its files are hashed, and each
distinct set of outputs goes through the independent checks once.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP_OPS = 1
SETUP_PROBES = 12  # set-up probes per untraced run, half before and half after the loop
LAUNCH_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def launch(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker with numeric threads capped at the usable CPUs, wait
    for its ``ready`` line, and return it with the seconds that took."""
    env = dict(os.environ)
    env.update({var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready" or elapsed > LAUNCH_TIMEOUT_S:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, elapsed


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a launched worker and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def time_setup(workload: str, seed: int, run_dir: Path) -> float:
    proc, seconds = launch(["--workload", workload, "--seed", str(seed),
                            "--run-dir", str(run_dir), "--setup-only"])
    finish(proc, LAUNCH_TIMEOUT_S)
    return seconds


def run_op(cli, commands, outdir: Path) -> str | None:
    """Run one operation; return None on success, else what went wrong."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                code = cli.main([*argv, "--out", str(outdir)])
                if code != 0:
                    return f"jcm {' '.join(argv)} exited with status {code}"
    except Exception:
        return traceback.format_exc()
    return None


def fingerprint(outdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def written(outdir: Path) -> tuple[int, int]:
    """CSV data rows and bytes of every file one operation wrote."""
    rows = nbytes = 0
    for path in outdir.iterdir():
        data = path.read_bytes()
        nbytes += len(data)
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return rows, nbytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    modules_before = len(sys.modules)
    start = time.perf_counter()
    import jcm4
    from jcm4 import cli
    import_s = time.perf_counter() - start
    import_modules = len(sys.modules) - modules_before

    from workloads import make_spec
    spec = make_spec(args.workload, args.seed)
    commands = spec.commands()
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True)
    print("ready", flush=True)
    if args.setup_only:
        shutil.rmtree(run_dir)
        return 0

    from calibration import calibrate

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(jcm4)

    probes = 0 if args.trace else SETUP_PROBES
    setup_samples = []

    def probe() -> None:
        setup_samples.append(time_setup(args.workload, args.seed,
                                        run_dir.with_name(f"{run_dir.name}-setup")))

    ops = []  # (directory, error, seconds, calibration seconds, layer metrics)
    last_cal = 0.0

    def one(index: int) -> None:
        nonlocal last_cal
        outdir = run_dir / f"op{index:05d}"
        if tracer:
            tracer.op = index
        t0 = time.perf_counter()
        error = run_op(cli, commands, outdir)
        seconds = time.perf_counter() - t0
        layers = tracer.fold() if tracer else None
        before, last_cal = last_cal, calibrate()
        cal = (before + last_cal) / 2
        if layers is not None:
            layers.update({"trace.op_s": seconds, "trace.op_cal": seconds / cal})
        ops.append((outdir, error, seconds, cal, layers))

    for _ in range(probes // 2):
        probe()
    last_cal = calibrate()
    for i in range(WARMUP_OPS):
        one(i)
    loop_s = 0.0
    while loop_s < args.seconds:
        one(len(ops))
        loop_s += ops[-1][2]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_samples) < probes:
        probe()
    for outdir, error, _, _, layers in ops:
        if layers is not None and error is None:
            layers["cli.rows_written"], layers["cli.bytes_written"] = written(outdir)

    import checks
    reference = checks.Reference(spec)
    verdicts: dict[str, list[str]] = {}
    failed = 0
    correct = True
    for index, (outdir, error, *_) in enumerate(ops):
        if error is None:
            key = fingerprint(outdir)
            if key not in verdicts:
                try:
                    verdicts[key] = checks.check_outputs(
                        spec, checks.load_outputs(spec, outdir), reference)
                except Exception:
                    verdicts[key] = [traceback.format_exc()]
            error = "; ".join(verdicts[key]) or None
            correct = correct and error is None
        if error is not None:
            print(f"operation {index} failed: {error}", file=sys.stderr)
            failed += index >= WARMUP_OPS
    shutil.rmtree(run_dir)

    timed = ops[WARMUP_OPS:]
    result = {"correct": correct, "attempted": len(timed), "failed": failed}
    if tracer:
        metrics = {name: statistics.median(op[4].get(name, 0.0) for op in timed)
                   for name in timed[0][4]}
        metrics.update({"import.jcm4_s": import_s, "import.modules": import_modules})
    else:
        seconds = [op[2] for op in timed]
        metrics = {
            "op_p50_cal": statistics.median(op[2] / op[3] for op in timed),
            "peak_rss_mb": peak_rss_mb,
            "setup_samples": setup_samples,
            "calibration_p50_s": statistics.median(op[3] for op in timed),
        }
        print(f"raw: op_p50_s={statistics.median(seconds):.4f} "
              f"ops_per_s={(len(timed) - failed) / loop_s:.4f} "
              f"calibration_p50_s={statistics.median(op[3] for op in timed):.5f}",
              file=sys.stderr)
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
