"""The traced benchmark runs clean on every workload.

``perfbench/tracing.py`` reads results of the library at its span
boundaries (``q_grid``'s ``.u``, ``evolve``'s ``.excited``, ``.ground``
and ``.k``), so a change to those result types can break the traced run
while every other test passes.  Each workload is run once, briefly, as
``python3 perfbench/run.py --workload W --seed 1 --seconds 0.01 --trace 1``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_traced_run_is_correct_and_reports_every_layer(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    if workload == "phase_space":
        # the work of the Q kernel: 241 x 241 points times 257 Fock levels
        assert result["metrics"]["observables.q_grid.terms"]["value"] == 241 * 241 * 257
