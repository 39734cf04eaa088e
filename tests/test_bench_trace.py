"""The traced benchmark runs clean on every workload.

``perfbench/tracing.py`` reads the library at its span boundaries, so a
change to any of these can break the traced run while every other test
passes:

- ``q_grid``'s argument, a ``FieldRank2``, through ``.u``, and its
  result, a ``PhaseGrid``, through ``.nx`` and ``.ny``;
- ``evolve``'s result, a ``JointState``, through ``.excited``,
  ``.ground`` and ``.k``;
- ``coherent_state(alpha, cutoff, tail_tol)``: the tracer reads
  ``tail_tol`` as the third positional argument, or as the first default.
  No ``jcm4`` computation calls it any more, so its ``calls`` read 0 and
  its ``useful_ratio`` 0.0, but it stays public with this signature:
  ``BENCHMARK.json`` names its metrics, and the traced run fails with a
  ``KeyError`` on a metric whose function is gone;
- every per-layer name in ``BENCHMARK.json``, such as
  ``dynamics.atom_density`` or ``catlab.cat_match``: each must remain a
  public function of its module, or its metric is never reported.

Each workload is run once, briefly, as
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
