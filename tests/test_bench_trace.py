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

The last pin has a fast, in-process test: each ``<layer>.<function>`` of
``BENCHMARK.json`` is a function of ``jcm4.<layer>`` listed in its
``__all__``, and each module's ``__all__`` is exactly the public functions
and classes it defines.  The rest need a run: each workload is run once,
briefly, as
``python3 perfbench/run.py --workload W --seed 1 --seconds 0.01 --trace 1``.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# "<layer>.<function>" of every per-function metric, "<layer>.<function>.<metric>"
PINNED = sorted({m["name"].rpartition(".")[0] for m in DECLARED["per_layer"]
                 if m["name"].count(".") == 2})
MODULES = ("fock", "dynamics", "observables", "catlab", "errors")


def public_definitions(module) -> list[str]:
    """Names of the functions and classes ``module`` defines, not _private."""
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    )


@pytest.mark.parametrize("name", MODULES)
def test_all_is_the_public_api(name):
    module = importlib.import_module(f"jcm4.{name}")
    assert sorted(module.__all__) == public_definitions(module)


@pytest.mark.parametrize("pinned", PINNED)
def test_declared_function_is_public(pinned):
    layer, _, name = pinned.partition(".")
    module = importlib.import_module(f"jcm4.{layer}")
    assert name in public_definitions(module) and inspect.isfunction(getattr(module, name))
    if pinned != "cli.main":  # cli declares no __all__
        assert name in module.__all__


def test_package_binds_only_its_modules():
    import jcm4
    import jcm4.cli  # noqa: F401  (binds every module on the package)

    public = {name: obj for name, obj in vars(jcm4).items() if not name.startswith("_")}
    assert sorted(public) == sorted(MODULES + ("cli",))
    assert all(inspect.ismodule(obj) for obj in public.values())


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
