"""The output checks accept what the program writes today and reject
deliberately wrong outputs.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import math
import subprocess
import sys

import numpy as np
import pytest

import checks
import workloads
from worker import run_op

SEEDS = (1, 2)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(spec, parsed outputs) of one operation, run once per workload and seed."""
    from jcm4 import cli

    made = {}

    def get(workload, seed):
        if (workload, seed) not in made:
            spec = workloads.make_spec(workload, seed)
            outdir = tmp_path_factory.mktemp(f"{workload}-{seed}")
            assert run_op(cli, spec.commands(), outdir) is None
            made[workload, seed] = (spec, checks.load_outputs(spec, outdir))
        return made[workload, seed]

    return get


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_todays_outputs(outputs, workload, seed):
    spec, out = outputs(workload, seed)
    assert checks.check_outputs(spec, out) == []


def test_seeds_vary_the_inputs():
    for workload in workloads.WORKLOADS:
        a, b = (workloads.make_spec(workload, s) for s in SEEDS)
        assert (a.alpha_phase, a.r, a.qfunc_time) != (b.alpha_phase, b.r, b.qfunc_time)
        assert a == workloads.make_spec(workload, SEEDS[0])
    times = {workloads.make_spec("phase_space", s).qfunc_time[0] for s in SEEDS}
    assert len(times) == 2


def test_checks_import_nothing_from_jcm4():
    code = ("import sys; import checks; "
            "sys.exit(any(m.split('.')[0] == 'jcm4' for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], cwd=checks.__file__.rpartition("/")[0])
    assert done.returncode == 0


def _sampled(spec, name, n_rows):
    return checks.sample_rows(spec, name, n_rows)[0]


def _bump(key, delta, row=None, col=1):
    def mutate(spec, out):
        data = out[key]
        i = _sampled(spec, key, len(data)) if row is None else row
        data[i, col] += delta
    return mutate


def _bump_pnd(expr, n, delta):
    def mutate(spec, out):
        out["pnd"][expr][n, 1] += delta
    return mutate


def _set_json(key, field, value):
    """Set ``out[key][field]`` (a JSON field, or an array index) to a value
    or to a function of the old one."""
    def mutate(spec, out):
        out[key][field] = value(out[key][field]) if callable(value) else value
    return mutate


def _move_dip(spec, out):
    s = out["entropy_dip"][:, 1]
    s[900 + 2] = s[900] - 1e-3  # deepest sample near r = 3 two steps off


def _bump_q(spec, out):
    q = out["qfunc"]
    q[checks.q_sample_cells(spec, q[:, 2])[0], 2] += 1e-9


def _shift_coordinate(spec, out):
    out["qfunc"][5, 0] = np.nextafter(out["qfunc"][5, 0], 1.0)


def _q_above_bound(spec, out):
    out["qfunc"][0, 2] = 1.0 / math.pi + 1e-9


def _scale_q(spec, out):
    out["qfunc"][:, 2] *= 1.01


MUTATIONS = [
    ("tau_scan", _bump("entropy_dip", 1e-6), "entropy_dip["),
    ("tau_scan", _bump("entropy", 1e-6), "entropy["),
    ("tau_scan", _bump("entropy", 1e-9, row=0), "S(0)"),
    ("tau_scan", _set_json("entropy", (400, 1), math.log(2) + 1e-6), "outside [0, ln 2]"),
    ("tau_scan", _bump("inversion", 1e-6), "inversion["),
    ("tau_scan", _bump("inversion", 1e-9, row=0), "W(0)"),
    ("tau_scan", _bump_pnd("pi/4", 50, 1e-9), "pnd pi/4"),
    ("tau_scan", _bump_pnd("pi/8", 50, 1e-9), "pnd pi/8"),
    ("tau_scan", _bump_pnd("pi/8-pi/24000", 50, 1e-9), "pnd pi/8-pi/24000"),
    ("tau_scan", _set_json("catcheck", "cat_fidelity", 0.97), "cat_fidelity"),
    ("tau_scan", _set_json("catcheck", "kerr_fidelity_half_period", 1 - 1e-7),
     "kerr_fidelity_half_period"),
    ("tau_scan", _set_json("catcheck", "rho12_dip", lambda v: [v[0], v[1] + 1e-6]),
     "rho12_dip"),
    ("large_nbar", _bump("entropy_dip", 1e-4), "entropy_dip["),
    ("large_nbar", _bump("entropy_dip", 0.2, row=700), "S(pi/4 + delta_1)"),
    ("large_nbar", _move_dip, "more than one step"),
    ("large_nbar", _bump_pnd("pi/4+pi/80000", 5000, 1e-6), "independent"),
    ("large_nbar", _bump_pnd("pi/4+pi/80000", 5000, 1e-2), "near-quarter closed form"),
    ("large_nbar", _set_json("catcheck", "rho12_dip", lambda v: [v[0] + 1e-4, v[1]]),
     "rho12_dip"),
    ("phase_space", _bump_q, "qfunc Q("),
    ("phase_space", _set_json("qfunc_json", "component_count", lambda c: c + 1),
     "components"),
    ("phase_space", _set_json("qfunc_json", "component_count", lambda c: c - 1),
     "components"),
    ("phase_space", _q_above_bound, "outside [0, 1/pi]"),
    ("phase_space", _shift_coordinate, "linspace"),
    ("phase_space", _scale_q, "Riemann sum"),
]


@pytest.mark.parametrize("workload,mutate,expected", MUTATIONS,
                         ids=[f"{w}-{e}" for w, _, e in MUTATIONS])
def test_checks_reject_wrong_outputs(outputs, workload, mutate, expected):
    spec, out = outputs(workload, SEEDS[0])
    wrong = copy.deepcopy(out)
    mutate(spec, wrong)
    failures = checks.check_outputs(spec, wrong)
    assert any(expected in f for f in failures), failures
