"""Property tests: invariants of the evolved joint state over drawn models.

k runs over 1..4 (the quadratic frequencies only at k = 4), nbar over
[0, 300] with a cutoff that passes the tail check, and tau over [-20, 20].
The draws are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jcm4.dynamics import (
    ModelParams,
    RabiMode,
    TimeGrid,
    atom_density,
    atom_density_series,
    evolve,
)
from jcm4.fock import fidelity
from jcm4.observables import atomic_inversion, entropy, pnd

LN2 = math.log(2.0)


@st.composite
def models(draw):
    k = draw(st.integers(1, 4))
    modes = [RabiMode.EXACT, RabiMode.QUADRATIC] if k == 4 else [RabiMode.EXACT]
    mode = draw(st.sampled_from(modes))
    nbar = draw(st.floats(0.0, 300.0))
    phase = draw(st.floats(-math.pi, math.pi))
    # ten standard deviations above nbar leaves far less than the default
    # 1e-9 of the Poisson mass above cutoff - k
    cutoff = k + math.ceil(nbar + 10.0 * math.sqrt(nbar)) + 10 + draw(st.integers(0, 20))
    return ModelParams(k=k, alpha=math.sqrt(nbar) * complex(math.cos(phase), math.sin(phase)),
                       cutoff=cutoff, mode=mode)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(params=models(), tau=st.floats(-20.0, 20.0))
def test_evolved_state_invariants(params, tau):
    state = evolve(params, tau)
    norm_sq = (np.vdot(state.excited, state.excited).real
               + np.vdot(state.ground, state.ground).real)
    assert norm_sq <= 1.0 + 1e-12
    assert abs(pnd(state).sum() - norm_sq) <= 1e-12

    rho = atom_density(state)
    assert 0.0 <= entropy(rho) <= LN2
    series = atom_density_series(params, TimeGrid(0.0, tau, 2))
    for name in ("rho11", "rho22", "rho12"):
        assert abs(getattr(series, name)[1] - getattr(rho, name)) <= 1e-12, name
    # the direct sum keeps the ground mass that the k-shift pushes above
    # the cutoff, which the tail check bounds by tail_tol
    assert abs(atomic_inversion(params, tau) - (rho.rho22 - rho.rho11)) <= params.tail_tol

    if min(rho.rho11, rho.rho22) > 1e-12:
        f = fidelity(state.excited, state.ground)
        assert 0.0 <= f <= 1.0
        assert abs(fidelity(state.ground, state.excited) - f) <= 1e-12
