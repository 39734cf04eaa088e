"""Special-time pure states of the cavity field and their verification.

At whole multiples of pi the field returns to a coherent state; at half
period it is a single Kerr state; at pi/4 + delta_r (delta_r = r pi / (16
nbar), r odd) it is approximately an equal superposition of two Kerr states
-- the Kerr cat.  This module builds those target states, post-selects
simulated fields against them, scans the entropy dips, and counts the
phase-space components of a Q grid.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .dynamics import (
    _MAX_PHASE,
    JointState,
    ModelParams,
    Time,
    TimeGrid,
    atom_density,
    atom_density_series,
    evolve,
)
from .errors import JcmError
from .fock import fidelity, kerr_state
from .observables import PhaseGrid, entropy

__all__ = [
    "dip_offset",
    "expected_kerr_state",
    "expected_cat_state",
    "post_selected_field",
    "entropy_dip_scan",
    "count_components",
    "cat_match",
    "kerr_fidelity_at_half_period",
]


def dip_offset(r: int, nbar: float) -> Time:
    """Offset delta_r = r pi / (16 nbar), odd r, from the quarter period at
    which the entanglement dips, as an exact :class:`Time`.  A delta_r past
    the double range (nbar below about 1e-294) is refused: its phases are
    far past 2^40.

    Leading order in 1/nbar.  Measured in quadratic mode, the true dip
    minima approach r delta_1 (1 - 3.5/nbar), which is 0.93 r delta_1 at
    nbar = 50, and S(pi/4 + delta_1) is 0.145, 0.083, 0.026, 0.0090 and
    0.0029 at nbar = 50, 100, 400, 1400 and 5000.
    """
    if r % 2 == 0:
        raise JcmError(f"r must be odd, got {r}")
    if not nbar > 0:
        raise JcmError("nbar must be > 0")
    try:
        return Time(Fraction(r) / (16 * Fraction(nbar)))
    except (OverflowError, JcmError):
        raise JcmError(f"delta_{r} = {r} pi / (16 nbar) at nbar = {nbar:.6g} is past the "
                       "double range, so its phases are past 2^40") from None


def _kerr_target(params: ModelParams, theta: float, gamma: float) -> np.ndarray:
    """|alpha e^{i theta}, gamma> over the downshifted field's |0>..|cutoff - k>,
    from the model's C_n by C_n(alpha e^{i theta}) = C_n(alpha) e^{i n theta},
    renormalized over that range.  Its phases n theta and gamma n(n-1)/2 are
    taken in floats, so they are bounded like a kernel's (``_MAX_PHASE``)."""
    _require_k4(params)
    c = params.amplitudes[:params.cutoff - params.k + 1]
    n = len(c) - 1
    phase = abs(theta) * n + abs(gamma) * n * (n - 1) / 2
    if not phase <= _MAX_PHASE:
        raise JcmError(f"Kerr target phases reach {phase:.3e} rad, past 2^40, "
                       "where their float rounding exceeds 2.4e-4 rad")
    rotated = c * np.exp(1j * theta * np.arange(len(c)))
    return kerr_state(rotated / np.linalg.norm(rotated), gamma)


def expected_kerr_state(params: ModelParams) -> np.ndarray:
    """Predicted field at half period after detecting the atom in |g>:
    the Kerr state |-alpha, pi>.

    The simulated ground branch lives on |n+4>; compare against this state
    only after the 4-step downshift of :func:`post_selected_field`.
    """
    return _kerr_target(params, math.pi, math.pi)


def expected_cat_state(params: ModelParams, delta: Time | float) -> tuple[np.ndarray, float]:
    """Equal superposition of two Kerr states predicted at tau = pi/4 + delta.

    With d = delta and tau = pi/4 + d the target is

        (1/sqrt(2)) [ e^{+i5 tau} |-i alpha e^{+i6d}, +pi/2 + 2d>
                    - e^{-i5 tau} |+i alpha e^{-i6d}, -pi/2 - 2d> ]

    which follows from splitting sin(W_n tau) into its two exponentials with
    W_n = n(n-1) + 6n + 5 (note the conjugate-symmetric +i6d / -i6d pair of
    branch rotations).

    Returns the normalized target and the norm of the nominal equal-weight
    superposition before renormalization (1 when the branches are exactly
    orthogonal, so ``abs(pre_norm - 1)`` measures the branch overlap plus
    any drift of the branch weights away from 1/sqrt(2)).
    """
    d = float(delta)
    tau = math.pi / 4.0 + d
    # -i alpha e^{+i6d} = alpha e^{i(6d - pi/2)}, and +i alpha e^{-i6d} its mirror
    branch_plus = _kerr_target(params, 6 * d - math.pi / 2, math.pi / 2 + 2 * d)
    branch_minus = _kerr_target(params, math.pi / 2 - 6 * d, -math.pi / 2 - 2 * d)
    raw = (np.exp(5j * tau) * branch_plus
           - np.exp(-5j * tau) * branch_minus) / math.sqrt(2.0)
    pre_norm = float(np.linalg.norm(raw))
    return raw / pre_norm, pre_norm


def post_selected_field(state: JointState) -> np.ndarray:
    """Normalized field conditioned on detecting the atom in |g>, with the
    k-photon index shift of the ground branch removed, so the result lives
    on |0>..|cutoff - k> and compares against states written over |n>."""
    norm_sq = float(np.vdot(state.ground, state.ground).real)
    if norm_sq <= 1e-12:
        raise JcmError(f"outcome 'g' has probability {norm_sq:.3e}")
    return (state.ground / math.sqrt(norm_sq))[state.k:]


def entropy_dip_scan(
    params: ModelParams, center: float, halfwidth: float, steps: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Sample the field entropy on [center - halfwidth, center + halfwidth].

    Returns ``(taus, entropies, minima)``: the sample times, the entropy at
    each, and the indices of the local minima, the interior samples strictly
    below both neighbors.  The times are a :class:`TimeGrid`, exact in their
    pi part when ``center`` and ``halfwidth`` are :class:`Time` values.
    """
    if steps < 3:
        raise JcmError("steps must be >= 3")
    grid = TimeGrid(center - halfwidth, center + halfwidth, steps)
    s = entropy(atom_density_series(params, grid))
    minima = np.flatnonzero((s[1:-1] < s[:-2]) & (s[1:-1] < s[2:])) + 1
    return grid.taus, s, tuple(int(i) for i in minima)


def _label(mask: np.ndarray) -> np.ndarray:
    """4-connected components of a 2-D boolean mask, numbered 1.. in the raster
    order of their first cell (0 marks the background), by a flood fill over
    the flat indices of the cells set."""
    nx = mask.shape[1]
    cells = np.flatnonzero(mask).tolist()
    unvisited = set(cells)
    labels = np.zeros(mask.size, dtype=np.intp)
    count = 0
    for seed in cells:
        if seed not in unvisited:
            continue
        unvisited.remove(seed)
        count += 1
        component, stack = [], [seed]
        while stack:
            i = stack.pop()
            component.append(i)
            col = i % nx
            # a left or right step off the row's end is no neighbour
            for j in (i - nx, i + nx, i - 1 if col else -1, i + 1 if col + 1 < nx else -1):
                if j in unvisited:
                    unvisited.remove(j)
                    stack.append(j)
        labels[component] = count
    return labels.reshape(mask.shape)


def count_components(grid: PhaseGrid, threshold_fraction: float) -> tuple[float, ...]:
    """Masses of the 4-connected components of cells above
    threshold_fraction * max Q: per-component Riemann sums, sorted descending.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise JcmError("threshold_fraction must be in (0, 1)")
    peak = float(grid.values.max())
    if peak <= 0.0:
        raise JcmError("grid has no positive Q values")
    labels = _label(grid.values > threshold_fraction * peak)
    masses = np.bincount(labels.ravel(), weights=grid.values.ravel())[1:] * grid.cell_area
    return tuple(sorted(masses.tolist(), reverse=True))


def _require_k4(params: ModelParams) -> None:
    if params.k != 4:
        raise JcmError(
            f"the Kerr and cat targets and the dip offsets are derived for k=4, got k={params.k}")


def kerr_fidelity_at_half_period(params: ModelParams) -> float:
    """Fidelity of the downshifted ground branch at tau = pi/2 with the
    predicted Kerr state |-alpha, pi> (1 up to rounding in quadratic mode)."""
    target = expected_kerr_state(params)
    return fidelity(post_selected_field(evolve(params, Time(Fraction(1, 2)))), target)


def cat_match(params: ModelParams, delta: Time) -> dict:
    """Compare the simulated field at tau = pi/4 + delta_r with the cat.

    Returns both the plain fidelity against the renormalized cat and the
    nominal-superposition fidelity |<cat_raw|field>|^2 (the renormalized
    fidelity times pre_norm^2), which additionally penalizes any drift of
    the branch structure away from the ideal equal-weight cat and therefore
    degrades as |r| grows; and, as ``"rho"``, the state's atomic density matrix.
    """
    cat, pre_norm = expected_cat_state(params, delta)
    state = evolve(params, Time(Fraction(1, 4)) + delta)
    f_normalized = fidelity(post_selected_field(state), cat)
    f_nominal = min(pre_norm ** 2 * f_normalized, 1.0)
    return {
        "fidelity": f_normalized,
        "nominal_fidelity": f_nominal,
        "pre_norm": pre_norm,
        "rho": atom_density(state),
    }
