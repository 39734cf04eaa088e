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
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dynamics import JointState, ModelParams, atom_density_series, evolve
from .errors import EmptyGrid, EvenR, NegligibleBranch, TargetsRequireK4
from .fock import DEFAULT_TAIL_TOL, FieldState, fidelity, kerr_state
from .observables import PhaseGrid, entropy

__all__ = [
    "ComponentReport",
    "CatState",
    "DipScan",
    "dip_offset",
    "expected_kerr_state",
    "expected_cat_state",
    "post_selected_field",
    "entropy_dip_scan",
    "count_components",
]


def dip_offset(r: int, nbar: float) -> float:
    """Offset delta_r = r pi / (16 nbar), odd r, from the quarter period at
    which the entanglement dips.

    Leading order in 1/nbar.  Measured in quadratic mode, the true dip
    minima approach r delta_1 (1 - 3.5/nbar), which is 0.93 r delta_1 at
    nbar = 50, and S(pi/4 + delta_1) is 0.145, 0.083, 0.026, 0.0090 and
    0.0029 at nbar = 50, 100, 400, 1400 and 5000.
    """
    if r % 2 == 0:
        raise EvenR(f"r must be odd, got {r}")
    if nbar <= 0:
        raise ValueError("nbar must be > 0")
    return r * math.pi / (16.0 * nbar)


def expected_kerr_state(
    alpha: complex, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> FieldState:
    """Predicted field at half period after detecting the atom in |g>:
    the Kerr state |-alpha, pi>.

    The simulated ground branch lives on |n+4>; compare against this state
    only after the explicit 4-step downshift of :func:`post_selected_field`.
    """
    return kerr_state(-alpha, math.pi, cutoff, tail_tol)


@dataclass(frozen=True)
class CatState:
    """Normalized Kerr-cat target plus the norm of the nominal equal-weight
    superposition before renormalization (1 when the branches are exactly
    orthogonal, so ``abs(pre_norm - 1)`` measures the branch overlap plus
    any drift of the branch weights away from 1/sqrt(2))."""

    state: FieldState
    pre_norm: float


def expected_cat_state(
    alpha: complex,
    delta: float,
    cutoff: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> CatState:
    """Equal superposition of two Kerr states predicted at tau = pi/4 + delta.

    With d = delta and tau = pi/4 + d the target is

        (1/sqrt(2)) [ e^{+i5 tau} |-i alpha e^{+i6d}, +pi/2 + 2d>
                    - e^{-i5 tau} |+i alpha e^{-i6d}, -pi/2 - 2d> ]

    which follows from splitting sin(W_n tau) into its two exponentials with
    W_n = n(n-1) + 6n + 5 (note the conjugate-symmetric +i6d / -i6d pair of
    branch rotations).
    """
    d = delta
    tau = math.pi / 4.0 + d
    branch_plus = kerr_state(-1j * alpha * np.exp(+6j * d), math.pi / 2 + 2 * d,
                             cutoff, tail_tol)
    branch_minus = kerr_state(+1j * alpha * np.exp(-6j * d), -math.pi / 2 - 2 * d,
                              cutoff, tail_tol)
    raw = (np.exp(5j * tau) * branch_plus.amplitudes
           - np.exp(-5j * tau) * branch_minus.amplitudes) / math.sqrt(2.0)
    pre_norm = float(np.linalg.norm(raw))
    state = FieldState(amplitudes=raw / pre_norm, cutoff=cutoff)
    return CatState(state=state, pre_norm=pre_norm)


def post_selected_field(
    state: JointState,
    outcome: Literal["e", "g"],
    downshift: bool = False,
) -> FieldState:
    """Normalized field conditioned on detecting the atom in |e> or |g>.

    ``downshift`` removes the k-photon index shift of the ground branch so
    the result can be compared against states written over |n>; it is a
    no-op guard for the excited branch, whose amplitudes are unshifted.
    """
    if outcome == "e":
        branch = state.excited
    elif outcome == "g":
        branch = state.ground
    else:
        raise ValueError(f"outcome must be 'e' or 'g', got {outcome!r}")
    norm_sq = float(np.vdot(branch, branch).real)
    if norm_sq <= 1e-12:
        raise NegligibleBranch(
            f"outcome {outcome!r} has probability {norm_sq:.3e}"
        )
    amps = branch / math.sqrt(norm_sq)
    if downshift and outcome == "g":
        amps = amps[state.k:]
    return FieldState(amplitudes=amps, cutoff=len(amps) - 1)


@dataclass(frozen=True)
class DipScan:
    """Entropy samples over a tau interval and the indices of local minima."""

    taus: np.ndarray
    entropies: np.ndarray
    minima: tuple[int, ...]


def entropy_dip_scan(
    params: ModelParams, center: float, halfwidth: float, steps: int
) -> DipScan:
    """Sample the field entropy on [center - halfwidth, center + halfwidth].

    Local minima are interior grid points strictly below both neighbors.
    """
    if steps < 3:
        raise ValueError("steps must be >= 3")
    taus = np.linspace(center - halfwidth, center + halfwidth, steps)
    s = entropy(atom_density_series(params, taus))
    minima = np.flatnonzero((s[1:-1] < s[:-2]) & (s[1:-1] < s[2:])) + 1
    return DipScan(taus=taus, entropies=s, minima=tuple(int(i) for i in minima))


@dataclass(frozen=True)
class ComponentReport:
    """Connected components of a thresholded Q grid: one mass per component."""

    component_masses: tuple[float, ...]


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


def count_components(grid: PhaseGrid, threshold_fraction: float) -> ComponentReport:
    """Count 4-connected components of cells above threshold_fraction * max Q.

    Masses are per-component Riemann sums, sorted descending.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must be in (0, 1)")
    peak = float(grid.values.max(initial=0.0))
    if grid.values.size == 0 or peak <= 0.0:
        raise EmptyGrid("grid has no positive Q values")
    labels = _label(grid.values > threshold_fraction * peak)
    masses = np.bincount(labels.ravel(), weights=grid.values.ravel())[1:] * grid.cell_area
    return ComponentReport(component_masses=tuple(sorted(masses.tolist(), reverse=True)))


def _require_k4(params: ModelParams) -> None:
    if params.k != 4:
        raise TargetsRequireK4(
            f"the Kerr and cat targets and the dip offsets are derived for k=4, got k={params.k}")


def kerr_fidelity_at_half_period(params: ModelParams) -> float:
    """Fidelity of the downshifted ground branch at tau = pi/2 with the
    predicted Kerr state |-alpha, pi> (1 up to rounding in quadratic mode)."""
    _require_k4(params)
    state = evolve(params, math.pi / 2.0)
    field = post_selected_field(state, "g", downshift=True)
    target = expected_kerr_state(params.alpha, field.cutoff, params.tail_tol)
    return fidelity(field, target)


def cat_match(params: ModelParams, delta: float) -> dict:
    """Compare the simulated field at tau = pi/4 + delta_r with the cat.

    Returns both the plain fidelity against the renormalized cat and the
    nominal-superposition fidelity |<cat_raw|field>|^2 (the renormalized
    fidelity times pre_norm^2), which additionally penalizes any drift of
    the branch structure away from the ideal equal-weight cat and therefore
    degrades as |r| grows.
    """
    _require_k4(params)
    state = evolve(params, math.pi / 4.0 + delta)
    field = post_selected_field(state, "g", downshift=True)
    cat = expected_cat_state(params.alpha, delta, field.cutoff, params.tail_tol)
    f_normalized = fidelity(field, cat.state)
    f_nominal = min(cat.pre_norm ** 2 * f_normalized, 1.0)
    return {
        "fidelity": f_normalized,
        "nominal_fidelity": f_nominal,
        "pre_norm": cat.pre_norm,
    }
