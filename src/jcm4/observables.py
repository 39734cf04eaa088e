"""Observables of the evolving cavity field.

Photon-number distributions (simulated plus independent closed-form
evaluators for the special times), von Neumann entropy of the 2x2 atomic
density matrix, the Husimi Q-function on phase-space grids, and the atomic
population inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AtomDensity, FieldRank2, JointState, ModelParams
from .errors import DegenerateWindow, NonFiniteValue

__all__ = [
    "Pnd",
    "PhaseGrid",
    "pnd",
    "pnd_closed_quarter",
    "pnd_closed_eighth",
    "pnd_closed_near_quarter",
    "entropy",
    "q_grid",
    "atomic_inversion",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Pnd:
    """Photon number distribution P_n at scaled time tau."""

    probabilities: np.ndarray
    tau: float

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def total(self) -> float:
        return float(self.probabilities.sum())


@dataclass(frozen=True)
class PhaseGrid:
    """Husimi Q values on a rectangular grid of beta = x + iy.

    ``values[i, j]`` is Q at re = res[i], im = ims[j] (row-major over re).
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    values: np.ndarray

    def __post_init__(self):
        _check_window(self.re_min, self.re_max, self.im_min, self.im_max, self.nx, self.ny)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.nx, self.ny):
            raise ValueError("values must have shape (nx, ny)")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def res(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    @property
    def ims(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    @property
    def cell_area(self) -> float:
        dx = (self.re_max - self.re_min) / (self.nx - 1)
        dy = (self.im_max - self.im_min) / (self.ny - 1)
        return dx * dy

    def riemann_sum(self) -> float:
        """Integral of Q over the window, midpoint-style cell sum."""
        return float(self.values.sum() * self.cell_area)


def _check_window(re_min, re_max, im_min, im_max, nx, ny) -> None:
    """Raise :class:`DegenerateWindow` unless the bounds are ordered (NaN is
    not) and each axis has at least the two points ``cell_area`` divides by."""
    if not (nx >= 2 and ny >= 2 and re_min < re_max and im_min < im_max):
        raise DegenerateWindow(f"window {re_min},{re_max},{im_min},{im_max} at {nx}x{ny}")


def pnd(state: JointState) -> Pnd:
    """P_n = |excited_n|^2 + |ground_n|^2 from the joint state."""
    p = np.abs(state.excited) ** 2 + np.abs(state.ground) ** 2
    return Pnd(probabilities=p, tau=state.tau)


def _shifted_pair(moduli_sq: np.ndarray, k: int = 4) -> np.ndarray:
    """|C_n|^2 + |C_{n-k}|^2 with the second term absent below n = k."""
    out = moduli_sq.astype(float).copy()
    out[k:] += moduli_sq[:-k]
    return out


def pnd_closed_quarter(moduli_sq: np.ndarray) -> Pnd:
    """Quarter-period distribution: the average of the tau=0 and tau=pi/2
    Poissonians, P_n = (|C_n|^2 + |C_{n-4}|^2) / 2.

    The residue of (n^2 - 3n + 1) mod 8 puts every phase at an odd multiple
    of pi/4, so cos^2 = sin^2 = 1/2 exactly for every n.
    """
    moduli_sq = np.asarray(moduli_sq, dtype=float)
    return Pnd(probabilities=0.5 * _shifted_pair(moduli_sq), tau=math.pi / 4)


def pnd_closed_eighth(moduli_sq: np.ndarray) -> Pnd:
    """Eighth-period distribution with block factors by n mod 8:
    (2 - sqrt(2))/4 for residues 0..3 and (2 + sqrt(2))/4 for residues 4..7.

    Every entry with n >= 4 stays strictly positive, so the oscillation is
    strong but not perfect at tau = pi/8 itself.
    """
    moduli_sq = np.asarray(moduli_sq, dtype=float)
    n = np.arange(len(moduli_sq))
    low = (2.0 - math.sqrt(2.0)) / 4.0
    high = (2.0 + math.sqrt(2.0)) / 4.0
    factors = np.where(n % 8 < 4, low, high)
    return Pnd(probabilities=factors * _shifted_pair(moduli_sq), tau=math.pi / 8)


def pnd_closed_near_quarter(moduli_sq: np.ndarray, delta: float) -> Pnd:
    """Near-quarter distribution at tau = pi/4 + delta:
    P_n = (|C_n|^2 + |C_{n-4}|^2) sin^2[(n^2 - 3n + 1)(pi/4 + delta)].

    Leading order in 1/nbar (it assumes |C_n| ~ |C_{n-4}|).  At
    delta = delta_1 the measured worst entry against simulation is 0.38/nbar
    at each of nbar = 50, 100, 400, 1400 and 5000: 7.4e-3 at nbar = 50,
    7.6e-5 at 5000.
    """
    moduli_sq = np.asarray(moduli_sq, dtype=float)
    n = np.arange(len(moduli_sq), dtype=np.int64)
    phase_int = n * n - 3 * n + 1
    # Split the phase into an exact mod-8 residue times pi/4 plus the small
    # delta part; keeps the trig argument O(n^2 delta) instead of O(n^2).
    tau = math.pi / 4 + delta
    args = (phase_int % 8) * (math.pi / 4.0) + phase_int * delta
    probs = _shifted_pair(moduli_sq) * np.sin(args) ** 2
    return Pnd(probabilities=probs, tau=tau)


def entropy(rho: AtomDensity) -> float | np.ndarray:
    """von Neumann entropy -sum p ln p of the 2x2 matrix, in [0, ln 2].

    Elementwise: a float for one density matrix, an array for a series.
    The eigenvalues are divided by the trace, so the last-bit rounding of a
    normalized state's norm cancels and a pure state gives exactly +0.  They
    are clamped to [0, 1] before the logarithm to absorb 1e-15-scale
    negatives; 0 ln 0 is 0.  A non-finite entry raises
    :class:`NonFiniteValue` instead of reading as a pure state.
    """
    if not all(np.all(np.isfinite(x)) for x in (rho.rho11, rho.rho22, rho.rho12)):
        raise NonFiniteValue(f"non-finite atomic density matrix: {rho}")
    p = np.clip(np.array(rho.eigenvalues()) / (rho.rho11 + rho.rho22), 0.0, 1.0)
    # 0 - sum, not -sum: a pure state's +0 sum must not become "-0"
    s = np.clip(0.0 - (p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=0), 0.0, LN2)
    return float(s) if s.ndim == 0 else s


def q_grid(
    field: FieldRank2,
    window: tuple[float, float, float, float],
    nx: int,
    ny: int,
) -> PhaseGrid:
    """Q evaluated on an nx-by-ny rectangular grid over ``window`` =
    (re_min, re_max, im_min, im_max).  Vectorized over the grid points; a
    window too wide for doubles gives non-finite Q and :class:`NonFiniteValue`."""
    re_min, re_max, im_min, im_max = (float(w) for w in window)
    _check_window(re_min, re_max, im_min, im_max, nx, ny)
    with np.errstate(over="ignore", invalid="ignore"):  # caught as non-finite Q
        xs = np.linspace(re_min, re_max, nx)
        ys = np.linspace(im_min, im_max, ny)
        bc = (xs[:, None] - 1j * ys[None, :]).ravel()  # conj(beta), row-major in re
        term = np.exp(-np.abs(bc) ** 2 / 2.0).astype(complex)
        su = np.zeros_like(term)
        sv = np.zeros_like(term)
        for n in range(len(field.u)):
            su += term * field.u[n]
            sv += term * field.v[n]
            term *= bc / math.sqrt(n + 1)
        q = ((np.abs(su) ** 2 + np.abs(sv) ** 2) / math.pi).reshape(nx, ny)
    if not np.all(np.isfinite(q)):
        raise NonFiniteValue(f"non-finite Q on window {window} at {nx}x{ny}")
    return PhaseGrid(
        re_min=re_min, re_max=re_max, im_min=im_min, im_max=im_max,
        nx=nx, ny=ny, values=q,
    )


def atomic_inversion(params: ModelParams, tau: float) -> float:
    """Population inversion W(tau) = sum |C_n|^2 cos(2 W_n tau), in [-1, 1].

    Equals rho22 - rho11 of the evolved state; this direct sum is the
    independent second route.
    """
    weights = np.abs(params.amplitudes) ** 2
    return float(np.sum(weights * np.cos(2.0 * params.frequencies * tau)))
