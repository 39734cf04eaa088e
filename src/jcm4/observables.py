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

from .dynamics import AtomDensity, FieldRank2, JointState, ModelParams, RabiMode, Time, _support
from .errors import JcmError

__all__ = [
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

# Grid points per block of the Q recurrence.  The five complex working
# arrays of a block then take 320 KiB, which stays in a 2 MiB L2 cache
# through the steps over the support (166 at nbar 50, 1329 at 5000); the
# whole 241x241 grid at once (4.5 MiB) does not, and took 0.15 s per grid
# against 0.10 s in blocks over 257 steps.  Blocks of 1024 pay more in
# per-call overhead than they save (0.21 s).
_Q_BLOCK = 4096


@dataclass(frozen=True)
class PhaseGrid:
    """Husimi Q values on a rectangular grid of beta = x + iy.

    ``values[i, j]`` is Q at re = res[i], im = ims[j] (row-major over re);
    all three are read-only, and each axis has at least two points.
    """

    res: np.ndarray
    ims: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("res", "ims", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.nx >= 2 and self.ny >= 2 and self.values.shape == (self.nx, self.ny)):
            raise JcmError(f"values of shape {self.values.shape} on {self.nx}x{self.ny} axes")

    @property
    def nx(self) -> int:
        return len(self.res)

    @property
    def ny(self) -> int:
        return len(self.ims)

    @property
    def cell_area(self) -> float:
        # as floats: linspace pins the ends, and past the double range is inf, no warning
        dx = (float(self.res[-1]) - float(self.res[0])) / (self.nx - 1)
        dy = (float(self.ims[-1]) - float(self.ims[0])) / (self.ny - 1)
        return dx * dy

    def riemann_sum(self) -> float:
        """Integral of Q over the window, midpoint-style cell sum."""
        return float(self.values.sum() * self.cell_area)


def pnd(state: JointState) -> np.ndarray:
    """Photon number distribution P_n = |excited_n|^2 + |ground_n|^2."""
    return np.abs(state.excited) ** 2 + np.abs(state.ground) ** 2


def _shifted_pair(moduli_sq: np.ndarray) -> np.ndarray:
    """|C_n|^2 + |C_{n-4}|^2 with the second term absent below n = 4."""
    out = moduli_sq.astype(float).copy()
    out[4:] += moduli_sq[:-4]
    return out


def pnd_closed_quarter(moduli_sq: np.ndarray) -> np.ndarray:
    """Quarter-period distribution: the average of the tau=0 and tau=pi/2
    Poissonians, P_n = (|C_n|^2 + |C_{n-4}|^2) / 2.

    The residue of (n^2 - 3n + 1) mod 8 puts every phase at an odd multiple
    of pi/4, so cos^2 = sin^2 = 1/2 exactly for every n.
    """
    moduli_sq = np.asarray(moduli_sq, dtype=float)
    return 0.5 * _shifted_pair(moduli_sq)


def pnd_closed_eighth(moduli_sq: np.ndarray) -> np.ndarray:
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
    return factors * _shifted_pair(moduli_sq)


def pnd_closed_near_quarter(moduli_sq: np.ndarray, delta: float) -> np.ndarray:
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
    args = (phase_int % 8) * (math.pi / 4.0) + phase_int * delta
    return _shifted_pair(moduli_sq) * np.sin(args) ** 2


def entropy(rho: AtomDensity) -> float | np.ndarray:
    """von Neumann entropy -sum p ln p of the 2x2 matrix, in [0, ln 2].

    Elementwise: a float for one density matrix, an array for a series.
    The eigenvalues are divided by the trace, so the last-bit rounding of a
    normalized state's norm cancels and a pure state gives exactly +0.  They
    are clamped to [0, 1] before the logarithm to absorb 1e-15-scale
    negatives; 0 ln 0 is 0.  A non-finite entry raises
    :class:`JcmError` instead of reading as a pure state.
    """
    if not all(np.all(np.isfinite(x)) for x in (rho.rho11, rho.rho22, rho.rho12)):
        raise JcmError(f"non-finite atomic density matrix: {rho}")
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
    (re_min, re_max, im_min, im_max).  Vectorized over the grid points, in
    blocks of ``_Q_BLOCK``, and summed over the support of u and v
    (:func:`~jcm4.dynamics._support`); a window too wide for doubles gives
    non-finite Q and :class:`JcmError`."""
    re_min, re_max, im_min, im_max = (float(w) for w in window)
    # ordered bounds (NaN is not) and the two points per axis cell_area needs
    if not (nx >= 2 and ny >= 2 and re_min < re_max and im_min < im_max):
        raise JcmError(f"window {re_min},{re_max},{im_min},{im_max} at {nx}x{ny}")
    support = _support(np.abs(field.u), np.abs(field.v))
    # caught as non-finite Q; beta = 0 takes the log of 0 in the seed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xs = np.linspace(re_min, re_max, nx)
        ys = np.linspace(im_min, im_max, ny)
        bc = (xs[:, None] - 1j * ys[None, :]).ravel()  # conj(beta), row-major in re
        q = np.empty(bc.size)
        for start in range(0, bc.size, _Q_BLOCK):
            block = slice(start, start + _Q_BLOCK)
            q[block] = _q_block(bc[block], field.u, field.v, support)
        q = q.reshape(nx, ny)
    if not np.all(np.isfinite(q)):
        raise JcmError(f"non-finite Q on window {window} at {nx}x{ny}")
    return PhaseGrid(res=xs, ims=ys, values=q)


def _q_seed(bc: np.ndarray, lo: int) -> np.ndarray:
    """|<beta|lo>| = e^{-x/2} x^{lo/2} / sqrt(lo!), x = |beta|^2, at the points
    conj(beta) = ``bc``; at lo = 0 it is e^{-x/2}.

    Above lo = 0 it is taken in logs, which do not underflow, as the
    exponent lo/2 (ln(1 + t) - t) + r/2 with t = x/lo - 1 and
    r = lo ln lo - lo - ln lo!.  In that form no two terms of order x are
    subtracted, so the exponent is rounded by about eps |x - lo|, not eps x.
    r is Stirling's series from lo = 40 (omitted term below 4e-15) and the
    direct difference below it (error below 2e-14).  x = inf is held at
    t = 1e300, so that it seeds 0, not NaN.
    """
    x = np.abs(bc) ** 2
    if not lo:
        return np.exp(-x / 2.0)
    if lo < 40:
        r = lo * math.log(lo) - lo - math.lgamma(lo + 1)
    else:
        s = 1.0 / (lo * lo)
        r = -0.5 * math.log(2.0 * math.pi * lo) - (1.0 - s * (1.0 / 30.0 - s / 105.0)) / (12.0 * lo)
    t = np.minimum(x / lo - 1.0, 1e300)
    return np.exp(lo / 2.0 * (np.log1p(t) - t) + r / 2.0)


def _q_block(bc: np.ndarray, u: np.ndarray, v: np.ndarray, window: slice) -> np.ndarray:
    """Q at the points conj(beta) = ``bc``: (|<beta|u>|^2 + |<beta|v>|^2)/pi,
    summed over the support ``window`` = [lo, hi) of u and v.

    The terms are e^{i lo arg beta} <beta|n>, from the seed |<beta|lo>|
    (:func:`_q_seed`) by the recurrence term_{n+1} = term_n conj(beta) /
    sqrt(n+1); the phase is common to every n at a point, so Q drops it.
    The working arrays are allocated once and reused.  The step
    bc / sqrt(n+1) is taken as a multiply of the float view by the
    reciprocal, which is how numpy divides a complex by a real: the same
    bits without a complex division.  Each complex product goes to an array
    that is neither factor: numpy rounds a product written over one of its
    one-point factors differently, which a one-point last block would show."""
    term = _q_seed(bc, window.start).astype(complex)
    su = np.zeros_like(term)
    sv = np.zeros_like(term)
    tmp = np.empty_like(term)
    nxt = np.empty_like(term)
    bc_parts, tmp_parts = bc.view(float), tmp.view(float)  # (re, im) pairs
    for n in range(window.start, window.stop):
        su += np.multiply(term, u[n], out=tmp)
        sv += np.multiply(term, v[n], out=tmp)
        np.multiply(bc_parts, 1.0 / math.sqrt(n + 1), out=tmp_parts)
        term, nxt = np.multiply(term, tmp, out=nxt), term
    return (np.abs(su) ** 2 + np.abs(sv) ** 2) / math.pi


def atomic_inversion(params: ModelParams, tau: float) -> float:
    """Population inversion W(tau) = sum |C_n|^2 cos(2 W_n tau), in [-1, 1].

    Equals rho22 - rho11 of the evolved state; this direct sum is the
    independent second route.  At a :class:`Time` pi p/q + rest in
    quadratic mode it reduces 2 W_n p mod 2q itself, in Python integers,
    apart from the dynamics kernel's reduction.
    """
    weights = np.abs(params.amplitudes) ** 2
    if isinstance(tau, Time) and params.mode is RabiMode.QUADRATIC:
        p, q = tau.pi_part.numerator, tau.pi_part.denominator
        residues = [2 * w * p % (2 * q) for w in params.frequencies.astype(np.int64).tolist()]
        angles = np.array(residues, dtype=float) * (math.pi / q)
        angles += 2.0 * params.frequencies * tau.rest
    else:
        angles = 2.0 * params.frequencies * float(tau)
    return float(np.sum(weights * np.cos(angles)))
