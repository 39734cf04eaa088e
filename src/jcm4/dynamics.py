"""Closed-form time evolution of the k-photon atom-field system.

The atom starts in |e>, the field in a coherent state.  On resonance the
joint wave function stays in the closed form

    Psi(tau) = sum_n C_n [ cos(W_n tau) |n,e>  -  i sin(W_n tau) |n+k,g> ]

with W_n the generalized Rabi frequency of the n-photon sector.  Everything
in this module evaluates that formula or reduces it to the 2x2 atomic and
rank-2 field density operators; there is no integrator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import JcmError
from .fock import DEFAULT_TAIL_TOL, _check_tail, _normalized_amplitudes

__all__ = [
    "RabiMode",
    "ModelParams",
    "JointState",
    "AtomDensity",
    "FieldRank2",
    "rabi_frequencies",
    "evolve",
    "field_rank2",
    "atom_density",
    "atom_density_series",
]

_SUPPORT_FLOOR = 1e-17  # series kernel keeps |C_n| above this share of the peak
# Entries of one (taus x support) block of the series kernel: 64 KiB per
# float matrix, below the C allocator's 128 KiB threshold for mapping fresh
# pages, so the blocks are reused from the heap and peak memory stays flat.
_CHUNK_ENTRIES = 1 << 13
# Largest phase W_n |tau| a kernel takes.  The rounding of a double phase x
# is about |x| 2^-52, so up to 2^40 the cos and sin are off by at most
# 2^-12 = 2.4e-4 rad; past it they soon have no correct digit.
_MAX_PHASE = 2.0 ** 40


class RabiMode(enum.Enum):
    """Exact sqrt-product frequencies, or the k=4 quadratic approximation."""

    EXACT = "exact"
    QUADRATIC = "quadratic"


def rabi_frequencies(n_max: int, k: int, mode: RabiMode) -> np.ndarray:
    """Generalized Rabi frequencies of the n-photon sectors, n = 0..n_max.

    EXACT: sqrt((n+1)(n+2)...(n+k)).  QUADRATIC (k=4 only): n^2 + 5n + 5,
    an odd integer for every n, which is what makes the special-time
    identities of the quadratic model exact.
    """
    n = np.arange(n_max + 1, dtype=float)
    if mode is RabiMode.QUADRATIC:
        if k != 4:
            raise JcmError(f"quadratic mode is defined for k=4, got k={k}")
        return n * n + 5.0 * n + 5.0
    prod = np.ones_like(n)
    for j in range(1, k + 1):
        prod *= n + j
    return np.sqrt(prod)


@dataclass(frozen=True)
class ModelParams:
    """k-photon model configuration: multiplicity, coherent amplitude, truncation.

    Resonance (atomic splitting = k times the cavity frequency) is assumed
    throughout, so there is no detuning field.  The tail check runs at
    ``cutoff - k``: each de-excitation shifts the ground branch up by k
    photons, so the amplitudes above it leave the stored ground array.

    It also builds, once, the read-only arrays every kernel reads: the
    normalized coherent amplitudes C_n (``amplitudes``) and the Rabi
    frequencies W_n (``frequencies``), n = 0..cutoff, not compared or hashed.
    """

    k: int
    alpha: complex
    cutoff: int
    mode: RabiMode = RabiMode.QUADRATIC
    tail_tol: float = DEFAULT_TAIL_TOL
    amplitudes: np.ndarray = field(init=False, repr=False, compare=False)
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise JcmError("k must be >= 1")
        if self.cutoff < self.k:
            raise JcmError("cutoff must be >= k")
        _check_tail(self.alpha, self.cutoff - self.k, self.tail_tol)
        for name, arr in (
            ("amplitudes", _normalized_amplitudes(self.alpha, self.cutoff)),
            ("frequencies", rabi_frequencies(self.cutoff, self.k, self.mode)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class JointState:
    """Joint atom-field amplitudes at one scaled time.

    ``excited[n]`` multiplies |n,e>, ``ground[n]`` multiplies |n,g>; the
    ground vector is zero below index k because each de-excitation deposits
    k photons.
    """

    excited: np.ndarray
    ground: np.ndarray
    k: int

    def __post_init__(self):
        for name in ("excited", "ground"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class AtomDensity:
    """2x2 reduced density matrix of the atom: rho11 = ground population,
    rho22 = excited population, rho12 the coherence.

    The coherence is reported in the convention where the ground branch
    carries +i sin(W_n tau) rather than the -i of the stored wave function
    (rho12 = -i <g|rho|e>); populations, Hermiticity and the entropy, which
    depends only on |rho12|, are unaffected, and the reported value matches
    the closed-form coherence predictions at the special interaction times.

    Entries are numbers for one time (:func:`atom_density`) or arrays over a
    time axis (:func:`atom_density_series`); the methods work elementwise.
    """

    rho11: float | np.ndarray
    rho22: float | np.ndarray
    rho12: complex | np.ndarray

    def eigenvalues(self) -> tuple:
        """Eigenvalues (t +/- sqrt((rho22-rho11)^2 + 4|rho12|^2)) / 2 with
        t = rho11 + rho22, which is 1 up to rounding for a normalized state."""
        trace = self.rho11 + self.rho22
        d = self.rho22 - self.rho11
        gap = np.sqrt(d * d + 4.0 * np.abs(self.rho12) ** 2)
        return (0.5 * (trace + gap), 0.5 * (trace - gap))


@dataclass(frozen=True)
class FieldRank2:
    """Rank-2 decomposition of the field density operator.

    rho_F = |u><u| + |v><v| with u[n] = C_n cos(W_n tau) and
    v[n+k] = C_n sin(W_n tau); v is zero below index k.  The -i phase on the
    ground branch is absorbed (each dyad is insensitive to a global phase).
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_time(params: ModelParams, tau_abs: float) -> None:
    """Refuse a largest time ``tau_abs`` = max |tau| that is not finite, or
    whose largest phase W_n tau_abs passes ``_MAX_PHASE``."""
    if not math.isfinite(tau_abs):
        raise JcmError("tau must be finite")
    phase = tau_abs * float(params.frequencies[-1])
    if phase > _MAX_PHASE:
        raise JcmError(f"tau = {tau_abs:.6g} reaches phase W_n tau = {phase:.3e} rad, "
                       "past 2^40, where its float rounding exceeds 2.4e-4 rad")


def evolve(params: ModelParams, tau: float) -> JointState:
    """Joint state at scaled time tau from the closed-form solution."""
    _check_time(params, abs(tau))
    c, freqs = params.amplitudes, params.frequencies
    excited = c * np.cos(freqs * tau)
    ground = np.zeros(params.cutoff + 1, dtype=complex)
    k = params.k
    ground[k:] = -1j * c[:-k] * np.sin(freqs[:-k] * tau)
    return JointState(excited=excited, ground=ground, k=k)


def field_rank2(state: JointState) -> FieldRank2:
    """Reduced field density operator as the two dyads of the joint state."""
    return FieldRank2(u=state.excited, v=1j * state.ground)


def atom_density(state: JointState) -> AtomDensity:
    """Reduced 2x2 atomic density matrix (trace over the field)."""
    rho22 = float(np.vdot(state.excited, state.excited).real)
    rho11 = float(np.vdot(state.ground, state.ground).real)
    # <g|rho|e> = sum_n ground[n] conj(excited[n]); rotate the -i branch
    # phase out so the coherence lands in the closed-form convention.
    rho12 = -1j * complex(np.sum(state.ground * np.conj(state.excited)))
    return AtomDensity(rho11=rho11, rho22=rho22, rho12=rho12)


def atom_density_series(params: ModelParams, taus) -> AtomDensity:
    """``atom_density(evolve(params, tau))`` for every tau of ``taus``, as arrays:
    rho22 = sum |C_n|^2 cos^2(W_n tau), rho11 = sum |C_n|^2 sin^2(W_n tau) over
    n + k <= cutoff, rho12 = -sum C_n conj(C_{n+k}) sin(W_n tau) cos(W_{n+k} tau).

    The sums run over the n with |C_n| above ``_SUPPORT_FLOOR`` of the peak.
    The cos/sin matrices are formed for blocks of taus of at most
    ``_CHUNK_ENTRIES`` entries, and each sum runs along one row (numpy's
    pairwise sum), so no value depends on the blocking."""
    taus = np.asarray(taus, dtype=float).ravel()
    _check_time(params, float(np.abs(taus).max(initial=0.0)))
    k = params.k
    c = params.amplitudes
    support = np.flatnonzero(np.abs(c) > _SUPPORT_FLOOR * np.abs(c).max())
    lo, hi = support[0], support[-1] + 1
    freqs = params.frequencies[lo:hi]
    c = c[lo:hi]
    excited_w = np.abs(c) ** 2
    ground_w = np.where(np.arange(lo, hi) + k <= params.cutoff, excited_w, 0.0)
    cross = c[:-k] * np.conj(c[k:])
    n = taus.size
    rho11, rho22, rho12 = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
    rows = max(1, _CHUNK_ENTRIES // len(c))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        phase = np.outer(taus[block], freqs)
        cos, sin = np.cos(phase), np.sin(phase)
        rho22[block] = (cos * cos * excited_w).sum(axis=1)
        rho11[block] = (sin * sin * ground_w).sum(axis=1)
        mixed = sin[:, :-k] * cos[:, k:]
        rho12[block] = -((mixed * cross.real).sum(axis=1)
                         + 1j * (mixed * cross.imag).sum(axis=1))
    return AtomDensity(rho11=rho11, rho22=rho22, rho12=rho12)
