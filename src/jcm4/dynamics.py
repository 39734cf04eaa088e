"""Closed-form time evolution of the k-photon atom-field system.

The atom starts in |e>, the field in a coherent state.  On resonance the
joint wave function stays in the closed form

    Psi(tau) = sum_n C_n [ cos(W_n tau) |n,e>  -  i sin(W_n tau) |n+k,g> ]

with W_n the generalized Rabi frequency of the n-photon sector.  Everything
in this module evaluates that formula or reduces it to the 2x2 atomic and
rank-2 field density operators; there is no integrator.

A time is a :class:`Time`, an exact Fraction of pi plus a float remainder;
a float given as a time is all remainder.  Every phase W_n tau is taken by
one helper, :func:`_phase_factors`, which splits W_n into an integer m_n and
a float correction c_n (``ModelParams``) and reduces the whole multiple of
pi, (m_n p mod 2q) pi/q, exactly in integers; only c_n tau + m_n rest is
rounded.
In quadratic mode (c_n = 0) a time p pi/q is therefore exact at any photon
number, and in exact mode at k = 4 the rounded part is below tau/(2 m_n).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import JcmError
from .fock import DEFAULT_TAIL_TOL, _check_tail, _norm_sq, _normalized_amplitudes

__all__ = [
    "Time",
    "TimeGrid",
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

_SUPPORT_FLOOR = 1e-17  # the kernels keep the entries above this share of the peak
# Largest float part of a phase a kernel takes: W_n |tau| in exact mode,
# W_n |rest| in quadratic mode, whose pi part is reduced exactly.  For a
# series it is W_n |tau| in every mode, since its rows are labelled by the
# double tau.  The rounding of a double phase x is about |x| 2^-52, so up
# to 2^40 the cos and sin are off by at most 2^-12 = 2.4e-4 rad; past it
# they soon have no correct digit.
_MAX_PHASE = 2.0 ** 40
# Largest denominator q of an exactly reduced pi part: residues below
# 2q <= 2^31 keep the int64 product (m_n mod 2q)(p mod 2q) below 2^63.  A
# pi part of larger denominator is rounded to a multiple of pi/2^30, and the
# difference, at most pi/2^31, joins the float remainder.
_MAX_DENOMINATOR = 1 << 30
# Entries of one (times x support) block of the series kernel, which caps
# its block length: the complex offset table and block are 256 KiB each,
# and each float product at most 128 KiB; see :func:`atom_density_series`.
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class Time:
    """A finite scaled time tau = pi * ``pi_part`` + ``rest``: an exact
    Fraction of pi plus a float remainder.  ``float(t)`` is pi * p / q + rest.

    A Time is not a float.  The sum and difference of two Times and the
    product with an int stay exact; any other arithmetic raises TypeError,
    so the pi part is never dropped without a sound.  An exact part that
    would leave a remainder larger than the time itself is dropped, so the
    float part of a phase is never larger than that of the plain double.
    """

    pi_part: Fraction = Fraction(0)
    rest: float = 0.0

    def __post_init__(self):
        pi_part, rest = Fraction(self.pi_part), float(self.rest)
        value = math.pi * pi_part.numerator / pi_part.denominator + rest
        if not math.isfinite(value):
            raise JcmError("tau must be finite")
        if abs(rest) > abs(value):
            pi_part, rest = Fraction(0), value
        object.__setattr__(self, "pi_part", pi_part)
        object.__setattr__(self, "rest", rest)

    def __float__(self) -> float:
        return math.pi * self.pi_part.numerator / self.pi_part.denominator + self.rest

    def __add__(self, other):
        if not isinstance(other, Time):
            return NotImplemented
        return Time(self.pi_part + other.pi_part, self.rest + other.rest)

    def __sub__(self, other):
        if not isinstance(other, Time):
            return NotImplemented
        return Time(self.pi_part - other.pi_part, self.rest - other.rest)

    def __mul__(self, other):
        if type(other) is not int:
            return NotImplemented
        return Time(self.pi_part * other, self.rest * other)

    __rmul__ = __mul__


def _as_time(tau) -> Time:
    return tau if isinstance(tau, Time) else Time(0, float(tau))


@dataclass(frozen=True)
class TimeGrid:
    """``steps`` evenly spaced times from ``start`` to ``stop``, both included:
    time j is start + j (stop - start) / (steps - 1), exactly in its pi part.

    ``taus`` is ``np.linspace`` of the two end points' doubles, the times a
    table lists.  A float end point is a Time of that remainder.
    """

    start: Time
    stop: Time
    steps: int
    taus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.steps < 2:
            raise JcmError("steps must be >= 2")
        object.__setattr__(self, "start", _as_time(self.start))
        object.__setattr__(self, "stop", _as_time(self.stop))
        # ends too far apart overflow the step; the kernels refuse them (past 2^40)
        with np.errstate(invalid="ignore", over="ignore"):
            taus = np.linspace(float(self.start), float(self.stop), self.steps)
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)


def _reduce(pi_parts, q: int) -> tuple[int, list[int], list[float]]:
    """Write each Fraction x of ``pi_parts`` as p/q' + e/pi over one
    denominator q' = min(q, ``_MAX_DENOMINATOR``), q a common denominator:
    returns q', the numerators p and the float excesses e = pi (x - p/q'),
    which are 0 unless q was capped."""
    q = min(q, _MAX_DENOMINATOR)
    ps = [round(x * q) for x in pi_parts]
    return q, ps, [math.pi * float(x - Fraction(p, q)) for x, p in zip(pi_parts, ps)]


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
    with np.errstate(over="ignore"):
        for j in range(1, k + 1):
            prod *= n + j
    if not np.isfinite(prod).all():
        raise JcmError(f"exact Rabi frequencies at k={k}, cutoff={n_max} overflow a double")
    return np.sqrt(prod)


def _split_frequencies(freqs: np.ndarray, k: int, mode: RabiMode):
    """W_n = m_n + c_n: the integers m_n (int64) and the float corrections
    c_n (None where all are 0).

    Quadratic: m_n = n^2 + 5n + 5, c_n = 0.  Exact, k = 4: (n+1)(n+2)(n+3)(n+4)
    = m_n^2 - 1, so c_n = -1/(m_n + sqrt(m_n^2 - 1)), of modulus below
    1/(2 m_n).  Exact, other k: m_n = 0, c_n = W_n, all float.
    """
    n = np.arange(len(freqs), dtype=np.int64)
    if k != 4:
        return np.zeros_like(n), freqs
    m = n * n + 5 * n + 5
    if mode is RabiMode.QUADRATIC:
        return m, None
    mf = m.astype(float)
    return m, -1.0 / (mf + np.sqrt(mf * mf - 1.0))


@dataclass(frozen=True)
class ModelParams:
    """k-photon model configuration: multiplicity, coherent amplitude, truncation.

    Resonance (atomic splitting = k times the cavity frequency) is assumed
    throughout, so there is no detuning field.  The tail check runs at
    ``cutoff - k``: each de-excitation shifts the ground branch up by k
    photons, so the amplitudes above it leave the stored ground array.
    ``tail_tol`` must lie in (0, 1): at 1 or above every truncation passes.

    It also builds, once, the read-only arrays every kernel reads: the
    normalized coherent amplitudes C_n (``amplitudes``) and the Rabi
    frequencies W_n (``frequencies``), n = 0..cutoff, not compared or hashed,
    and their split W_n = m_n + c_n (:func:`_split_frequencies`) that the
    phase kernel reads.
    """

    k: int
    alpha: complex
    cutoff: int
    mode: RabiMode = RabiMode.QUADRATIC
    tail_tol: float = DEFAULT_TAIL_TOL
    amplitudes: np.ndarray = field(init=False, repr=False, compare=False)
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)
    _int_freqs: np.ndarray = field(init=False, repr=False, compare=False)
    _freq_corrections: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise JcmError("k must be >= 1")
        if self.cutoff < self.k:
            raise JcmError("cutoff must be >= k")
        _check_tail(self.alpha, self.cutoff - self.k, self.tail_tol)
        if self.tail_tol >= 1:  # every truncation would pass
            raise JcmError(f"tail_tol must be < 1, got {self.tail_tol}")
        for name, arr in (
            ("amplitudes", _normalized_amplitudes(self.alpha, self.cutoff)),
            ("frequencies", rabi_frequencies(self.cutoff, self.k, self.mode)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ints, corrections = _split_frequencies(self.frequencies, self.k, self.mode)
        object.__setattr__(self, "_int_freqs", ints)
        object.__setattr__(self, "_freq_corrections", corrections)


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


def _support(*moduli: np.ndarray) -> slice:
    """The window [lo, hi) where the series and Q kernels sum: every n at
    which one of ``moduli`` is above ``_SUPPORT_FLOOR`` of its own peak, or
    NaN (so that the kernels see it).  Empty if all are 0."""
    support = np.flatnonzero(np.logical_or.reduce(
        [~(m <= _SUPPORT_FLOOR * m.max()) for m in moduli]))
    return slice(int(support[0]), int(support[-1]) + 1) if support.size else slice(0, 0)


def _check_time(params: ModelParams, tau_abs: float) -> None:
    """Refuse a largest time ``tau_abs`` whose largest phase W_n tau_abs
    passes ``_MAX_PHASE``.  The caller passes the time of the float part of
    its phases (see ``_MAX_PHASE``)."""
    phase = tau_abs * float(params.frequencies[-1])
    if not phase <= _MAX_PHASE:  # also NaN
        raise JcmError(f"tau = {tau_abs:.6g} reaches phase W_n tau = {phase:.3e} rad, "
                       "past 2^40, where its float rounding exceeds 2.4e-4 rad")


def _phase_factors(params: ModelParams, window: slice, q: int, ps: np.ndarray,
                   rests: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """e^{i W_n tau_j} for the times tau_j = pi p_j / q + rest_j (doubles
    ``taus``), one row per time, one column per n of ``window``.

    With W_n = m_n + c_n the phase is the whole multiple of pi/q, r = m_n p_j
    mod 2q, plus c_n tau_j + m_n rest_j.  r is reduced exactly in int64
    (``ps`` holds p_j mod 2q, and 2q <= 2^31) to [-q, q), so only the float
    part carries the time's size into the rounding.
    """
    m = params._int_freqs[window]
    two_q = 2 * q
    residues = (m % two_q) * ps[:, None]
    residues += q
    residues %= two_q
    residues -= q
    angle = residues * (math.pi / q)
    del residues
    angle += np.multiply.outer(rests, m)
    if params._freq_corrections is not None:
        angle += np.multiply.outer(taus, params._freq_corrections[window])
    factors = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=factors.real)
    np.sin(angle, out=factors.imag)
    return factors


def evolve(params: ModelParams, tau: Time | float) -> JointState:
    """Joint state at scaled time tau (a :class:`Time` or a float) from the
    closed-form solution."""
    t = _as_time(tau)
    q, (p,), (excess,) = _reduce([t.pi_part], t.pi_part.denominator)
    rest = t.rest + excess
    _check_time(params, abs(rest) if params.mode is RabiMode.QUADRATIC else abs(float(t)))
    f = _phase_factors(params, slice(None), q, np.array([p % (2 * q)]),
                       np.array([rest]), np.array([float(t)]))[0]
    c = params.amplitudes
    excited = c * f.real
    ground = np.zeros(params.cutoff + 1, dtype=complex)
    k = params.k
    ground[k:] = -1j * c[:-k] * f.imag[:-k]
    return JointState(excited=excited, ground=ground, k=k)


def field_rank2(state: JointState) -> FieldRank2:
    """Reduced field density operator as the two dyads of the joint state."""
    return FieldRank2(u=state.excited, v=1j * state.ground)


def atom_density(state: JointState) -> AtomDensity:
    """Reduced 2x2 atomic density matrix (trace over the field)."""
    rho22 = _norm_sq(state.excited)
    rho11 = _norm_sq(state.ground)
    # <g|rho|e> = sum_n ground[n] conj(excited[n]); rotate the -i branch
    # phase out so the coherence lands in the closed-form convention.
    rho12 = -1j * complex(np.sum(state.ground * np.conj(state.excited)))
    return AtomDensity(rho11=rho11, rho22=rho22, rho12=rho12)


def atom_density_series(params: ModelParams, grid: TimeGrid) -> AtomDensity:
    """``atom_density(evolve(params, tau))`` for every time tau of ``grid``, as
    arrays: rho22 = sum (|C_n| cos(W_n tau))^2, rho11 = sum (|C_n| sin(W_n tau))^2
    over n + k <= cutoff, rho12 = -sum u_n |C_n| sin(W_n tau) |C_{n+k}| cos(W_{n+k} tau)
    with the unit phases u_n = C_n conj(C_{n+k}) / |C_n C_{n+k}|.

    The sums run over the support of |C_n| (:func:`_support`), for blocks
    of P times.  Row j = b + o of the block starting at row b is the
    block's start row times the offset row o, both exactly reduced:
    |C_n| e^{i W (tau_b + o step)}.  The P offset rows, scaled by |C_n|,
    are computed once, and each start row when its block is reached, so
    steps/P + P rows are evaluated.  P is at most sqrt(steps) + 1, and a
    block holds at most ``_BLOCK_ENTRIES`` entries or one row, so P depends
    on the grid and the support width only.  Each sum runs along one row
    (numpy's pairwise sum)."""
    n, start, stop = grid.steps, grid.start, grid.stop
    _check_time(params, max(abs(float(start)), abs(float(stop))))
    k = params.k
    moduli = np.abs(params.amplitudes)
    window = _support(moduli)
    width = window.stop - window.start
    units = params.amplitudes[window] / moduli[window]
    cross = units[:-k] * np.conj(units[k:])
    ground = max(0, params.cutoff - k + 1 - window.start)  # n + k <= cutoff: a prefix
    step = (stop.pi_part - start.pi_part) / (n - 1)
    q, (p0, dp), (excess0, dexcess) = _reduce(
        (start.pi_part, step), math.lcm(start.pi_part.denominator, step.denominator))
    rest0 = start.rest + excess0
    drest = (stop.rest - start.rest) / (n - 1) + dexcess
    two_q = 2 * q
    period = min(math.isqrt(n - 1) + 1, max(1, _BLOCK_ENTRIES // width))
    o = np.arange(period)
    offsets = _phase_factors(params, window, q, o * (dp % two_q) % two_q, o * drest,
                             grid.taus[:period] - grid.taus[0])
    offsets *= moduli[window]
    factors = np.empty_like(offsets)
    rho11, rho22, rho12 = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
    for b in range(0, n, period):
        start_row = _phase_factors(params, window, q, np.array([(p0 + b * dp) % two_q]),
                                   np.array([rest0 + b * drest]), grid.taus[b:b + 1])[0]
        rows = slice(b, min(b + period, n))
        size = rows.stop - b
        block = np.multiply(offsets[:size], start_row, out=factors[:size])
        cos, sin = block.real, block.imag
        rho22[rows] = np.square(cos).sum(axis=1)
        rho11[rows] = np.square(sin[:, :ground]).sum(axis=1)
        mixed = sin[:, :-k] * cos[:, k:]
        rho12[rows] = -((mixed * cross.real).sum(axis=1)
                        + 1j * (mixed * cross.imag).sum(axis=1))
    return AtomDensity(rho11=rho11, rho22=rho22, rho12=rho12)
