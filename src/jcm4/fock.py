"""Truncated Fock-space states and the canonical constructors.

A field state is a normalized complex amplitude vector over the photon-number
basis |0>..|N|.  Constructors build amplitudes by the ratio recurrence
``c[n+1] = c[n] * alpha / sqrt(n+1)`` (no explicit factorials, which overflow
near n = 170) and renormalize only after verifying that the analytic
probability mass above the cutoff is below the caller's tail tolerance.

The recurrence runs outward from the Poisson mode floor(|alpha|^2), where the
modulus peaks, so every ratio it applies is at most 1: the amplitudes are
finite for every finite alpha, and terms more than ~1e308 below the peak
underflow to 0.  A non-finite alpha raises :class:`JcmError`.  Measured
against a 30-digit oracle, the normalized amplitudes agree within 3e-15
relative over nbar +/- 5 sqrt(nbar) at nbar = 50, 1450, 5000 and 2e5.  The
only limit is memory: for the default tail tolerance the cutoff must clear
nbar by about 6.2 sqrt(nbar) at large nbar, and one array of cutoff + 1
entries is built.

:func:`kerr_state` builds no state; it phases the amplitudes it is given.  The
model's Kerr and cat targets (``catlab``) rotate the C_n of ``ModelParams``
and call no :func:`coherent_state`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import JcmError

DEFAULT_TAIL_TOL = 1e-9

__all__ = [
    "coherent_state",
    "kerr_state",
    "overlap",
    "fidelity",
    "coherent_amplitudes",
]


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Raw coherent-state amplitudes e^{-|a|^2/2} a^n / sqrt(n!), un-renormalized.

    Moduli are cumulative products of the recurrence ratios taken outward
    from the mode m, scaled by the peak modulus computed once with ``lgamma``
    (its relative error, about nbar ulp, is common to every entry and
    cancels on renormalization); phases are the powers of a/|a|, exact for
    a on the real or imaginary axis.
    """
    if not cmath.isfinite(alpha):
        raise JcmError(f"alpha must be finite, got {alpha}")
    a = abs(alpha)
    m = min(int(a * a), cutoff)
    n = np.arange(1, cutoff + 1, dtype=float)
    moduli = np.ones(cutoff + 1)
    moduli[m + 1:] = np.cumprod(a / np.sqrt(n[m:]))
    moduli[:m] = np.cumprod(np.sqrt(n[:m][::-1]) / a)[::-1]
    log_peak = (m * math.log(a) if m else 0.0) - 0.5 * a * a - 0.5 * math.lgamma(m + 1)
    moduli *= math.exp(log_peak)
    phases = np.full(cutoff + 1, alpha / a if a else 1.0, dtype=complex)
    phases[0] = 1.0
    return moduli * np.cumprod(phases)


def _norm_sq(a: np.ndarray) -> float:
    """sum |a_n|^2, summed by numpy, not BLAS, whose dot products round
    differently with the number of threads it splits them over."""
    return float(np.sum(a.real * a.real + a.imag * a.imag))


def _normalized_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Coherent amplitudes renormalized over 0..cutoff (no tail check)."""
    amps = coherent_amplitudes(alpha, cutoff)
    amps /= math.sqrt(_norm_sq(amps))
    return amps


def _check_tail(alpha: complex, cutoff: int, tail_tol: float) -> float:
    """Poisson(|alpha|^2) mass above ``cutoff``, checked against ``tail_tol``.

    The terms t_n = e^{-nbar} nbar^n / n! are summed with the ratio recurrence
    of :func:`coherent_amplitudes`, from one seed computed with ``lgamma``, in
    the direction in which they fall: upward from cutoff + 1 when that lies
    above nbar, else downward from cutoff for the mass at or below it, whose
    complement is the tail.  The seed's relative error, about nbar ulp, is the
    tail's.  A NaN tail fails the check.
    """
    if not math.isfinite(tail_tol):
        raise JcmError(f"tail_tol must be finite, got {tail_tol}")
    if tail_tol <= 0:
        raise JcmError(f"tail_tol must be > 0, got {tail_tol}")
    if cutoff < 0:
        raise JcmError("cutoff must be >= 0")
    if not cmath.isfinite(alpha):
        raise JcmError(f"alpha must be finite, got {alpha}")
    nbar = abs(alpha) ** 2
    tail = 0.0
    if nbar > 0.0:
        upward = cutoff + 1 > nbar
        n = cutoff + 1 if upward else cutoff
        term = math.exp(n * math.log(nbar) - nbar - math.lgamma(n + 1))
        while term > tail * 1e-17:
            tail += term
            if upward:
                n += 1
                term *= nbar / n
            else:
                term *= n / nbar
                n -= 1
        if not upward:
            tail = 1.0 - tail
    if not tail <= tail_tol:
        raise JcmError(f"tail mass {tail:.3e} above cutoff {cutoff} exceeds "
                       f"tolerance {tail_tol:.3e}; increase the cutoff")
    return tail


def coherent_state(
    alpha: complex, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[np.ndarray, float]:
    """Truncated coherent state |alpha>, amplitudes over |0>..|cutoff>, and the
    Poisson mass above ``cutoff`` that the truncation discarded.

    Raises :class:`JcmError` if that mass exceeds ``tail_tol`` -- silent
    renormalization of a badly truncated state would mask configuration
    errors.
    """
    tail = _check_tail(alpha, cutoff, tail_tol)
    return _normalized_amplitudes(alpha, cutoff), tail


def kerr_state(amplitudes: np.ndarray, gamma: float) -> np.ndarray:
    """``amplitudes`` times the Kerr phase e^{i gamma n(n-1)/2}: |alpha> -> |alpha, gamma>.

    gamma is reduced mod 2*pi first.  That removes only whole turns of gamma,
    and changes nothing for the |gamma| < 2 pi of every target this package
    builds.  The product gamma n(n-1)/2 is still rounded as a float, by about
    eps |gamma| n^2 / 2 rad; :func:`jcm4.catlab._kerr_target` bounds it by
    refusing phases past 2^40.
    """
    n = np.arange(len(amplitudes), dtype=np.int64)
    half_pairs = (n * (n - 1)) // 2
    g = math.fmod(gamma, 2.0 * math.pi)
    return amplitudes * np.exp(1j * g * half_pairs)


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b> = sum conj(a_n) b_n of two amplitude arrays, summed
    by numpy (see :func:`_norm_sq`)."""
    if len(a) != len(b):
        raise JcmError(f"cutoffs differ: {len(a) - 1} vs {len(b) - 1}")
    return complex(np.sum(np.conj(a) * b))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 / (<a|a> <b|b>), invariant under global phases of either
    state.  Dividing by the norms cancels their last-bit rounding, so the
    fidelity of a state with itself is exactly 1."""
    ov = overlap(a, b)
    norms = overlap(a, a).real * overlap(b, b).real
    f = (ov.real * ov.real + ov.imag * ov.imag) / norms
    return min(f, 1.0)
