import math

import mpmath as mp
import numpy as np
import pytest

from jcm4.errors import JcmError
from jcm4.fock import coherent_state, fidelity, kerr_state, overlap

ALPHA50 = math.sqrt(50.0)


def test_vacuum():
    state, tail_mass = coherent_state(0.0, 10)
    assert state[0] == 1.0
    assert np.all(state[1:] == 0.0)
    assert tail_mass == 0.0


def test_alpha_one_ground_amplitude():
    state, _ = coherent_state(1.0, 40)
    assert abs(state[0] - math.exp(-0.5)) < 1e-12
    assert abs(state[0].imag) == 0.0


def test_normalization():
    for alpha in (0.3, 2.0, ALPHA50, 3 + 4j):
        state, _ = coherent_state(alpha, 256)
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


@pytest.mark.parametrize("nbar,cutoff", [
    (50.0, 256), (50.0, 60), (50.0, 100), (1450.0, 1700), (5000.0, 5470),
    (2e5, 202772), (50.0, 30), (5000.0, 4000), (0.09, 0), (0.09, 5),
])
def test_tail_mass_against_high_precision_sum(nbar, cutoff):
    # independent oracle: Poisson upper tail P(X > cutoff) as the regularized
    # lower incomplete gamma function at 50 digits, for the same double alpha
    alpha = math.sqrt(nbar)
    _, tail_mass = coherent_state(alpha, cutoff, tail_tol=1.0)
    with mp.workdps(50):
        a = mp.mpf(alpha)
        tail = float(mp.gammainc(cutoff + 1, 0, a * a, regularized=True))
    assert abs(tail_mass / tail - 1.0) <= 1e-9


def test_tail_too_heavy():
    with pytest.raises(JcmError, match="above cutoff 60 exceeds tolerance 1.000e-09"):
        coherent_state(ALPHA50, 60, tail_tol=1e-9)


def test_non_positive_tolerance():
    with pytest.raises(JcmError, match="tail_tol must be > 0"):
        coherent_state(1.0, 40, tail_tol=0.0)


@pytest.mark.parametrize("tail_tol", [math.nan, math.inf])
def test_non_finite_tolerance(tail_tol):
    # the cutoff leaves 7.2e-2 of the mass above it; no tolerance may pass that
    with pytest.raises(JcmError, match="tail_tol must be finite"):
        coherent_state(ALPHA50, 60, tail_tol=tail_tol)


def test_kerr_zero_gamma_is_coherent():
    coh, _ = coherent_state(2.0, 64)
    kerr = kerr_state(coh, 0.0)
    assert np.max(np.abs(kerr - coh)) == 0.0


def test_kerr_two_pi_is_coherent():
    # n(n-1)/2 pairs are integers, so a 2*pi phase step is the identity
    coh, _ = coherent_state(ALPHA50, 256)
    kerr = kerr_state(coh, 2.0 * math.pi)
    assert np.max(np.abs(kerr - coh)) < 1e-12


def test_kerr_pi_signs():
    # e^{i pi n(n-1)/2} = (-1)^{n(n-1)/2}, checked term by term
    coh, _ = coherent_state(ALPHA50, 256)
    kerr = kerr_state(coh, math.pi)
    n = np.arange(257, dtype=np.int64)
    signs = np.where(((n * (n - 1)) // 2) % 2 == 0, 1.0, -1.0)
    assert np.max(np.abs(kerr - signs * coh)) < 1e-9


def test_kerr_modulus_preservation():
    coh, _ = coherent_state(ALPHA50, 256)
    for gamma in (0.1, math.pi / 2, math.pi, 2.7):
        kerr = kerr_state(coh, gamma)
        diff = np.abs(np.abs(kerr) - np.abs(coh))
        assert np.max(diff) < 1e-12


def test_phase_identity_behind_half_period_state():
    # (-1)^{n(n+1)/2} = (-1)^n e^{i pi n(n-1)/2} exactly, in integer parity
    n = np.arange(300, dtype=np.int64)
    lhs = ((n * (n + 1)) // 2) % 2
    rhs = (n + (n * (n - 1)) // 2) % 2
    assert np.all(lhs == rhs)
    # hence |-alpha, pi> carries C_n(alpha) (-1)^{n(n+1)/2} up to global phase
    coh, _ = coherent_state(ALPHA50, 128)
    kerr = kerr_state(coherent_state(-ALPHA50, 128)[0], math.pi)
    signs = np.where(lhs[:129] == 0, 1.0, -1.0)
    assert fidelity(kerr, signs * coh) > 1.0 - 1e-12


def test_overlap_self_and_mismatch():
    a, _ = coherent_state(1.5, 64)
    assert abs(overlap(a, a) - 1.0) < 1e-10
    b, _ = coherent_state(1.5, 65)
    with pytest.raises(JcmError, match="cutoffs differ: 64 vs 65"):
        overlap(a, b)


def test_overlap_kerr_zero_gamma():
    a, _ = coherent_state(2.0, 64)
    assert abs(overlap(a, kerr_state(a, 0.0)) - 1.0) < 1e-12


def test_opposite_coherent_states_orthogonal():
    a, _ = coherent_state(ALPHA50, 256)
    b, _ = coherent_state(-ALPHA50, 256)
    assert abs(overlap(a, b)) ** 2 < 1e-12


def test_fidelity_properties():
    a, _ = coherent_state(2.0, 64)
    b = kerr_state(a, 0.7)
    assert fidelity(a, a) == 1.0
    assert fidelity(b, b) == 1.0
    assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-14
    assert 0.0 <= fidelity(a, b) <= 1.0
    # global phase invariance
    assert abs(fidelity(a, np.exp(0.41j) * a) - 1.0) < 1e-12


def test_self_fidelity_is_one_past_the_blas_split():
    # 20001 complex entries, past the length at which BLAS would split a dot
    rng = np.random.default_rng(7)
    a = rng.normal(size=20001) + 1j * rng.normal(size=20001)
    assert fidelity(a, a) == 1.0


def test_fidelity_coherent_vs_kerr_high_precision_oracle():
    # direct 50-digit sum of sum_n P_n e^{-i (pi/2) n(n-1)/2} with Poisson P_n
    a, _ = coherent_state(ALPHA50, 256)
    b = kerr_state(a, math.pi / 2)
    got = fidelity(a, b)
    with mp.workdps(50):
        acc = mp.mpc(0)
        log_w = -mp.mpf(50)
        for n in range(257):
            weight = mp.e ** (log_w + n * mp.log(50) - mp.log(mp.factorial(n)))
            acc += weight * mp.expjpi(mp.mpf(n * (n - 1)) / 4)
        expected = float(abs(acc) ** 2)
    assert got < 1.0
    assert abs(got - expected) < 1e-10


@pytest.mark.parametrize("nbar,cutoff", [(1450.0, 1720), (5000.0, 5470)])
def test_large_nbar_against_high_precision_oracle(nbar, cutoff):
    # the amplitudes at |n - nbar| <= 5 sqrt(nbar), evaluated at 30 digits
    # for the same double alpha and renormalized by the same truncation,
    # sqrt(P(X <= cutoff))
    alpha = math.sqrt(nbar)
    amps, _ = coherent_state(alpha, cutoff)
    assert np.all(np.isfinite(amps))
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-10
    width = 5 * alpha
    bulk = range(int(nbar - width), int(nbar + width) + 1)
    with mp.workdps(30):
        a = mp.mpf(alpha)
        keep = mp.sqrt(mp.gammainc(cutoff + 1, a * a, mp.inf, regularized=True))
        expected = np.array([
            float(mp.exp(n * mp.log(a) - a * a / 2 - mp.loggamma(n + 1) / 2) / keep)
            for n in bulk
        ])
    assert np.max(np.abs(amps[list(bulk)] / expected - 1.0)) < 1e-12


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1.0, math.nan)])
def test_non_finite_alpha(alpha):
    with pytest.raises(JcmError, match="alpha must be finite"):
        coherent_state(alpha, 40)
