import cmath
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from jcm4 import dynamics, fock
from jcm4.dynamics import (
    ModelParams,
    RabiMode,
    Time,
    TimeGrid,
    atom_density,
    atom_density_series,
    evolve,
    field_rank2,
    rabi_frequencies,
)
from jcm4.errors import JcmError
from jcm4.fock import coherent_state, fidelity
from jcm4.observables import atomic_inversion, pnd, pnd_closed

ALPHA50 = math.sqrt(50.0)


def params50(mode=RabiMode.QUADRATIC):
    return ModelParams(k=4, alpha=ALPHA50, cutoff=256, mode=mode)


def rabi_frequency(n, k, mode):
    """Frequency of the n-photon sector, read off the vector."""
    return rabi_frequencies(n, k, mode)[n]


class TestRabiFrequency:
    def test_ground_sector_exact(self):
        assert abs(rabi_frequency(0, 4, RabiMode.EXACT) - math.sqrt(24)) < 1e-12

    def test_quadratic_at_50(self):
        assert rabi_frequency(50, 4, RabiMode.QUADRATIC) == 2755.0

    def test_exact_at_50_high_precision(self):
        # exact integer product 51*52*53*54 = 7590024, 50-digit square root
        got = rabi_frequency(50, 4, RabiMode.EXACT)
        assert 51 * 52 * 53 * 54 == 7590024
        with mp.workdps(50):
            expected = float(mp.sqrt(7590024))
        assert abs(got - expected) < 1e-9
        assert abs(got - 2755.0) < 2e-4

    def test_downshifted_quadratic(self):
        # the n-4 sector frequency written with n = 50 is 2500 - 150 + 1
        assert rabi_frequency(46, 4, RabiMode.QUADRATIC) == 2351.0

    def test_frequency_gap_identity(self):
        # quadratic gap is 4(2n+1), exactly, for every n >= 4
        freqs = rabi_frequencies(300, 4, RabiMode.QUADRATIC)
        for n in range(4, 300):
            assert freqs[n] - freqs[n - 4] == 4 * (2 * n + 1)

    def test_quadratic_requires_k4(self):
        with pytest.raises(JcmError, match="quadratic mode is defined for k=4, got k=2"):
            rabi_frequencies(3, 2, RabiMode.QUADRATIC)
        with pytest.raises(JcmError, match="quadratic mode is defined for k=4, got k=2"):
            ModelParams(k=2, alpha=1.0, cutoff=32, mode=RabiMode.QUADRATIC)

    def test_mode_consistency_window(self):
        ns = np.arange(40, 301)
        exact = rabi_frequencies(300, 4, RabiMode.EXACT)[40:]
        quad = rabi_frequencies(300, 4, RabiMode.QUADRATIC)[40:]
        diff = np.abs(exact - quad)
        assert np.all(diff < 1e-3)
        assert np.all(np.diff(diff) < 0)
        assert len(ns) == len(diff)

    def test_vector_matches_scalar(self):
        # scalar formulas: sqrt((n+1)...(n+4)) and n^2 + 5n + 5
        exact = rabi_frequencies(20, 4, RabiMode.EXACT)
        quad = rabi_frequencies(20, 4, RabiMode.QUADRATIC)
        for n in range(21):
            assert exact[n] == math.sqrt(math.prod(range(n + 1, n + 5)))
            assert quad[n] == n * n + 5 * n + 5


class TestModelParams:
    def test_arrays_built_once_for_every_kernel(self, monkeypatch):
        calls = {"amplitudes": 0, "frequencies": 0, "tail": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fock, "coherent_amplitudes",
                            counting("amplitudes", fock.coherent_amplitudes))
        monkeypatch.setattr(dynamics, "rabi_frequencies",
                            counting("frequencies", dynamics.rabi_frequencies))
        monkeypatch.setattr(dynamics, "_check_tail", counting("tail", dynamics._check_tail))
        params = params50()
        for tau in (0.0, math.pi / 4):
            evolve(params, tau)
            atomic_inversion(params, tau)
        atom_density_series(params, TimeGrid(0.0, math.pi, 5))
        assert calls == {"amplitudes": 1, "frequencies": 1, "tail": 1}

    @pytest.mark.parametrize("tail_tol", [1.0, 2.0])
    def test_tail_tol_below_one(self, tail_tol):
        # at 1 or above every truncation passes, so the tail check would be off;
        # coherent_state still takes 1.0 to report the bare tail mass
        with pytest.raises(JcmError, match="tail_tol must be < 1"):
            ModelParams(k=4, alpha=ALPHA50, cutoff=20, tail_tol=tail_tol)
        assert coherent_state(ALPHA50, 16, tail_tol=1.0)[1] > 0.99

    def test_equality_hash_and_read_only_arrays(self):
        a, b = params50(), params50()
        assert a == b and hash(a) == hash(b)
        assert a != params50(RabiMode.EXACT)
        assert np.array_equal(a.amplitudes, coherent_state(ALPHA50, 256)[0])
        assert np.array_equal(a.frequencies, rabi_frequencies(256, 4, RabiMode.QUADRATIC))
        for arr in (a.amplitudes, a.frequencies):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestEvolve:
    def test_initial_time(self):
        state = evolve(params50(), 0.0)
        coh, _ = coherent_state(ALPHA50, 256)
        assert np.max(np.abs(state.excited - coh)) == 0.0
        assert np.max(np.abs(state.ground)) == 0.0

    def test_full_period_recurrence(self):
        # every quadratic frequency is odd, so cos(W pi) = -1 for all n
        state = evolve(params50(), math.pi)
        coh, _ = coherent_state(ALPHA50, 256)
        assert np.max(np.abs(state.excited + coh)) < 1e-9
        assert np.max(np.abs(state.ground)) < 1e-9
        assert fidelity(state.excited, coh) > 1.0 - 1e-10

    def test_half_period_excited_empty(self):
        state = evolve(params50(), math.pi / 2)
        assert np.max(np.abs(state.excited)) < 1e-9
        assert abs(np.vdot(state.ground, state.ground).real - 1.0) < 1e-9

    def test_ground_support_starts_at_k(self):
        state = evolve(params50(), 0.37)
        assert np.all(state.ground[:4] == 0.0)

    @pytest.mark.parametrize("tau", [0.0, 0.01, 0.77, math.pi / 3, 2.0, 9.42])
    def test_unitarity(self, tau):
        state = evolve(params50(), tau)
        norm_sq = (np.vdot(state.excited, state.excited).real
                   + np.vdot(state.ground, state.ground).real)
        assert abs(norm_sq - 1.0) < 1e-10

    def test_two_pi_periodicity_quadratic(self):
        state_a = evolve(params50(), 0.61)
        state_b = evolve(params50(), 0.61 + 2 * math.pi)
        assert np.max(np.abs(state_a.excited - state_b.excited)) < 1e-9
        assert np.max(np.abs(state_a.ground - state_b.ground)) < 1e-9

    @pytest.mark.parametrize("nbar,cutoff", [(1450.0, 1720), (2000.0, 2400),
                                             (5000.0, 5470)])
    def test_large_nbar_finite_and_normalized(self, nbar, cutoff):
        params = ModelParams(k=4, alpha=math.sqrt(nbar), cutoff=cutoff)
        state = evolve(params, math.pi / 4)
        assert np.all(np.isfinite(state.excited))
        assert np.all(np.isfinite(state.ground))
        norm_sq = (np.vdot(state.excited, state.excited).real
                   + np.vdot(state.ground, state.ground).real)
        assert abs(norm_sq - 1.0) < 1e-10

    def test_tail_checked_below_ground_shift(self):
        # the Poisson(50) tail is 1.24e-7 above 90 but 1.35e-6 above 86 = 90 - k,
        # where the ground branch's amplitudes leave the stored array
        ModelParams(k=4, alpha=ALPHA50, cutoff=94, tail_tol=1e-6)
        with pytest.raises(JcmError, match="above cutoff 86 exceeds"):
            ModelParams(k=4, alpha=ALPHA50, cutoff=90, tail_tol=1e-6)

    def test_rejects_non_finite_tau(self):
        with pytest.raises(JcmError, match="tau must be finite"):
            evolve(params50(), math.inf)

    def test_nan_phase_refused(self):
        # 0 * inf is a NaN phase, and NaN > bound is False: it must still be refused
        inf_model = SimpleNamespace(frequencies=np.array([1.0, math.inf]))
        with pytest.raises(JcmError, match=r"past 2\^40"):
            dynamics._check_time(inf_model, 0.0)

    @pytest.mark.parametrize("k,mode", [
        (1, RabiMode.EXACT), (3, RabiMode.EXACT), (4, RabiMode.QUADRATIC)])
    def test_phase_bound(self, k, mode):
        # the largest tau whose phase W_n |tau| rounds to at most 2^40 is
        # kept, and the next double, a few ulp away at most, is refused
        params = ModelParams(k=k, alpha=2.0, cutoff=32, mode=mode)
        w = params.frequencies[-1]
        tau = 2.0 ** 40 / w
        while tau * w > 2.0 ** 40:
            tau = math.nextafter(tau, 0.0)
        past = math.nextafter(tau, math.inf)
        while past * w <= 2.0 ** 40:
            tau, past = past, math.nextafter(past, math.inf)
        assert past - 2.0 ** 40 / w < 4 * math.ulp(past)
        for t in (tau, -tau):
            evolve(params, t)
            atom_density_series(params, TimeGrid(0.0, t, 2))
        for t in (past, -past):
            with pytest.raises(JcmError, match=r"past 2\^40"):
                evolve(params, t)
            with pytest.raises(JcmError, match=r"past 2\^40"):
                atom_density_series(params, TimeGrid(0.0, t, 2))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_evolve_matches_hamiltonian_oracle(k):
    # H = [[0, a^k], [(a^k)^dagger, 0]] on the truncated joint space, in the
    # (excited, ground) block order; a^k is a matrix power of the truncated
    # annihilation operator, so no Rabi frequency enters the oracle
    cutoff = 40
    params = ModelParams(k=k, alpha=1.5 * cmath.exp(0.3j), cutoff=cutoff,
                         mode=RabiMode.EXACT)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    ak = np.linalg.matrix_power(a, k)
    zero = np.zeros_like(ak)
    energies, vectors = np.linalg.eigh(np.block([[zero, ak], [ak.T, zero]]))
    start = vectors.conj().T @ np.concatenate([params.amplitudes, np.zeros(cutoff + 1)])
    for tau in (0.0, 0.4, 1.3, 2.2, 4.5, 7.1):
        want = vectors @ (np.exp(-1j * energies * tau) * start)
        state = evolve(params, tau)
        assert np.max(np.abs(state.excited - want[:cutoff + 1])) < 1e-12
        assert np.max(np.abs(state.ground - want[cutoff + 1:])) < 1e-12


class TestReductions:
    def test_atom_density_initial(self):
        rho = atom_density(evolve(params50(), 0.0))
        assert abs(rho.rho22 - 1.0) < 1e-12
        assert rho.rho11 == 0.0
        assert rho.rho12 == 0.0

    def test_atom_density_half_period(self):
        rho = atom_density(evolve(params50(), math.pi / 2))
        assert abs(rho.rho11 - 1.0) < 1e-10
        assert rho.rho22 < 1e-10
        assert abs(rho.rho12) < 1e-10

    def test_atom_density_quarter_period(self):
        rho = atom_density(evolve(params50(), math.pi / 4))
        assert abs(rho.rho11 - 0.5) < 1e-3
        assert abs(rho.rho22 - 0.5) < 1e-3
        assert abs(rho.rho12) < 1e-3

    @pytest.mark.parametrize("tau", [0.05, 0.31, 1.1, 2.9])
    def test_density_invariants(self, tau):
        rho = atom_density(evolve(params50(), tau))
        assert abs(rho.rho11 + rho.rho22 - 1.0) < 1e-10
        assert rho.rho11 >= 0.0 and rho.rho22 >= 0.0
        assert abs(rho.rho12) ** 2 <= rho.rho11 * rho.rho22 + 1e-12

    def test_field_rank2_structure(self):
        state = evolve(params50(), 0.83)
        field = field_rank2(state)
        norm = np.vdot(field.u, field.u).real + np.vdot(field.v, field.v).real
        assert abs(norm - 1.0) < 1e-10
        assert np.all(field.v[:4] == 0.0)
        # the -i branch phase is absorbed: v[n+4] = C_n sin(W_n tau)
        assert np.max(np.abs(field.v - 1j * state.ground)) == 0.0

    def test_field_rank2_initial_is_coherent_projector(self):
        field = field_rank2(evolve(params50(), 0.0))
        coh, _ = coherent_state(ALPHA50, 256)
        assert np.max(np.abs(field.u - coh)) == 0.0
        assert np.max(np.abs(field.v)) == 0.0

    @pytest.mark.parametrize("tau", [0.21, 0.79, 1.57, 2.4])
    def test_atom_field_spectrum_duality(self, tau):
        # atom eigenvalues equal the eigenvalues of the field Gram matrix
        state = evolve(params50(), tau)
        field = field_rank2(state)
        gram = np.array(
            [
                [np.vdot(field.u, field.u), np.vdot(field.u, field.v)],
                [np.vdot(field.v, field.u), np.vdot(field.v, field.v)],
            ]
        )
        gram_eigs = np.sort(np.linalg.eigvalsh(gram))
        atom_eigs = np.sort(atom_density(state).eigenvalues())
        assert np.max(np.abs(gram_eigs - atom_eigs)) < 1e-10


DIP_WINDOW = {50.0: 256, 5000.0: 5470}


def dip_window(nbar, steps=1201):
    """The times of ``jcm entropy --dip-window``: pi/4 +/- 6 delta_1, exactly."""
    delta1 = Fraction(1, 16 * int(nbar))
    return TimeGrid(Time(Fraction(1, 4) - 6 * delta1), Time(Fraction(1, 4) + 6 * delta1), steps)


def grid_time(grid, j):
    """Time j of ``grid``, exact in its pi part."""
    n = grid.steps - 1
    return Time(grid.start.pi_part + j * (grid.stop.pi_part - grid.start.pi_part) / n,
                grid.start.rest + j * (grid.stop.rest - grid.start.rest) / n)


class TestTime:
    def test_not_a_float(self):
        t = Time(Fraction(1, 4), 1e-3)
        assert not isinstance(Time(0), float)
        assert float(t) == math.pi * 1 / 4 + 1e-3
        for op in (lambda: t + 1.0, lambda: 1.0 - t, lambda: 2.0 * t, lambda: t * 0.5,
                   lambda: t / 2, lambda: t < 1.0):
            with pytest.raises(TypeError):
                op()

    def test_exact_arithmetic(self):
        a, b = Time(Fraction(1, 4), 0.5), Time(Fraction(1, 12), 0.25)
        assert a + b == Time(Fraction(1, 3), 0.75)
        assert a - b == Time(Fraction(1, 6), 0.25)
        assert 3 * b == b * 3 == Time(Fraction(1, 4), 0.75)

    def test_refuses_non_finite(self):
        for pi_part, rest in ((0, math.nan), (0, math.inf), (Fraction(1, 4), -math.inf)):
            with pytest.raises(JcmError, match="tau must be finite"):
                Time(pi_part, rest)

    def test_drops_an_exact_part_smaller_than_its_remainder(self):
        t = Time(1, -3.0)  # pi - 3 = 0.14, below the remainder 3
        assert (t.pi_part, t.rest) == (0, math.pi - 3.0)


class TestSupport:
    @pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** 40], ids=["2^-40", "2^40"])
    def test_floor_is_relative_to_the_peak(self, scale):
        # scaling by a power of two is exact, so the window moves by no entry
        modulus = np.abs(params50().amplitudes)
        assert dynamics._support(scale * modulus) == dynamics._support(modulus)


class TestAtomDensitySeries:
    @pytest.mark.parametrize("nbar", sorted(DIP_WINDOW))
    def test_matches_per_tau_reference(self, nbar):
        params = ModelParams(k=4, alpha=math.sqrt(nbar), cutoff=DIP_WINDOW[nbar])
        grid = dip_window(nbar)
        series = atom_density_series(params, grid)
        for i in range(grid.steps):
            ref = atom_density(evolve(params, grid_time(grid, i)))
            assert abs(series.rho11[i] - ref.rho11) < 1e-15
            assert abs(series.rho22[i] - ref.rho22) < 1e-15
            assert abs(series.rho12[i] - ref.rho12) < 1e-15

    def test_inversion_matches_direct_sum(self):
        params = params50()
        grid = dip_window(50.0)
        series = atom_density_series(params, grid)
        for i in range(grid.steps):
            w = series.rho22[i] - series.rho11[i]
            assert abs(w - atomic_inversion(params, grid_time(grid, i))) < 1e-15

    def test_single_time(self):
        params = ModelParams(k=4, alpha=2.0 + 1.0j, cutoff=40, mode=RabiMode.EXACT)
        series = atom_density_series(params, TimeGrid(0.0, 0.83, 2))
        ref = atom_density(evolve(params, 0.83))
        assert series.rho11.shape == (2,)
        assert abs(series.rho11[1] - ref.rho11) < 1e-15
        assert abs(series.rho22[1] - ref.rho22) < 1e-15
        assert abs(series.rho12[1] - ref.rho12) < 1e-15

    @pytest.mark.parametrize("rows", [1, 7])
    def test_block_boundaries_match_evolve(self, monkeypatch, rows):
        # blocks of 1 row (every row a start row) and of 7 rows (171 blocks
        # and a last one of 4) over the exact dip window; every row must
        # still agree with its own evolve
        params = ModelParams(k=4, alpha=cmath.rect(ALPHA50, 0.3), cutoff=256)
        grid = dip_window(50.0)
        modulus = np.abs(params.amplitudes)
        support = int(np.count_nonzero(modulus > dynamics._SUPPORT_FLOOR * modulus.max()))
        monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", rows * support + 3)
        series = atom_density_series(params, grid)
        for j in range(grid.steps):
            ref = atom_density(evolve(params, grid_time(grid, j)))
            assert abs(series.rho11[j] - ref.rho11) < 1e-15
            assert abs(series.rho22[j] - ref.rho22) < 1e-15
            assert abs(series.rho12[j] - ref.rho12) < 1e-15

    def test_rejects_non_finite_tau(self):
        # a NaN in second place once slipped past a max() of the two ends
        for start, stop in ((0.0, math.nan), (math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(JcmError, match="tau must be finite"):
                atom_density_series(params50(), TimeGrid(start, stop, 3))


def mp_density(params, tau_pi: Fraction, lo: int, hi: int):
    """(rho11, rho22, rho12) at tau = pi * tau_pi over the sectors lo <= n < hi,
    with each phase W_n tau taken in 40-digit mpmath: W_n p mod 2q in
    integers in quadratic mode, the exact square root in exact mode."""
    k, cutoff, c = params.k, params.cutoff, params.amplitudes
    cos, sin = np.zeros(cutoff + 1), np.zeros(cutoff + 1)
    p, q = tau_pi.numerator, tau_pi.denominator
    with mp.workdps(40):
        for n in range(lo, min(hi + k, cutoff + 1)):
            m = n * n + 5 * n + 5
            if params.mode is RabiMode.QUADRATIC:
                angle = mp.pi * (m * p % (2 * q)) / q
            else:
                angle = mp.sqrt(m * m - 1) * mp.pi * p / q
            cs, sn = mp.cos_sin(angle)
            cos[n], sin[n] = float(cs), float(sn)
    w = np.abs(c) ** 2
    rho22 = math.fsum(w[lo:hi] * cos[lo:hi] ** 2)
    rho11 = math.fsum(w[lo:min(hi, cutoff - k + 1)] * sin[lo:min(hi, cutoff - k + 1)] ** 2)
    top = min(hi, cutoff - k + 1)
    terms = c[lo:top] * np.conj(c[lo + k:top + k]) * sin[lo:top] * cos[lo + k:top + k]
    rho12 = -complex(math.fsum(terms.real), math.fsum(terms.imag))
    return rho11, rho22, rho12


class TestExactPhases:
    """The pi part of a time is reduced exactly, so at the paper's photon
    numbers the kernels agree with 40-digit arithmetic to the last bits."""

    @pytest.mark.parametrize("nbar,cutoff,mode", [
        (5000.0, 5470, RabiMode.QUADRATIC),
        (1e5, 102066, RabiMode.QUADRATIC),
        (5000.0, 5470, RabiMode.EXACT)])
    def test_dip_window_series_against_mpmath(self, nbar, cutoff, mode):
        params = ModelParams(k=4, alpha=math.sqrt(nbar), cutoff=cutoff, mode=mode)
        grid = dip_window(nbar)
        series = atom_density_series(params, grid)
        modulus = np.abs(params.amplitudes)
        support = np.flatnonzero(modulus > 1e-20 * modulus.max())
        for j in (0, 137, 600, 700, 1200):  # 600 is pi/4, 700 is pi/4 + delta_1
            rho11, rho22, rho12 = mp_density(params, grid_time(grid, j).pi_part,
                                             support[0], support[-1] + 1)
            assert abs(series.rho11[j] - rho11) < 1e-15
            assert abs(series.rho22[j] - rho22) < 1e-15
            assert abs(series.rho12[j] - rho12) < 1e-15

    def test_quarter_period_pnd_at_1e5(self):
        params = ModelParams(k=4, alpha=math.sqrt(1e5), cutoff=102066)
        got = pnd(evolve(params, Time(Fraction(1, 4))))
        want = pnd_closed(np.abs(params.amplitudes) ** 2, Time(Fraction(1, 4)))
        assert np.max(np.abs(got - want)) < 1e-15 * want.max()

    def test_denominator_past_the_int64_bound(self):
        # q = 3e9 + 1 > 2^30: the pi part is rounded to a multiple of pi/2^30
        # and the difference joins the float remainder
        params = params50()
        tau_pi = Fraction(750_000_001, 3_000_000_001)
        got = atom_density(evolve(params, Time(tau_pi)))
        want = mp_density(params, tau_pi, 0, params.cutoff + 1)
        assert abs(got.rho11 - want[0]) < 1e-15
        assert abs(got.rho22 - want[1]) < 1e-15
        assert abs(got.rho12 - want[2]) < 1e-15

    def test_grid_step_past_the_int64_bound(self):
        # the grid step's denominator 4q = 1.2e10 is capped at 2^30 too, and
        # its excess joins the step of the float remainder; each time's
        # evolve reduces its own pi part, so the series must agree with it
        params = params50()
        grid = TimeGrid(0, Time(Fraction(1_000_000_007, 3_000_000_001)), 5)
        series = atom_density_series(params, grid)
        for j in range(grid.steps):
            want = atom_density(evolve(params, grid_time(grid, j)))
            assert abs(series.rho11[j] - want.rho11) < 1e-15
            assert abs(series.rho22[j] - want.rho22) < 1e-15
            assert abs(series.rho12[j] - want.rho12) < 1e-15

    def test_dip_window_scan_memory(self):
        # tracemalloc peak of one 1201-step scan at nbar 5000: 0.54 MB for the
        # float-phase kernel, 1.04 MB here with 12-row blocks of at most 256
        # KiB (0.79 MB when each block was cut into chunks of 6 rows, 1.29 MB
        # with 35-row blocks); the bound is twice the first
        params = ModelParams(k=4, alpha=math.sqrt(5000.0), cutoff=5470)
        grid = dip_window(5000.0)
        atom_density_series(params, grid)
        tracemalloc.start()
        try:
            atom_density_series(params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 541_256
