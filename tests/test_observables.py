import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from jcm4 import dynamics, observables
from jcm4.cli import parse_tau
from jcm4.dynamics import (
    AtomDensity,
    FieldRank2,
    ModelParams,
    RabiMode,
    Time,
    atom_density,
    evolve,
    field_rank2,
)
from jcm4.errors import JcmError
from jcm4.fock import coherent_amplitudes, coherent_state
from jcm4.observables import (
    PhaseGrid,
    atomic_inversion,
    entropy,
    pnd,
    pnd_closed,
    q_grid,
)

ALPHA50 = math.sqrt(50.0)
LN2 = math.log(2.0)
# the times of the benchmark's phase-space workload
SPECIAL_TIMES = ("0", "pi/8", "pi/4", "pi/2", "pi/4+pi/800")
QUARTER = Time(Fraction(1, 4))
EIGHTH = Time(Fraction(1, 8))


@pytest.fixture(scope="module")
def params():
    return ModelParams(k=4, alpha=ALPHA50, cutoff=256, mode=RabiMode.QUADRATIC)


@pytest.fixture(scope="module")
def poisson50():
    coh, _ = coherent_state(ALPHA50, 256)
    return np.abs(coh) ** 2


class TestPnd:
    def test_initial_poisson(self, params, poisson50):
        dist = pnd(evolve(params, 0.0))
        assert np.max(np.abs(dist - poisson50)) < 1e-14

    def test_half_period_displaced_by_four(self, params, poisson50):
        dist = pnd(evolve(params, math.pi / 2))
        displaced = np.zeros_like(poisson50)
        displaced[4:] = poisson50[:-4]
        assert np.max(np.abs(dist - displaced)) < 1e-10

    @pytest.mark.parametrize("tau", [0.0, 0.3, math.pi / 4, 1.9])
    def test_sums_to_one(self, params, tau):
        assert abs(pnd(evolve(params, tau)).sum() - 1.0) < 1e-9

    def test_pi_periodicity(self, params):
        for tau in (0.11, 0.62, 1.3):
            a = pnd(evolve(params, tau))
            b = pnd(evolve(params, tau + math.pi))
            assert np.max(np.abs(a - b)) < 1e-10

    def test_entropy_pi_periodicity(self, params):
        for tau in (0.11, 0.62, 1.3):
            sa = entropy(atom_density(evolve(params, tau)))
            sb = entropy(atom_density(evolve(params, tau + math.pi)))
            assert abs(sa - sb) < 1e-10


class TestClosedForms:
    def test_quarter_matches_simulation(self, params, poisson50):
        sim = pnd(evolve(params, math.pi / 4))
        closed = pnd_closed(poisson50, QUARTER)
        assert np.max(np.abs(sim - closed)) < 1e-10

    def test_quarter_is_average_of_endpoints(self, poisson50):
        closed = pnd_closed(poisson50, QUARTER)
        displaced = np.zeros_like(poisson50)
        displaced[4:] = poisson50[:-4]
        assert np.max(np.abs(closed - 0.5 * (poisson50 + displaced))) < 1e-15

    def test_eighth_matches_simulation(self, params, poisson50):
        sim = pnd(evolve(params, math.pi / 8))
        closed = pnd_closed(poisson50, EIGHTH)
        assert np.max(np.abs(sim - closed)) < 1e-10

    def test_eighth_block_factors(self, poisson50):
        closed = pnd_closed(poisson50, EIGHTH)
        pair = poisson50.copy()
        pair[4:] += poisson50[:-4]
        low = (2.0 - math.sqrt(2.0)) / 4.0
        high = (2.0 + math.sqrt(2.0)) / 4.0
        assert abs(low - 0.146447) < 1e-6
        assert abs(high - 0.853553) < 1e-6
        assert abs(high / low - (3.0 + 2.0 * math.sqrt(2.0))) < 1e-12
        assert abs(closed[96] - low * pair[96]) < 1e-15   # 96 = 8*12
        assert abs(closed[100] - high * pair[100]) < 1e-15  # residue 4

    def test_eighth_oscillation_not_perfect(self, poisson50):
        closed = pnd_closed(poisson50, EIGHTH)
        assert np.all(closed[4:200] > 0.0)

    @pytest.mark.parametrize("r,tol", [(1, 8e-3), (-1, 8e-3), (5, 3.5e-2)])
    def test_near_quarter_matches_simulation(self, params, poisson50, r, tol):
        # the closed form replaces cos^2(W_n tau) by sin^2(W_{n-4} tau),
        # with an angle error of about 8(n - nbar)|delta|; the measured
        # worst entry is 7.4e-3 at r=+-1 and grows linearly in |r|
        delta = r * math.pi / 800.0
        sim = pnd(evolve(params, math.pi / 4 + delta))
        closed = pnd_closed(poisson50, QUARTER + Time(Fraction(r, 800)))
        assert np.max(np.abs(sim - closed)) < tol

    def test_near_quarter_contrast_weakens_with_r(self, params):
        # r=1 dips close to zero around nbar; r=5 keeps a visible floor
        p1 = pnd(evolve(params, math.pi / 4 + math.pi / 800))
        p5 = pnd(evolve(params, math.pi / 4 + 5 * math.pi / 800))
        assert p1[40:61].min() < 0.2 * p5[40:61].min()

    @pytest.mark.parametrize("nbar,cutoff", [(5000.0, 5470), (1e5, 102066)])
    def test_near_quarter_against_mpmath(self, nbar, cutoff):
        # the same formula at pi/4 + delta_1 in 40 digits, over nbar +- 5 sqrt(nbar);
        # angles reach 1e10 rad at nbar 1e5, where a float delta read 4.9e-12
        weights = np.abs(ModelParams(k=4, alpha=math.sqrt(nbar), cutoff=cutoff).amplitudes) ** 2
        tau_pi = Fraction(1, 4) + Fraction(1, int(16 * nbar))
        got = pnd_closed(weights, Time(tau_pi))
        lo, hi = int(nbar - 5 * math.sqrt(nbar)), int(nbar + 5 * math.sqrt(nbar)) + 1
        with mp.workdps(40):
            tau = mp.pi * tau_pi.numerator / tau_pi.denominator
            want = [float((mp.mpf(weights[n]) + mp.mpf(weights[n - 4]))
                          * mp.sin((n * n - 3 * n + 1) * tau) ** 2) for n in range(lo, hi)]
        assert np.max(np.abs(got[lo:hi] - want)) < 1e-14 * max(want)


class TestEntropy:
    def test_pure_state(self):
        s = entropy(AtomDensity(rho11=1.0, rho22=0.0, rho12=0.0))
        assert s == 0.0 and math.copysign(1, s) == 1
        series = entropy(AtomDensity(rho11=np.zeros(2), rho22=np.ones(2),
                                     rho12=np.zeros(2, dtype=complex)))
        assert np.array_equal(np.copysign(1, series), [1, 1])

    def test_maximally_mixed(self):
        s = entropy(AtomDensity(rho11=0.5, rho22=0.5, rho12=0.0))
        assert abs(s - LN2) < 1e-12

    def test_quarter_period_value(self, params):
        s = entropy(atom_density(evolve(params, math.pi / 4)))
        assert abs(s - 0.6931) < 0.01

    def test_eighth_period_value(self, params):
        s = entropy(atom_density(evolve(params, math.pi / 8)))
        assert abs(s - 0.6888) < 0.01

    @pytest.mark.parametrize("tau", np.linspace(0.05, 3.1, 14).tolist())
    def test_bounds(self, params, tau):
        s = entropy(atom_density(evolve(params, tau)))
        assert 0.0 <= s <= LN2

    def test_zero_iff_unit_eigenvalue(self, params):
        for tau in (0.0, math.pi / 2, math.pi, 0.33, 0.71):
            rho = atom_density(evolve(params, tau))
            s = entropy(rho)
            top = max(rho.eigenvalues())
            assert (s < 1e-7) == (abs(top - 1.0) < 1e-8)

    def test_clamps_tiny_negative_eigenvalues(self):
        rho = AtomDensity(rho11=0.5 + 2.5e-16, rho22=0.5 - 2.5e-16,
                          rho12=0.5 + 1e-15)
        assert entropy(rho) >= 0.0

    @pytest.mark.parametrize("rho", [
        AtomDensity(rho11=math.nan, rho22=math.nan, rho12=math.nan),
        AtomDensity(rho11=0.5, rho22=0.5, rho12=complex(0.0, math.nan)),
        AtomDensity(rho11=math.inf, rho22=0.0, rho12=0.0),
    ])
    def test_rejects_non_finite(self, rho):
        # max(nan, 0.0) is nan and nan > 0.0 is False: unchecked, a NaN
        # matrix would read as a pure state
        with pytest.raises(JcmError, match="non-finite atomic density matrix"):
            entropy(rho)


def q_at(field, beta):
    """Q at one point as the grid's first cell: re = re_min, im = im_min."""
    grid = q_grid(field, (beta.real, beta.real + 1.0, beta.imag, beta.imag + 1.0), 2, 2)
    return grid.values[0, 0]


def q_by_overlaps(field, beta):
    """Q(beta) = (|<beta|u>|^2 + |<beta|v>|^2) / pi, with <n|beta> from the
    coherent-amplitude builder instead of the grid's recurrence."""
    bra = coherent_amplitudes(beta, len(field.u) - 1)
    return (abs(np.vdot(bra, field.u)) ** 2 + abs(np.vdot(bra, field.v)) ** 2) / math.pi


class TestQFunction:
    def test_peak_of_coherent_state(self, params):
        field = field_rank2(evolve(params, 0.0))
        assert abs(q_at(field, complex(ALPHA50)) - 1.0 / math.pi) < 1e-6

    def test_far_from_support(self, params):
        field = field_rank2(evolve(params, 0.0))
        assert q_at(field, complex(ALPHA50 + 6.0)) < math.exp(-36.0) / math.pi * 1.001

    def test_grid_matches_pointwise(self, params):
        field = field_rank2(evolve(params, 0.9))
        grid = q_grid(field, (-12.0, 12.0, -12.0, 12.0), 25, 25)
        for i in (0, 7, 12, 24):
            for j in (0, 13, 24):
                beta = complex(grid.res[i], grid.ims[j])
                assert abs(grid.values[i, j] - q_by_overlaps(field, beta)) < 1e-12

    def test_normalization_riemann_sum(self, params):
        # numerical integration oracle for int Q d^2 beta = 1
        for tau in (0.0, math.pi / 4):
            field = field_rank2(evolve(params, tau))
            grid = q_grid(field, (-12.0, 12.0, -12.0, 12.0), 241, 241)
            assert abs(grid.riemann_sum() - 1.0) < 1e-3

    def test_values_nonnegative(self, params):
        field = field_rank2(evolve(params, 0.47))
        grid = q_grid(field, (-12.0, 12.0, -12.0, 12.0), 61, 61)
        assert np.all(grid.values >= 0.0)

    def test_degenerate_window(self, params):
        field = field_rank2(evolve(params, 0.0))
        with pytest.raises(JcmError, match="window 3.0,3.0,-1.0,1.0 at 10x10"):
            q_grid(field, (3.0, 3.0, -1.0, 1.0), 10, 10)
        with pytest.raises(JcmError, match="window -1.0,1.0,-1.0,1.0 at 1x10"):
            q_grid(field, (-1.0, 1.0, -1.0, 1.0), 1, 10)
        with pytest.raises(JcmError, match="window nan,1.0,-1.0,1.0 at 10x10"):
            q_grid(field, (math.nan, 1.0, -1.0, 1.0), 10, 10)

    def test_phase_grid_checks_its_shape(self):
        axis = np.linspace(-1.0, 1.0, 3)
        # cell_area divides by nx - 1 and ny - 1
        with pytest.raises(JcmError, match=r"values of shape \(1, 3\) on 1x3 axes"):
            PhaseGrid(res=np.zeros(1), ims=axis, values=np.ones((1, 3)))
        with pytest.raises(JcmError, match=r"values of shape \(3, 2\) on 3x3 axes"):
            PhaseGrid(res=axis, ims=axis, values=np.ones((3, 2)))
        grid = PhaseGrid(res=axis, ims=axis, values=np.ones((3, 3)))
        for arr in (grid.res, grid.ims, grid.values):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_q_rejected(self, params):
        # the window's width and |beta|^2 overflow in doubles
        field = field_rank2(evolve(params, 0.0))
        with pytest.raises(JcmError, match="non-finite Q on window"):
            q_grid(field, (-1e308, 1e308, -1e308, 1e308), 11, 11)


def q_whole_grid(field, window, nx, ny):
    """The Q recurrence over the whole flattened grid at once, one fresh
    temporary per operation, over the same support [lo, hi) and from the
    same seed |<beta|lo>|: the reference the blocked kernel must equal."""
    xs = np.linspace(window[0], window[1], nx)
    ys = np.linspace(window[2], window[3], ny)
    bc = (xs[:, None] - 1j * ys[None, :]).ravel()
    support = dynamics._support(np.abs(field.u), np.abs(field.v))
    term = observables._q_seed(bc, support.start).astype(complex)
    su = np.zeros_like(term)
    sv = np.zeros_like(term)
    for n in range(support.start, support.stop):
        su += term * field.u[n]
        sv += term * field.v[n]
        term *= bc / math.sqrt(n + 1)
    return ((np.abs(su) ** 2 + np.abs(sv) ** 2) / math.pi).reshape(nx, ny)


class TestBlockedQKernel:
    WINDOW = (-12.0, 12.0, -12.0, 12.0)

    @pytest.mark.parametrize("expr", SPECIAL_TIMES)
    def test_bitwise_equal_to_whole_grid_recurrence(self, params, expr):
        # 241^2 = 7 blocks of 8192 points and one of 737
        field = field_rank2(evolve(params, parse_tau(expr)))
        got = q_grid(field, self.WINDOW, 241, 241).values
        assert got.tobytes() == q_whole_grid(field, self.WINDOW, 241, 241).tobytes()

    @pytest.mark.parametrize("expr", SPECIAL_TIMES)
    def test_block_size_leaves_bits_unchanged(self, params, monkeypatch, expr):
        # 41^2 = 240 blocks of 7 points and a one-point block, where numpy
        # rounds an in-place product differently; a 241^2 grid in blocks of
        # 7 takes about 10 s
        field = field_rank2(evolve(params, parse_tau(expr)))
        default = q_grid(field, self.WINDOW, 41, 41).values
        monkeypatch.setattr(observables, "_Q_BLOCK", 7)
        assert q_grid(field, self.WINDOW, 41, 41).values.tobytes() == default.tobytes()


def mp_q(field, beta):
    """Q(beta) of the field as given, summed over every n in 40-digit
    mpmath from <beta|0> = e^{-|beta|^2/2}."""
    with mp.workdps(40):
        bc = mp.mpc(beta.real, -beta.imag)
        term = mp.exp(-abs(mp.mpc(beta)) ** 2 / 2)
        su = sv = mp.mpc(0)
        for n in range(len(field.u)):
            su += term * mp.mpc(field.u[n])
            sv += term * mp.mpc(field.v[n])
            term = term * bc / mp.sqrt(n + 1)
        return float((abs(su) ** 2 + abs(sv) ** 2) / mp.pi)


class TestQAtLargeNbar:
    """The recurrence starts at the support's first index lo from a log
    seed, so Q stays right where e^{-|beta|^2/2} underflows (nbar >~ 1400)."""

    @pytest.mark.parametrize("nbar,cutoff,tau,turn", [
        (2000.0, 2400, "0", 1), (2000.0, 2400, "pi/2", 1j), (5000.0, 5470, "0", 1)])
    def test_against_mpmath(self, nbar, cutoff, tau, turn):
        # measured worst: 8.4e-14 of the peak 1/pi, at nbar 2000 near alpha
        params = ModelParams(k=4, alpha=math.sqrt(nbar), cutoff=cutoff)
        field = field_rank2(evolve(params, parse_tau(tau)))
        c = turn * math.sqrt(nbar)  # a component: alpha at 0, i alpha at pi/2
        # near c and -c, and two corners of the window c +- 4
        for beta in (c, c + 0.3 + 0.2j, -c - 0.7j, c + 4 + 4j, c - 4 - 4j):
            assert abs(q_at(field, beta) - mp_q(field, beta)) < 2e-13 / math.pi

    def test_field_without_support(self):
        # all 0: no step, Q = 0 as before; a NaN keeps every n and is refused
        zero = np.zeros(9, dtype=complex)
        assert not q_grid(FieldRank2(u=zero, v=zero), (-1, 1, -1, 1), 3, 3).values.any()
        with pytest.raises(JcmError, match="non-finite Q"):
            q_grid(FieldRank2(u=np.full(9, np.nan), v=zero), (-1, 1, -1, 1), 3, 3)

    def test_seed_edges(self):
        # lo = 0 keeps the plain seed's bits; above it beta = 0 and
        # |beta|^2 = inf seed 0 exactly, not NaN
        bc = np.array([0.0, 3.0 - 4.0j, 1e200])
        with np.errstate(divide="ignore", over="ignore"):  # log1p(-1), 1e200^2
            assert (observables._q_seed(bc, 0).tobytes()
                    == np.exp(-np.abs(bc) ** 2 / 2.0).tobytes())
            assert observables._q_seed(bc, 7)[[0, 2]].tolist() == [0.0, 0.0]


class TestInversion:
    def test_initial(self, params):
        assert abs(atomic_inversion(params, 0.0) - 1.0) < 1e-12

    def test_half_period(self, params):
        assert abs(atomic_inversion(params, math.pi / 2) + 1.0) < 1e-10

    @pytest.mark.parametrize("tau", [0.02, 0.4, 0.9, 1.7, 2.8])
    def test_equals_population_difference(self, params, tau):
        rho = atom_density(evolve(params, tau))
        w = atomic_inversion(params, tau)
        assert abs(w - (rho.rho22 - rho.rho11)) < 1e-10
        assert -1.0 <= w <= 1.0


class TestDenseMatrixOracle:
    def test_entropy_and_pnd_against_dense_field_density(self):
        params = ModelParams(k=4, alpha=2.0, cutoff=32, mode=RabiMode.EXACT)
        rng = np.random.default_rng(7)
        for tau in rng.uniform(0.0, 2 * math.pi, size=8):
            state = evolve(params, float(tau))
            u, v = state.excited, state.ground
            dense = np.outer(u, u.conj()) + np.outer(v, v.conj())
            eigs = np.clip(np.linalg.eigvalsh(dense), 0.0, 1.0)
            s_field = float(-np.sum(eigs[eigs > 0] * np.log(eigs[eigs > 0])))
            s_atom = entropy(atom_density(state))
            assert abs(s_field - s_atom) < 1e-8
            sim = pnd(state)
            assert np.max(np.abs(np.diag(dense).real - sim)) < 1e-12
