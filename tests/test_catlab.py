import math
from fractions import Fraction

import numpy as np
import pytest

from jcm4.catlab import (
    cat_match,
    count_components,
    dip_offset,
    entropy_dip_scan,
    expected_cat_state,
    expected_kerr_state,
    kerr_fidelity_at_half_period,
    post_selected_field,
)
from jcm4.dynamics import ModelParams, RabiMode, Time, atom_density, evolve, field_rank2
from jcm4.errors import JcmError
from jcm4.fock import coherent_state, fidelity, kerr_state
from jcm4.observables import PhaseGrid, pnd_closed, q_grid

ALPHA50 = math.sqrt(50.0)
NBAR = 50.0
DELTA1 = math.pi / 800.0


@pytest.fixture(scope="module")
def params():
    return ModelParams(k=4, alpha=ALPHA50, cutoff=256, mode=RabiMode.QUADRATIC)


class TestDipOffset:
    def test_first_offset(self):
        delta = float(dip_offset(1, NBAR))
        assert delta == pytest.approx(DELTA1, abs=1e-15)
        assert abs(delta - 0.0039270) < 1e-6

    def test_sign_symmetry(self):
        assert dip_offset(-1, NBAR) == -1 * dip_offset(1, NBAR)

    def test_linearity(self):
        assert float(dip_offset(3, NBAR)) == pytest.approx(3 * DELTA1, abs=1e-15)

    @pytest.mark.parametrize("r", [0, 2, -4])
    def test_even_rejected(self, r):
        with pytest.raises(JcmError, match=f"r must be odd, got {r}"):
            dip_offset(r, NBAR)

    def test_positive_nbar_required(self):
        with pytest.raises(JcmError, match="nbar must be > 0"):
            dip_offset(1, 0.0)

    def test_past_the_double_range_refused(self):
        # r pi / (16 nbar) at nbar 1e-300 is about 2e299 rad, not a double Time
        with pytest.raises(JcmError, match=r"phases are past 2\^40"):
            dip_offset(1, 1e-300)

    def test_float_arithmetic_refused(self):
        # the offset is an exact Time; adding it to a float would drop its pi part
        with pytest.raises(TypeError):
            math.pi / 4 + dip_offset(1, 50.0)


@pytest.fixture(scope="module")
def params128():
    # targets over |0>..|128>, the downshifted range of a cutoff-132 model
    return ModelParams(k=4, alpha=ALPHA50, cutoff=132)


class TestHalfPeriodKerr:
    def test_moduli_match_coherent(self, params128):
        target = expected_kerr_state(params128)
        coh, _ = coherent_state(ALPHA50, 128)
        diff = np.abs(np.abs(target) - np.abs(coh))
        assert np.max(diff) < 1e-12

    def test_is_kerr_of_negated_amplitude(self, params128):
        target = expected_kerr_state(params128)
        negated, _ = coherent_state(-ALPHA50, 128)
        assert fidelity(target, kerr_state(negated, math.pi)) == 1.0

    def test_simulated_ground_branch_matches(self, params):
        assert kerr_fidelity_at_half_period(params) > 1.0 - 1e-8

    def test_phase_bound_at_2_40(self):
        # the bound pi n + pi n(n-1)/2 over the target's |0>..|n>, n = cutoff - 4,
        # is 1.0995113617e12 < 2^40 at n = 836642 and 1.0995139901e12 > 2^40 at
        # 836643: the first cutoff refused is 836647
        target = expected_kerr_state(ModelParams(k=4, alpha=ALPHA50, cutoff=836646))
        assert len(target) == 836643 and abs(np.sum(np.abs(target) ** 2) - 1.0) < 1e-12
        with pytest.raises(JcmError, match=r"reach 1\.100e\+12 rad, past 2\^40"):
            expected_kerr_state(ModelParams(k=4, alpha=ALPHA50, cutoff=836647))


class TestPostSelection:
    def test_initial_excited_is_coherent(self, params):
        coh, _ = coherent_state(ALPHA50, 256)
        assert fidelity(evolve(params, 0.0).excited, coh) > 1.0 - 1e-12

    def test_initial_ground_negligible(self, params):
        with pytest.raises(JcmError, match="outcome 'g' has probability"):
            post_selected_field(evolve(params, 0.0))

    def test_downshift_changes_support(self, params):
        # normalized over the whole ground branch, then cut to |0>..|252>
        state = evolve(params, 0.9)
        field = post_selected_field(state)
        norm = math.sqrt(float(np.vdot(state.ground, state.ground).real))
        assert len(field) == 253
        assert np.array_equal(field, (state.ground / norm)[4:])


class TestCatState:
    def test_pre_norm_close_to_one_at_r1(self):
        params = ModelParams(k=4, alpha=ALPHA50, cutoff=260)
        _, pre_norm = expected_cat_state(params, dip_offset(1, NBAR))
        assert abs(pre_norm - 1.0) < 1e-3

    def test_fidelity_with_simulated_field(self, params):
        match = cat_match(params, dip_offset(1, NBAR))
        assert match["fidelity"] >= 0.98
        assert match["nominal_fidelity"] >= 0.98

    def test_nominal_fidelity_degrades_with_r(self, params):
        f1 = cat_match(params, dip_offset(1, NBAR))["nominal_fidelity"]
        f5 = cat_match(params, dip_offset(5, NBAR))["nominal_fidelity"]
        assert f5 < f1

    def test_cat_pnd_matches_near_quarter_closed_form(self):
        # the cat is written in downshifted indexing; its entry n lines
        # up with field index n + 4.  The residual is the lag-4 Poisson
        # difference |C_n|^2 - |C_{n+4}|^2, about 2e-2 at worst
        delta = dip_offset(1, NBAR)
        cat, _ = expected_cat_state(ModelParams(k=4, alpha=ALPHA50, cutoff=260), delta)
        coh, _ = coherent_state(ALPHA50, 256)
        closed = pnd_closed(np.abs(coh) ** 2, Time(Fraction(1, 4)) + delta)
        got = np.abs(cat) ** 2
        assert np.max(np.abs(got[:-4] - closed[4:])) < 2.5e-2

    def test_phase_gap_identity_at_nbar(self):
        # the frequency gap times (pi/4 + delta_r) sits at pi/2 (mod pi)
        # up to a drift that grows linearly in |r|
        n = 50
        gap = 8 * n + 4
        for r in (-5, -3, -1, 1, 3, 5):
            angle = gap * (math.pi / 4 + float(dip_offset(r, NBAR)))
            dev = abs(math.remainder(angle - math.pi / 2, math.pi))
            assert dev <= max(0.02, abs(r) * math.pi / (4 * NBAR) * 1.01)


def reference_kerr(alpha, gamma, cutoff):
    """|alpha, gamma> over |0>..|cutoff>, from its own coherent state."""
    return kerr_state(coherent_state(alpha, cutoff)[0], gamma)


def reference_cat(alpha, d, cutoff):
    """The cat of ``expected_cat_state``, its branches built from their own
    coherent states; returns it normalized and its norm before."""
    tau = math.pi / 4 + d
    plus = reference_kerr(-1j * alpha * np.exp(6j * d), math.pi / 2 + 2 * d, cutoff)
    minus = reference_kerr(1j * alpha * np.exp(-6j * d), -math.pi / 2 - 2 * d, cutoff)
    raw = (np.exp(5j * tau) * plus - np.exp(-5j * tau) * minus) / math.sqrt(2.0)
    pre_norm = float(np.linalg.norm(raw))
    return raw / pre_norm, pre_norm


class TestTargetsMatchOwnCoherentStates:
    # the targets rotate the model's C_n by e^{i n theta}; building each
    # branch from its own coherent state gives the same state to rounding,
    # which grows with the rotated phase n theta
    @pytest.mark.parametrize("nbar,cutoff,tol", [(50, 256, 1e-13), (5000, 5470, 1e-12)])
    @pytest.mark.parametrize("phase", [0.0, 0.3])
    def test_against_reference(self, nbar, cutoff, tol, phase):
        alpha = math.sqrt(nbar) * complex(math.cos(phase), math.sin(phase))
        params = ModelParams(k=4, alpha=alpha, cutoff=cutoff)
        n = cutoff - 4
        kerr = expected_kerr_state(params)
        assert np.max(np.abs(kerr - reference_kerr(-alpha, math.pi, n))) < tol
        for r in (1, -3, 5):
            d = dip_offset(r, nbar)
            cat, pre_norm = expected_cat_state(params, d)
            ref, ref_pre_norm = reference_cat(alpha, float(d), n)
            assert np.max(np.abs(cat - ref)) < tol
            assert abs(pre_norm - ref_pre_norm) < 1e-13


class TestTargetsRequireK4:
    @pytest.mark.parametrize("k", [1, 2])
    def test_other_k_refused(self, k):
        params = ModelParams(k=k, alpha=ALPHA50, cutoff=256, mode=RabiMode.EXACT)
        with pytest.raises(JcmError, match=f"derived for k=4, got k={k}"):
            kerr_fidelity_at_half_period(params)
        with pytest.raises(JcmError, match=f"derived for k=4, got k={k}"):
            cat_match(params, dip_offset(1, NBAR))
        with pytest.raises(JcmError, match=f"derived for k=4, got k={k}"):
            expected_kerr_state(params)


class TestAtomicCoherenceAtDips:
    def test_population_split(self, params):
        for r in (1, -1):
            rho = atom_density(evolve(params, math.pi / 4 + r * DELTA1))
            assert abs(rho.rho11 - 0.5) < 1e-2

    def test_coherence_value_r_plus_one(self, params):
        rho = atom_density(evolve(params, math.pi / 4 + DELTA1))
        assert abs(rho.rho12 + 0.5) < 0.05

    def test_coherence_magnitude_r_minus_one(self, params):
        # opposite dip: same magnitude, opposite sign of the real coherence
        rho = atom_density(evolve(params, math.pi / 4 - DELTA1))
        assert abs(abs(rho.rho12) - 0.5) < 0.05
        assert rho.rho12.real > 0.0

    def test_factorization_is_approximate(self, params):
        # the two branch fields agree over the same Fock indices; at
        # nbar = 50 the product-state approximation is good but not exact
        state = evolve(params, math.pi / 4 + DELTA1)
        mutual = fidelity(state.excited, state.ground)
        assert 0.8 < mutual < 1.0


class TestEntropyDips:
    def test_minima_flank_the_quarter_period(self, params):
        taus, _, minima = entropy_dip_scan(params, math.pi / 4, 1.2 * DELTA1, 241)
        assert len(minima) >= 2
        rel = (taus[list(minima)] - math.pi / 4) / DELTA1
        # one dip on each side, slightly inside the +/-1 gridlines
        assert np.any((rel > 0.8) & (rel < 1.1))
        assert np.any((rel < -0.8) & (rel > -1.1))

    def test_quarter_period_is_local_maximum(self, params):
        _, entropies, _ = entropy_dip_scan(params, math.pi / 4, 0.2 * DELTA1, 41)
        mid = 20
        assert abs(entropies[mid] - 0.6931) < 0.01
        assert entropies[mid] >= entropies.min()

    def test_dip_depth_ordering(self, params):
        values = [
            min(
                entropy_dip_scan(
                    params, math.pi / 4 + r * DELTA1, 0.3 * DELTA1, 61
                )[1]
            )
            for r in (1, 3, 5)
        ]
        assert values[0] < values[1] < values[2]

    def test_requires_three_steps(self, params):
        with pytest.raises(JcmError, match="steps must be >= 3"):
            entropy_dip_scan(params, math.pi / 4, DELTA1, 2)


@pytest.fixture(scope="module")
def grids(params):
    def make(tau):
        field = field_rank2(evolve(params, tau))
        return q_grid(field, (-12.0, 12.0, -12.0, 12.0), 161, 161)

    return {
        "zero": make(0.0),
        "half": make(math.pi / 2),
        "quarter": make(math.pi / 4),
        "eighth": make(math.pi / 8),
        "dip": make(math.pi / 4 + DELTA1),
    }


class TestComponentCounting:
    def test_counts(self, grids):
        expected = {"zero": 1, "half": 2, "quarter": 4, "eighth": 8, "dip": 8}
        for key, want in expected.items():
            assert len(count_components(grids[key], 0.1)) == want, key

    def test_masses_positive_and_bounded(self, grids):
        masses = count_components(grids["quarter"], 0.1)
        assert all(m > 0.0 for m in masses)
        assert sum(masses) <= 1.0 + 1e-6

    def test_threshold_fraction_validated(self, grids):
        with pytest.raises(JcmError, match=r"threshold_fraction must be in \(0, 1\)"):
            count_components(grids["zero"], 0.0)
        with pytest.raises(JcmError, match=r"threshold_fraction must be in \(0, 1\)"):
            count_components(grids["zero"], 1.0)

    def test_empty_grid(self):
        axis = np.linspace(-1.0, 1.0, 4)
        grid = PhaseGrid(res=axis, ims=axis, values=np.zeros((4, 4)))
        with pytest.raises(JcmError, match="grid has no positive Q values"):
            count_components(grid, 0.1)


def reference_components(mask):
    """Cell lists of the 4-connected components, by breadth-first search."""
    rows, cols = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    components = []
    for r0 in range(rows):
        for c0 in range(cols):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            seen[r0, c0] = True
            queue, cells = [(r0, c0)], []
            while queue:
                r, c = queue.pop(0)
                cells.append((r, c))
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < rows and 0 <= cc < cols and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        queue.append((rr, cc))
            components.append(sorted(cells))
    return components


def masked_grid(mask, seed):
    # weights in [0.5, 1] clear the 0.1 threshold on every masked cell
    weights = np.random.default_rng(seed).uniform(0.5, 1.0, mask.shape)
    rows, cols = mask.shape
    values = np.where(mask, weights, 0.0)
    return PhaseGrid(res=np.linspace(0.0, rows, rows), ims=np.linspace(0.0, cols, cols),
                     values=values)


def mask_from(picture):
    return np.array([[ch == "#" for ch in line] for line in picture])


LABELLER_SHAPES = {
    "u_joined_at_bottom": (["#.#", "#.#", "###"], 1),
    "diagonal_touch": (["#.", ".#"], 2),
    "row_end_to_next_row_start": (["..#", "#..", "..#", "#.."], 4),
    "every_edge": (["#.#.#", ".....", "#...#", ".....", "#.#.#"], 8),
    "runs_in_one_row": (["##.#.##", "......."], 3),
    "runs_in_one_column": (["#.", "#.", "..", "#."], 2),
}


class TestLabeller:
    @staticmethod
    def check(mask, seed):
        grid = masked_grid(mask, seed)
        masses = count_components(grid, 0.1)
        # summed in flat-index order, as the labeller's mass sums are
        expected = sorted((sum(grid.values[cell] for cell in cells) * grid.cell_area
                           for cells in reference_components(mask)), reverse=True)
        assert list(masses) == expected
        return len(masses)

    @pytest.mark.parametrize("name", sorted(LABELLER_SHAPES))
    def test_shape(self, name):
        picture, count = LABELLER_SHAPES[name]
        assert self.check(mask_from(picture), seed=len(name)) == count

    def test_random_masks(self):
        rng = np.random.default_rng(2001)
        for trial in range(200):
            shape = (int(rng.integers(2, 25)), int(rng.integers(2, 25)))
            mask = rng.random(shape) < rng.uniform(0.2, 0.8)
            if mask.any():
                self.check(mask, seed=trial)
