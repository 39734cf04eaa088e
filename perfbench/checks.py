"""Output checks against values computed apart from the program.

Nothing here imports ``jcm4``.  The references are built from the closed
form of the four-photon model in quadratic mode: Poisson weights from
``lgamma`` renormalized over 0..cutoff (the program's truncation
convention), frequencies W_n = n^2 + 5n + 5, and

    excited_n = C_n cos(W_n tau),   ground_{n+4} = C_n sin(W_n tau)

up to phases the observables do not see.  Phases at an exact time
tau = pi p/q are reduced exactly in integers (W_n p mod 2q); phases at a
floating time read from a CSV are taken with 40-digit mpmath, so the
references do not share the program's rounding of W_n tau.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from workloads import (
    PND_TIME_5000, PND_TIMES_50, QFUNC_HALF_WIDTH, QFUNC_RESOLUTION, Spec,
    file_label,
)

LN2 = math.log(2.0)
TAIL_TOL = 1e-9  # the program's default tail tolerance

# Tolerances.  At nbar = 50 the program's float phase W_n tau (W_n <= 66 k,
# tau <= pi) is off by at most ~3e-11 rad; entropy, inversion and coherence
# were measured within 2.5e-13 of the references, and 1e-9 is used.  At
# nbar = 5000, W_n reaches 3e7 and one rounding of W_n tau is ~2e-9 rad, an
# error that grows like nbar^2; the entropy was measured within 1.4e-10, and
# a time carried exactly (as a Fraction of pi) would move it by as much the
# other way, so 1e-6 is used there.
TOL_SMALL = 1e-9
TOL_LARGE = 1e-6
# The special-time PNDs at pi/4, pi/8 and the pi/8 - pi/24000 PND are exact
# in quadratic mode; the program is within 2e-14 of them at nbar = 50.
TOL_PND_EXACT = 1e-12
# At nbar = 5000 the pi/4 closed form is matched within 2e-11 (the tau
# rounding grows like nbar^2); 1e-8 leaves room for that and its fix.
TOL_PND_LARGE = 1e-8
# Criterion 6: the leading-order near-quarter closed form, within 5e-3.
TOL_PND_CLOSED_FORM = 5e-3
# Q is a sum of at most 257 products; its rounding is ~1e-14 of 1/pi.
TOL_Q = 1e-12
TOL_RIEMANN = 1e-3
KERR_FLOOR = 1.0 - 1e-8
CAT_FLOOR = 0.98
DIP_CEILING = 0.1

N_TAU_SAMPLES = 6
N_Q_SAMPLES = 16


# ---------------------------------------------------------------- references

def poisson_weights(nbar: float, cutoff: int) -> np.ndarray:
    """P_n = e^-nbar nbar^n / n!, n = 0..cutoff, renormalized to sum 1."""
    ln_nbar = math.log(nbar)
    logp = [n * ln_nbar - nbar - math.lgamma(n + 1) for n in range(cutoff + 1)]
    p = np.exp(np.array(logp))
    return p / p.sum()


def frequencies(cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1, dtype=np.int64)
    return n * n + 5 * n + 5


def phases_exact(w: np.ndarray, tau_pi: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of w * pi * tau_pi, reducing w p mod 2q in integers."""
    p, q = tau_pi.numerator, tau_pi.denominator
    residue = (w * p) % (2 * q)
    angle = math.pi * residue.astype(float) / q
    return np.cos(angle), np.sin(angle)


def phases_float(w: np.ndarray, tau: float, weights: np.ndarray):
    """cos and sin of w * tau in 40-digit arithmetic, for the entries whose
    weight (or that of the entry 4 below or above) is not negligible."""
    cos = np.ones(len(w))
    sin = np.zeros(len(w))
    live = np.flatnonzero(weights > 1e-40 * weights.max())
    lo, hi = max(live[0] - 4, 0), min(live[-1] + 4, len(w) - 1)
    with mpmath.workdps(40):
        t = mpmath.mpf(tau)
        for n in range(lo, hi + 1):
            c, s = mpmath.cos_sin(int(w[n]) * t)
            cos[n], sin[n] = float(c), float(s)
    return cos, sin


def atom_reference(p, cos, sin, phase):
    """(rho11, rho22, rho12) in the program's convention
    rho12 = -e^{-4i phase} sum_n sqrt(P_n P_{n+4}) sin_n cos_{n+4}."""
    rho22 = float(np.sum(p * cos * cos))
    rho11 = float(np.sum(p * sin * sin))
    s = float(np.sum(np.sqrt(p[:-4] * p[4:]) * sin[:-4] * cos[4:]))
    rho12 = -s * complex(math.cos(4 * phase), -math.sin(4 * phase))
    return rho11, rho22, rho12


def entropy_reference(rho11, rho22, rho12) -> float:
    gap = math.sqrt((rho22 - rho11) ** 2 + 4 * abs(rho12) ** 2)
    trace = rho11 + rho22
    s = 0.0
    for lam in ((trace + gap) / 2 / trace, (trace - gap) / 2 / trace):
        if lam > 0:
            s -= lam * math.log(lam)
    return s


def pnd_reference(p, cos, sin) -> np.ndarray:
    out = p * cos * cos
    out[4:] += (p * sin * sin)[:-4]
    return out


def q_reference(p, cos, sin, phase, beta: complex) -> float:
    """<beta| rho_F |beta> / pi with <beta|n> from lgamma, not a recurrence."""
    n = np.arange(len(p))
    if beta == 0:
        bra = (n == 0).astype(complex)
    else:
        log_mod = -abs(beta) ** 2 / 2 + n * math.log(abs(beta)) - 0.5 * np.array(
            [math.lgamma(k + 1) for k in n])
        bra = np.exp(log_mod) * np.exp(-1j * n * np.angle(beta))
    amp = np.sqrt(p) * np.exp(1j * n * phase)
    u = np.sum(bra * amp * cos)
    v = np.sum(bra[4:] * (amp * sin)[:-4])
    return (abs(u) ** 2 + abs(v) ** 2) / math.pi


class Reference:
    """The closed-form model of one spec, evaluated on demand."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.p = poisson_weights(spec.nbar, spec.cutoff)
        self.w = frequencies(spec.cutoff)

    def phases(self, tau):
        if isinstance(tau, Fraction):
            return phases_exact(self.w, tau)
        return phases_float(self.w, tau, self.p)

    def atom(self, tau):
        return atom_reference(self.p, *self.phases(tau), self.spec.alpha_phase)

    def entropy(self, tau) -> float:
        return entropy_reference(*self.atom(tau))

    def inversion(self, tau) -> float:
        cos, sin = self.phases(tau)
        return float(np.sum(self.p * (cos * cos - sin * sin)))

    def pnd(self, tau) -> np.ndarray:
        return pnd_reference(self.p, *self.phases(tau))

    def q(self, tau, beta: complex) -> float:
        return q_reference(self.p, *self.phases(tau), self.spec.alpha_phase, beta)


# ------------------------------------------------------------------- outputs

def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_outputs(spec: Spec, outdir: Path) -> dict:
    """Parse what one operation wrote into ``outdir``."""
    outdir = Path(outdir)
    if spec.workload == "phase_space":
        label = file_label(spec.qfunc_time[0])
        return {"qfunc": _csv(outdir / f"qfunc_{label}.csv"),
                "qfunc_json": _json(outdir / f"qfunc_{label}.json")}
    out = {"entropy_dip": _csv(outdir / "entropy_dip.csv"),
           "catcheck": _json(outdir / f"catcheck_r{spec.r}.json")}
    times = PND_TIMES_50 if spec.workload == "tau_scan" else (PND_TIME_5000,)
    out["pnd"] = {expr: _csv(outdir / f"pnd_{file_label(expr)}.csv") for expr, _ in times}
    if spec.workload == "tau_scan":
        out["inversion"] = _csv(outdir / "inversion.csv")
        out["entropy"] = _csv(outdir / "entropy.csv")
    return out


# -------------------------------------------------------------------- checks

def sample_rows(spec: Spec, name: str, n_rows: int, k: int = N_TAU_SAMPLES) -> list[int]:
    """Seeded row indices at which ``name`` is compared with the reference."""
    rng = random.Random(f"check:{spec.workload}:{spec.seed}:{name}")
    return sorted(rng.sample(range(n_rows), k))


def _close(failures, what, got, want, tol):
    if not abs(got - want) <= tol:
        failures.append(f"{what}: got {got!r}, independent value {want!r}, tolerance {tol:g}")


def _shape(failures, what, arr, shape) -> bool:
    if arr.shape != shape:
        failures.append(f"{what}: shape {arr.shape}, expected {shape}")
        return False
    return True


def check_entropy_series(spec, ref, name, data, taus, tol, failures):
    """Entropy column: range [0, ln 2], grid of times, seeded samples."""
    if not _shape(failures, name, data, (len(taus), 2)):
        return
    if not np.allclose(data[:, 0], taus, rtol=0, atol=1e-15):
        failures.append(f"{name}: tau column is not the expected grid")
    s = data[:, 1]
    if not (np.all(s >= 0.0) and np.all(s <= LN2 + 1e-15)):
        failures.append(f"{name}: entropy outside [0, ln 2]: [{s.min()!r}, {s.max()!r}]")
    for i in sample_rows(spec, name, len(s)):
        _close(failures, f"{name}[{i}] S(tau={data[i, 0]!r})", s[i], ref.entropy(float(data[i, 0])), tol)


def dip_grid(nbar: float, steps: int = 1201) -> np.ndarray:
    """The times of ``entropy --dip-window``: pi/4 +/- 6 delta_1."""
    delta1 = math.pi / (16.0 * nbar)
    return np.linspace(math.pi / 4 - 6 * delta1, math.pi / 4 + 6 * delta1, steps)


def check_pnd(what, data, want, tol, failures):
    if not _shape(failures, what, data, (len(want), 2)):
        return
    if not np.array_equal(data[:, 0], np.arange(len(want))):
        failures.append(f"{what}: n column is not 0..cutoff")
    err = np.abs(data[:, 1] - want)
    i = int(np.argmax(err))
    if not err[i] <= tol:
        failures.append(f"{what}: P_{i} = {data[i, 1]!r}, independent {want[i]!r}, tolerance {tol:g}")
    total = float(data[:, 1].sum())
    if not abs(total - 1.0) <= TAIL_TOL:
        failures.append(f"{what}: sum P_n = {total!r}, not 1 within {TAIL_TOL:g}")


def closed_quarter(p):
    out = p.copy()
    out[4:] += p[:-4]
    return 0.5 * out


def closed_eighth(p):
    n = np.arange(len(p))
    low, high = (2 - math.sqrt(2)) / 4, (2 + math.sqrt(2)) / 4
    return np.where(n % 8 < 4, low, high) * (2 * closed_quarter(p))


def closed_near_quarter(p, tau_pi: Fraction):
    """(P_n + P_{n-4}) sin^2[(n^2 - 3n + 1) tau], leading order in 1/nbar."""
    n = np.arange(len(p), dtype=np.int64)
    _, sin = phases_exact(n * n - 3 * n + 1, tau_pi)
    return 2 * closed_quarter(p) * sin * sin


def check_catcheck(spec, ref, data, tol, failures):
    tau_pi = Fraction(1, 4) + spec.r * spec.delta1_pi
    if data.get("r") != spec.r or data.get("nbar") != spec.nbar:
        failures.append(f"catcheck: r/nbar {data.get('r')}/{data.get('nbar')} differ from the input")
    _close(failures, "catcheck tau_dip", data["tau_dip"], math.pi * float(tau_pi), 1e-15)
    if not data["kerr_fidelity_half_period"] >= KERR_FLOOR:
        failures.append(f"catcheck: kerr_fidelity_half_period {data['kerr_fidelity_half_period']!r} < {KERR_FLOOR!r}")
    if not data["cat_fidelity"] >= CAT_FLOOR:
        failures.append(f"catcheck: cat_fidelity {data['cat_fidelity']!r} < {CAT_FLOOR}")
    rho11, _, rho12 = ref.atom(tau_pi)
    got12 = complex(*data["rho12_dip"])
    _close(failures, "catcheck rho12_dip", got12, rho12, tol)
    _close(failures, "catcheck rho11_dip", data["rho11_dip"], rho11, tol)
    _close(failures, "catcheck entropy_dip", data["entropy_dip"], ref.entropy(tau_pi), tol)
    _close(failures, "catcheck entropy_quarter", data["entropy_quarter"],
           ref.entropy(Fraction(1, 4)), tol)


def check_tau_scan(spec: Spec, out: dict, ref: Reference) -> list[str]:
    failures: list[str] = []
    check_entropy_series(spec, ref, "entropy_dip", out["entropy_dip"], dip_grid(spec.nbar),
                         TOL_SMALL, failures)
    entropy = out["entropy"]
    check_entropy_series(spec, ref, "entropy", entropy, np.linspace(0, math.pi, 801),
                         TOL_SMALL, failures)
    if entropy.size and not abs(entropy[0, 1]) <= 1e-12:
        failures.append(f"entropy: S(0) = {entropy[0, 1]!r}, not 0")

    inv = out["inversion"]
    if _shape(failures, "inversion", inv, (2001, 2)):
        if not np.allclose(inv[:, 0], np.linspace(0, math.pi, 2001), rtol=0, atol=1e-15):
            failures.append("inversion: tau column is not the expected grid")
        _close(failures, "inversion W(0)", inv[0, 1], 1.0, 1e-12)
        if not np.all(np.abs(inv[:, 1]) <= 1 + 1e-12):
            failures.append("inversion: |W| > 1")
        for i in sample_rows(spec, "inversion", len(inv)):
            _close(failures, f"inversion[{i}] W(tau={inv[i, 0]!r})", inv[i, 1],
                   ref.inversion(float(inv[i, 0])), TOL_SMALL)

    (q_expr, q_tau), (e_expr, e_tau), (n_expr, n_tau) = PND_TIMES_50
    check_pnd(f"pnd {q_expr}", out["pnd"][q_expr], closed_quarter(ref.p), TOL_PND_EXACT, failures)
    check_pnd(f"pnd {e_expr}", out["pnd"][e_expr], closed_eighth(ref.p), TOL_PND_EXACT, failures)
    check_pnd(f"pnd {n_expr}", out["pnd"][n_expr], ref.pnd(n_tau), TOL_PND_EXACT, failures)
    check_catcheck(spec, ref, out["catcheck"], TOL_SMALL, failures)
    return failures


def check_large_nbar(spec: Spec, out: dict, ref: Reference) -> list[str]:
    failures: list[str] = []
    dip = out["entropy_dip"]
    check_entropy_series(spec, ref, "entropy_dip", dip, dip_grid(spec.nbar), TOL_LARGE, failures)
    if dip.shape == (1201, 2):
        s = dip[:, 1]
        # scan step is delta_1 / 100; gridline r sits at row 600 + 100 r
        for row in (500, 700):
            if not s[row] < DIP_CEILING:
                failures.append(f"entropy_dip: S(pi/4 {'+' if row > 600 else '-'} delta_1) = {s[row]!r} >= {DIP_CEILING}")
        for r in (-5, -3, -1, 1, 3, 5):
            lo, hi = 600 + 100 * (r - 1) + 1, 600 + 100 * (r + 1)
            deepest = lo + int(np.argmin(s[lo:hi]))
            if abs(deepest - (600 + 100 * r)) > 1:
                failures.append(f"entropy_dip: deepest sample near r = {r} is row {deepest}, "
                                f"more than one step from gridline row {600 + 100 * r}")
    expr, tau_pi = PND_TIME_5000
    data = out["pnd"][expr]
    check_pnd(f"pnd {expr}", data, ref.pnd(tau_pi), TOL_PND_LARGE, failures)
    if data.shape == (len(ref.p), 2):
        err = float(np.max(np.abs(data[:, 1] - closed_near_quarter(ref.p, tau_pi))))
        if not err <= TOL_PND_CLOSED_FORM:
            failures.append(f"pnd {expr}: {err!r} from the near-quarter closed form, > {TOL_PND_CLOSED_FORM}")
    check_catcheck(spec, ref, out["catcheck"], TOL_LARGE, failures)
    return failures


def q_sample_cells(spec: Spec, q: np.ndarray) -> list[int]:
    """Seeded rows of the Q CSV to compare: a few anywhere on the grid and
    the rest where Q is above 1 % of its peak, where a wrong state shows."""
    rng = random.Random(f"check:{spec.workload}:{spec.seed}:q")
    anywhere = rng.sample(range(len(q)), 4)
    bright = np.flatnonzero(q > 0.01 * q.max()).tolist()
    return sorted(set(anywhere + rng.sample(bright, min(len(bright), N_Q_SAMPLES - 4))))


def check_phase_space(spec: Spec, out: dict, ref: Reference) -> list[str]:
    failures: list[str] = []
    res = QFUNC_RESOLUTION
    data, meta = out["qfunc"], out["qfunc_json"]
    if not _shape(failures, "qfunc", data, (res * res, 3)):
        return failures
    axis = np.linspace(-QFUNC_HALF_WIDTH, QFUNC_HALF_WIDTH, res)
    if not (np.array_equal(data[:, 0], np.repeat(axis, res))
            and np.array_equal(data[:, 1], np.tile(axis, res))):
        failures.append("qfunc: grid coordinates are not exactly linspace(-12, 12, 241)")
    q = data[:, 2]
    if not (np.all(q >= 0.0) and np.all(q <= (1 + 1e-12) / math.pi)):
        failures.append(f"qfunc: Q outside [0, 1/pi]: [{q.min()!r}, {q.max()!r}]")
    cell = (axis[1] - axis[0]) ** 2
    total = float(q.sum() * cell)
    if not abs(total - 1.0) <= TOL_RIEMANN:
        failures.append(f"qfunc: Riemann sum {total!r}, not 1 within {TOL_RIEMANN}")
    _close(failures, "qfunc json riemann_sum", meta["riemann_sum"], total, 1e-9)
    expr, tau_pi, components = spec.qfunc_time
    if meta["component_count"] != components:
        failures.append(f"qfunc: {meta['component_count']} components at tau = {expr}, expected {components}")
    half = QFUNC_HALF_WIDTH
    if (meta["nx"], meta["ny"]) != (res, res) or meta["window"] != [-half, half, -half, half]:
        failures.append("qfunc json: grid size or window differ from the input")
    for i in q_sample_cells(spec, q):
        beta = complex(data[i, 0], data[i, 1])
        _close(failures, f"qfunc Q({beta})", q[i], ref.q(tau_pi, beta), TOL_Q)
    return failures


CHECKS = {"tau_scan": check_tau_scan, "large_nbar": check_large_nbar,
          "phase_space": check_phase_space}


def check_outputs(spec: Spec, out: dict, ref: Reference | None = None) -> list[str]:
    """Every check of ``spec``'s workload on parsed outputs ``out``."""
    return CHECKS[spec.workload](spec, out, ref or Reference(spec))
