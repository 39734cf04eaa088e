"""Command-line driver: every computation as a subcommand emitting CSV/JSON.

Usage:  jcm <subcommand> [--nbar R] [--mode exact|quadratic] [--cutoff N]
        [--tau EXPR] [--out DIR] [--config FILE] ...

The pi terms of a time like ``pi/8-pi/24000`` are summed as one exact
fraction of pi, not as rounded decimals, which break the quadratic model's
special-time identities, and the time is carried as that Fraction plus a
float remainder (``dynamics.Time``, which is not a float: the writers take
``float(t)``); so are the time ranges and the dip window
(``dynamics.TimeGrid``), delta_1 = pi/(16 nbar) being a Fraction of pi for
every nbar it takes.  The kernels reduce the pi part exactly: in quadratic
mode every phase W_n tau is exact but for the remainder's part W_n rest.
Only that float part is bounded by 2^40 for one time; a series (its rows
list the double tau) and exact mode bound W_n |tau| as a whole.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from . import catlab, dynamics, observables
from .dynamics import ModelParams, RabiMode, Time, TimeGrid
from .errors import JcmError

SCHEMA_VERSION = 1

_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:\.\d+)?)\s*\*?\s*)?pi(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?$"
    r"|^(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)$"
)


def parse_tau(expr: str) -> Time:
    """Parse a symbolic time expression (sums of p*pi/q terms and reals).

    The pi-multiples are accumulated as an exact Fraction, the Time's pi
    part, and multiplied by pi once for its double; plain numeric terms,
    which alone may carry an exponent (``1e-5``), are summed as its float
    remainder.
    """
    text = expr.strip().lower().replace(" ", "")
    if not text:
        raise JcmError("empty tau expression")
    # split into signed terms, but not at the sign of an exponent (1e-5)
    pieces = re.findall(r"[+-]?(?:\de[+-]|[^+-])+", text)
    if "".join(pieces) != text:
        raise JcmError(f"malformed tau expression: {expr!r}")
    pi_part = Fraction(0)
    real_part = 0.0
    for piece in pieces:
        sign = -1 if piece.startswith("-") else 1
        body = piece.lstrip("+-")
        m = _TERM_RE.match(body)
        if not m:
            raise JcmError(f"malformed tau term: {piece!r} in {expr!r}")
        if m.group("num") is not None:
            real_part += sign * float(m.group("num"))
        else:
            coef = Fraction(m.group("coef") or "1")
            den = Fraction(m.group("den") or "1")
            if den == 0:
                raise JcmError(f"zero denominator in tau term: {piece!r} in {expr!r}")
            pi_part += sign * coef / den
    try:
        return Time(pi_part, real_part)
    except OverflowError:
        raise JcmError(f"tau expression out of the double range: {expr!r}") from None


def tau_label(expr: str) -> str:
    """Filesystem-safe label for a tau expression."""
    return (
        expr.strip().lower().replace(" ", "")
        .replace("/", "_").replace("+", "p").replace("-", "m")
        .replace("*", "").replace(".", "d")
    )


# the values a RunConfig field of each annotated type accepts (never a bool)
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (flags > config file > defaults).

    Every field is checked once here, so a config file of any JSON values
    ends in a :class:`JcmError` that names the field."""

    nbar: float = 50.0
    alpha_phase: float = 0.0
    k: int = 4
    cutoff: int = 256
    mode: str = "quadratic"
    output_dir: str = "."
    tail_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise JcmError(f"{f.name} must be of type {f.type}, got {value!r}")
            # False for NaN, inf and an int too large for a double
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise JcmError(f"{f.name} must be finite, got {value!r}")
        if self.nbar < 0:
            raise JcmError(f"nbar must be >= 0, got {self.nbar!r}")

    def params(self) -> ModelParams:
        alpha = math.sqrt(self.nbar) * complex(
            math.cos(self.alpha_phase), math.sin(self.alpha_phase)
        )
        return ModelParams(
            k=self.k,
            alpha=alpha,
            cutoff=self.cutoff,
            mode=RabiMode(self.mode),
            tail_tol=self.tail_tol,
        )


# Rows of a CSV formatted by one % operation.
_CSV_BLOCK = 4096

Files = list[tuple[str, Iterable[str]]]  # (name in the output directory, text chunks)


def _csv(header: str, *columns) -> Iterator[str]:
    """One row per index of the equal-length ``columns``, each value as
    ``%.17g`` of its double (the bytes of ``format(float(v), ".17g")``,
    round-trip exact).  The columns are stacked now; the rows are formatted
    as they are consumed, with one % per block of rows."""
    table = np.column_stack(columns).astype(float)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    blocks = (table[start:start + _CSV_BLOCK] for start in range(0, len(table), _CSV_BLOCK))
    return chain([header + "\n"],
                 (line * len(block) % tuple(block.ravel().tolist()) for block in blocks))


def _json(payload: dict) -> list[str]:
    """The sidecar text, each :class:`Time` as its double; a NaN or infinite
    value raises ValueError."""
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return [json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=float) + "\n"]


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise JcmError(f"config file must hold a JSON object, got {type(data).__name__}")
        known = {k: v for k, v in data.items() if k in RunConfig.__dataclass_fields__}
        unknown = set(data) - set(known)
        if unknown:
            raise JcmError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **known)
    # every RunConfig field is a common flag of the same dest
    flags = {name: getattr(args, name) for name in RunConfig.__dataclass_fields__}
    return replace(cfg, **{name: v for name, v in flags.items() if v is not None})


def cmd_pnd(cfg: RunConfig, args) -> Files:
    specs = [spec for chunk in args.tau for spec in chunk.split(",") if spec]
    if not specs:
        raise JcmError("at least one --tau is required")
    params = cfg.params()
    taus: dict[str, Time] = {}  # the first spec of each file label; one label, one time
    for spec in specs:
        taus.setdefault(tau_label(spec), parse_tau(spec))
    dists = {label: observables.pnd(dynamics.evolve(params, tau)) for label, tau in taus.items()}
    return [(f"pnd_{label}.csv", _csv("n,p", np.arange(len(p)), p))
            for label, p in dists.items()]


def _tau_range(args, default_steps: int) -> TimeGrid:
    """--steps times from --tau-min (default 0) to --tau-max (default pi)."""
    tau_min = parse_tau(args.tau_min) if args.tau_min else Time(0)
    tau_max = parse_tau(args.tau_max) if args.tau_max else Time(1)
    steps = args.steps if args.steps is not None else default_steps
    return TimeGrid(tau_min, tau_max, steps)


def cmd_entropy(cfg: RunConfig, args) -> Files:
    params = cfg.params()
    if args.dip_window:
        if args.tau_min is not None or args.tau_max is not None:
            raise JcmError("--dip-window scans its own tau range; "
                           "it takes no --tau-min or --tau-max")
        catlab._require_k4(params)
        delta1 = catlab.dip_offset(1, cfg.nbar)
        center, halfwidth = Time(Fraction(1, 4)), 6 * delta1
        steps = args.steps if args.steps is not None else 1201
        taus, values, minima = catlab.entropy_dip_scan(params, center, halfwidth, steps)
        sidecar = _json({
            "center": center,
            "halfwidth": halfwidth,
            "steps": steps,
            "delta1": delta1,
            "gridlines": {str(r): center + r * delta1 for r in (-5, -3, -1, 1, 3, 5)},
            "minima_tau": [float(taus[i]) for i in minima],
            "minima_entropy": [float(values[i]) for i in minima],
        })
        return [("entropy_dip.csv", _csv("tau,entropy", taus, values)),
                ("entropy_dip.json", sidecar)]
    grid = _tau_range(args, 801)
    values = observables.entropy(dynamics.atom_density_series(params, grid))
    return [("entropy.csv", _csv("tau,entropy", grid.taus, values))]


def _parse_window(spec: str | None) -> tuple[float, float, float, float]:
    if spec is None:
        return (-12.0, 12.0, -12.0, 12.0)
    parts = [float(p) for p in spec.split(",")]
    if not all(math.isfinite(p) for p in parts):
        raise JcmError(f"window parts must be finite, got {spec!r}")
    if len(parts) == 1:
        half = abs(parts[0])
        return (-half, half, -half, half)
    if len(parts) == 4:
        return (parts[0], parts[1], parts[2], parts[3])
    raise JcmError("window must be a half-width L or re_min,re_max,im_min,im_max")


def cmd_qfunc(cfg: RunConfig, args) -> Files:
    params = cfg.params()
    tau = parse_tau(args.tau)
    window = _parse_window(args.window)
    field = dynamics.field_rank2(dynamics.evolve(params, tau))
    grid = observables.q_grid(field, window, args.resolution, args.resolution)
    riemann_sum = grid.riemann_sum()
    # Q >= 0 integrates to 1 over the plane: a larger sum proves the grid too coarse
    if not riemann_sum <= 1.0 + 1e-3:
        raise JcmError(f"Q sums to {riemann_sum:.6g} over the window, above 1 + 1e-3: "
                       "the grid is too coarse to resolve the state; raise --resolution")
    masses = catlab.count_components(grid, args.threshold)
    label = tau_label(args.tau)
    # the coordinates are formatted once; each grid row is one % of a
    # template that holds them
    heads = ["%.17g," % x for x in grid.res.tolist()]
    tails = ["%.17g,%%.17g\n" % y for y in grid.ims.tolist()]
    rows = ("".join([head + t for t in tails]) % tuple(row.tolist())
            for head, row in zip(heads, grid.values))
    sidecar = _json({
        "tau": tau,
        "window": list(window),
        "nx": grid.nx,
        "ny": grid.ny,
        "riemann_sum": riemann_sum,
        "threshold_fraction": args.threshold,
        "component_count": len(masses),
        "component_masses": list(masses),
    })
    return [(f"qfunc_{label}.csv", chain(["re,im,q\n"], rows)),
            (f"qfunc_{label}.json", sidecar)]


def cmd_inversion(cfg: RunConfig, args) -> Files:
    params = cfg.params()
    grid = _tau_range(args, 2001)
    rho = dynamics.atom_density_series(params, grid)
    return [("inversion.csv", _csv("tau,w", grid.taus, rho.rho22 - rho.rho11))]


def cmd_catcheck(cfg: RunConfig, args) -> Files:
    params = cfg.params()
    delta = catlab.dip_offset(args.r, cfg.nbar)
    tau_dip = math.pi / 4.0 + float(delta)

    kerr_f = catlab.kerr_fidelity_at_half_period(params)
    match = catlab.cat_match(params, delta)

    rho_quarter = dynamics.atom_density(dynamics.evolve(params, Time(Fraction(1, 4))))
    rho_dip = match["rho"]
    phase = cfg.alpha_phase
    rho12_target = -0.5 * complex(math.cos(4 * phase), -math.sin(4 * phase))

    payload = {
        "nbar": cfg.nbar,
        "r": args.r,
        "delta": delta,
        "tau_dip": tau_dip,
        "kerr_fidelity_half_period": kerr_f,
        "cat_fidelity": match["fidelity"],
        "cat_nominal_fidelity": match["nominal_fidelity"],
        "cat_pre_norm": match["pre_norm"],
        "entropy_quarter": observables.entropy(rho_quarter),
        "entropy_dip": observables.entropy(rho_dip),
        "rho11_dip": rho_dip.rho11,
        "rho12_dip": [rho_dip.rho12.real, rho_dip.rho12.imag],
        "rho12_target_deviation": abs(rho_dip.rho12 - rho12_target),
    }
    return [(f"catcheck_r{args.r}.json", _json(payload))]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``jcm`` parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="jcm",
        description="Four-photon Jaynes-Cummings model: figure data as CSV/JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--nbar", type=float, help="mean photon number (default 50)")
        p.add_argument("--alpha-phase", type=float, dest="alpha_phase",
                       help="phase of the coherent amplitude in radians (default 0)")
        p.add_argument("--k", type=int, help="photon multiplicity (default 4)")
        p.add_argument("--cutoff", type=int, help="Fock truncation (default 256)")
        p.add_argument("--mode", choices=["exact", "quadratic"],
                       help="Rabi-frequency mode (default quadratic)")
        p.add_argument("--tail-tol", type=float, dest="tail_tol",
                       help="max truncated probability mass (default 1e-9)")
        p.add_argument("--out", dest="output_dir", help="output directory (default .)")
        p.add_argument("--config", help="JSON config file (flags take precedence)")

    def add_range(p):
        p.add_argument("--tau-min", dest="tau_min", help="range start (default 0)")
        p.add_argument("--tau-max", dest="tau_max", help="range end (default pi)")
        p.add_argument("--steps", type=int, help="number of samples")

    p = sub.add_parser("pnd", help="photon number distribution at given times")
    add_common(p)
    p.add_argument("--tau", action="append", required=True,
                   help="symbolic time, e.g. pi/8-pi/24000 (repeatable, comma-separable)")
    p.set_defaults(run=cmd_pnd)

    p = sub.add_parser("entropy", help="field entropy over a time range")
    add_common(p)
    add_range(p)
    p.add_argument("--dip-window", action="store_true", dest="dip_window",
                   help="scan pi/4 +/- 6*delta_1 with r-gridline JSON sidecar")
    p.set_defaults(run=cmd_entropy)

    p = sub.add_parser("qfunc", help="Husimi Q-function grid plus component count")
    add_common(p)
    p.add_argument("--tau", required=True, help="symbolic time")
    p.add_argument("--window", help="half-width L or re_min,re_max,im_min,im_max "
                                    "(default 12)")
    p.add_argument("--resolution", type=int, default=241,
                   help="grid points per axis (default 241)")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="component threshold as fraction of peak (default 0.1)")
    p.set_defaults(run=cmd_qfunc)

    p = sub.add_parser("inversion", help="atomic population inversion over time")
    add_common(p)
    add_range(p)
    p.set_defaults(run=cmd_inversion)

    p = sub.add_parser("catcheck", help="Kerr/cat fidelity and coherence dossier")
    add_common(p)
    p.add_argument("--r", type=int, default=1, help="odd dip index (default 1)")
    p.set_defaults(run=cmd_catcheck)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and write the files it returns.  Nothing is written
    until every file is computed, so a refused run leaves no file behind."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        files = args.run(cfg, args)
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, chunks in files:
            path = outdir / name
            with open(path, "w", newline="\n") as fh:
                fh.writelines(chunks)
            print(path)
    except (ValueError, OSError, MemoryError) as exc:  # JcmError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
