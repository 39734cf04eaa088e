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


# Values formatted at a time, in whole rows (whole grid rows of a Q CSV).
# The formatter holds about 400 bytes a value, most of it its (values, 25)
# gather index: consuming the 241 x 241 Q CSV peaks at 1.0 MB (tracemalloc)
# at 2048 values, 2.0 MB at 4096 and 4.1 MB at 8192, and q_grid at 2.5 MB.
# 4096 save under 0.5 ms of the 20 ms that CSV takes, but raise the peak RSS
# of a run of the time-series commands (two-column CSVs) by up to 0.8 MB.
_CSV_BLOCK = 2048

_WIDTH = 25  # the longest %.17g text, -1.2345678901234567e-308, and one pad byte
_K0, _K1 = -293, 342  # the powers 10^k of the formatter: k = 16 - X, X in -325..309

Files = list[tuple[str, Iterable[str]]]  # (name in the output directory, text chunks)


@functools.cache
def _format_tables() -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The tables of :func:`_text`, built on first use.

    ``powers``: the columns (h1, h2, rest, b) of 10^k = (h1 + h2 + rest) 2^b,
    h1 + h2 its [1, 2) mantissa rounded and split by :func:`_split`,
    ``rest`` the rounded remainder; every ``int / int`` is correctly rounded.
    ``quads``: each 4-digit chunk's ASCII digits as one little-endian
    uint32; ``zeros``: its count of trailing zeros.  ``layouts``: the
    positions, in a value's 28-byte source row (see :func:`_text`), of the
    bytes of each text, by (sign, form, significant digits); the forms are
    fixed point for each decimal exponent X in -4..16, then the exponent
    form with 2 and with 3 exponent digits.  Position 1 is a zero byte."""
    rows = []
    for k in range(_K0, _K1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        b = num.bit_length() - den.bit_length()
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        if num < den:
            num, b = 2 * num, b - 1
        h = num / den
        hn, hd = h.as_integer_ratio()
        rows.append((h, (num * hd - hn * den) / (den * hd), b))
    h, rest, b = np.array(rows).T
    powers = *_split(h), rest, b.astype(np.int32)
    n = np.arange(10 ** 4)
    quads = sum((n // 10 ** (3 - i) % 10 + 48) * 256 ** i for i in range(4)).astype("<u4")
    zeros = sum(n % 10 ** i == 0 for i in (1, 2, 3)) + (n == 0)
    digit = [0, *range(4, 20)]
    texts = []
    for minus in ([], [20]):
        for x in range(-4, 17):
            for s in range(1, 18):
                texts.append(minus + (digit[:x + 1] + [21] * (s > x + 1) + digit[x + 1:s]
                                      if x >= 0 else [23, 21] + [23] * (-x - 1) + digit[:s]))
        for exponent in ([24, 26, 27], [24, 25, 26, 27]):
            for s in range(1, 18):
                texts.append(minus + digit[:1] + [21] * (s > 1) + digit[1:s] + [22] + exponent)
    layouts = b"".join(bytes(t).ljust(_WIDTH, b"\1") for t in texts)
    return powers, quads, zeros, np.frombuffer(layouts, np.uint8).reshape(-1, _WIDTH)


def _split(v):
    """Veltkamp's split of doubles v into two halves of 26 bits, v = v1 + v2."""
    c = v * 134217729.0
    v1 = c - (c - v)
    return v1, v - v1


def _scaled(m, e, x, powers):
    """m 2^e 10^(16 - x) as a double-double (hi, lo): Dekker's product of m
    and 10^k's mantissa, exact, plus m times the mantissa's rounded rest."""
    k = 16 - _K0 - x
    h1, h2, rest, b = (column.take(k) for column in powers)
    m1, m2 = _split(m)
    p = m * (h1 + h2)
    err = ((m1 * h1 - p) + m1 * h2 + m2 * h1) + m2 * h2
    s = e + b
    return np.ldexp(p, s), np.ldexp(err + m * rest, s)


def _decade(hi, lo):
    """-1 where hi + lo lies below [1e16, 1e17), +1 above, else 0: hi - bound
    is exact within a factor 2 of the bound (Sterbenz), and far above |lo|
    beyond it."""
    return ((hi - 1e17) + lo >= 0).astype(np.int64) - ((hi - 1e16) + lo < 0)


def _text(values) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each double v, as zero-padded rows
    of ``_WIDTH`` bytes.

    The 17 digits D of |v| = m 2^e (``frexp``) and its decimal exponent X
    come from y = |v| 10^(16 - X) as a double-double, X first estimated by
    ``floor(log10)`` and moved by one if y falls outside [1e16, 1e17);
    D = rint(y), half to even as ``%`` rounds, and D = 10^17 carries to
    X + 1.  The values whose y lies within 1e-6 of a half, or still
    outside the decade, are formatted by ``%``, as are NaN and infinities.
    Each value's text is then gathered from its 28-byte source row: the
    leading digit (byte 0), the other 16 digits (4..19), '-', '.', 'e',
    '0' (20..23) and the exponent's sign and 3 digits (24..27)."""
    powers, quads, zeros, layouts = _format_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fallback = ~(a <= sys.float_info.max)  # NaN and infinities
    ok = (a > 0) & ~fallback
    a[~ok] = 1.0
    m, e = np.frexp(a)
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(m, e, x, powers)
    move = _decade(hi, lo)
    if (j := np.flatnonzero(move)).size:
        x[j] += move[j]
        hi[j], lo[j] = _scaled(m[j], e[j], x[j], powers)
        fallback[j] |= _decade(hi[j], lo[j]) != 0
    r = np.rint(lo)
    fallback |= np.abs(np.abs(lo - r) - 0.5) < 1e-6
    d = hi.astype(np.int64) + r.astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    x += carry
    d[~ok] = x[~ok] = 0  # a zero is "0" at X = 0
    src = np.empty((len(v), 7), dtype="<u4")
    lead, rest = np.divmod(d, 10 ** 16)
    src[:, 0] = lead + 48
    chunks = rest // 10 ** 12, rest // 10 ** 8 % 10 ** 4, rest // 10 ** 4 % 10 ** 4, rest % 10 ** 4
    src[:, 1:5] = quads[np.stack(chunks, axis=1)]
    src[:, 5] = 0x30652E2D  # "-.e0"
    src[:, 6] = quads[np.abs(x)]
    src.view(np.uint8)[:, 24] = np.where(x < 0, 45, 43)
    tz = zeros[chunks[3]]
    for i in (2, 1, 0):
        tz += (tz == 12 - 4 * i) * zeros[chunks[i]]
    form = np.where((x >= -4) & (x <= 16), x + 4, 21 + (np.abs(x) >= 100))
    index = layouts.take((np.signbit(v) * 23 + form) * 17 + 16 - tz, axis=0).astype(np.intp)
    index += np.arange(0, 28 * len(v), 28)[:, None]
    text = src.view(np.uint8).take(index)
    for i in np.flatnonzero(fallback):
        old = ("%.17g" % v[i]).encode()
        text[i] = 0
        text[i, :len(old)] = np.frombuffer(old, np.uint8)
    return text


def _rows(cells: np.ndarray) -> str:
    """Rows of comma-separated texts from an (n, columns, ``_WIDTH``) array
    of :func:`_text` rows; its pad bytes take the separators."""
    cells[:, :-1, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells[cells != 0].tobytes().decode("ascii")


def _csv(header: str, *columns) -> Iterator[str]:
    """One row per index of the equal-length ``columns``, each value as
    ``%.17g`` of its double (the bytes of ``format(float(v), ".17g")``,
    round-trip exact).  The columns are stacked now; the rows are formatted
    as they are consumed, a block of ``_CSV_BLOCK`` values at a time."""
    table = np.column_stack(columns).astype(float)
    step = max(1, _CSV_BLOCK // len(columns))
    blocks = (table[start:start + step] for start in range(0, len(table), step))
    return chain([header + "\n"],
                 (_rows(_text(block).reshape(len(block), -1, _WIDTH)) for block in blocks))


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
    # the coordinates are formatted once and broadcast over whole grid rows
    # (re) and columns (im); only Q is formatted per point
    res, ims = _text(grid.res), _text(grid.ims)
    step = max(1, _CSV_BLOCK // grid.ny)  # grid rows per block

    def block(i: int) -> str:
        q = grid.values[i:i + step]
        cells = np.empty((*q.shape, 3, _WIDTH), dtype=np.uint8)
        cells[:, :, 0] = res[i:i + step, None]
        cells[:, :, 1] = ims
        cells[:, :, 2] = _text(q).reshape(*q.shape, _WIDTH)
        return _rows(cells.reshape(q.size, 3, _WIDTH))

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
    return [(f"qfunc_{label}.csv", chain(["re,im,q\n"], map(block, range(0, grid.nx, step)))),
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
