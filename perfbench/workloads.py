"""Workload inputs: what one operation of each workload runs, drawn from a seed.

Every operation of a workload is the same fixed bundle of ``jcm``
subcommands.  The seed picks only values that leave the cost of an
operation unchanged: the phase of the coherent amplitude, the odd dip index
r and, in ``phase_space``, which special time the Q grid is taken at.  The
phases and times come from finite sets, so every input a seed can produce
has been run and checked.

This module imports nothing from ``jcm4``; the output checks build on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("tau_scan", "large_nbar", "phase_space")

PHASES = tuple(j * math.pi / 12.0 for j in range(24))
DIP_R = (-5, -3, -1, 1, 3, 5)
# (expression, exact time as a Fraction of pi, Q components at threshold 0.1)
SPECIAL_TIMES = (
    ("0", Fraction(0), 1),
    ("pi/8", Fraction(1, 8), 8),
    ("pi/4", Fraction(1, 4), 4),
    ("pi/2", Fraction(1, 2), 2),
    ("pi/4+pi/800", Fraction(1, 4) + Fraction(1, 800), 8),
)

PND_TIMES_50 = (("pi/4", Fraction(1, 4)), ("pi/8", Fraction(1, 8)),
                ("pi/8-pi/24000", Fraction(1, 8) - Fraction(1, 24000)))
PND_TIME_5000 = ("pi/4+pi/80000", Fraction(1, 4) + Fraction(1, 80000))

QFUNC_RESOLUTION = 241
QFUNC_HALF_WIDTH = 12.0


def file_label(expr: str) -> str:
    """The label ``jcm`` puts in a file name for a time expression."""
    return expr.replace("/", "_").replace("+", "p").replace("-", "m")


@dataclass(frozen=True)
class Spec:
    """The inputs of one workload for one seed."""

    workload: str
    seed: int
    nbar: float
    cutoff: int
    alpha_phase: float
    r: int
    qfunc_time: tuple[str, Fraction, int] | None = None

    @property
    def delta1_pi(self) -> Fraction:
        """delta_1 = pi / (16 nbar), as a Fraction of pi."""
        return Fraction(1, 16 * int(self.nbar))

    def common_args(self) -> list[str]:
        return ["--nbar", repr(self.nbar), "--cutoff", str(self.cutoff),
                "--mode", "quadratic", "--alpha-phase", repr(self.alpha_phase)]

    def commands(self) -> list[list[str]]:
        """The ``jcm`` argument lists that make up one operation (without --out)."""
        common = self.common_args()
        if self.workload == "tau_scan":
            pnd = []
            for expr, _ in PND_TIMES_50:
                pnd += ["--tau", expr]
            return [
                ["entropy", "--dip-window", *common],
                ["inversion", *common],
                ["entropy", *common],
                ["pnd", *pnd, *common],
                ["catcheck", "--r", str(self.r), *common],
            ]
        if self.workload == "large_nbar":
            return [
                ["entropy", "--dip-window", *common],
                ["pnd", "--tau", PND_TIME_5000[0], *common],
                ["catcheck", "--r", str(self.r), *common],
            ]
        return [["qfunc", "--tau", self.qfunc_time[0],
                 "--resolution", str(QFUNC_RESOLUTION), *common]]


def make_spec(workload: str, seed: int) -> Spec:
    """Draw the inputs of ``workload`` from ``seed``; same seed, same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    phase = rng.choice(PHASES)
    r = rng.choice(DIP_R)
    if workload == "large_nbar":
        return Spec(workload, seed, 5000.0, 5470, phase, r)
    qtime = rng.choice(SPECIAL_TIMES) if workload == "phase_space" else None
    return Spec(workload, seed, 50.0, 256, phase, r, qtime)
