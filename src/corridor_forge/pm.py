"""The randomized pseudomanifold-mapping process and diameter bounds.

Maps the boundary of the (d+1)-dimensional straight corridor into the
complete d-complex on [n], one vertex at a time, never repeating a
(d-1)-face. It is the engine of corridor.py with a window of w = d+1
vertices: each step cones over the codimension-2 skeleton of the previous
d+1 chosen vertices, closing binom(d+1, 2) new (d-1)-faces. The engine's
assemble and verify_run map that boundary through phi and prove the image
a faithful copy of it, so the image is a pseudomanifold whose dual
diameter is bounded below by the known diameter of the boundary corridor;
this module adds those pseudomanifold checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .complexes import SimplicialComplex, is_pseudomanifold
from .corridor import (
    ProcessConfig,
    ProcessSpec,
    ProcessState,
    RunReport,
    assemble,
    first_band_exit,
    simulate,
    verify_run,
)
from .dual import build_dual, diameter
from .errors import InvalidParams, OutOfRegime, VerificationError


def pm_error_function(d: int, p: float) -> float:
    """e(t) = exp{16d p^{-(d^3/2 + d^2/2 - 1)}}; inf on overflow."""
    if p <= 0:
        raise OutOfRegime(f"p={p} <= 0")
    exponent = 16 * d * p ** (-(d**3 / 2 + d**2 / 2 - 1))
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


# The pseudomanifold process: window width d+1, |A| <= d + (d+2) C(d,2).
PM = ProcessSpec(
    extra=1,
    error_function=pm_error_function,
    size_cap=lambda d: d + (d + 2) * math.comb(d, 2),
)


def pm_diameter_lower(N: int, d: int) -> float:
    """Lower bound d/(d+1) N - d - 1 on the boundary-corridor diameter."""
    if N < d + 2:
        raise InvalidParams(f"need N >= d + 2, got N={N}")
    return d / (d + 1) * N - d - 1


def hpm_upper(n: int, d: int) -> float:
    """Exact finite-n form 2 C(n,d)/(d+1)^2 + 1 behind the asymptotic
    pseudomanifold diameter bound 2 n^d / ((d+1)(d+1)!)."""
    if n <= d:
        raise InvalidParams("need n > d")
    return 2 * math.comb(n, d) / (d + 1) ** 2 + 1


@dataclass
class PmConfig(ProcessConfig):
    compute_diameter: bool = True
    spec: ClassVar[ProcessSpec] = PM


@dataclass
class PmRunReport(RunReport):
    mapped_vertices: int  # M: window vertices plus one per step
    pseudomanifold: bool
    dual_diameter: int | None
    diameter_lower: float


def pm_run(config: PmConfig) -> PmRunReport:
    """Run to exhaustion, assemble the boundary-corridor image, verify."""
    state, records = simulate(config)
    image, structural = assemble(state)
    d = config.d
    m = len(state.phi)
    pm_flag = is_pseudomanifold(image, d)
    dual_diameter = None
    if config.compute_diameter:
        dual_diameter = diameter(build_dual(image, d))
    report = PmRunReport(
        config=config,
        steps=state.step,
        mapped_vertices=m,
        first_low_step=state.first_low_step,
        image=image,
        pseudomanifold=pm_flag,
        dual_diameter=dual_diameter,
        diameter_lower=pm_diameter_lower(m, d),
        records=records,
        first_band_exit=first_band_exit(records, config.n),
    )
    _verify_pm_run(report, state, structural)
    return report


def _verify_pm_run(
    report: PmRunReport, state: ProcessState, structural: SimplicialComplex
):
    f_low = verify_run(report, state, structural)
    if not report.pseudomanifold:
        raise VerificationError("assembled image is not a pseudomanifold")
    d = report.config.d
    if 2 * f_low != (d + 1) * len(report.image.facets):
        raise VerificationError("degree-sum identity 2 f_{d-1} = (d+1) f_d broken")
    if report.dual_diameter is not None and report.dual_diameter < report.diameter_lower:
        raise VerificationError(
            f"dual diameter {report.dual_diameter} is below the lower bound "
            f"{report.diameter_lower}"
        )
