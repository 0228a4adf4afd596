"""The randomized pseudomanifold-mapping process and diameter bounds.

Maps the boundary of the (d+1)-dimensional straight corridor into the
complete d-complex on [n], one vertex at a time, never repeating a
(d-1)-face. It is the engine of corridor.py with a window of w = d+1
vertices: each step cones over the codimension-2 skeleton of the previous
d+1 chosen vertices, closing binom(d+1, 2) new (d-1)-faces. pm_run is
corridor.run, which maps the boundary corridor on M vertices through phi
and proves the image a faithful copy of it, followed by the pseudomanifold
analysis. The image must be a pseudomanifold. Its dual graph is the
boundary corridor's, so its diameter is the closed form
boundary_corridor_diameter(d, M), proved in that function's docstring; no
graph is built. The run checks it against both halves of the sandwich:
at least pm_diameter_lower(M, d) and at most the Caccetta-Smyth bound on
the image's facets at connectivity d+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .complexes import SimplicialComplex, boundary_corridor_diameter, is_pseudomanifold
from .corridor import ProcessConfig, ProcessSpec, RunReport, run
from .dual import caccetta_smyth_bound
from .errors import InvalidParams, VerificationError

# The pseudomanifold process: window width d+1,
# e(t) = exp{16d p^{-(d^3/2 + d^2/2 - 1)}}, |A| <= d + (d+2) C(d,2).
PM = ProcessSpec(
    extra=1,
    exponent=lambda d, p: 16 * d * p ** (-(d**3 / 2 + d**2 / 2 - 1)),
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
    """A pseudomanifold run. compute_diameter=False leaves dual_diameter None
    and skips the sandwich check. The closed form costs nothing, so the
    option stays only because perfbench/workloads.py passes it."""

    compute_diameter: bool = True
    spec: ClassVar[ProcessSpec] = PM


@dataclass
class PmRunReport(RunReport):
    mapped_vertices: int  # M: window vertices plus one per step
    pseudomanifold: bool
    dual_diameter: int | None
    diameter_lower: float


def pm_run(config: PmConfig) -> PmRunReport:
    """run(config), then the pseudomanifold checks on its verified image:
    the image is a pseudomanifold and, when computed, its dual diameter
    boundary_corridor_diameter(d, M) lies between pm_diameter_lower(M, d)
    and the Caccetta-Smyth bound on its facets at connectivity d+1."""
    report = run(config)
    d = config.d
    # checked on a twin, so no face index stays on the report's image
    twin = SimplicialComplex(n=report.image.n, facets=report.image.facets)
    if not is_pseudomanifold(twin, d):
        raise VerificationError("assembled image is not a pseudomanifold")
    m = config.spec.width(d) + 1 + report.steps
    lower = pm_diameter_lower(m, d)
    dual_diameter = None
    if config.compute_diameter:
        dual_diameter = boundary_corridor_diameter(d, m)
        if dual_diameter < lower:
            raise VerificationError(
                f"dual diameter {dual_diameter} is below the lower bound {lower}"
            )
        upper = caccetta_smyth_bound(len(report.image.facets), d + 1)
        if dual_diameter > upper:
            raise VerificationError(
                f"dual diameter {dual_diameter} is above the Caccetta-Smyth bound {upper}"
            )
    return PmRunReport(
        **vars(report),
        mapped_vertices=m,
        pseudomanifold=True,
        dual_diameter=dual_diameter,
        diameter_lower=lower,
    )
