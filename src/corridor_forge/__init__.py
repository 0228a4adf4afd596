"""Randomized construction and verification of high-diameter simplicial
complexes and pseudomanifolds."""

from .complexes import (
    SimplicialComplex,
    boundary_corridor,
    boundary_corridor_diameter,
    complex_from_facets,
    f_vector,
    is_pseudomanifold,
    k_faces,
    make_face,
)
from .corridor import CORRIDOR, ProcessConfig, RunReport, i_end, run
from .dual import (
    DualGraph,
    build_dual,
    caccetta_smyth_bound,
    diameter,
    is_induced_path,
    johnson_graph,
    longest_induced_path_bruteforce,
    vertex_connectivity,
)
from .gf2 import (
    betti_numbers,
    boundary_matrix,
    rank_gf2,
    reduced_betti,
)
from .pm import (
    PM,
    PmConfig,
    PmRunReport,
    hpm_upper,
    pm_diameter_lower,
    pm_run,
)

__version__ = "0.1.0"
