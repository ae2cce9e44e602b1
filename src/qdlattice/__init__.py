"""Quantum double model for finite abelian groups on small lattice patches.

Exact construction of the ribbon-operator calculus, stabilizer ground
states, and anyonic sector data (fusion, braiding, the modular matrix),
together with a verification suite that checks the algebraic laws of the
model entrywise at desk scale.
"""

from .groups import AbelianGroup, GroupError, group_make, parse_group
from .lattice import (
    Lattice,
    LatticeError,
    Region,
    Ribbon,
    Site,
    closed_loop_around,
    cone_make,
    parse_lattice,
    ribbon_between,
    ribbon_concat,
    ribbon_invert,
)
from .operators import (
    AffineMap,
    OperatorError,
    OpSum,
    hamiltonian,
    loop_charge_projector,
    plaq_h,
    plaq_proj,
    ribbon_F,
    ribbon_F_irrep,
    star_g,
    star_proj,
)
from .groundstate import flat_connections, ground_state, omega_distances, omega_expectations
from .states import SparseState
from .sectors import (
    SectorLabel,
    braiding_phase,
    fusion_table,
    sector_labels,
)
from .reports import Report, RunConfig

__all__ = [
    "AbelianGroup",
    "GroupError",
    "group_make",
    "parse_group",
    "Lattice",
    "LatticeError",
    "Region",
    "Ribbon",
    "Site",
    "closed_loop_around",
    "cone_make",
    "parse_lattice",
    "ribbon_between",
    "ribbon_concat",
    "ribbon_invert",
    "AffineMap",
    "OperatorError",
    "OpSum",
    "hamiltonian",
    "loop_charge_projector",
    "plaq_h",
    "plaq_proj",
    "ribbon_F",
    "ribbon_F_irrep",
    "star_g",
    "star_proj",
    "flat_connections",
    "ground_state",
    "omega_distances",
    "omega_expectations",
    "SparseState",
    "SectorLabel",
    "braiding_phase",
    "fusion_table",
    "sector_labels",
    "Report",
    "RunConfig",
]

__version__ = "0.1.0"
