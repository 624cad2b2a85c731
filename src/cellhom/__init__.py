"""Periodic homogenization of voxelized linear-elastic microstructures.

The package computes the homogenized stiffness of a periodic voxel cell via
matrix-free finite elements and cross-verifies three equivalent solution
routes (displacement, strain-space and stress-space/saddle point) together
with the duality identities that connect them.
"""

from .cell import Lattice, VoxelCell, cell_average, load_voxel_file, parse_voxel_text, voxel_text, wrap_index
from .energies import (
    EnergyReport,
    MacroLoad,
    complementary_energy,
    displacement_potential,
    elastic_energy,
    energy_report,
    mean_stress_indicator,
    strain_energy,
    strain_potential,
    stress_displacement_lagrangian,
    stress_potential,
    stress_strain_lagrangian,
)
from .fem import (
    LinPerField,
    compatibility_residual,
    div_adjoint,
    is_equilibrated,
    project_zero_mean,
    quad_inner,
    quad_norm,
    sym_gradient,
)
from .homogenize import AsymmetricResult, HomogResult, dual_consistency, energy_product, homogenize
from .mandel import (
    DomainError,
    SingularTensor,
    apply,
    inner,
    invert,
    iso_tensor,
    mandel_to_sym,
    quad,
    sym_to_mandel,
)
from .checks import (
    ArrowCheck,
    SingularSystem,
    dense_reference_strain,
    duality_gap_displacement,
    duality_gap_strain,
    equivalence_matrix,
    hill_mandel_residual,
    random_equilibrated_stress,
    voigt_reuss_margins,
)
from .solvers import (
    NotConverged,
    SolveParams,
    SolveReport,
    StepTooLarge,
    solve_strain_driven,
    solve_strain_route,
    solve_stress_driven,
    solve_stress_uzawa,
)

__version__ = "0.1.0"
