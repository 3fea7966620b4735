"""Equivariant bifurcation certificates for a ring of delayed, damped strings.

Computes critical parameter pairs of the linearized coupled wave system,
assembles twisted-degree bifurcation invariants over the symmetry group
S^1 x Z2 x Z2 x D_N, and emits branch predictions with explicit symmetry
generators, cross-checked by an independent numerical discretization.
"""

from .burnside import BurnsideElement, multiplication_table, multiply
from .bifurcation import (
    BifurcationInvariant,
    BranchPrediction,
    OrbitGenerators,
    folding_data,
    h_fixed_invariant,
    local_invariant,
    maximal_orbit_generators,
    predict_branches,
    symmetry_relations,
)
from .degrees import (
    basic_degree,
    linear_iso_degree,
    twisted_basic_degree,
)
from .errors import DegenerateParameterError, ExactnessError, SizeCapError
from .groups import (
    DihedralElement,
    FiniteGroup,
    GammaPrimeElement,
    SubgroupClassLattice,
    dihedral_group,
    enumerate_subgroups,
    gamma_prime,
    gamma_prime_lattice,
)
from .reps import (
    DihedralIrrep,
    DressedIrrep,
    GIrrep,
    LaplacianEigendata,
    character_table,
    cycle_laplacian_eigendata,
    dressing_bit,
    fixed_dim,
    isotypic_irreps,
)
from .spectrum import (
    CouplingCurve,
    CriticalPoint,
    IndexQuad,
    IndexSets,
    ModelParams,
    critical_point,
    enumerate_critical_points,
    index_sets,
    linear_curve,
    mu,
    rho,
    sigmoid_curve,
    table_curve,
    xi,
    xi_lower_bound_constant,
)
from .twisted import (
    TwistedContext,
    TwistedOrbitType,
    TwistedSum,
    module_product,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
