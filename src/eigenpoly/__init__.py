"""Construct monic matrix polynomials with structured coefficients from
prescribed eigenpairs, and verify the results independently.

The core pipeline is encode -> assemble -> analyze -> realize: eigenpairs
are packed into real form, the structure constraint turns the defining
relation into one linear system over coordinate vectors, and the SVD of
that system answers existence and uniqueness while providing the
minimal-norm solution and the full solution family.
"""

from .eigendata import Eigenpair, RealEigenpairs, encode
from .fixtures import generate_example3
from .solver import (
    AssembledSystem,
    MonicPolynomial,
    SolutionFamily,
    ToleranceConfig,
    analyze,
    assemble,
    extract_coefficient,
    monicize,
    solve,
)
from .structures import (
    BUILTIN_KINDS,
    StructureBasis,
    StructureMembershipError,
    StructuredMatrix,
    build_basis,
    builtin_dimension,
    coords_of,
    load_custom_basis,
    realize,
)
from .verify import (
    ResidualReport,
    choose_eigenpairs,
    companion_eigs,
    random_polynomial,
    residual,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "BUILTIN_KINDS",
    "Eigenpair",
    "MonicPolynomial",
    "RealEigenpairs",
    "ResidualReport",
    "SolutionFamily",
    "StructureBasis",
    "StructureMembershipError",
    "StructuredMatrix",
    "ToleranceConfig",
    "analyze",
    "assemble",
    "build_basis",
    "builtin_dimension",
    "choose_eigenpairs",
    "companion_eigs",
    "coords_of",
    "encode",
    "extract_coefficient",
    "generate_example3",
    "load_custom_basis",
    "monicize",
    "random_polynomial",
    "realize",
    "residual",
    "solve",
]
