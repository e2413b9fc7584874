"""Exact kernel for modified weighted-differential 3-Lie algebras."""

from .errors import InputError, ParseError
from .exactnum import Matrix, Scalar, scal
from .multilin import (
    CochainCoordinates, SkewTernaryTensor, cochain_dim, embed_skew_trilinear,
    pair_basis,
)
from .structures import (
    MD3LieAlgebra, ModifiedDifferential, Report, Representation,
    ThreeLieAlgebra, Violation, adjoint_representation,
    coadjoint_representation, derivation_shift_check, dual_representation,
    fundamental_leibniz, homomorphism_check, isomorphism_check,
    semidirect_product, trivial_representation, verify_3lie,
    verify_modified_differential, verify_representation,
)

__all__ = [
    "InputError", "ParseError", "Matrix", "Scalar", "scal",
    "CochainCoordinates", "SkewTernaryTensor", "cochain_dim",
    "embed_skew_trilinear", "pair_basis",
    "MD3LieAlgebra", "ModifiedDifferential", "Report", "Representation",
    "ThreeLieAlgebra", "Violation", "adjoint_representation",
    "coadjoint_representation", "derivation_shift_check",
    "dual_representation", "fundamental_leibniz", "homomorphism_check",
    "isomorphism_check", "semidirect_product", "trivial_representation",
    "verify_3lie", "verify_modified_differential", "verify_representation",
]
