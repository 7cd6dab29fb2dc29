"""Exact Cartier-operator computations on Artin-Schreier-Witt towers of curves.

Pipeline: a tower specification (Witt-vector right-hand side over GF(p^k))
is normalized, its ramification breaks and genera derived, layer equations
extracted through truncated Witt arithmetic and rewritten in standard form,
the monomial basis of regular differentials enumerated, the Cartier operator
evaluated recursively with per-level precompute tables, and kernel dimensions
of its twisted powers computed by exact linear algebra over GF(p^k).
"""

__version__ = "0.1.0"

from .gf import FieldCtx, FieldElement, field
from .poly import Monomial, PoleProfile
from .tower import RamificationData, TowerSpec, TowerState
from .cartier import CartierMatrix, cartier_matrix
from .linalg import DenseMatrix, kernel_dim, twisted_power_kernels

__all__ = [
    "__version__",
    "FieldCtx", "FieldElement", "field",
    "Monomial", "PoleProfile",
    "RamificationData", "TowerSpec", "TowerState",
    "CartierMatrix", "cartier_matrix",
    "DenseMatrix", "kernel_dim", "twisted_power_kernels",
]
