"""Exact Sturm chains and finite orthogonal polynomials on classical grids."""

from .poly import Polynomial
from .scalars import BigFloat, DEFAULT_PRECISION
from .chain import SturmChain, build_chain, count_roots, sturmian_pair
from .spectral import (JacobiMatrix, SpectralData, dual_moments, dual_weights,
                       generate_polys, hankel_tests, jacobi_from_chain,
                       mirror_dual, primal_weights, stieltjes_fraction)

__version__ = "0.1.0"

__all__ = [
    "BigFloat", "DEFAULT_PRECISION", "JacobiMatrix", "Polynomial",
    "SpectralData", "SturmChain", "build_chain", "count_roots",
    "dual_moments", "dual_weights", "generate_polys", "hankel_tests",
    "jacobi_from_chain", "mirror_dual", "primal_weights",
    "stieltjes_fraction", "sturmian_pair", "__version__",
]
