"""Tight framelet multiresolution analysis on the unit triangle.

Library layout:

- ``basis``      orthonormal triangle polynomials, eigenvalues, degree caps
- ``quadrature`` Kronecker lattices, exact reference rules, Gram matrices
- ``filters``    closed-form masks and scaling symbols of the filter bank
- ``transform``  framelet analysis, decomposition/reconstruction, DFTs
- ``cli``        command-line front end over JSON/CSV artifacts
"""

from .basis import (
    DomainError,
    SpectralVector,
    basis_eval,
    basis_matrix,
    degree_cutoff,
    eigenvalue,
    expansion_values,
    jacobi_eval,
    laplace_beltrami_apply,
    linear_index,
    max_degree_within,
    tri_dim,
)
from .filters import (
    FilterBank,
    SpectralSymbol,
    check_partition,
    check_refinement,
    default_bank,
    nu,
)
from .quadrature import (
    GramMatrix,
    QuadratureRule,
    exactness_degree,
    gauss_reference_rule,
    generalized_tightness_residual,
    gram_matrix,
    kronecker_lattice,
    lattice_size,
)
from .transform import (
    CoefficientSequence,
    FrameletSystem,
    FrameletTree,
    adjoint_dft,
    analyze,
    analyze_lowpass,
    convolve,
    decompose,
    dft,
    downsample,
    framelet_values,
    kronecker_system,
    multilevel_decompose,
    multilevel_reconstruct,
    parseval_report,
    reconstruct,
    reference_system,
    relative_difference,
    triangle_grid,
    upsample,
)

__version__ = "0.1.0"
