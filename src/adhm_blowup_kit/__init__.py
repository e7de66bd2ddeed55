"""Exact ADHM/monad toolkit for framed torsion-free sheaves on blow-ups of the plane."""

from .adhm import (
    AdhmConfig,
    GroupElement,
    act,
    assemble_a,
    constraint_residual,
    derive_bA,
    dim_group,
    gauge_fix,
    sample_config,
    stabilizer_dim,
    tangent_dims,
    verify_equivalence,
)
from .lattice import (
    ChernCharacter,
    DivisorClass,
    MonadDims,
    canonical_class,
    chi_line,
    chi_twisted,
    exceptional_class,
    line_class,
    moduli_dim_formulas,
    monad_dims,
    restriction_degree,
)
from .linalg import Matrix, block_matrix
from .monad import (
    FiberData,
    MonadRep,
    SurfacePoint,
    build_monad,
    check_monad_condition,
    cohomology_ch_check,
    fiber_data,
    framing_check,
    framing_verdicts,
    singular_scan,
    validate_config,
)
from .sections import (
    BlowupPoints,
    SectionPoly,
    const_section,
    lambda_section,
    lower_pair,
    raise_pair,
    w_section,
    z_section,
    zero_section,
)

__version__ = "0.1.0"
