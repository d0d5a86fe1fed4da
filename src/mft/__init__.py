"""Multi-focal tensors from frame configurations.

Exterior algebra, psi matrices of minors, a catalog of relative
GL-invariants, the multifocal contraction, the polynomial constraint
corpus, and linear recovery from synthetic correspondences.
"""

from .coaction import GroupElement, SingularMatrixError, compound_matrix, psi
from .constraints import (
    TrifocalSlices,
    adjugate,
    bifocal_q,
    braid_residual,
    check_all,
    demazure_c,
    epipolar_sextics,
    euclidean_identity_suite,
    frobenius_identity_residual,
    rank_one_certificates,
    trifocal_det_cubics,
)
from .estimation import (
    AmbiguousSolutionError,
    DegenerateProjectionError,
    Scene,
    SceneKind,
    alignment_error,
    correspondences_bifocal,
    correspondences_quadrifocal,
    correspondences_trifocal,
    estimate_tensor,
    linear_rows,
    project_line,
    project_point,
    random_scene,
    solve_nullspace,
)
from .euclidean import (
    EuclideanMotion,
    MotionMode,
    OrthogonalityError,
    embed,
    essential,
    random_motion,
    trifocal_euclidean,
)
from .exterior import (
    DegreeOverflowError,
    DimensionMismatchError,
    Multivector,
    UnsupportedDegreeError,
    index_subsets,
    is_decomposable,
    minor,
    wedge,
)
from .focal import FocalTensor, Section, apply_section, contract, incidence, lift, multifocal
from .invariants import (
    Invariant,
    InvarianceViolationError,
    catalog_lookup,
    check_weight,
    invariant_bifocal,
    invariant_quadrifocal,
    invariant_trifocal,
    invariant_wedge_pair,
    transform,
)
from .polyforms import PolyForm, cartan_apply, derham_d, koszul_delta
from .scalars import TOL

__version__ = "0.1.0"
