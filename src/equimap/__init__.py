"""Equivariant linear maps between matrix algebras.

Build maps whose Choi matrices live in the span of partially transposed
leg-permutation operators, certify their k-positivity through the block
compression criterion, falsify with random states, detect entanglement
and bound Schmidt numbers, and draw the basis as wiring diagrams.
"""

__version__ = "0.1.0"

from .choi import (
    Equivariance,
    MapRep,
    apply_map,
    bell_matrix,
    bell_vector,
    block_matrix,
    choi_of_map,
    extend_map,
)
from .detection import (
    DensityMatrix,
    DetectionVerdict,
    DetectorFamily,
    SchmidtNumberCertificate,
    bell_state,
    detect,
    detect_with_family,
    family_block_minima,
    family_verdicts,
    isotropic_state,
    parse_state_spec,
    product_state,
    random_pure,
    sampled_detector,
    schmidt_rank,
    sn_certificate,
)
from .diagram import (
    WiringDiagram,
    matrix_from_wiring,
    render_dot,
    render_text,
    verify_wiring,
    wiring,
)
from .equivariant import (
    EquivarianceReport,
    EquivariantSpec,
    RankWitness,
    attest_ab_equivariance,
    basis_elements,
    build_equivariant,
    check_ab_equivariance,
    choi_basis_element,
    decompose_equivariant,
    find_equivariance_violation,
)
from .errors import (
    CapacityError,
    ContractViolation,
    EquimapError,
    ParameterError,
    ShapeError,
)
from .linalg import (
    TensorShape,
    frobenius_norm,
    haar_unitary,
    hermitian_eig,
    kron,
    kron_all,
    matrix_rank,
    partial_transpose,
    psd_eig,
    subseed,
)
from .perms import (
    GramMatrix,
    Permutation,
    enumerate_sym,
    gram_matrix,
    sigma_rep,
)
from .positivity import (
    DEFAULT_TOL,
    FalsificationWitness,
    KPositivityPoint,
    PositivityProfile,
    k_positivity,
    k_positivity_falsify,
    positivity_profile,
)
from .zoo import (
    ZooEntry,
    bhat_map,
    choi_map,
    collins3_map,
    collins_map,
    conjugation_map,
    identity_map,
    parse_map_spec,
    positivity_scan,
    tomiyama_map,
    transpose_map,
)
