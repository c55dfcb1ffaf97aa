"""Exact finite-depth arithmetic over discrete valuation rings, a universal
function whose graph-like sets are covering-measure thin, and the exhaustive
verification harness around them."""

from .errors import (
    BadDepth,
    BadIndex,
    BudgetExceeded,
    DigitOutOfRange,
    InsufficientDepth,
    InvariantViolated,
    KakeyaError,
    NegativeValuation,
    NotInSk,
    RankDeficient,
    RingMismatch,
)
from .ring import (
    INF,
    Element,
    ElementMatrix,
    ElementVector,
    RingMode,
    RingSpec,
    add,
    cell_index,
    element_from_cell,
    element_from_digits,
    enumerate_residues,
    format_element,
    from_int,
    mat_mul,
    mat_vec,
    mul,
    neg,
    one,
    padic_ring,
    parse_element,
    power_series_ring,
    reduce_to_R,
    sub,
    truncate,
    vector,
    zero,
)
from .phi import (
    MatrixFn,
    PhiConfig,
    PhiVariant,
    alpha,
    continuity_modulus,
    decode_matrix_fn,
    index_of_constant_matrix,
    lambda_floor,
    matrix_fn_eval,
    omega_block_size,
    phi_dh_eval,
    phi_eval,
    projection,
    required_phi_input_depth,
    sk_elements,
    sk_size,
)
from .families import (
    BUILTIN_FAMILIES,
    FamilyDescriptor,
    family_point,
    kakeya_line_family,
    nikodym_line_family,
)
from .measure import (
    CellSet,
    CoverageReport,
    DecayReport,
    build_set_cells,
    cross_section_cells,
    decay_report,
    direction_coverage,
)
from .analysis import (
    CertificateReport,
    DefectReport,
    DigitSampler,
    SampleSpec,
    TermDecomposition,
    certify_lemma_bounds,
    holder_defect,
    term_decomposition,
    vsd_counterexample_scan,
    vsd_defect,
)

__version__ = "0.1.0"
