"""Certification and minimizer extraction for correlatively sparse moment
relaxations of polynomial optimization problems."""

from . import demo, errors, io
from .altmeasure import enumerate_extreme_measures, solve_weight_lp
from .assemble import assemble, maximal_support_set, verify_global
from .certify import (
    FlatnessCertificate,
    RankPolicy,
    ZeroPropagation,
    certify,
    d_half,
    zero_propagation_check,
)
from .core import (
    CliqueCover,
    CliqueSubvector,
    SparseMomentVector,
    clique_subvector,
    sparse_exponents,
    validate_cover,
)
from .extract import (
    AtomicMeasure,
    constraint_feasibility_check,
    extract_atoms,
    extract_clique_measures,
)
from .matrices import ConstraintPolynomial, LabeledSymMatrix, moment_matrix
from .relax import (
    PopProblem,
    SdpInstance,
    SolveReport,
    build_relaxation,
    emit_sdpa,
    glue_certified,
    ingest_solution,
    parse_sdpa,
    pipeline,
    solve_sdp_bundled,
)
from .rip import NoOrderExists, RipFailsAt, RipWitnesses, check_rip, find_rip_order

__version__ = "0.1.0"
