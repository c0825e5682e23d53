"""Finite-field toolkit for private retrieval of linear combinations.

A client demands L mixed combinations of D out of K stored messages and
must hide every individual message index: the server's posterior that any
given index is demanded stays exactly D/K.  The package provides the exact
prime-field linear algebra, the query builder and recovery routines, the
privacy and feasibility audits, capacity bounds, a binary store format, and
a TCP query/answer protocol.
"""

from .errors import (
    AlignmentSingular,
    BadEndpoint,
    BadGrsParameters,
    BadMagic,
    BadShape,
    CompletionFailed,
    DegenerateCauchy,
    EntryOutOfRange,
    FieldTooSmall,
    FrameTooLarge,
    InconsistentSystem,
    IpltError,
    MalformedPayload,
    NotGrs,
    NotMds,
    NotPrime,
    RecoveryInconsistent,
    RemoteError,
    ShapeError,
    TooLarge,
    TruncatedFile,
    VersionUnsupported,
)
from .field import check_field, is_prime
from .matrix import (
    FqMatrix,
    cauchy,
    grs_extend,
    grs_generator,
    grs_parameters,
    hstack,
    is_mds,
    random_grs,
    rank,
    right_null_space,
    solve,
)
from .protocol import (
    ALIGN_S,
    PARITY_EMBED,
    ClientSecret,
    Demand,
    ProtocolParams,
    Query,
    achieved_rate,
    alignment_coefficients,
    answer,
    build_query,
    demand_positions,
    derive_params,
    recover,
    select_block,
    shuffle_demand,
    solve_alignment,
)
from .bounds import (
    RateBounds,
    SweepRow,
    SweepSkip,
    capacity_exact,
    capacity_lower,
    capacity_upper,
    decimal6,
    ilp_bruteforce,
    jplt_rate,
    rate_bounds,
    render_csv,
    sweep,
)
from .audit import (
    FeasibilityReport,
    PrivacyReport,
    SupportCandidate,
    audit_individual_privacy,
    candidate_supports,
    feasibility_sweep,
)
from .store import MessageStore, store_load, store_save
from .wire import (
    AnswerServer,
    decode_answer,
    decode_query,
    encode_answer,
    encode_query,
    fetch,
    parse_endpoint,
    recv_frame,
    send_frame,
    serve,
    to_debug_json,
)
from .fixtures import ExampleFixture, example_fixture

__version__ = "0.1.0"
