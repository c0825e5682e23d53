"""Finite-field toolkit for private retrieval of linear combinations.

A client demands L mixed combinations of D out of K stored messages and
must hide every individual message index: the server's posterior that any
given index is demanded stays exactly D/K.  The package provides the exact
prime-field linear algebra, the query builder and recovery routines, the
privacy and feasibility audits, capacity bounds, a binary store format, and
a TCP query/answer protocol.

The package namespace holds the names of README's library example and the
error classes; everything else is imported from its module (iplt.wire,
iplt.matrix, ...).
"""

from .audit import audit_individual_privacy
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
from .protocol import Demand, answer, build_query, derive_params, recover
from .store import MessageStore
