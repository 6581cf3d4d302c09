"""Exact arithmetic in the bicyclic monoid and I-order decision procedures.

The monoid is generated by a and b with ba = 1; elements live in normal
form a^i b^j as exponent pairs.  On top of the arithmetic the package
describes subsemigroups by the five-form classification, decides which of
them are left (and right) I-orders, produces verified straight
decompositions q = inverse(x) * y with x R y, checked through a max-plus
matrix image of the monoid that shares no code with the arithmetic, and
cross-validates every decision against a brute-force coverage oracle.
"""

from .elements import (
    Element,
    GreenRelations,
    IDENTITY,
    green,
    hat,
    idempotent_leq,
    inverse,
    is_idempotent,
    multiply,
    parse_element,
)
from .words import word_normalize
from .subsemigroups import (
    ClosureFailure,
    Diagonal,
    DiagonalTail,
    IndexSet,
    InvalidSpecError,
    Lower,
    RowData,
    RowOverride,
    SubsemigroupSpec,
    TwoSidedI,
    TwoSidedII,
    Upper,
    ValidationReport,
    closure_falsify,
    contains,
    validate,
)
from .iorder import (
    Certificate,
    Condition,
    Decision,
    decide_left_iorder,
    decide_right_iorder,
    decision_lines,
    hat_spec,
)
from .witness import NotLeftIOrderError, Witness, decompose, verify_witness
from .specfile import (
    SpecError,
    SpecSyntaxError,
    SpecValidationError,
    parse_spec,
    parse_spec_unchecked,
)
from .coverage import (
    CoverageReport,
    CrossCheckReport,
    coverage,
    cross_validate,
    default_pair_bound,
)
from .render import render_window

__version__ = "0.1.0"
