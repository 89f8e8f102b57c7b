"""Model checking and countermodel search for tangled derivative logics
over finite dynamic Kripke frames, with story and path-space machinery."""

from .formula import (
    And,
    Box,
    Diamond,
    Formula,
    Implies,
    Neg,
    Next,
    Or,
    ParseError,
    Tangle,
    Var,
    bot,
    next_depth,
    parse,
    pretty,
    size,
    subformula_closure,
    top,
    vars_of,
)
from .frame import (
    ClassFlags,
    Frame,
    FrameError,
    check_frame_pmorphism,
    duplicate_reflexive,
    frame_from_dict,
    pullback_valuation,
    validate_frame,
)
from .logic import (
    LOGICS,
    SCHEMAS,
    Logic,
    Schema,
    countermodel_search,
    random_class_frame,
    random_formula,
    soundness_suite,
)
from .pathspace import (
    LimitAssignment,
    Path,
    build_limit_assignment,
    enumerate_paths,
    format_path,
    next_path,
    parse_path,
    path_metric,
    verify_lim_pmorphism,
)
from .semantics import (
    Model,
    Verdict,
    tangle_iterations,
    tangled_derivative,
    tangled_oracle_clusters,
    tangled_oracle_subsets,
    truth_set,
    valid_on_frame,
)
from .story import (
    Moment,
    Story,
    StoryError,
    compose_moment,
    moment_from_frame,
    story_class,
    story_oplus,
    validate_moment,
    validate_story,
)

__version__ = "0.1.0"
