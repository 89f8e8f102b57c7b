"""Model checking and countermodel search for tangled derivative logics
over finite dynamic Kripke frames, with story and path-space machinery.

The names below are exported lazily (PEP 562): ``import tanglemc`` loads
no submodule, and the first use of a name imports its home module.  A
command-line process thus loads only the modules its command needs.
"""

__version__ = "0.1.0"

_HOMES = {
    "formula": (
        "And", "Box", "Diamond", "Formula", "Implies", "Neg", "Next", "Or",
        "ParseError", "Tangle", "Var", "bot", "next_depth", "parse", "pretty",
        "size", "top", "vars_of",
    ),
    "frame": (
        "ClassFlags", "Frame", "FrameError", "check_frame_pmorphism",
        "duplicate_reflexive", "frame_from_dict", "pullback_valuation",
        "validate_frame",
    ),
    "logic": (
        "LOGICS", "SCHEMAS", "Logic", "Schema", "countermodel_search",
        "random_class_frame", "soundness_suite",
    ),
    "pathspace": (
        "LimitAssignment", "Path", "build_limit_assignment", "enumerate_paths",
        "format_path", "verify_lim_pmorphism",
    ),
    "semantics": (
        "Model", "Verdict", "tangled_oracle_clusters", "tangled_oracle_subsets",
        "truth_set", "valid_on_frame",
    ),
    "story": (
        "Moment", "Story", "StoryError", "moment_from_frame", "story_class",
        "story_oplus", "validate_moment", "validate_story",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
