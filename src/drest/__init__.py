"""Finite difference-restriction algebras, their dual spaces, and completions.

Importing the package loads none of its modules: each exported name, and
each module, is imported on first access, so a process pays only for the
modules it uses.
"""
import importlib

__version__ = "0.1.0"

# defining module -> the names the package exports from it
_EXPORTS = {
    "pfun": (
        "Carrier",
        "ConcretePFAlgebra",
        "PartialFunction",
        "closure_generate",
        "enumerate_all_pfs",
        "pf_difference",
        "pf_meet",
        "pf_override",
        "pf_restrict",
    ),
    "dra": (
        "AlgebraMap",
        "FiniteAlgebra",
        "OpTable",
        "bottom",
        "compatible",
        "derived_meet",
        "from_concrete",
        "hom_check",
        "is_fin_compatibly_complete",
        "is_proper_hom",
        "is_subtraction_algebra",
        "isomorphism_search",
        "join_if_exists",
        "leq",
        "validate_axioms",
    ),
    "filters": (
        "MaxFilterSpace",
        "all_proper_filters",
        "maximal_filters",
    ),
    "duality": (
        "DualAlgebra",
        "EtaleSpace",
        "F_morphism",
        "F_object",
        "G_morphism",
        "G_object",
        "SpaceMorphism",
        "check_triangle_identities",
        "complete",
        "completion_characterizations",
        "counit_lambda",
        "space_morphism",
        "stone_restriction_checks",
        "unique_completion_iso",
        "unit_eta",
        "validate_etale",
    ),
    "operators": (
        "SpaceRelation",
        "check_additive",
        "check_compat_preserving",
        "check_eta_preserves_operator",
        "check_morphism_back_forth",
        "check_normal",
        "check_relation_properties",
        "classify_concrete_ops",
        "classify_operator",
        "complete_with_operators",
        "operation_from_relation",
        "relation_from_operator",
    ),
    "fixtures": ("FIXTURES", "Fixture", "get_fixture"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
