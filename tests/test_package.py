"""The package namespace: every name it exports, resolved on first use."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# defining module -> the names ``drest`` exports from it
EXPORTS = {
    "pfun": [
        "Carrier", "ConcretePFAlgebra", "PartialFunction", "closure_generate",
        "enumerate_all_pfs", "pf_difference", "pf_meet", "pf_override",
        "pf_restrict",
    ],
    "dra": [
        "AlgebraMap", "FiniteAlgebra", "OpTable", "bottom", "compatible",
        "derived_meet", "from_concrete", "hom_check", "is_fin_compatibly_complete",
        "is_proper_hom", "is_subtraction_algebra", "isomorphism_search",
        "join_if_exists", "leq", "validate_axioms",
    ],
    "filters": [
        "MaxFilterSpace", "all_proper_filters", "maximal_filters",
    ],
    "duality": [
        "DualAlgebra", "EtaleSpace", "F_morphism", "F_object", "G_morphism",
        "G_object", "SpaceMorphism", "check_triangle_identities", "complete",
        "completion_characterizations", "counit_lambda", "space_morphism",
        "stone_restriction_checks", "unique_completion_iso", "unit_eta",
        "validate_etale",
    ],
    "operators": [
        "SpaceRelation", "check_additive", "check_compat_preserving",
        "check_eta_preserves_operator", "check_morphism_back_forth", "check_normal",
        "check_relation_properties", "classify_concrete_ops", "classify_operator",
        "complete_with_operators", "operation_from_relation", "relation_from_operator",
    ],
    "fixtures": ["FIXTURES", "Fixture", "get_fixture"],
}

CHILD = """
import importlib, json, sys
import drest
exports = json.loads(sys.argv[1])
# importing the package loads none of its modules
assert [m for m in sys.modules if m.startswith("drest.")] == []
star = {}
exec("from drest import *", star)
star.pop("__builtins__")
names = {*exports, *(n for ns in exports.values() for n in ns)}
assert set(star) == names, set(star) ^ names
assert names <= set(dir(drest)) and "__version__" in dir(drest)
for module, exported in exports.items():
    home = importlib.import_module(f"drest.{module}")
    assert getattr(drest, module) is home and star[module] is home
    for name in exported:
        assert getattr(drest, name) is getattr(home, name) is star[name], name
assert drest.__version__ == "0.1.0"
assert not hasattr(drest, "no_such_name")
"""


def test_package_exports_every_name_from_its_defining_module():
    assert sum(map(len, EXPORTS.values())) == 58
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(EXPORTS)], env=env, check=True, timeout=60
    )
