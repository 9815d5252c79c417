"""Source structure: one copy of each shared helper, one dense-free linalg,
and no memo state outside lru_cache.

Parses the package with ast, so nothing is imported or run. A name counts
as defined by a module when the module binds it at top level with def,
class or assignment; importing it from another module does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "traceform"

SHARED_HELPERS = ("_frac", "_RationalLike", "_gbinom")
RETIRED_FROM_LINALG = ("rref_dense", "rank_dense", "_as_fraction_matrix")


def _top_level_definitions(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _definitions_by_module() -> dict[str, set[str]]:
    return {path.stem: _top_level_definitions(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_each_shared_helper_is_defined_in_one_module():
    defs = _definitions_by_module()
    for name in SHARED_HELPERS:
        owners = [module for module, names in defs.items() if name in names]
        assert len(owners) == 1, f"{name} is defined in {owners}"


def test_linalg_defines_no_dense_eliminator():
    defined = _definitions_by_module()["linalg"]
    assert not defined & set(RETIRED_FROM_LINALG), sorted(defined & set(RETIRED_FROM_LINALG))
    assert {"RowSpan", "solve_dense", "sparse_nullspace"} <= defined


def _is_empty_container(node: ast.expr | None) -> bool:
    """{}, [], dict(), set() or any defaultdict(...)."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "defaultdict" or (name in ("dict", "set") and not node.args and not node.keywords)
    return False


def test_no_module_keeps_memo_state_outside_lru_cache():
    # a module-level dict or list filled at run time is a cache that
    # cache_clear() and the cold-start check of the benchmark cannot see
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if _is_empty_container(value):
                offenders.append(f"{path.stem}:{node.lineno}")
    assert not offenders, offenders
