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


def _is_lru_cache(node: ast.expr) -> bool:
    func = node.func if isinstance(node, ast.Call) else node
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "lru_cache"


def test_no_lru_cache_is_keyed_on_the_central_charge_or_weight():
    # module tables live on the one verma_module object per (c, h, vacuum),
    # keyed on partitions and levels; a cache keyed on c or h hashes
    # Fractions on every lookup
    allowed = {("virasoro", "verma_module"), ("mde", "_derive_recursion")}
    offenders = []
    for stem in ("virasoro", "mde"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_is_lru_cache(d) for d in node.decorator_list):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if {"c", "h"} & {a.arg for a in params} and (stem, node.name) not in allowed:
                offenders.append(f"{stem}.{node.name}")
    assert not offenders, offenders
    assert "irreducible_basis" not in _definitions_by_module()["virasoro"]


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


def test_no_module_reads_the_environment():
    # the primes of the modular kernel and every other setting are constants
    # of the code, not knobs a process can turn
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("environ", "environb", "getenv", "getenvb"):
                offenders.append(f"{path.stem}:{getattr(node, 'lineno', '?')}")
    assert not offenders, offenders
