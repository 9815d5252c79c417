"""Source structure: one copy of each shared helper, one dense-free linalg,
and no memo state outside lru_cache.

Parses the package with ast, so nothing is imported or run. A name counts
as defined by a module when the module binds it at top level with def,
class or assignment; importing it from another module does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "traceform"

SHARED_HELPERS = ("_frac", "_RationalLike", "_gbinom", "_cleared", "_fmt_frac")
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


def _functions(stem: str):
    """(enclosing top-level function name, node) for every node of a module."""
    for top in ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8")).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield name, node


def test_denominators_are_cleared_in_one_place():
    # every lcm of denominators goes through linalg._cleared
    sites = [(stem, fn) for stem in _definitions_by_module() for fn, node in _functions(stem)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lcm"]
    assert sites == [("linalg", "_cleared")], sites


def test_num_den_is_formatted_in_one_place():
    # an f-string "{x.numerator}/{x.denominator}" is the num/den format of
    # cache files and CLI output; int.denominator is 1, so one helper serves both
    def formats_num_den(node):
        parts = node.values
        return any(isinstance(a, ast.FormattedValue) and getattr(a.value, "attr", None) == "numerator"
                   and isinstance(b, ast.Constant) and b.value == "/"
                   and isinstance(c, ast.FormattedValue) and getattr(c.value, "attr", None) == "denominator"
                   for a, b, c in zip(parts, parts[1:], parts[2:]))

    sites = [(stem, fn) for stem in _definitions_by_module() for fn, node in _functions(stem)
             if isinstance(node, ast.JoinedStr) and formats_num_den(node)]
    assert sites == [("qseries", "_fmt_frac")], sites
    assert "_rat" not in _definitions_by_module()["cli"]


def test_zhu_keeps_no_ideal_span_and_no_truncation():
    # every descendant class is [alpha] times a polynomial, so the span's
    # least element is g by construction and needs no echelon to find it
    defined = _definitions_by_module()["zhu"]
    retired = {"_span_generator", "_ideal_min_poly", "_ideal_min_poly_by_l_action"}
    assert not defined & retired, sorted(defined & retired)
    (zhu_poly,) = [fn for name, fn in _functions("zhu")
                   if isinstance(fn, ast.FunctionDef) and fn.name == "zhu_poly"]
    assert [a.arg for a in zhu_poly.args.args + zhu_poly.args.kwonlyargs] == ["m"]


def test_bracket_rows_are_plain_tuples():
    assert "BracketCoeffTable" not in _definitions_by_module()["bracket"]


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
