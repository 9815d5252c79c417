"""Source structure: one copy of each shared helper, one dense-free linalg,
and no memo state outside lru_cache.

Parses the package with ast, so nothing is imported or run, except that
one test builds the CLI parser to read its option strings. A name counts
as defined by a module when the module binds it at top level with def,
class or assignment; importing it from another module does not count.
"""

import argparse
import ast
from pathlib import Path

from traceform import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "traceform"

SHARED_HELPERS = ("_frac", "_RationalLike", "_gbinom", "_CommonDenominator", "_fmt_frac",
                  "_convolve", "rational_roots")
RETIRED_FROM_LINALG = ("rref_dense", "rank_dense", "_as_fraction_matrix", "solve_dense")
REFERENCE_ROUTES = ("OSpace", "a_dot_u", "u_star_a", "o_elem", "square_mode_action",
                    "square_virasoro_action", "_sum_scaled", "mode_action", "_mode",
                    "AllGeneratorsRelationSpace", "all_generators_quotient_dims", "string_mode_scalar")
TEST_ONLY_NAMES = ("serre_derivative", "classical_eisenstein", "highest_weight_vector",
                   "exponent_report")
TEST_ONLY_SERIES_METHODS = ("theta", "truncate", "shifted", "is_zero")
# the package modules each module may import, at any depth (the CLI loads zhu
# inside its handlers): linalg is the base, and the bracket and elliptic
# tables stand apart from the Verma, MDE and Zhu layers
ALLOWED_IMPORTS = {
    "__init__": set(),
    "linalg": set(),
    "qseries": {"linalg"},
    "virasoro": {"linalg"},
    "bracket": {"qseries"},
    "elliptic": {"bracket", "linalg", "qseries"},
    "mde": {"linalg", "qseries", "virasoro"},
    "zhu": {"linalg", "virasoro"},
    "cli": {"bracket", "elliptic", "mde", "qseries", "virasoro", "zhu"},
}


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
    # every lcm of denominators goes through the batch constructor of
    # linalg._CommonDenominator; the power recurrence runs over a denominator
    # fixed before it starts and the Frobenius loop keeps only its newest
    # numerator, so neither extends a cleared list and it has no append()
    sites = [(stem, fn) for stem in _definitions_by_module() for fn, node in _functions(stem)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lcm"]
    assert sites == [("linalg", "_CommonDenominator")], sites
    methods = {node.name for fn, node in _functions("linalg")
               if fn == "_CommonDenominator" and isinstance(node, ast.FunctionDef)}
    assert methods == {"__init__"}, methods


def test_no_window_class_and_no_second_clearing_helper():
    # a window of P_k or wp_k is a dict from z-power to its tuple of
    # q-coefficients, and _CommonDenominator is the one denominator helper
    defs = _definitions_by_module()
    assert not defs["elliptic"] & {"BivariateLaurent", "p_zcoeff"}, sorted(defs["elliptic"])
    assert not [module for module, names in defs.items() if "_cleared" in names]


def test_normal_ordering_and_binomials_build_no_fraction():
    # L(-m) L(-mu) v and C(m, i) are integers by construction; Fraction
    # enters the Verma tables only through c and h
    for stem, name in (("virasoro", "_lower"), ("bracket", "_gbinom")):
        built = {fn for fn, node in _functions(stem)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"}
        assert name not in built, (stem, sorted(built, key=str))
        assert name in _definitions_by_module()[stem]


def test_one_binomial_and_one_row_comparison():
    # the (1+z)^(w-1) row of bracket_coeffs is read from _gbinom, and the
    # residue totals are compared with their targets as window rows
    defs = _definitions_by_module()
    assert "_binom_row" not in defs["bracket"]
    retired = {"_zero_series", "_const_series", "_series_mismatches", "_c_row"}
    assert not defs["elliptic"] & retired, sorted(defs["elliptic"] & retired)


def _package_imports(path: Path) -> set[str]:
    """The package modules that a module imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("traceform"):
            found.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[2] or "__init__" for alias in node.names
                      if alias.name.split(".")[0] == "traceform"}
    return found


def test_each_module_imports_only_its_allowed_layers():
    graph = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert graph.keys() == ALLOWED_IMPORTS.keys()
    extra = {stem: sorted(found - ALLOWED_IMPORTS[stem]) for stem, found in graph.items()
             if found - ALLOWED_IMPORTS[stem]}
    assert not extra, extra


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


def _called_names(node: ast.AST) -> set[str]:
    """Names of everything called inside node, by plain name or attribute."""
    return {call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def _attributes(node: ast.AST) -> set[str]:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_modular_ode_reads_indicial_data_and_theta_columns_from_one_theta_form():
    # the constructor expands the equation once in Q[E2, E4, E6] and keeps
    # it; the theta columns are its q-expansions and the indicial polynomial
    # their q^0 row, so no second expansion works on Eisenstein q-series
    (ode,) = [node for _, node in _functions("mde")
              if isinstance(node, ast.ClassDef) and node.name == "ModularODE"]
    methods = {fn.name: fn for fn in ode.body if isinstance(fn, ast.FunctionDef)}
    assert "theta_form" not in methods
    assert "_theta_form" in _called_names(methods["__init__"])
    assert "theta_form" in _attributes(methods["theta_operator"])
    assert "theta_operator" in _called_names(methods["indicial_polynomial"])
    assert "eisenstein" not in _called_names(ode)


def test_each_object_has_one_holder():
    # a Verma vector reads c, h and vacuum through its module, the relation
    # span is the RowSpan itself, and a polynomial's constant term is read
    # only as the q^0 row of the theta columns
    classes = {node.name: node for stem in ("virasoro", "mde") for _, node in _functions(stem)
               if isinstance(node, ast.ClassDef)}
    (slots,) = [ast.literal_eval(node.value) for node in classes["VermaVector"].body
                if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__slots__"]]
    assert not {"c", "h", "vacuum"} & set(slots), slots
    span = classes["RelationSpace"]
    assert [ast.unparse(base) for base in span.bases] == ["RowSpan"]
    defined = {node.name for node in span.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"rank", "reduce", "contains"}, defined
    assert "_span" not in _attributes(span)
    assert "constant_term" not in {node.name for node in classes["QuasiModularPoly"].body
                                   if isinstance(node, ast.FunctionDef)}


def test_mde_has_one_leibniz_loop():
    # theta forms and to_ode's tables both take D by the Leibniz rule, and
    # both through _leibniz, the only place outside QuasiModularPoly that
    # takes a Serre derivative
    tree = ast.parse((PACKAGE / "mde.py").read_text(encoding="utf-8"))
    functions = [fn for node in tree.body
                 if not (isinstance(node, ast.ClassDef) and node.name == "QuasiModularPoly")
                 for fn in ast.walk(node) if isinstance(fn, ast.FunctionDef)]
    assert [fn.name for fn in functions if "serre" in _called_names(fn)] == ["_leibniz"]
    assert {fn.name for fn in functions if "_leibniz" in _called_names(fn)} == {"_theta_form", "to_ode"}


def _imported_names(tree: ast.AST) -> list[str]:
    """Every module named by an import, and every name imported from one."""
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imports += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
    return imports


def test_no_module_imports_dataclasses():
    # records are NamedTuples and VermaVector is a plain class: each
    # @dataclass compiles its own methods at import, in every process
    offenders = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if "dataclasses" in _imported_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert not offenders, offenders


def test_mde_derives_in_the_round_picture_only():
    # through Zhu's isomorphism the relation span and the L[-2] strings are
    # built from round modes; the square-bracket expansion is a test reference
    tree = ast.parse((PACKAGE / "mde.py").read_text(encoding="utf-8"))
    imports = _imported_names(tree)
    assert not [name for name in imports if name.split(".")[-1] == "bracket"], imports
    called = sorted(name for name in _called_names(tree) if name and name.startswith("square_"))
    assert not called, called


def test_the_relation_span_reads_no_binomial_scale():
    # translation covariance reduces the relations of every L(-k)1 to those
    # of omega, so grow() builds L(-1)u and the E-tail of L(-3)u alone and
    # no C(k-2j-1, k-2) scale is left to read
    tree = ast.parse((PACKAGE / "mde.py").read_text(encoding="utf-8"))
    assert "_gbinom" not in _imported_names(tree)
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_gbinom"]


def test_to_ode_reads_its_string_scalars_off_two_commutators():
    # mu_k(i) is closed-form in c, h and i, so to_ode builds no Verma vector
    # and reaches nothing in virasoro; the vector route is a test reference
    assert "_string_mode_scalar" not in _definitions_by_module()["mde"]
    tree = ast.parse((PACKAGE / "mde.py").read_text(encoding="utf-8"))
    from_virasoro = {"virasoro"} | {alias.name for node in ast.walk(tree)
                                    if isinstance(node, ast.ImportFrom) and node.module == "virasoro"
                                    for alias in node.names}
    for name in ("to_ode", "_string_scalars"):
        (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
        called = _called_names(fn) & {"l_action", "verma_monomial", "verma_module"}
        assert not called, (name, called)
        used = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)} & from_virasoro
        assert not used, (name, used)


def test_the_weight_bound_is_the_only_order_cap():
    # the order-m string [L[-2]^m u] sits at weight h + 2m, so the weight
    # bound already decides which orders are tried; a second cap on the
    # order would have to be kept in step with it
    params = [(stem, node.name) for stem in ("mde", "cli") for _, node in _functions(stem)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and "max_order" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}]
    assert not params, params
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    uses = [ast.unparse(node) for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and node.value in ("--max-order", "max_order"))
            or (isinstance(node, ast.Attribute) and node.attr == "max_order")]
    assert not uses, uses


def test_bracket_rows_are_plain_tuples():
    assert "BracketCoeffTable" not in _definitions_by_module()["bracket"]


def test_reference_routes_and_second_paths_stay_out_of_the_package():
    # Zhu's products, the O(V) span and the square-bracket action are the
    # tests' oracles (tests/reference_routes.py); pow_rational is the one
    # integer power of a series, and bracket holds only coefficient rows
    defs = _definitions_by_module()
    found = {name: module for module, names in defs.items() for name in names & set(REFERENCE_ROUTES)}
    assert not found, found
    (series,) = [node for _, node in _functions("qseries")
                 if isinstance(node, ast.ClassDef) and node.name == "PuiseuxSeries"]
    bound = {node.name for node in series.body if isinstance(node, ast.FunctionDef)}
    bound |= {t.id for node in series.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    assert "__pow__" not in bound and "pow_rational" in bound
    imports = _imported_names(ast.parse((PACKAGE / "bracket.py").read_text(encoding="utf-8")))
    assert not [name for name in imports if name.split(".")[-1] == "virasoro"], imports


def test_verma_module_keeps_three_tables_and_no_mode_table():
    # the trace relations and the C2 quotients use the modes of omega and
    # L(-k)1 through l_action, so the associativity-formula table of
    # every vacuum vector's modes is a reference route only
    (module,) = [node for _, node in _functions("virasoro")
                 if isinstance(node, ast.ClassDef) and node.name == "VermaModule"]
    methods = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    assert "_mode" not in methods
    (loop,) = [node for node in ast.walk(methods["__init__"]) if isinstance(node, ast.For)]
    wrapped = ast.literal_eval(loop.iter)
    assert wrapped == ("_act", "_pairing", "_coordinates")
    assert set(wrapped) <= set(methods)


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of parser and of its subcommands, at any depth."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


def test_test_only_names_and_the_cache_export_stay_out_of_the_package():
    # tests were the only callers of these names: the series Serre derivative,
    # theta and three more series operations, and the level split are
    # oracles in tests/reference_routes.py, and --json is the one exact
    # export of a series
    defs = _definitions_by_module()
    found = {name: module for module, names in defs.items() for name in names & set(TEST_ONLY_NAMES)}
    assert not found, found
    (vector,) = [node for _, node in _functions("virasoro")
                 if isinstance(node, ast.ClassDef) and node.name == "VermaVector"]
    methods = {node.name for node in vector.body if isinstance(node, ast.FunctionDef)}
    assert "level_components" not in methods
    (series,) = [node for _, node in _functions("qseries")
                 if isinstance(node, ast.ClassDef) and node.name == "PuiseuxSeries"]
    methods = {node.name for node in series.body if isinstance(node, ast.FunctionDef)}
    assert "pow_rational" in methods
    assert not methods & set(TEST_ONLY_SERIES_METHODS), sorted(methods & set(TEST_ONLY_SERIES_METHODS))
    options = _option_strings(cli._build_parser())
    assert "--json" in options and "--cache-dir" not in options


def test_linalg_defines_no_dense_eliminator():
    # the r_i of a recursion are solved in a RowSpan with tagged candidates,
    # so no dense solve is left in the package, and mde imports none
    defined = _definitions_by_module()["linalg"]
    assert not defined & set(RETIRED_FROM_LINALG), sorted(defined & set(RETIRED_FROM_LINALG))
    assert {"RowSpan", "sparse_nullspace"} <= defined
    imports = _imported_names(ast.parse((PACKAGE / "mde.py").read_text(encoding="utf-8")))
    assert "RowSpan" in imports and "solve_dense" not in imports, imports


def test_the_modular_elimination_has_one_mode():
    # each prime gets a pivot search of its own; no pass replays the pivots
    # of another
    functions = {node.name: node for _, node in _functions("linalg")
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    args = functions["_eliminate"].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["work", "p"]
    assert not (args.vararg or args.kwarg or args.kwonlyargs or args.defaults)
    with_replay = [name for name, node in functions.items()
                   if "replay" in {a.arg for a in node.args.posonlyargs + node.args.args
                                   + node.args.kwonlyargs}]
    assert not with_replay, with_replay


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
