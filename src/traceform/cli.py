"""Batch command line front end.

Subcommands either dump exact data (series, Gram matrices, graded
dimensions, Zhu polynomials, derived differential equations) or run named
verification checks that emit one report per check. Reports carry
check_name, status, expected, actual, tolerance (only for numeric checks)
and runtime_ms (whole milliseconds, rounded up); JSON output has fixed key
order with every rational printed as "num/den", so identical flags give
byte-identical output once --stable-json zeroes the timings. The process
exits 0 only if every check passes, 2 on usage errors.

zhu loads inside the two handlers that call it, so verify traces and
modular-check never compile it, and no record is a dataclass. A process
builds one parser, however many times it calls run(). Help wraps at 78
columns, as argparse wraps off a terminal, whatever the terminal is, so
--help gives the same bytes anywhere and no formatter asks for the
terminal size; the trace commands never load shutil (nor the bz2 and lzma
it imports).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from . import elliptic, mde, qseries, virasoro
from .bracket import bracket_coeffs, inverse_bracket_coeffs
from .qseries import PuiseuxSeries, _fmt_frac, _uncapped_digits


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_tau(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        tau = complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected --tau a,b with floats, got {text!r}") from exc
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise argparse.ArgumentTypeError(f"tau parts must be finite, got {text!r}")
    if tau.imag <= 0:
        raise argparse.ArgumentTypeError("tau must lie in the upper half plane")
    return tau


class Report(NamedTuple):
    check_name: str
    status: str                 # pass | fail | error
    expected: str = ""
    actual: str = ""
    tolerance: str | None = None
    runtime_ms: int = 0

    def to_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "runtime_ms": self.runtime_ms,
        }
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out


def _ms(seconds: float) -> int:
    """Whole milliseconds, rounded up, so a check that did any work never reads 0 ms."""
    return math.ceil(seconds * 1000)


def _run_check(name: str, fn, tolerance: str | None = None) -> Report:
    """Run fn() -> (ok, expected, actual); errors become error reports."""
    start = time.perf_counter()
    try:
        ok, expected, actual = fn()
        status = "pass" if ok else "fail"
    except Exception as exc:  # noqa: BLE001 - the report is the error channel
        status, expected, actual = "error", "", f"{type(exc).__name__}: {exc}"
    ms = _ms(time.perf_counter() - start)
    return Report(name, status, expected, actual, tolerance, ms)


def _series_payload(series: PuiseuxSeries) -> dict:
    return {
        "lambda": _fmt_frac(series.lam),
        "weight": None if series.weight is None else _fmt_frac(series.weight),
        "coeffs": [_fmt_frac(c) for c in series.coeffs],
    }


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

def _checks_traces(terms: int) -> list[Report]:
    reports = []
    for case in mde.TRACE_CASES:
        power = 2 * case.h_u

        def eta_fn(case=case):
            rep = mde.eta_power_check(case, terms)
            expected = f"eta^{_fmt_frac(power)} to {terms} coefficients"
            if rep.match:
                return True, expected, "exact match"
            return False, expected, f"first mismatch at coefficient {rep.first_mismatch}"

        reports.append(_run_check(f"eta-identity-m{case.m}", eta_fn))

        def exp_fn(case=case):
            # h_u/12 is the leading exponent of eta^(2 h_u), an independent source
            computed = mde.leading_exponent(case)
            actual = _fmt_frac(computed)
            if computed != case.quoted_exponent:
                actual += (f" (externally quoted {_fmt_frac(case.quoted_exponent)};"
                           " suspected misprint, flagged)")
            return computed == case.h_u / 12, _fmt_frac(case.h_u / 12), actual

        reports.append(_run_check(f"leading-exponent-m{case.m}", exp_fn))
    return reports


def _residue_report_to_check(rep: elliptic.ResidueReport) -> Report:
    """One check, named for its identity and its k or w; P_k against wp_k is weierstrass-expansion."""
    label = "weierstrass-expansion" if rep.identity == "p-series-weierstrass" else rep.identity
    name = label + "".join(f"-{key}{rep.params[key]}" for key in ("k", "w") if key in rep.params)
    ms = _ms(rep.runtime_s)
    if rep.passed:
        return Report(name, "pass", "exact identity", f"{rep.checked} coefficients equal", runtime_ms=ms)
    label, got, want = rep.mismatches[0]
    return Report(name, "fail", f"{label} = {want}", f"{label} = {got}", runtime_ms=ms)


def _checks_elliptic(terms: int) -> list[Report]:
    """The four elliptic suites, terms sizing the two window suites; a suite that
    raises gives one error report named for it, and the others still report."""
    suites = (
        ("weierstrass-expansion", lambda: elliptic.verify_p_wp_relations(k_max=5, terms=terms, z_max=8)),
        ("wp-structure", lambda: elliptic.verify_wp_structure(k_max=5, terms=terms, z_max=8)),
        ("residue-identities", lambda: [rep for w in range(1, 7)
                                        for rep in elliptic.verify_residue_identities(w, terms=6)]),
        ("binomial-mode-expansion", lambda: [elliptic.verify_expansion_identity(w, terms=6, i_max=8, n_max=6)
                                             for w in range(1, 6)]),
    )
    reports = []
    for suite, run_suite in suites:
        start = time.perf_counter()
        try:
            reports += [_residue_report_to_check(rep) for rep in run_suite()]
        except Exception as exc:  # noqa: BLE001 - the report is the error channel
            reports.append(Report(suite, "error", "", f"{type(exc).__name__}: {exc}", None,
                                  _ms(time.perf_counter() - start)))
    return reports


def _checks_bracket() -> list[Report]:
    reports = []

    def binom_fn():
        from math import comb
        for w in range(1, 7):
            row = bracket_coeffs(w, 0, 10)
            want = [Fraction(comb(w - 1, i)) if i <= w - 1 else Fraction(0) for i in range(10)]
            if list(row) != want:
                return False, f"C({w}-1, i) row", f"w={w} row {[str(c) for c in row]}"
        return True, "binomial rows for w = 1..6", "all equal"

    reports.append(_run_check("bracket-binomial-row", binom_fn))

    def l0_fn():
        row = bracket_coeffs(2, 1, 4)
        want = (Fraction(1), Fraction(1, 2), Fraction(-1, 6), Fraction(1, 12))
        ok = row == want
        return ok, "(1, 1/2, -1/6, 1/12)", f"({', '.join(_fmt_frac(c) for c in row)})"

    reports.append(_run_check("bracket-l0-row", l0_fn))

    def roundtrip_fn():
        for w in (1, 2, 3, 5):
            for n in (-2, -1, 0, 1, 3):
                fwd = [bracket_coeffs(w, n + j, 8) for j in range(8)]
                inv = inverse_bracket_coeffs(w, n, 8)
                for t in range(8):
                    acc = sum(inv[j] * fwd[j][t - j] for j in range(t + 1))
                    want = Fraction(1) if t == 0 else Fraction(0)
                    if acc != want:
                        return False, "identity to depth 8", f"w={w} n={n} slot {t}: {acc}"
        return True, "round trip to depth 8 for 20 (w, n) pairs", "identity"

    reports.append(_run_check("bracket-roundtrip-depth8", roundtrip_fn))
    return reports


def _checks_virasoro() -> list[Report]:
    reports = []

    def gram_fn():
        for case in mde.TRACE_CASES:
            c, h = case.c, case.h_u
            g = virasoro.gram_matrix(c, h, 2)
            want = [[4 * h + c / 2, 6 * h], [6 * h, 4 * h * (2 * h + 1)]]
            got = [[g.entries[i][j] for j in range(2)] for i in range(2)]
            if got != want:
                return False, f"[[4h+c/2, 6h], [6h, 4h(2h+1)]] at c={_fmt_frac(c)} h={_fmt_frac(h)}", f"{got}"
        return True, "level-2 Gram formula at the four trace cases", "all equal"

    reports.append(_run_check("gram-level2", gram_fn))

    for case in mde.TRACE_CASES:
        def sing_fn(case=case):
            found = virasoro.singular_vectors(case.c, case.h_u, 2)
            if len(found) != 1:
                return False, "one singular vector at level 2", f"found {len(found)}"
            return True, "one singular vector at level 2", "found, annihilation checked"

        reports.append(_run_check(f"singular-level2-m{case.m}", sing_fn))

    def dims_fn():
        got = virasoro.graded_dims(Fraction(1, 2), Fraction(0), 8, vacuum=True)
        want = [1, 0, 1, 1, 2, 2, 3, 3, 5]
        ok = got == want
        return ok, str(want), str(got)

    reports.append(_run_check("graded-dims-ising-vacuum", dims_fn))
    return reports


def _checks_zhu() -> list[Report]:
    from . import zhu
    reports = []
    for m in (1, 2, 3):
        def zhu_fn(m=m):
            zp = zhu.zhu_poly(m)
            kac = list(virasoro.minimal_model(m).distinct_weights())
            got = sorted(zp.root_set())
            expected = "{" + ", ".join(_fmt_frac(x) for x in kac) + "}"
            actual = "{" + ", ".join(_fmt_frac(x) for x in got) + "}"
            ok = got == kac and zp.complete and zp.degree == len(kac)
            if not zp.complete:
                actual += " (irrational factor left)"
            return ok, expected, actual

        reports.append(_run_check(f"zhu-spectrum-m{m}", zhu_fn))
    return reports


def _checks_cofinite() -> list[Report]:
    reports = []
    for case in mde.TRACE_CASES:
        def cof_fn(case=case):
            dims = virasoro.c20_quotient_dim(case.c, case.h_u, 8)
            bound = (case.m + 1) * (case.m + 2) // 2
            stable = len(dims) >= 2 and dims[-1] == dims[-2]
            ok = stable and dims[-1] <= bound
            expected = f"stabilized value <= {bound}"
            actual = f"dims {dims}"
            return ok, expected, actual

        reports.append(_run_check(f"cofinite-c20-m{case.m}", cof_fn))

    def control_fn():
        dims = virasoro.c20_quotient_dim(Fraction(1, 2), Fraction(1, 3), 8)
        ok = dims[-1] != dims[-2]
        return ok, "strictly growing tail", f"dims {dims}"

    reports.append(_run_check("cofinite-verma-control", control_fn))
    return reports


def _checks_modular(terms: int, taus: tuple[complex, ...]) -> list[Report]:
    reports = []
    for case in mde.TRACE_CASES:
        def transform_fn(case=case):
            rep = mde.case_transform_report(case, terms=terms, taus=taus)
            ok = rep.max_modulus_error < 1e-6 and rep.max_spread < 1e-6
            expected = "|ratio| = 1 and constant across tau samples"
            actual = (f"|ratio|-1 max {rep.max_modulus_error:.3e}, "
                      f"spread {rep.max_spread:.3e}, T-eigenvalue exp(2 pi i {_fmt_frac(case.h_w - case.c / 24)})")
            return ok, expected, actual

        reports.append(_run_check(f"modular-transform-m{case.m}", transform_fn, tolerance="1e-6"))

    def e2_fn():
        worst = max(mde.e2_inversion_residual(tau, terms=terms) for tau in taus)
        return worst < 1e-6, "E2(-1/tau) = tau^2 E2(tau) - tau/(2 pi i)", f"residual {worst:.3e}"

    reports.append(_run_check("e2-inversion", e2_fn, tolerance="1e-6"))

    def branch_fn():
        worst = max(mde.sl2_branch_check(case.h_u, taus) for case in mde.TRACE_CASES)
        return worst < 1e-10, "automorphy factor loops equal 1", f"worst deviation {worst:.3e}"

    reports.append(_run_check("branch-identities", branch_fn, tolerance="1e-10"))
    return reports


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit_reports(reports: list[Report], args) -> int:
    reports = sorted(reports, key=lambda r: r.check_name)
    if args.stable_json:
        reports = [rep._replace(runtime_ms=0) for rep in reports]
    failed = [r for r in reports if r.status != "pass"]
    if args.json:
        payload = {
            "reports": [r.to_dict() for r in reports],
            "summary": {
                "total": len(reports),
                "passed": len(reports) - len(failed),
                "failed": len(failed),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for rep in reports:
            line = f"{rep.status.upper():5s} {rep.check_name}"
            if rep.status == "pass":
                line += f" ({rep.runtime_ms} ms)"
                if rep.actual:
                    line += f" {rep.actual}"
            elif rep.status == "fail":
                line += f": expected {rep.expected}; got {rep.actual}"
            else:
                line += f": {rep.actual}"
            print(line)
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 0 if not failed else 1


def _emit_data(payload: dict, args, text_lines: list[str]) -> int:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    """Bad flag value caught after parsing; run() turns it into exit 2."""


def _require_at_least(value: int, flag: str, minimum: int) -> None:
    if value < minimum:
        raise _UsageError(f"{flag} must be >= {minimum}, got {value}")


def _cmd_eisenstein(args) -> int:
    try:
        series = qseries.eisenstein(args.weight, args.terms)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    payload = {"series": _series_payload(series)}
    lines = [f"E{args.weight} to {args.terms} terms:", str(series)]
    return _emit_data(payload, args, lines)


def _cmd_eta(args) -> int:
    try:
        series = qseries.eta_power(args.power, args.terms)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    payload = {"series": _series_payload(series)}
    lines = [f"eta^{_fmt_frac(args.power)} to {args.terms} terms (leading exponent {_fmt_frac(series.lam)}):",
             str(series)]
    return _emit_data(payload, args, lines)


def _cmd_elliptic(args) -> int:
    _require_at_least(args.terms, "--terms", 1)
    return _emit_reports(_checks_elliptic(args.terms), args)


def _vacuum(args) -> bool:
    """--vacuum or --no-vacuum, h == 0 when neither; the vacuum quotient needs h = 0."""
    vacuum = args.vacuum if args.vacuum is not None else args.h == 0
    try:
        return virasoro.verma_module(args.c, args.h, vacuum).vacuum
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_gram(args) -> int:
    _require_at_least(args.level, "--level", 0)
    vacuum = _vacuum(args)
    g = virasoro.gram_matrix(args.c, args.h, args.level, vacuum)
    payload = {
        "basis": [",".join(map(str, mu)) for mu in g.basis],
        "entries": [[_fmt_frac(x) for x in row] for row in g.entries],
        "rank": virasoro.level_coordinates(args.c, args.h, args.level, vacuum).dim,
    }
    lines = [f"Gram matrix at level {args.level} for c={_fmt_frac(args.c)}, h={_fmt_frac(args.h)}"
             f" (basis {payload['basis']}):"]
    lines += ["  [" + ", ".join(_fmt_frac(x) for x in row) + "]" for row in g.entries]
    lines.append(f"rank {payload['rank']}")
    return _emit_data(payload, args, lines)


def _cmd_singular(args) -> int:
    _require_at_least(args.level, "--level", 0)
    vacuum = _vacuum(args)
    found = virasoro.singular_vectors(args.c, args.h, args.level, vacuum=vacuum)
    payload = {"singular_vectors": [
        {",".join(map(str, mu)): _fmt_frac(co) for mu, co in sorted(v.entries.items())}
        for v in found]}
    lines = [f"{len(found)} singular vector(s) at level {args.level}"]
    for v in found:
        bits = [f"{_fmt_frac(co)} * L(-{')L(-'.join(map(str, mu))})v" for mu, co in sorted(v.entries.items())]
        lines.append("  " + "  +  ".join(bits))
    return _emit_data(payload, args, lines)


def _cmd_dims(args) -> int:
    _require_at_least(args.max_level, "--max-level", 0)
    vacuum = _vacuum(args)
    dims = virasoro.graded_dims(args.c, args.h, args.max_level, vacuum=vacuum)
    payload = {"graded_dims": dims}
    lines = [f"graded dims of L({_fmt_frac(args.c)}, {_fmt_frac(args.h)}) through level {args.max_level}:",
             "  " + " ".join(map(str, dims))]
    return _emit_data(payload, args, lines)


def _cmd_cofinite(args) -> int:
    _require_at_least(args.max_level, "--max-level", 0)
    fn = virasoro.c20_quotient_dim if args.zero_modes else virasoro.c2_quotient_dim
    dims = fn(args.c, args.h, args.max_level)
    kind = "c20" if args.zero_modes else "c2"
    payload = {f"{kind}_quotient_dims": dims}
    lines = [f"{kind} quotient dims for c={_fmt_frac(args.c)}, h={_fmt_frac(args.h)} through level {args.max_level}:",
             "  " + " ".join(map(str, dims))]
    return _emit_data(payload, args, lines)


def _cmd_zhu(args) -> int:
    from . import zhu
    try:
        zp = zhu.zhu_poly(args.m)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    payload = {
        "m": zp.m,
        "c": _fmt_frac(zp.c),
        "singular_level": zp.singular_level,
        "coeffs": [_fmt_frac(x) for x in zp.coeffs],
        "roots": [{"root": _fmt_frac(r), "multiplicity": mult} for r, mult in zp.roots],
        "complete": zp.complete,
        "stabilized": zp.stabilized,
    }
    lines = [f"Zhu polynomial for m={zp.m} (c={_fmt_frac(zp.c)}), singular level {zp.singular_level}:",
             "  coefficients (ascending): " + " ".join(_fmt_frac(x) for x in zp.coeffs),
             "  roots: " + ", ".join(f"{_fmt_frac(r)} (x{mult})" for r, mult in zp.roots),
             f"  complete: {zp.complete}  stabilized: {zp.stabilized}"]
    return _emit_data(payload, args, lines)


def _resolve_ch(args) -> tuple[Fraction, Fraction]:
    if args.m is not None:
        try:
            c = virasoro.minimal_model(args.m).c
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    elif args.c is not None:
        c = args.c
    else:
        raise _UsageError("one of --m or --c is required")
    if args.weight_bound is not None and args.weight_bound < args.h + 2:
        raise _UsageError(f"--weight-bound must be >= h + 2 = {args.h + 2}, got {args.weight_bound}")
    return c, args.h


def _cmd_mde_derive(args) -> int:
    c, h = _resolve_ch(args)

    def derive_fn():
        rec = mde.derive_recursion(c, h, args.weight_bound)
        ode = mde.to_ode(rec)
        roots, rest = ode.indicial_roots()
        detail = (f"order {ode.order}; {ode}; indicial roots "
                  + ", ".join(f"{_fmt_frac(r)} (x{mult})" for r, mult in roots)
                  + ("" if rest == 0 else f"; non-rational factor of degree {rest}")
                  + f"; weight bound {_fmt_frac(rec.weight_bound)}")
        return True, "a finite-order recursion", detail

    report = _run_check(f"mde-derive-c{_fmt_frac(c)}-h{_fmt_frac(h)}", derive_fn)
    return _emit_reports([report], args)


def _cmd_mde_solve(args) -> int:
    _require_at_least(args.terms, "--terms", 1)
    c, h = _resolve_ch(args)
    try:
        rec = mde.derive_recursion(c, h, args.weight_bound)
        ode = mde.to_ode(rec)
        roots, _ = ode.indicial_roots()
    except (ValueError, mde.ResonantExponentError) as exc:
        report = Report(f"mde-solve-c{_fmt_frac(c)}-h{_fmt_frac(h)}", "error", "a solvable equation",
                        f"{type(exc).__name__}: {exc}")
        return _emit_reports([report], args)
    wanted = [args.exponent] if args.exponent is not None else [r for r, _ in roots]
    payload = {"order": ode.order, "solutions": []}
    lines = [f"order {ode.order}: {ode}"]
    for lam in wanted:
        try:
            sol = mde.frobenius_solve(ode, lam, args.terms)
        except (ValueError, mde.ResonantExponentError) as exc:
            report = Report(f"mde-solve-c{_fmt_frac(c)}-h{_fmt_frac(h)}", "error", "a series solution",
                            f"{type(exc).__name__}: {exc}")
            return _emit_reports([report], args)
        series = sol.to_puiseux()
        payload["solutions"].append({"exponent": _fmt_frac(lam), "series": _series_payload(series)})
        lines.append(f"lambda = {_fmt_frac(lam)}: {series}")
    return _emit_data(payload, args, lines)


def _cmd_modular_check(args) -> int:
    _require_at_least(args.terms, "--terms", 1)
    distinct = len(set(args.tau or ()))
    if args.tau and distinct < 2:
        # the transform ratio must be constant across the samples, which one sample cannot show
        raise _UsageError(f"--tau needs at least two distinct sample points, got {distinct}")
    taus = tuple(args.tau) if args.tau else mde.TAU_SAMPLES
    return _emit_reports(_checks_modular(args.terms, taus), args)


def _cmd_verify(args) -> int:
    _require_at_least(args.terms, "--terms", 1)
    reports = _checks_traces(args.terms)
    if args.suite == "all":
        reports += _checks_elliptic(9)
        reports += _checks_bracket()
        reports += _checks_virasoro()
        reports += _checks_zhu()
        reports += _checks_cofinite()
        reports += _checks_modular(80, mde.TAU_SAMPLES)
    return _emit_reports(reports, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose parse errors print one line and exit 2; subparsers inherit it.

    Help wraps at 78 columns, argparse's width off a terminal, so --help
    prints the same bytes anywhere and no formatter asks for the terminal size.
    """

    def __init__(self, **kwargs):
        super().__init__(formatter_class=partial(argparse.HelpFormatter, width=78), **kwargs)

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="traceform",
        description="exact computations with trace functions of minimal model modules")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--stable-json", action="store_true",
                        help="zero out runtime_ms so identical flags give identical bytes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eisenstein", help="dump an Eisenstein series")
    p.add_argument("--weight", type=int, required=True, help="even weight >= 2")
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(handler=_cmd_eisenstein)

    p = sub.add_parser("eta", help="dump a rational power of the eta function")
    p.add_argument("--power", type=_parse_rat, default=Fraction(1))
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(handler=_cmd_eta)

    p = sub.add_parser("elliptic-identities", help="verify the elliptic series identity suite")
    p.add_argument("--terms", type=int, default=9,
                   help="q-terms of the two window suites, weierstrass-expansion and "
                        "wp-structure; the residue and binomial-mode suites have fixed sizes")
    p.set_defaults(handler=_cmd_elliptic)

    for name, handler, levelflag in (("gram", _cmd_gram, "--level"),
                                     ("singular", _cmd_singular, "--level"),
                                     ("dims", _cmd_dims, "--max-level"),
                                     ("cofinite", _cmd_cofinite, "--max-level")):
        p = sub.add_parser(name, help=f"{name} data for a highest weight module")
        p.add_argument("--c", type=_parse_rat, required=True)
        p.add_argument("--h", type=_parse_rat, required=True)
        p.add_argument(levelflag, dest=levelflag.strip("-").replace("-", "_"),
                       type=int, required=True)
        if name in ("gram", "singular", "dims"):
            p.add_argument("--vacuum", action=argparse.BooleanOptionalAction, default=None,
                           help="force the vacuum quotient on or off (default: h == 0)")
        if name == "cofinite":
            p.add_argument("--zero-modes", action="store_true",
                           help="include zero-mode images (the c20 condition)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("zhu", help="Zhu polynomial of a minimal model")
    p.add_argument("--m", type=int, required=True, help="minimal model index")
    p.set_defaults(handler=_cmd_zhu)

    p = sub.add_parser("mde", help="derive or solve the trace differential equation")
    mde_sub = p.add_subparsers(dest="action", required=True)
    for action, handler in (("derive", _cmd_mde_derive), ("solve", _cmd_mde_solve)):
        q = mde_sub.add_parser(action)
        charge = q.add_mutually_exclusive_group()
        charge.add_argument("--m", type=int, default=None, help="minimal model index for c")
        charge.add_argument("--c", type=_parse_rat, default=None, help="central charge (alternative to --m)")
        q.add_argument("--h", type=_parse_rat, required=True, help="highest weight of the module")
        q.add_argument("--weight-bound", type=_parse_rat, default=None,
                       help="cap on the relation span weight, and so on the order: the "
                            "order-m string sits at weight h + 2m (default h + 8)")
        if action == "solve":
            q.add_argument("--exponent", type=_parse_rat, default=None,
                           help="indicial root to expand at (default: every rational root)")
            q.add_argument("--terms", type=int, default=30)
        q.set_defaults(handler=handler)

    p = sub.add_parser("modular-check", help="numeric modular transformation checks")
    p.add_argument("--tau", type=_parse_tau, action="append",
                   help="sample point a,b meaning a+bi; give two or more")
    p.add_argument("--terms", type=int, default=80)
    p.set_defaults(handler=_cmd_modular_check)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=("traces", "all"))
    p.add_argument("--terms", type=int, default=30)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact dumps may print integers past the digit cap on int -> str; the
    # input is parsed under the cap, and the caller gets it back unchanged
    try:
        with _uncapped_digits():
            return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
