"""Derivation and solution of the trace differential equations.

The pipeline is validated end to end twice over. For the four intertwining
trace cases the solved series must reproduce a rational power of eta
coefficient for coefficient. For the vacuum module of the first minimal
model the machinery must discover a third-order equation on its own, and
its three exact solutions must carry the graded dimensions of the three
irreducible modules, which were checked against the alternating character
sum elsewhere in this suite.

frobenius_solve runs its recurrence on integer numerators over one common
denominator. _reference_frobenius_solve below is the earlier loop over
Fraction, which the integer kernel must reproduce exactly, resonances
included.

The relation span is built from v = omega alone, which translation
covariance makes enough for every L(-k)1 (the mde docstring; the identity
it rests on is checked here on the reference modes);
reference_routes.AllGeneratorsRelationSpace builds it from every basis
vector of L(c,0) through mode_action, and the two must agree at every level.

The relation span and the L[-2] strings are built from round modes, through
Zhu's isomorphism. _square_picture_recursion below is the earlier derivation
from square-bracket modes expanded in round ones, and it solves for the r_i
by dense Gauss-Jordan (reference_routes._reference_solve_dense) where the
package reduces against tagged candidates in a RowSpan; both must find the
same recursion.

ModularODE.theta_form expands an equation once in Q[E2, E4, E6], and the
indicial polynomial and the theta columns are read from it. The earlier
routes are kept below as references: the indicial product over the Serre
constants, the theta columns assembled on Fraction series, and to_ode's
dict tables.
"""

import cmath
import json
from fractions import Fraction

import pytest

from reference_routes import (
    AllGeneratorsRelationSpace,
    _reference_solve_dense,
    mode_action,
    square_mode_action,
    square_virasoro_action,
    string_mode_scalar,
    theta,
)
from traceform import cli, mde, virasoro
from traceform.mde import (
    TRACE_CASES,
    ModularODE,
    QuasiModularPoly,
    RelationSpace,
    ResonantExponentError,
    TraceRecursion,
    build_relation_space,
    case_transform_report,
    derive_recursion,
    e2_inversion_residual,
    eisenstein_modular_poly,
    eta_power_check,
    frobenius_solve,
    graded_vector,
    leading_exponent,
    sl2_branch_check,
    to_ode,
    trace_case_ode,
    trace_case_solution,
)
from traceform.qseries import PuiseuxSeries, _convolve, eisenstein, eta_power
from traceform.virasoro import graded_dims, minimal_model, verma_monomial


# ---------------------------------------------------------------------------
# polynomial layer
# ---------------------------------------------------------------------------

def test_quasimodular_theta_matches_series_arithmetic():
    n = 12
    for poly, k in ((QuasiModularPoly.e2(), 2), (QuasiModularPoly.e4(), 4),
                    (QuasiModularPoly.e6(), 6)):
        assert poly.theta().to_series(n) == theta(eisenstein(k, n))
    mixed = QuasiModularPoly({(1, 1, 0): Fraction(3, 7), (0, 0, 1): -2})
    assert mixed.theta().to_series(n) == theta(mixed.to_series(n))


def test_serre_derivative_of_modular_polys_drops_e2():
    d4 = QuasiModularPoly.e4().serre(4)
    assert d4.entries == {(0, 0, 1): Fraction(14)}
    d6 = QuasiModularPoly.e6().serre(6)
    assert d6.entries == {(0, 2, 0): Fraction(60, 7)}
    assert not d4.has_e2 and not d6.has_e2


def test_higher_eisenstein_polys_expand_correctly():
    # 2k = 22 is the top weight the order-10 c = 4/5 derivation reaches
    for two_k in range(8, 24, 2):
        poly = eisenstein_modular_poly(two_k)
        assert not poly.has_e2
        assert poly.to_series(12) == eisenstein(two_k, 12)


def _reference_to_series(poly, terms):
    """The earlier expansion, rebuilding eisenstein(k, terms) for every factor."""
    out = PuiseuxSeries(Fraction(0), (Fraction(0),) * terms)
    for (a2, a4, a6), co in poly.entries.items():
        term = PuiseuxSeries(Fraction(0), (Fraction(1),) + (Fraction(0),) * (terms - 1))
        for k, power in ((2, a2), (4, a4), (6, a6)):
            for _ in range(power):
                term = term * eisenstein(k, terms)
        out = out + co * term
    return out


def test_to_series_expands_each_eisenstein_power_once(monkeypatch):
    ode = to_ode(derive_recursion(Fraction(7, 10), Fraction(3, 5)))
    polys = list(ode.theta_form()) + [
        QuasiModularPoly(), QuasiModularPoly.constant(3),
        QuasiModularPoly({(2, 1, 3): Fraction(-5, 7), (0, 4, 0): 2, (1, 0, 0): 1})]
    for poly in polys:
        for terms in (1, 7, 40):
            assert poly.to_series(terms) == _reference_to_series(poly, terms), (poly, terms)
    # the theta forms of the four trace cases, at the length the eta checks use
    for case in TRACE_CASES:
        for poly in trace_case_ode(case).theta_form():
            assert poly.to_series(300) == _reference_to_series(poly, 300), (case.m, poly)
    # E_k(0) is read from qseries.eisenstein, whose normalisation gives these
    assert [p.constant_term() for p in (QuasiModularPoly.e2(), QuasiModularPoly.e4(),
                                        QuasiModularPoly.e6())] == [
        Fraction(-1, 12), Fraction(1, 720), Fraction(-1, 30240)]
    # E2 and E4 occur in two monomials each, to several powers: still one
    # expansion per weight
    built = []
    monkeypatch.setattr(mde, "eisenstein", lambda k, terms: built.append(k) or eisenstein(k, terms))
    polys[-1].to_series(40)
    assert sorted(built) == [2, 4, 6]


def test_the_theta_forms_of_one_equation_share_their_monomials(monkeypatch):
    # the order-6 (7/10, 0) equation: seven polynomials in E2, E4, E6 with
    # 14 distinct monomials of degree 2 or more, each built by one product
    # from a monomial of the form with one factor less
    form = to_ode(derive_recursion(Fraction(7, 10), Fraction(0), 12)).theta_form()
    assert len(form) == 7
    products = {key for poly in form for key in poly.entries if sum(key) > 1}
    assert len(products) == 14
    built, convolved = [], []
    monkeypatch.setattr(mde, "eisenstein", lambda k, terms: built.append(k) or eisenstein(k, terms))
    monkeypatch.setattr(mde, "_convolve", lambda a, b: convolved.append(len(a)) or _convolve(a, b))
    series = mde._expand(form, 40)
    assert sorted(built) == [2, 4, 6]
    assert convolved == [40] * len(products)
    assert series == tuple(_reference_to_series(poly, 40) for poly in form)


# ---------------------------------------------------------------------------
# the relation span
# ---------------------------------------------------------------------------

def test_relation_space_contains_the_zero_mode_traces():
    c, h = Fraction(1, 2), Fraction(1, 2)
    rel = build_relation_space(c, h)
    omega = verma_monomial(c, 0, (2,), vacuum=True)
    x = verma_monomial(c, h, ())
    # the trace of a zero mode acting on x vanishes; its graded image must
    # already lie in the span the derivation reduces against
    gv = graded_vector(mode_action(omega, 0, x))
    assert rel.contains(gv)
    assert rel.rank > 0


@pytest.mark.parametrize("c,h,top", [
    ("7/10", "3/5", 8), ("1/2", "0", 8), ("1/2", "1/16", 8), ("-22/5", "-1/5", 8), ("1/2", "1/2", 8),
    ("6/7", "1/7", 8), ("7/10", "0", 10), ("4/5", "2/3", 10), ("4/5", "7/5", 10), ("0", "1", 6)])
def test_the_relations_from_omega_span_the_relations_of_every_vacuum_vector(c, h, top):
    # compared at every level from 2 to top; the span is in fully reduced
    # echelon form, so equal pivot rows mean equal reductions and so equal
    # recursions under every bound
    c, h = Fraction(c), Fraction(h)
    ours, every = RelationSpace(c, h, h + 2), AllGeneratorsRelationSpace(c, h, h + 2)
    while True:
        assert ours._span._pivots == every._span._pivots, ours.level_bound
        if ours.level_bound == top:
            break
        ours.grow()
        every.grow()
    if c == 0:   # L(0,0) is one-dimensional: no generator on either side
        assert not ours._gens and not every._gens
    else:
        assert 0 < len(ours._gens) < len(every._gens)


def test_translation_covariance_of_the_strong_generator_modes():
    # (L(-1)a)(n) = [L(-1), a(n)] with L(-1)L(-k)1 = (k-1) L(-k-1)1 is what
    # reduces the relations of every L(-k)1 to those of omega; both sides
    # come from the reference modes of mode_action
    modules = (
        (Fraction(7, 10), Fraction(3, 5), False, [(), (1,), (2,), (2, 1)]),
        (Fraction(1, 2), Fraction(0), True, [(), (2,), (3,), (2, 2)]),
        (Fraction(-22, 5), Fraction(-1, 5), False, [(), (1,), (1, 1), (3,)]),
    )
    checked = 0
    for c, h, vacuum, parts in modules:
        for k in range(2, 6):
            a = verma_monomial(c, 0, (k,), vacuum=True)
            da = virasoro.l_action(-1, a)
            assert da == verma_monomial(c, 0, (k + 1,), vacuum=True) * (k - 1)
            for mu in parts:
                y = verma_monomial(c, h, mu, vacuum)
                dy = virasoro.l_action(-1, y)
                for n in range(-4, 5):
                    want = virasoro.l_action(-1, mode_action(a, n, y)) - mode_action(a, n, dy)
                    assert mode_action(da, n, y) == want, (c, h, k, mu, n)
                    checked += 1
    assert checked == 432


# ---------------------------------------------------------------------------
# deriving the equations
# ---------------------------------------------------------------------------

def test_all_four_trace_cases_close_at_first_order():
    for case in TRACE_CASES:
        rec = derive_recursion(case.c, case.h_u)
        assert rec.order == 1
        assert all(r.is_zero() for r in rec.coefficients)


def test_trace_cases_stop_at_the_first_order_one_closure():
    for case in TRACE_CASES:
        rec = derive_recursion(case.c, case.h_u)
        assert rec.weight_bound == case.h_u + 2, case.m
        # the span at the default bound h + 8 contains the smaller one, so it
        # also reduces [L[-2] u] to zero
        string = verma_monomial(case.c, case.h_u, (2,))
        assert build_relation_space(case.c, case.h_u).contains(graded_vector(string)), case.m
        for bound in (case.h_u + 1, case.h_u + Fraction(3, 2)):
            with pytest.raises(ValueError, match="no room"):
                derive_recursion(case.c, case.h_u, bound)


def test_derivation_fails_honestly_for_generic_weights():
    with pytest.raises(ValueError):
        derive_recursion(Fraction(1, 2), Fraction(1, 3))


class _SquareRelationSpace(RelationSpace):
    """The earlier span: v[0] u and the E-tail of v[-2] u, square modes expanded in round ones."""

    def grow(self):
        level = self.level_bound + 1
        c, h = self.c, self.h
        vmod, umod = virasoro.verma_module(c, Fraction(0), True), virasoro.verma_module(c, h, h == 0)
        ubasis = [virasoro.level_coordinates(c, h, lu, h == 0).basis for lu in range(level)]
        for wg, g in self._gens:
            for a4, a6 in mde._monomials_of_weight(level - wg):
                self._span.add({(lvl, idx, b4 + a4, b6 + a6): co
                                for (lvl, idx, b4, b6), co in g.items()})
        for lv in range(2, level + 2):
            for vmu in virasoro.level_coordinates(c, Fraction(0), lv, vacuum=True).basis:
                v = vmod.monomial(vmu)
                for lu, mode in ((level + 1 - lv, 0), (level - 1 - lv, -2)):
                    for umu in ubasis[lu] if lu >= 0 else ():
                        u = umod.monomial(umu)
                        g = graded_vector(square_mode_action(v, mode, u))
                        for k in range(2, level // 2 + 1) if mode == -2 else ():
                            gx = graded_vector(square_mode_action(v, 2 * k - 2, u))
                            for (_, a4, a6), co in eisenstein_modular_poly(2 * k).entries.items():
                                for (lvl, idx, _, _), val in gx.items():
                                    virasoro._acc(g, (lvl, idx, a4, a6), (2 * k - 1) * co * val)
                        if g:
                            self._gens.append((level, g))
                            self._span.add(g)
        self.level_bound = level


def _square_picture_recursion(c, h, weight_bound):
    """The earlier derivation, on the square span and the strings L[-2]^i u."""
    rel = _SquareRelationSpace(c, h, min(weight_bound, h + 2))
    top = (weight_bound - h) // 2
    strings = [verma_monomial(c, h, (), h == 0)]
    for _ in range(top):
        strings.append(square_virasoro_action(-2, strings[-1]))
    while rel.weight_bound + 1 <= weight_bound and not rel.contains(graded_vector(strings[1])):
        rel.grow()
    for m in range(1, top + 1):
        target = rel.reduce(graded_vector(strings[m]))
        cands, labels = [], []
        for i in range(m):
            for a4, a6 in mde._monomials_of_weight(2 * (m - i)):
                cands.append(rel.reduce(graded_vector(strings[i], e4=a4, e6=a6)))
                labels.append((i, a4, a6))
        if not cands:
            if not target:
                return TraceRecursion(c, h, m, (QuasiModularPoly(),) * m, rel.weight_bound)
            continue
        keys = sorted(set(target) | {k for cv in cands for k in cv})
        rho = _reference_solve_dense([[cv.get(k, Fraction(0)) for cv in cands] for k in keys],
                                     [-target.get(k, Fraction(0)) for k in keys])
        if rho is None:
            continue
        rs = [QuasiModularPoly() for _ in range(m)]
        for (i, a4, a6), val in zip(labels, rho):
            rs[i] = rs[i] + QuasiModularPoly({(0, a4, a6): val})
        return TraceRecursion(c, h, m, tuple(rs), rel.weight_bound)
    raise ValueError(f"no recursion of order <= {top} under weight bound {weight_bound}")


def test_round_picture_derivation_matches_the_square_picture(monkeypatch):
    # Zhu's isomorphism L(-mu) u -> L[-mu] u keeps the level filtration and the
    # maximal submodule, so both pictures find the same recursion at every bound
    cases = [(case.c, case.h_u, case.h_u + 8) for case in TRACE_CASES] + [
        (Fraction(c), Fraction(h), Fraction(h) + b) for c, h, b in (
            ("7/10", "3/5", 6), ("1/2", "0", 6), ("7/10", "3/2", 8),
            ("1/2", "1/16", 8), ("-22/5", "-1/5", 8))]
    for c, h, bound in cases:
        assert derive_recursion(c, h, bound) == _square_picture_recursion(c, h, bound), (c, h)
    for derive in (derive_recursion, _square_picture_recursion):
        with pytest.raises(ValueError, match="no recursion"):
            derive(Fraction(1, 2), Fraction(1, 3), Fraction(25, 3))
    # each round relation is homogeneous: every key of a relation grown at
    # level L has level + 4 a4 + 6 a6 = L
    rel = build_relation_space(Fraction(7, 10), Fraction(3, 2))
    assert rel._gens
    assert all(lvl + 4 * a4 + 6 * a6 == wg for wg, g in rel._gens for lvl, _, a4, a6 in g)
    # the strings are graded in the module the span is built on, which at
    # h = 0 is the vacuum quotient; the Verma module has the same irreducible
    # coordinates, so only the module tells the two apart
    modules = set()

    def recording(vec, e4=0, e6=0):
        modules.add(vec.module)
        return graded_vector(vec, e4, e6)

    monkeypatch.setattr(mde, "graded_vector", recording)
    mde._derive_recursion.__wrapped__(Fraction(1, 2), Fraction(0), Fraction(6))
    assert modules == {virasoro.verma_module(Fraction(1, 2), Fraction(0), True)}


def test_each_trace_equation_is_derived_once_per_process(monkeypatch):
    mde._derive_recursion.cache_clear()
    calls = []
    original = mde.build_relation_space

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mde, "build_relation_space", counting)
    assert cli.run(["--json", "verify", "traces"]) == 0
    assert cli.run(["--json", "modular-check"]) == 0
    assert len(calls) == 4
    assert {(c, h) for c, h, _ in calls} == {(case.c, case.h_u) for case in TRACE_CASES}

    # the memo key is the normalised (c, h, weight bound)
    c = Fraction(-22, 5)
    first = derive_recursion(c, 1)
    for args in ((c, Fraction(1)), (c, 1, Fraction(9)), (c, Fraction(1), 9), (c, 1, None)):
        assert derive_recursion(*args) is first
    assert len(calls) == 5
    assert mde._derive_recursion.cache_info().currsize == 5

    # a derivation that finds no recursion is not memoised: it raises each time
    for _ in range(2):
        with pytest.raises(ValueError, match="no recursion"):
            derive_recursion(0, 1)
    assert len(calls) == 7


def test_the_weight_bound_caps_the_order():
    # [L[-2]^m u] sits at weight h + 2m, so h + 12 reaches order 6 with no
    # other cap, and the c = 7/10 vacuum closes there
    rec = derive_recursion(Fraction(7, 10), 0, 12)
    assert (rec.order, rec.weight_bound) == (6, 12)
    assert [p.entries for p in rec.coefficients] == [
        {(0, 0, 2): Fraction(-89012746179, 1331200), (0, 3, 0): Fraction(53425803501, 1664000)},
        {(0, 1, 1): Fraction(14640625071, 140800)},
        {(0, 2, 0): Fraction(46410489, 6400)},
        {(0, 0, 1): Fraction(-659667, 160)},
        {(0, 1, 0): Fraction(-22941, 40)},
        {}]
    roots, rest = to_ode(rec).indicial_roots()
    assert rest == 0
    assert [r for r, _ in roots] == sorted(
        Fraction(hw) - Fraction(7, 240) for hw in ("0", "1/10", "3/5", "3/2", "3/80", "7/16"))
    # the error names the cap that the bound sets; the Ising vacuum is order 3
    for bound, top in ((Fraction(5, 2), 1), (Fraction(7, 2), 1), (4, 2)):
        with pytest.raises(ValueError, match=f"no recursion of order <= {top} under weight bound {bound}$"):
            derive_recursion(Fraction(1, 2), 0, bound)


def test_a_vacuum_equation_builds_one_module():
    # the strings of a vacuum derivation live in the vacuum quotient, so
    # M(c, 0) is never built, and to_ode reads its string scalars off two
    # commutators, so it builds no module at all
    virasoro.verma_module.cache_clear()
    rec = mde._derive_recursion.__wrapped__(Fraction(7, 10), Fraction(0), Fraction(12))
    assert virasoro.verma_module.cache_info().currsize == 1
    virasoro.verma_module.cache_clear()
    to_ode.__wrapped__(rec)
    assert virasoro.verma_module.cache_info().currsize == 0


def test_string_scalars_match_the_verma_route():
    # mu_k(i) from [L(2), L(-2)] and [L(2k-2), L(-2)] against L(2k-2)
    # applied to the vector L(-2)^i u, in the vacuum quotient at h = 0
    points = [(case.c, case.h_u) for case in TRACE_CASES]
    points += [(minimal_model(m).c, h) for m in (1, 2, 3) for h in minimal_model(m).distinct_weights()]
    points += [(Fraction(-22, 5), Fraction(0)), (Fraction(25), Fraction(0)),
               (Fraction(1, 2), Fraction(1, 3)), (Fraction(25), Fraction(1))]
    for c, h in points:
        mu = mde._string_scalars(c, h, 10)
        assert sorted(mu) == list(range(2, 11)) and all(len(row) == 10 for row in mu.values())
        for i in range(10):
            for k in range(2, i + 2):
                assert mu[k][i] == string_mode_scalar(c, h, i, k), (c, h, i, k)


def test_each_trace_equation_is_built_once_per_process():
    # to_ode reads nothing but its recursion, so the eta and modular checks
    # of one trace case share one equation
    mde._derive_recursion.cache_clear()
    to_ode.cache_clear()
    assert cli.run(["--json", "verify", "traces"]) == 0
    assert cli.run(["--json", "modular-check"]) == 0
    info = to_ode.cache_info()
    assert (info.misses, info.hits) == (len(TRACE_CASES), len(TRACE_CASES))


def test_ising_vacuum_equation_is_third_order():
    rec = derive_recursion(Fraction(1, 2), Fraction(0))
    assert rec.order == 3
    ode = to_ode(rec)
    assert ode.order == 3
    assert ode.serre_coeffs[3].entries == {(0, 0, 0): Fraction(1)}
    assert ode.serre_coeffs[2].is_zero()
    assert ode.serre_coeffs[1].entries == {(0, 1, 0): Fraction(-535, 16)}
    assert ode.serre_coeffs[0].entries == {(0, 0, 1): Fraction(-805, 64)}


def test_tricritical_ising_equations_above_order_one():
    # both only close past the order-1 levels, so the span grows to the
    # default bound h + 8 and the coefficients come from there
    c = Fraction(7, 10)
    rec = derive_recursion(c, Fraction(3, 5))
    assert (rec.order, rec.weight_bound) == (3, Fraction(43, 5))
    ode = to_ode(rec)
    assert [p.entries for p in ode.serre_coeffs] == [
        {(0, 0, 1): Fraction(-875, 64)}, {(0, 1, 0): Fraction(-775, 16)}, {}, {(0, 0, 0): 1}]
    rec = derive_recursion(c, Fraction(3, 2))
    assert (rec.order, rec.weight_bound) == (2, Fraction(19, 2))
    ode = to_ode(rec)
    assert [p.entries for p in ode.serre_coeffs] == [
        {(0, 1, 0): Fraction(-119, 5)}, {}, {(0, 0, 0): 1}]


def test_ising_vacuum_indicial_roots_are_the_module_exponents():
    ode = to_ode(derive_recursion(Fraction(1, 2), Fraction(0)))
    roots, rest = ode.indicial_roots()
    assert rest == 0
    assert roots == [(Fraction(-1, 48), 1), (Fraction(1, 24), 1), (Fraction(23, 48), 1)]


def test_ising_vacuum_solutions_carry_the_module_dimensions():
    ode = to_ode(derive_recursion(Fraction(1, 2), Fraction(0)))
    c = Fraction(1, 2)
    for h in (Fraction(0), Fraction(1, 16), Fraction(1, 2)):
        sol = frobenius_solve(ode, h - Fraction(1, 48), terms=9)
        dims = graded_dims(c, h, 8, vacuum=(h == 0))
        assert list(sol.coeffs) == [Fraction(d) for d in dims], f"h = {h}"


def test_trace_ode_coefficients_are_e2_free():
    for case in TRACE_CASES:
        ode = trace_case_ode(case)
        assert all(not p.has_e2 for p in ode.serre_coeffs)


# ---------------------------------------------------------------------------
# indicial data and series solving
# ---------------------------------------------------------------------------

def _hand_built_order_two(h1):
    """H_0 = 0, H_1 = h1, H_2 = 1 at c = 1/2, h = 0."""
    return ModularODE(Fraction(1, 2), Fraction(0), 2,
                      (QuasiModularPoly(), QuasiModularPoly.constant(h1),
                       QuasiModularPoly.constant(1)))


def test_indicial_polynomial_of_a_hand_built_equation():
    # H_0 = 0, H_1 = -5/6, H_2 = 1 at h = 0 gives P(x) = x^2 - x
    ode = _hand_built_order_two(Fraction(-5, 6))
    assert ode.indicial_polynomial() == (Fraction(0), Fraction(-1), Fraction(1))
    roots, rest = ode.indicial_roots()
    assert roots == [(Fraction(0), 1), (Fraction(1), 1)]
    assert rest == 0


def _reference_indicial_polynomial(ode):
    """sum_j H_j(0) prod_{t<j} (lam - (h+2t)/12), multiplied out."""
    poly = [Fraction(0)]
    factor = [Fraction(1)]
    for j in range(ode.order + 1):
        cj = ode.serre_coeffs[j].constant_term()
        width = max(len(poly), len(factor))
        poly = [(poly[t] if t < len(poly) else Fraction(0))
                + cj * (factor[t] if t < len(factor) else Fraction(0))
                for t in range(width)]
        root = (ode.h + 2 * j) * Fraction(1, 12)
        nxt = [Fraction(0)] * (len(factor) + 1)
        for t, co in enumerate(factor):
            nxt[t + 1] += co
            nxt[t] -= root * co
        factor = nxt
    return tuple(poly)


def _reference_theta_operator(ode, terms):
    """The theta columns assembled on Fraction series from the H_j series."""
    e2 = eisenstein(2, terms)
    one = PuiseuxSeries(Fraction(0), (Fraction(1),) + (Fraction(0),) * (terms - 1))
    zero = PuiseuxSeries(Fraction(0), (Fraction(0),) * terms)
    ops = [[one]]
    for j in range(ode.order):
        w = ode.h + 2 * j
        cur = ops[-1]
        nxt = [zero] * (len(cur) + 1)
        for t, a in enumerate(cur):
            nxt[t + 1] = nxt[t + 1] + a
            nxt[t] = nxt[t] + theta(a) + w * (e2 * a)
        ops.append(nxt)
    total = [zero] * (ode.order + 1)
    for j in range(ode.order + 1):
        hq = ode.serre_coeffs[j].to_series(terms)
        for t, a in enumerate(ops[j]):
            total[t] = total[t] + hq * a
    return tuple(total)


def _reference_to_ode(rec):
    """to_ode with sparse dict tables T_i = {j: poly} and the string scalars read off vectors."""
    c, h, m = rec.c, rec.h, rec.order
    tables = [{0: QuasiModularPoly.constant(1)}]
    for i in range(m):
        nxt = {}

        def bump(j, poly):
            if not poly.is_zero():
                nxt[j] = nxt.get(j, QuasiModularPoly()) + poly

        for j, g in tables[i].items():
            bump(j + 1, g)
            bump(j, g.serre(2 * (i - j)))
        for k in range(2, i + 2):
            mu = string_mode_scalar(c, h, i, k)
            if mu == 0:
                continue
            epoly = eisenstein_modular_poly(2 * k)
            for j, g in tables[i - k + 1].items():
                bump(j, mu * (epoly * g))
        tables.append(nxt)
    coeffs = []
    for j in range(m + 1):
        acc = tables[m].get(j, QuasiModularPoly())
        for i in range(m):
            acc = acc + rec.coefficients[i] * tables[i].get(j, QuasiModularPoly())
        coeffs.append(acc)
    return ModularODE(c, h, m, tuple(coeffs))


def test_theta_form_matches_the_reference_routes():
    recs = [derive_recursion(case.c, case.h_u) for case in TRACE_CASES]
    recs += [derive_recursion(Fraction(c), Fraction(h)) for c, h in
             (("1/2", "0"), ("7/10", "3/5"), ("7/10", "3/2"))]
    assert [rec.order for rec in recs] == [1, 1, 1, 1, 3, 3, 2]
    odes = []
    for rec in recs:
        ode = to_ode(rec)
        assert ode == _reference_to_ode(rec), (rec.c, rec.h)
        odes.append(ode)
    odes += [_hand_built_order_two(Fraction(-5, 6)), _hand_built_order_two(Fraction(-17, 6))]
    for ode in odes:
        assert ode.indicial_polynomial() == _reference_indicial_polynomial(ode), (ode.c, ode.h)
        for terms in (1, 40, 300):
            assert ode.theta_operator(terms) == _reference_theta_operator(ode, terms), (ode.c, ode.h, terms)
        form = ode.theta_form()
        assert len(form) == ode.order + 1
        assert form[-1] == QuasiModularPoly.constant(1)


def test_a_multi_root_solve_expands_the_theta_operator_once(monkeypatch, capsys):
    # mde solve calls frobenius_solve once per indicial root; the roots of
    # one equation share one q-expansion of its theta form
    ode = to_ode(derive_recursion(Fraction(1, 2), Fraction(0)))
    assert len(ode.indicial_roots()[0]) == 3
    mde._theta_series.cache_clear()
    expanded = []
    original = mde._expand

    def counting(polys, terms):
        if terms > 1:                       # constant_term reads to_series(1)
            expanded.append((len(polys), terms))
        return original(polys, terms)

    monkeypatch.setattr(mde, "_expand", counting)
    assert cli.run(["--json", "mde", "solve", "--c", "1/2", "--h", "0", "--terms", "12"]) == 0
    assert len(json.loads(capsys.readouterr().out)["solutions"]) == 3
    assert expanded == [(ode.order + 1, 12)]
    assert ode.theta_operator(12) is ode.theta_operator(12)


def _reference_frobenius_solve(ode, exponent, terms):
    """The earlier Frobenius loop, in Fraction arithmetic throughout."""
    lam = Fraction(exponent)
    A = ode.theta_operator(terms)
    const = [a.coefficient(0) for a in A]

    def indicial(x):
        acc = Fraction(0)
        for t in reversed(range(len(const))):
            acc = acc * x + const[t]
        return acc

    assert indicial(lam) == 0
    coeffs = [Fraction(1)]
    for n in range(1, terms):
        acc = Fraction(0)
        for r in range(n):
            if coeffs[r] == 0:
                continue
            powers = Fraction(1)
            s = Fraction(0)
            x = lam + r
            for t in range(len(A)):
                s += A[t].coefficient(n - r) * powers
                powers *= x
            acc += coeffs[r] * s
        lead = indicial(lam + n)
        if lead == 0:
            raise ResonantExponentError(lam, n)
        coeffs.append(-acc / lead)
    return mde.FrobeniusSolution(lam, tuple(coeffs))


def test_integer_frobenius_kernel_matches_the_fraction_loop():
    for case in TRACE_CASES:
        ode = trace_case_ode(case)
        lam = leading_exponent(case)
        assert frobenius_solve(ode, lam, 300) == _reference_frobenius_solve(ode, lam, 300), case.m
    # two order-3 equations, c = 1/2 at h = 0 and c = 7/10 at h_u = 3/5: the
    # theta columns 0..2 stay live past q^0, only the monic column 3 drops out
    for c, h in ((Fraction(1, 2), Fraction(0)), (Fraction(7, 10), Fraction(3, 5))):
        ode = to_ode(derive_recursion(c, h))
        assert [any(a.coeffs[1:]) for a in ode.theta_operator(40)] == [True, True, True, False]
        roots, _ = ode.indicial_roots()
        assert len(roots) == 3
        for lam, _ in roots:
            assert frobenius_solve(ode, lam, 40) == _reference_frobenius_solve(ode, lam, 40), (h, lam)


def test_integer_frobenius_kernel_resonates_at_the_same_step():
    # P(x) = x^2 - 3x at h = 0: from the root 0 the recurrence runs through
    # steps 1 and 2 and meets the other root at step 3
    ode = _hand_built_order_two(Fraction(-17, 6))
    assert ode.indicial_polynomial() == (Fraction(0), Fraction(-3), Fraction(1))
    for solve in (frobenius_solve, _reference_frobenius_solve):
        with pytest.raises(ResonantExponentError) as err:
            solve(ode, 0, 10)
        assert (err.value.exponent, err.value.step) == (0, 3)
    assert frobenius_solve(ode, 3, 10) == _reference_frobenius_solve(ode, 3, 10)


def test_resonant_exponents_raise_instead_of_guessing():
    ode = _hand_built_order_two(Fraction(-5, 6))
    with pytest.raises(ResonantExponentError):
        frobenius_solve(ode, 0, terms=6)
    sol = frobenius_solve(ode, 1, terms=6)
    assert sol.coeffs[0] == 1


def test_solving_at_a_non_root_is_rejected():
    ode = trace_case_ode(TRACE_CASES[0])
    with pytest.raises(ValueError):
        frobenius_solve(ode, Fraction(1, 3))


def test_trace_solutions_are_eta_powers():
    for case in TRACE_CASES:
        rep = eta_power_check(case, terms=12)
        assert rep.match, f"m={case.m}, first mismatch {rep.first_mismatch}"
        sol = trace_case_solution(case, terms=5)
        assert sol.exponent == case.h_w - case.c / 24
        assert sol.to_puiseux() == eta_power(2 * case.h_u, 5)


# ---------------------------------------------------------------------------
# exponents and numeric transformation checks
# ---------------------------------------------------------------------------

def test_leading_exponents_and_the_flagged_quote():
    for case in TRACE_CASES:
        assert leading_exponent(case) == case.h_u / 12
    agrees = [leading_exponent(case) == case.quoted_exponent for case in TRACE_CASES]
    assert agrees == [True, True, True, False]
    flagged = TRACE_CASES[3]
    assert leading_exponent(flagged) == Fraction(1, 84)
    assert flagged.quoted_exponent == Fraction(1, 81)


def test_transform_ratio_is_a_constant_of_modulus_one():
    for case in TRACE_CASES[:2]:
        rep = case_transform_report(case, terms=80)
        assert rep.max_modulus_error < 1e-10
        assert rep.max_spread < 1e-10
        lam = leading_exponent(case)
        assert rep.t_eigenvalue == cmath.exp(2j * cmath.pi * float(lam))


def test_the_transform_check_needs_two_distinct_taus():
    # one point, or one point repeated, makes the spread 0 by construction
    for taus in ((), (0.3 + 1.1j,), (1j, 1j, 1j)):
        with pytest.raises(ValueError, match="at least two distinct sample points"):
            case_transform_report(TRACE_CASES[0], terms=20, taus=taus)
    rep = case_transform_report(TRACE_CASES[0], terms=80, taus=(1j, 1j, 0.3 + 1.1j))
    assert len(rep.ratios) == 3 and rep.max_spread < 1e-10


def test_shift_by_one_multiplies_by_the_t_eigenvalue():
    case = TRACE_CASES[0]
    series = trace_case_solution(case, terms=60).to_puiseux()
    tau = 0.3 + 1.1j
    a, _ = series.eval_numeric(tau + 1)
    b, _ = series.eval_numeric(tau)
    lam = float(leading_exponent(case))
    assert abs(a / b - cmath.exp(2j * cmath.pi * lam)) < 1e-12


def test_e2_inversion_residual_is_tiny_on_samples():
    for tau in mde.TAU_SAMPLES:
        assert e2_inversion_residual(tau, terms=80) < 1e-8


def test_branch_consistency_of_the_automorphy_factors():
    for case in TRACE_CASES:
        worst = sl2_branch_check(case.h_u)
        assert worst < 1e-10
