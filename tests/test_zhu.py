"""Zhu-style products, class polynomials, and minimal model spectra.

The two routes to the same answer are kept deliberately separate: the
closed-form reduction of PBW strings to polynomials in the conformal class
x, and the concrete span of o(a, u) elements inside the irreducible vacuum
algebra. The minimal model spectrum test checks both against the Kac
weight table. zhu_poly itself takes the fast routes (the predicted
singular level, closed-form descendant classes); the slow routes they
replace, a level-by-level scan and the l_action construction of the
descendant classes (zhu._ideal_min_poly_by_l_action), are kept as oracles.
"""

import os
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from traceform import zhu
from traceform.linalg import RowSpan
from traceform.virasoro import (
    highest_weight_vector,
    l_action,
    minimal_model,
    mode_action,
    singular_vectors,
    verma_monomial,
)
from traceform.zhu import (
    OSpace,
    ZhuPoly,
    _ideal_min_poly_by_l_action,
    a_dot_u,
    class_polynomial,
    o_elem,
    rational_roots,
    u_star_a,
    zhu_poly,
)

C = Fraction(1, 2)


def vac(*mu):
    return verma_monomial(C, 0, mu, vacuum=True)


# ---------------------------------------------------------------------------
# product identities
# ---------------------------------------------------------------------------

PRODUCT_TARGETS = (
    verma_monomial(C, Fraction(1, 16), (2, 1)),
    verma_monomial(C, Fraction(1, 2), (1, 1)),
    vac(2, 2),
)


def test_left_and_right_products_differ_by_nonnegative_modes():
    # a.u - u*a = sum_j C(w-1, j) a(j) u, an exact binomial identity
    omega = vac(2)
    for u in PRODUCT_TARGETS:
        lhs = a_dot_u(omega, u) - u_star_a(u, omega)
        want = mode_action(omega, 0, u) + mode_action(omega, 1, u)
        assert lhs == want


def test_vacuum_is_a_unit_and_the_difference_identity_holds_at_every_weight():
    # the vacuum module has nothing at weight 1; weight 0 is the vacuum itself
    one = highest_weight_vector(C, 0, vacuum=True)
    by_weight = [one * 3, vac(2), vac(3), vac(4) - vac(2, 2) * Fraction(5, 3)]
    mixed = one * Fraction(-2, 7) + vac(2) * 4 + vac(3) - vac(2, 2)
    for u in PRODUCT_TARGETS:
        assert u_star_a(u, one) == u
        assert a_dot_u(one, u) == u
        for a in by_weight + [mixed]:
            want = u * 0
            for w, piece in a.level_components().items():
                for j in range(w):
                    want = want + mode_action(piece, j, u) * comb(w - 1, j)
            assert a_dot_u(a, u) - u_star_a(u, a) == want, a


def test_products_require_a_vacuum_left_factor():
    h = Fraction(1, 16)
    a = verma_monomial(C, h, (2,))
    u = highest_weight_vector(C, h)
    for fn in (lambda: a_dot_u(a, u), lambda: u_star_a(u, a), lambda: o_elem(a, u)):
        with pytest.raises(ValueError):
            fn()


def test_conformal_product_expands_binomially():
    # omega.u = sum_i C(2, i) L(i - 2) u
    u = vac(2, 2)
    want = l_action(-2, u) + l_action(-1, u) * 2 + l_action(0, u)
    assert a_dot_u(vac(2), u) == want


# ---------------------------------------------------------------------------
# class polynomials
# ---------------------------------------------------------------------------

def test_class_of_the_vacuum_is_the_constant_one():
    assert class_polynomial(highest_weight_vector(C, 0, vacuum=True)) == [1]


def test_class_of_single_modes_follows_the_reduction_rule():
    # [L(-M) 1] = (-1)^M (M - 1) x
    assert class_polynomial(vac(2)) == [0, 1]
    assert class_polynomial(vac(3)) == [0, -2]
    assert class_polynomial(vac(4)) == [0, 3]


def test_class_of_a_string_multiplies_left_to_right():
    # [L(-3) L(-2) 1]: the L(-3) factor sees weight 2 below it,
    # contributing -(2x + 2), then the L(-2) factor contributes x
    assert class_polynomial(vac(3, 2)) == [0, -2, -2]
    # [L(-2) L(-2) 1]: (x + 2)(x) from the outer factor seeing weight 2
    assert class_polynomial(vac(2, 2)) == [0, 2, 1]


def test_class_polynomial_is_multiplicative_for_the_conformal_class():
    for u in (vac(2), vac(2, 2), vac(3, 2), highest_weight_vector(C, 0, vacuum=True)):
        shifted = class_polynomial(a_dot_u(vac(2), u))
        base = class_polynomial(u)
        assert shifted == [Fraction(0)] + base, f"x * [{u!r}]"


def test_o_elements_have_vanishing_class():
    pairs = [(vac(2), vac(2)), (vac(2), vac(2, 2)), (vac(3), vac(2)),
             (vac(2, 2), highest_weight_vector(C, 0, vacuum=True))]
    for a, u in pairs:
        assert not any(class_polynomial(o_elem(a, u)))


# ---------------------------------------------------------------------------
# rational root extraction
# ---------------------------------------------------------------------------

def test_rational_roots_with_multiplicities():
    # (x - 1/2)^2 (x + 3), ascending
    poly = (Fraction(3, 4), Fraction(-11, 4), Fraction(2), Fraction(1))
    roots, rest = rational_roots(poly)
    assert roots == [(Fraction(-3), 1), (Fraction(1, 2), 2)]
    assert rest == 0


def test_rational_roots_strips_zero_roots_first():
    # x^2 (x - 5)
    roots, rest = rational_roots((Fraction(0), Fraction(0), Fraction(-5), Fraction(1)))
    assert roots == [(Fraction(0), 2), (Fraction(5), 1)]
    assert rest == 0


def test_irrational_factors_are_reported_not_invented():
    roots, rest = rational_roots((Fraction(-2), Fraction(0), Fraction(1)))
    assert roots == []
    assert rest == 2
    # (x^2 - 2)(x - 3)
    roots, rest = rational_roots((Fraction(6), Fraction(-2), Fraction(-3), Fraction(1)))
    assert roots == [(Fraction(3), 1)]
    assert rest == 2


# ---------------------------------------------------------------------------
# the o-span inside the irreducible vacuum algebra
# ---------------------------------------------------------------------------

def test_o_span_quotient_stabilizes_at_the_weight_count():
    sp = OSpace(C, 8)
    assert sp.quotient_dims[-1] == sp.quotient_dims[-2] == 3


def test_multiplication_matrix_has_the_kac_spectrum():
    sp = OSpace(C, 8)
    keys, mat = sp.x_matrix(8)
    n = len(keys)
    assert n == 3
    trace = sum(mat[i][i] for i in range(n))
    weights = minimal_model(1).distinct_weights()
    assert trace == sum(weights)
    for w in weights:
        shifted = RowSpan()
        for i in range(n):
            shifted.add({j: mat[i][j] - (w if i == j else 0) for j in range(n)})
        assert shifted.rank < n, f"x - {w} should be singular"


# ---------------------------------------------------------------------------
# minimal model spectra
# ---------------------------------------------------------------------------

def test_ising_zhu_polynomial_factors_over_the_kac_table():
    zp = zhu_poly(1)
    assert isinstance(zp, ZhuPoly)
    assert zp.singular_level == 6
    assert zp.degree == 3
    assert zp.coeffs == (Fraction(0), Fraction(1, 32), Fraction(-9, 16), Fraction(1))
    assert zp.complete and zp.stabilized
    assert sorted(zp.root_set()) == list(minimal_model(1).distinct_weights())


def test_second_model_zhu_polynomial():
    zp = zhu_poly(2)
    assert zp.singular_level == 12
    assert zp.degree == 6
    assert zp.complete and zp.stabilized
    assert sorted(zp.root_set()) == list(minimal_model(2).distinct_weights())


# ---------------------------------------------------------------------------
# the slow routes, kept as oracles for the closed forms
# ---------------------------------------------------------------------------

def _assert_ideal_matches_l_action(zp):
    """The closed-form ideal generators equal the l_action route's, and g itself."""
    alpha = zhu._find_vacuum_singular(zp.m)
    assert sorted(zp.stabilization) == [zp.trunc, zp.trunc + 2]
    for trunc, generator in zp.stabilization.items():
        assert generator == zp.coeffs
        assert _ideal_min_poly_by_l_action(alpha, zp.singular_level, trunc) == generator


def _assert_no_vacuum_singular_vector_below(m, level):
    c = minimal_model(m).c
    for lower in range(2, level):
        assert singular_vectors(c, 0, lower, vacuum=True) == [], f"m={m} level {lower}"


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_ideal_matches_the_l_action_route(m):
    _assert_ideal_matches_l_action(zhu_poly(m))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_no_vacuum_singular_vector_below_the_predicted_level(m):
    level = (m + 1) * (m + 2)
    _assert_no_vacuum_singular_vector_below(m, level)
    assert len(singular_vectors(minimal_model(m).c, 0, level, vacuum=True)) == 1


def test_truncation_below_the_singular_level_is_refused():
    with pytest.raises(ValueError, match="below the singular level 6"):
        zhu_poly(1, trunc=5)
    with pytest.raises(ValueError, match="positive"):
        zhu_poly(0)


@pytest.mark.skipif(not os.environ.get("TRACEFORM_SLOW"),
                    reason="set TRACEFORM_SLOW=1 to run the minute-scale spectrum checks")
def test_fourth_model_zhu_polynomial_slow(monkeypatch):
    # zhu_poly and the l_action oracle share one singular vector solve per m
    monkeypatch.setattr(zhu, "_find_vacuum_singular", lru_cache(maxsize=None)(zhu._find_vacuum_singular))
    for m in (3, 4):
        zp = zhu_poly(m)
        _assert_no_vacuum_singular_vector_below(m, zp.singular_level)
        _assert_ideal_matches_l_action(zp)
    assert zp.singular_level == 30
    assert zp.degree == 15
    assert zp.complete and zp.stabilized
    assert sorted(zp.root_set()) == list(minimal_model(4).distinct_weights())
