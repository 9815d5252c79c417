"""Zhu-style products, class polynomials, and minimal model spectra.

The two routes to the same answer are kept deliberately separate: the
closed-form reduction of PBW strings to polynomials in the conformal class
x, and the concrete span of o(a, u) elements inside the irreducible vacuum
algebra. The minimal model spectrum test checks both against the Kac
weight table. zhu_poly itself takes the fast route (one solve at the
predicted singular level, reduced in closed form); the slow routes are
kept as oracles: a level-by-level scan for singular vectors, and each
descendant L(-mu) alpha of the singular vector built by l_action, whose
class must equal the closed form's [alpha] times one factor per part.

class_polynomial and rational_roots run over integers; the _fraction_*
routines below are the earlier versions over Fraction, kept to check them
against on singular vectors, random vacuum vectors and polynomials with
known roots.
"""

import os
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

import pytest

from traceform import zhu
from traceform.linalg import RowSpan, _cleared
from traceform.virasoro import (
    VermaVector,
    highest_weight_vector,
    partitions_of,
    l_action,
    minimal_model,
    mode_action,
    singular_vectors,
    verma_monomial,
)
from traceform.zhu import (
    OSpace,
    ZhuPoly,
    _monic,
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
# the integer kernels against the earlier Fraction routines
# ---------------------------------------------------------------------------

def _fraction_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _fraction_descend(poly, mu, wt):
    for m_part in reversed(mu):
        sign = -1 if m_part % 2 else 1
        poly = _fraction_poly_mul(poly, [sign * Fraction(wt), sign * Fraction(m_part - 1)])
        wt += m_part
    return poly


def _fraction_class_polynomial(vec):
    acc = [Fraction(0)]
    for mu, co in vec.entries.items():
        poly = _fraction_descend([co], mu, 0)
        width = max(len(acc), len(poly))
        acc = [(acc[i] if i < len(acc) else Fraction(0)) + (poly[i] if i < len(poly) else Fraction(0))
               for i in range(width)]
    return _fraction_trim(acc)


def _fraction_rational_roots(poly):
    def divisors(n):
        n = abs(n)
        return sorted({d for i in range(1, isqrt(n) + 1) if n % i == 0 for d in (i, n // i)})

    def value(work, x):
        acc = Fraction(0)
        for co in reversed(work):
            acc = acc * x + co
        return acc

    work = _fraction_trim([Fraction(co) for co in poly])
    roots = {}
    while len(work) > 1:
        while work[0] == 0:
            roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
            work = work[1:]
            if len(work) == 1:
                return sorted(roots.items()), 0
        denom = 1
        for co in work:
            denom = denom * co.denominator // gcd(denom, co.denominator)
        ints = [int(co * denom) for co in work]
        found = next((cand for p in divisors(ints[0]) for q in divisors(ints[-1])
                      for cand in (Fraction(p, q), Fraction(-p, q)) if value(work, cand) == 0), None)
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        out = [Fraction(0)] * (len(work) - 1)
        carry = work[-1]
        for i in range(len(work) - 2, -1, -1):
            out[i] = carry
            carry = work[i] + carry * found
        assert carry == 0
        work = out
    return sorted(roots.items()), len(work) - 1


def _random_vacuum_vector(rng, level):
    basis = [mu for mu in partitions_of(level) if min(mu) >= 2]
    entries = {mu: Fraction(rng.randint(-40, 40), rng.randint(1, 36))
               for mu in rng.sample(basis, max(1, len(basis) * 2 // 3))}
    return VermaVector(C, 0, entries, True)


def _check_integer_kernels(vec, level):
    got = class_polynomial(vec)
    assert got == _fraction_class_polynomial(vec), vec
    assert all(type(co) is Fraction for co in got)
    if any(got):
        g = _monic(got)
        assert rational_roots(g) == _fraction_rational_roots(g)


def test_divisors_by_trial_division_with_division():
    rng = random.Random(5)
    kac_denominator = 2**18 * 3**3 * 7**10
    for n in list(range(1, 400)) + [rng.randint(1, 10**8) for _ in range(30)] + [-360, 137 * 2**20, kac_denominator]:
        want = [d for d in range(1, isqrt(abs(n)) + 1) if n % d == 0]
        want = sorted(set(want + [abs(n) // d for d in want]))
        assert zhu._divisors(n) == want, n
    assert len(zhu._divisors(kac_denominator)) == 19 * 4 * 11


@pytest.mark.parametrize("m", [1, 2, 3])
def test_integer_kernels_match_the_fraction_routines_on_singular_vectors(m):
    level = (m + 1) * (m + 2)
    (vec,) = singular_vectors(minimal_model(m).c, 0, level, vacuum=True)
    _check_integer_kernels(vec, level)


def test_integer_kernels_match_the_fraction_routines_on_random_vacuum_vectors():
    rng = random.Random(1996)
    for _ in range(40):
        level = rng.randint(2, 10)
        _check_integer_kernels(_random_vacuum_vector(rng, level), level)


def _from_roots(rng, roots, rest):
    poly = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))]
    for r in roots:
        poly = _fraction_poly_mul(poly, [-r, Fraction(1)])
    for factor in rest:
        poly = _fraction_poly_mul(poly, [Fraction(co) for co in factor])
    return tuple(poly)


def test_integer_rational_roots_match_the_fraction_routine():
    rng = random.Random(24)
    pool = [Fraction(0), Fraction(-3), Fraction(5), Fraction(1, 2), Fraction(-7, 12),
            Fraction(22, 5), Fraction(-1, 60), Fraction(137, 240)]
    irreducible = ((-2, 0, 1), (1, 0, 1), (1, 1, 3), (-5, 0, 0, 2))
    for _ in range(150):
        roots = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        rest = [rng.choice(irreducible) for _ in range(rng.randint(0, 2))]
        poly = _from_roots(rng, roots, rest)
        got = rational_roots(poly)
        assert got == _fraction_rational_roots(poly), poly
        want = sorted((r, roots.count(r)) for r in set(roots))
        assert got == (want, sum(len(f) - 1 for f in rest)), poly
    for poly in ((Fraction(0),), (Fraction(3),), (Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(1, 60))):
        assert rational_roots(poly) == _fraction_rational_roots(poly)


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
    """Each descendant class spanning the ideal of alpha equals the l_action route's.

    For every partition mu with |mu| <= 6, the class of L(-mu) alpha built
    by l_action must be the closed form: [alpha] times one reduction factor
    per part of mu (zhu._descend).
    """
    alpha = zhu._find_vacuum_singular(zp.m)
    alpha_class = class_polynomial(alpha)
    assert _monic(alpha_class) == zp.coeffs
    nums, denom = _cleared(alpha_class)
    for extra in range(7):
        for mu in partitions_of(extra):
            vec = alpha
            for part in reversed(mu):
                vec = l_action(-part, vec)
            closed = zhu._poly_trim(zhu._descend(nums, mu, zp.singular_level))
            assert class_polynomial(vec) == [Fraction(a, denom) for a in closed], (zp.m, mu)


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


def test_nonpositive_m_is_refused():
    with pytest.raises(ValueError, match="positive"):
        zhu_poly(0)


def test_a_singular_vector_of_zero_class_is_refused(monkeypatch):
    # o(omega, omega) lies in O(V), so its class is 0 and has no monic form
    monkeypatch.setattr(zhu, "_find_vacuum_singular", lambda m: o_elem(vac(2), vac(2)))
    with pytest.raises(AssertionError, match="zero class"):
        zhu_poly(1)


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
