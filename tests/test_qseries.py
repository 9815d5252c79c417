"""Exact q-series arithmetic against classical number-theoretic facts.

The oracles here are independent of the implementation: pentagonal number
signs for eta, partition counts for 1/eta, divisor sums and Bernoulli
numbers for the Eisenstein series, the Gamma(1/4) evaluation of eta(i),
and the vanishing of the classical E_6 at the square lattice point.

pow_rational runs its recurrence on integer numerators over one
denominator fixed before it starts; _reference_pow_rational below is the
earlier loop over Fraction, which it must reproduce exactly. The same holds
for series sums and products (_reference_add, _reference_mul) and for the
pentagonal-number Euler product (_reference_euler_product, the earlier
quadratic loop).
"""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_routes import is_zero, serre_derivative, shifted, theta, truncate
from traceform.mde import derive_recursion, frobenius_solve, to_ode
from traceform.qseries import (
    PuiseuxSeries,
    _euler_product,
    bernoulli,
    eisenstein,
    eta,
    eta_power,
    read_series,
    sigma,
    write_series,
)


def q_poly(*coeffs):
    return PuiseuxSeries(0, [Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# arithmetic basics
# ---------------------------------------------------------------------------

def test_addition_aligns_different_leading_exponents():
    f = PuiseuxSeries(Fraction(1, 2), [1, 2, 3])
    g = PuiseuxSeries(Fraction(3, 2), [5, 7])
    total = f + g
    assert total.lam == Fraction(1, 2)
    assert total.coefficient(Fraction(1, 2)) == 1
    assert total.coefficient(Fraction(3, 2)) == 7
    assert total.coefficient(Fraction(5, 2)) == 10


def test_multiplication_is_exact_cauchy_product():
    f = q_poly(1, 1)          # 1 + q
    g = q_poly(1, -1, 1)      # 1 - q + q^2
    assert (f * g).coeffs[:2] == (Fraction(1), Fraction(0))
    # 1 + q^3 in a window of length 2: only the first two slots are retained
    assert (f * g).terms == 2


def test_truncation_window_is_min_of_the_operands():
    f = q_poly(1, 2, 3, 4, 5)
    g = q_poly(1, 1)
    assert (f + g).terms == 2
    assert (f * g).terms == 2


def test_structural_equality_ignores_the_weight_tag():
    bare = q_poly(1, 5)
    tagged = PuiseuxSeries(0, [1, 5], weight=4)
    assert bare == tagged
    assert hash(bare) == hash(tagged)


def test_weight_tag_survives_addition_only_when_it_matches():
    e4 = eisenstein(4, 6)
    assert (e4 + e4).weight == 4
    assert (e4 * e4).weight == 8
    assert (e4 + q_poly(1, 2, 3, 4, 5, 6)).weight is None
    assert (e4 + eisenstein(6, 6)).weight is None


def test_shifted_moves_the_leading_exponent():
    f = PuiseuxSeries(Fraction(1, 3), [1, 2])
    g = shifted(f, Fraction(1, 6))
    assert g.lam == Fraction(1, 2)
    assert g.coeffs == f.coeffs


def test_theta_multiplies_by_the_exponent():
    f = PuiseuxSeries(Fraction(1, 8), [1, 4, 0, 2])
    tf = theta(f)
    assert tf.coefficient(Fraction(1, 8)) == Fraction(1, 8)
    assert tf.coefficient(Fraction(9, 8)) == 4 * Fraction(9, 8)
    assert tf.coefficient(Fraction(25, 8)) == 2 * Fraction(25, 8)


@given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=6),
       st.lists(st.fractions(max_denominator=6), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_theta_satisfies_the_leibniz_rule(a, b):
    f = PuiseuxSeries(0, a)
    g = PuiseuxSeries(0, b)
    assert theta(f * g) == theta(f) * g + f * theta(g)


def test_integer_power_matches_repeated_multiplication():
    f = q_poly(2, 1, -3, 5)
    assert f.pow_rational(3) == f * f * f


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4),
       st.lists(st.fractions(max_denominator=4), min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rational_powers_add_exponents(num, den, tail):
    f = PuiseuxSeries(0, [Fraction(1)] + tail)
    r = Fraction(num, den)
    lhs = f.pow_rational(r) * f.pow_rational(1 - r)
    assert lhs == truncate(f, lhs.terms)


def test_pow_rational_rejects_bad_leading_coefficients():
    with pytest.raises(ValueError):
        PuiseuxSeries(0, [0, 1]).pow_rational(Fraction(1, 2))
    with pytest.raises(ValueError):
        q_poly(2, 1).pow_rational(Fraction(1, 2))


def _reference_pow_rational(f, r):
    """The earlier power recurrence, in Fraction arithmetic throughout."""
    r = Fraction(r)
    a0 = f.coeffs[0]
    n_terms = len(f.coeffs)
    unit = [c / a0 for c in f.coeffs]
    out = [Fraction(0)] * n_terms
    out[0] = Fraction(1)
    for n in range(1, n_terms):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if unit[k] != 0:
                acc += ((r + 1) * k - n) * unit[k] * out[n - k]
        out[n] = acc / n
    lead = a0 ** int(r) if r.denominator == 1 else Fraction(1)
    if lead != 1:
        out = [lead * c for c in out]
    weight = None if f.weight is None else r * f.weight
    return PuiseuxSeries(r * f.lam, out, weight)


def _same_series(got, want):
    return (got.lam, got.coeffs, got.weight) == (want.lam, want.coeffs, want.weight)


def test_integer_power_kernel_matches_the_fraction_loop():
    rng = random.Random(5077)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.7 else Fraction(0)

    seen = set()
    for _ in range(120):
        n = rng.randint(1, 30)
        tail = [rational() for _ in range(n - 1)]
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        weight = rng.choice([None, Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
        if rng.random() < 0.5:
            head, r = Fraction(1), Fraction(rng.randint(-7, 7), rng.randint(1, 9))
        else:
            head, r = rational() or Fraction(-3, 4), Fraction(rng.randint(-4, 4))
        f = PuiseuxSeries(lam, [head] + tail, weight)
        assert _same_series(f.pow_rational(r), _reference_pow_rational(f, r)), (f.coeffs, r)
        seen.add((head != 1, (r > 0) - (r < 0), r.denominator == 1))
    assert {(True, s, True) for s in (-1, 0, 1)} <= seen
    assert {(False, s, False) for s in (-1, 1)} <= seen
    for r in (Fraction(1, 5), Fraction(-3, 7), Fraction(2), Fraction(-1), Fraction(0)):
        assert _same_series(eta_power(r, 200), _reference_pow_rational(eta(200), r)), r
    # the fixed denominator (q f_0)^(N-1) gcd((N-1)!, q^(N-1)) at 300 terms,
    # negative p over prime and composite q
    e = eta(300)
    for r in (Fraction(-1, 5), Fraction(-4, 5), Fraction(-1, 6), Fraction(-5, 6), Fraction(-2, 7),
              Fraction(-6, 7), Fraction(-1, 12), Fraction(-7, 12)):
        assert _same_series(e.pow_rational(r), _reference_pow_rational(e, r)), r


def _reference_add(f, g):
    """The earlier __add__: each coefficient looked up by its Fraction exponent."""
    def window_coeff(s, e):
        return Fraction(0) if e < s.lam else s.coeffs[int(e - s.lam)]

    lam = min(f.lam, g.lam)
    n = int(min(f.end_exponent, g.end_exponent) - lam)
    coeffs = [window_coeff(f, lam + i) + window_coeff(g, lam + i) for i in range(n)]
    return PuiseuxSeries(lam, coeffs, f.weight if f.weight == g.weight else None)


def _reference_mul(f, g):
    """The earlier __mul__: a Cauchy product in Fraction arithmetic."""
    n = min(len(f.coeffs), len(g.coeffs))
    coeffs = [Fraction(0)] * n
    for i, a in enumerate(f.coeffs[:n]):
        if a == 0:
            continue
        for j in range(n - i):
            b = g.coeffs[j]
            if b != 0:
                coeffs[i + j] += a * b
    weight = None if f.weight is None or g.weight is None else f.weight + g.weight
    return PuiseuxSeries(f.lam + g.lam, coeffs, weight)


def _reference_euler_product(terms, one=Fraction(1)):
    """The earlier quadratic loop: multiply in (1 - q^n) for n = 1 .. terms-1."""
    coeffs = [one - one] * terms
    coeffs[0] = one
    for n in range(1, terms):
        for i in range(terms - 1, n - 1, -1):
            coeffs[i] -= coeffs[i - n]
    return coeffs


def _check_sum_and_products(f, g):
    for x, y in ((f, g), (g, f)):
        assert _same_series(x * y, _reference_mul(x, y)), (x.coeffs, y.coeffs)
    if (f.lam - g.lam).denominator == 1:
        for x, y in ((f, g), (g, f), (f, -g)):
            assert _same_series(x + y, _reference_add(x, y)), (x.lam, y.lam)
        assert _same_series(f - g, _reference_add(f, -g))


_sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                              st.fractions(max_denominator=40, min_value=-50, max_value=50))


@given(st.fractions(max_denominator=12, min_value=-2, max_value=2),
       st.integers(min_value=-4, max_value=4),
       st.lists(_sparse_rationals, min_size=1, max_size=14),
       st.lists(_sparse_rationals, min_size=1, max_size=14),
       st.sampled_from([None, Fraction(2), Fraction(1, 2)]))
@settings(max_examples=100, deadline=None)
def test_sum_and_product_kernels_match_the_fraction_loops(base, shift, a, b, weight):
    # one lattice, different leading exponents, unequal truncations
    f = PuiseuxSeries(base, a, weight)
    g = PuiseuxSeries(base + shift, b, Fraction(2))
    _check_sum_and_products(f, g)


def test_series_kernels_match_the_fraction_loops_on_seeded_edge_cases():
    rng = random.Random(7311)

    def coeff():
        roll = rng.random()
        if roll < 0.3:
            return Fraction(0)
        if roll < 0.4:
            return Fraction(rng.choice((1, -1)))
        return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 30))

    for _ in range(60):
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 24))
        n, m = rng.randint(1, 40), rng.randint(1, 40)
        a = [coeff() for _ in range(n)]
        b = [coeff() for _ in range(m)]
        start = rng.randrange(n)
        stop = rng.randint(start, n)
        a[start:stop] = [Fraction(0)] * (stop - start)   # a run of zeros
        _check_sum_and_products(PuiseuxSeries(lam, a), PuiseuxSeries(lam + rng.randint(-6, 6), b))
    f = PuiseuxSeries(Fraction(1, 3), [coeff() for _ in range(25)], Fraction(4))
    for c in (0, 1, -1):
        for terms in (1, 10, 25, 30):
            const = PuiseuxSeries(0, [c] + [0] * (terms - 1))
            _check_sum_and_products(f, const)
            _check_sum_and_products(f, shifted(const, Fraction(1, 3) + 2))
        assert _same_series(f * c, _reference_mul(f, PuiseuxSeries(0, [c] + [0] * 24, 0)))
    zeros = PuiseuxSeries(Fraction(1, 3), [0] * 25)
    _check_sum_and_products(zeros, zeros)
    assert is_zero(f * zeros) and (zeros * f).terms == 25


def test_series_kernels_match_the_fraction_loops_on_deep_frobenius_solutions():
    # c = 7/10, h_u = 3/5: order 3, denominators of several hundred bits at 300 terms
    ode = to_ode(derive_recursion(Fraction(7, 10), Fraction(3, 5)))
    roots = [lam for lam, _ in ode.indicial_roots()[0]]
    assert roots == [Fraction(1, 120), Fraction(17, 240), Fraction(137, 240)]
    sols = [frobenius_solve(ode, lam, 300) for lam in roots]
    sols = [PuiseuxSeries(sol.exponent, sol.coeffs, Fraction(3, 5)) for sol in sols]
    assert max(c.denominator.bit_length() for c in sols[0].coeffs) > 500
    f, g = sols[0], truncate(shifted(sols[1], sols[0].lam - sols[1].lam + 3), 250)
    assert _same_series(f * sols[2], _reference_mul(f, sols[2]))
    assert _same_series(f * g, _reference_mul(f, g))
    assert _same_series(g * f, _reference_mul(g, f))
    assert _same_series(f + g, _reference_add(f, g))
    assert _same_series(f - g, _reference_add(f, -g))
    assert _same_series(sols[2] * eta(300), _reference_mul(sols[2], eta(300)))


def test_products_do_not_depend_on_operand_order():
    # the kernel loops over the factor with more zero numerators, so each pair
    # below runs the other loop in one of its two orders
    def check(f, g):
        want = _reference_mul(f, g)
        assert _same_series(f * g, want) and _same_series(g * f, want), (f, g)

    e2 = eisenstein(2, 300)
    one = PuiseuxSeries(0, [1] + [0] * 299, 0)
    check(one, e2)
    check(e2, one)
    ode = to_ode(derive_recursion(Fraction(7, 10), Fraction(3, 5)))
    sol = frobenius_solve(ode, Fraction(1, 120), 300)
    sol = PuiseuxSeries(sol.exponent, sol.coeffs, Fraction(3, 5))
    monomial = PuiseuxSeries(Fraction(-1, 120), [0, 0, Fraction(-3, 7)] + [0] * 297, 1)
    check(monomial, sol)
    check(truncate(sol, 120), monomial)
    zeros = PuiseuxSeries(Fraction(1, 3), [0] * 40, 2)
    check(zeros, zeros)
    check(zeros, e2)
    check(truncate(zeros, 7), sol)
    check(truncate(e2, 17), truncate(sol, 250))


def test_series_coefficients_are_stored_as_fractions_whatever_the_input():
    for coeffs in ([1, 2], [True, False], [1, Fraction(1, 2), True], [Fraction(2), Fraction(1, 3)]):
        s = PuiseuxSeries(0, coeffs)
        assert all(type(c) is Fraction for c in s.coeffs), coeffs
        assert s.coeffs == tuple(Fraction(c) for c in coeffs)
    with pytest.raises(ValueError):
        PuiseuxSeries(0, [])


def test_pentagonal_euler_product_matches_the_quadratic_loop():
    for terms in range(1, 40):
        assert _euler_product(terms) == _reference_euler_product(terms)
    assert _euler_product(300) == _reference_euler_product(300)
    want = _reference_euler_product(2000, one=1)
    got = _euler_product(2000)
    assert got == want and all(type(c) is Fraction for c in got)
    assert sum(c != 0 for c in got) == 73


# ---------------------------------------------------------------------------
# number-theoretic building blocks
# ---------------------------------------------------------------------------

def test_bernoulli_numbers_match_the_classical_table():
    table = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
             10: Fraction(5, 66), 12: Fraction(-691, 2730)}
    for n, want in table.items():
        assert bernoulli(n) == want
    for n in (3, 5, 7, 9, 11):
        assert bernoulli(n) == 0


def test_divisor_sums_match_direct_enumeration():
    for k in (1, 3, 5):
        for n in range(1, 30):
            want = sum(d ** k for d in range(1, n + 1) if n % d == 0)
            assert sigma(k, n) == want


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------

def test_eisenstein_constant_terms():
    assert eisenstein(2, 3).coefficient(0) == Fraction(-1, 12)
    assert eisenstein(4, 3).coefficient(0) == Fraction(1, 720)
    assert eisenstein(6, 3).coefficient(0) == Fraction(-1, 30240)


def test_eisenstein_is_built_once_per_weight_and_length():
    eisenstein.cache_clear()
    e4 = eisenstein(4, 20)
    assert eisenstein(4, 20) is e4
    assert eisenstein(4, 21) is not e4 and truncate(eisenstein(4, 21), 20) == e4
    assert eisenstein.cache_info().currsize == 2
    # the cache is typed, so a weight that only compares equal is still rejected
    eisenstein(2, 3)
    for k in (2.0, Fraction(2), True):
        with pytest.raises(ValueError, match="even integer >= 2"):
            eisenstein(k, 3)


def _classical_eisenstein(k: int, terms: int) -> PuiseuxSeries:
    """E_k scaled to constant term 1, so E_4 = 1 + 240q + ..."""
    base = eisenstein(k, terms)
    return base * (1 / base.coeffs[0])


def test_classical_eisenstein_low_order_coefficients():
    e2 = _classical_eisenstein(2, 5)
    assert [e2.coefficient(n) for n in range(5)] == [1, -24, -72, -96, -168]
    e4 = _classical_eisenstein(4, 4)
    assert [e4.coefficient(n) for n in range(4)] == [1, 240, 2160, 6720]
    e6 = _classical_eisenstein(6, 3)
    assert [e6.coefficient(n) for n in range(3)] == [1, -504, -16632]


def test_two_eisenstein_normalizations_differ_by_a_bernoulli_factor():
    # the classical E_k = 1 - (2k / B_k) sum sigma_{k-1}(n) q^n, times -B_k / k!
    for k in (2, 4, 6, 8, 10):
        scale = -bernoulli(k) / math.factorial(k)
        classical = [1] + [-2 * k / bernoulli(k) * sigma(k - 1, n) for n in range(1, 12)]
        assert eisenstein(k, 12) == PuiseuxSeries(0, classical) * scale


def test_ramanujan_derivative_identities():
    n = 14
    e2, e4, e6 = eisenstein(2, n), eisenstein(4, n), eisenstein(6, n)
    assert theta(e2) == e4 * 5 - e2 * e2
    assert theta(e4) == e6 * 14 - (e2 * e4) * 4
    assert theta(e6) == e4 * e4 * Fraction(60, 7) - (e2 * e6) * 6


def test_higher_eisenstein_series_are_polynomials_in_e4_and_e6():
    n = 12
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    assert eisenstein(8, n) == e4 * e4 * Fraction(3, 7)
    assert eisenstein(10, n) == e4 * e6 * Fraction(5, 11)
    assert eisenstein(12, n) == e6 * e6 * Fraction(25, 143) + e4 * e4 * e4 * Fraction(18, 143)


def test_serre_derivative_sends_e4_and_e6_to_modular_forms():
    n = 12
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    assert serre_derivative(e4, 4) == eisenstein(6, n) * 14
    assert serre_derivative(e6, 6) == e4 * e4 * Fraction(60, 7)


# ---------------------------------------------------------------------------
# eta and its rational powers
# ---------------------------------------------------------------------------

def test_eta_expansion_follows_the_pentagonal_pattern():
    f = eta(60)
    signs = {}
    for k in range(-6, 7):
        signs[k * (3 * k - 1) // 2] = (-1) ** k
    for n in range(60):
        want = Fraction(signs.get(n, 0))
        got = f.coefficient(Fraction(1, 24) + n)
        assert got == want, f"eta coefficient at offset {n}"


def test_inverse_eta_counts_partitions():
    p = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
    f = eta_power(-1, len(p))
    assert f.lam == Fraction(-1, 24)
    assert list(f.coeffs) == [Fraction(x) for x in p]


def test_eta_powers_multiply_like_exponents():
    n = 12
    fifth = eta_power(Fraction(1, 5), n)
    rest = eta_power(Fraction(4, 5), n)
    assert fifth * rest == eta(n)
    assert fifth.lam == Fraction(1, 120)
    assert rest.lam == Fraction(1, 30)


def test_eta_power_agrees_with_pow_rational_of_eta():
    n = 10
    assert eta_power(Fraction(2, 7), n) == eta(n).pow_rational(Fraction(2, 7))


def test_eta_at_the_square_lattice_point_hits_gamma_quarter():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    got, err = eta(12).eval_numeric(1j)
    want = math.gamma(0.25) / (2 * math.pi ** 0.75)
    assert abs(got - want) < 1e-12
    assert err < 1e-12
    assert abs(got.imag) < 1e-15


def test_classical_e6_vanishes_at_the_square_lattice_point():
    got, _ = _classical_eisenstein(6, 40).eval_numeric(1j)
    assert abs(got) < 1e-10


# ---------------------------------------------------------------------------
# cache files
# ---------------------------------------------------------------------------

def test_series_cache_round_trip(tmp_path):
    f = eta_power(Fraction(3, 11), 9)
    path = tmp_path / "probe.series"
    write_series(path, f)
    g = read_series(path)
    assert g == f
    assert g.weight == f.weight
    assert g.lam == f.lam


def test_cache_round_trips_numbers_past_the_int_digit_cap(tmp_path):
    # Python converts at most 4300 digits between int and str by default;
    # both functions lift that cap for themselves and restore it
    big = Fraction(10**5000 + 1, 3**9001)
    f = PuiseuxSeries(Fraction(-1, 24), [Fraction(1), big, -big])
    path = tmp_path / "probe.series"
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        write_series(path, f)
        assert sys.get_int_max_str_digits() == 4300
        assert read_series(path) == f
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(cap)
    assert max(map(len, path.read_text().split("/"))) > 5000


@pytest.mark.parametrize("old, new, message", [
    ("lambda=0/1", "lambda=1/0", "bad header"),
    ("terms=3", "terms=x", "bad header"),
    ("\n2/1\n", "\n1/0\n", "bad coefficient '1/0'"),
    ("\n2/1\n", "\ntwo\n", "bad coefficient 'two'"),
], ids=["zero-denominator-header", "non-integer-terms-header", "zero-denominator-body",
        "non-rational-body"])
def test_cache_rejects_unreadable_rationals_naming_the_file(tmp_path, old, new, message):
    path = tmp_path / "probe.series"
    write_series(path, q_poly(1, 2, 3))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValueError, match=f"probe.series: {message}"):
        read_series(path)


def test_cache_header_without_coefficients_names_the_file(tmp_path):
    # a series keeps at least one coefficient, so terms < 1 is a bad header
    path = tmp_path / "probe.series"
    for terms in (0, -2):
        path.write_text(f"lambda=0/1 terms={terms} weight=none\n")
        with pytest.raises(ValueError, match="probe.series: bad header"):
            read_series(path)


def test_cache_header_token_without_equals_names_the_file(tmp_path):
    path = tmp_path / "probe.series"
    write_series(path, q_poly(1, 2, 3))
    body = path.read_text().replace("terms=", "terms", 1)
    path.write_text(body)
    with pytest.raises(ValueError, match="probe.series: bad header"):
        read_series(path)
