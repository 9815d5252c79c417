"""Elliptic-type bivariate windows against their analytic definitions.

P_k(x, q) is the two-sided sum of n^(k-1)/(k-1)! x^n/(1-q^n) over nonzero
n, and wp_k is the pole 1/z^k plus an Eisenstein tail. The exact identity
suites are asserted wholesale; on top of that, the windows are evaluated
numerically at concrete (x, q) points and compared against the convergent
double sums, which does not share any code with the series constructors.
"""

import math
from fractions import Fraction

import pytest

from traceform import elliptic
from traceform.bracket import BracketCoeffTable, bracket_coeffs
from traceform.elliptic import (
    BivariateLaurent,
    p_series,
    p_series_at_exp,
    p_zcoeff,
    verify_expansion_identity,
    verify_p_wp_relations,
    verify_residue_identities,
    verify_wp_structure,
    wp_expansion,
)
from traceform.qseries import PuiseuxSeries, eisenstein


def assert_all_pass(reports):
    for rep in reports:
        assert rep.passed, f"{rep.identity} {rep.params}: first mismatch {rep.mismatches[:1]}"


def eval_window(window, x, q):
    """Evaluate a window numerically: sum over z-powers of x^e times the q-series."""
    total = 0.0
    for e in range(window.z_min, window.z_max + 1):
        s = window.entry(e)
        qval = sum(float(c) * q ** i for i, c in enumerate(s.coeffs))
        total += x ** e * qval
    return total


# ---------------------------------------------------------------------------
# window container behaviour
# ---------------------------------------------------------------------------

def test_window_constructor_rejects_entries_outside_the_window():
    series = PuiseuxSeries(0, [Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        BivariateLaurent({3: series}, -1, 2, 2)
    with pytest.raises(ValueError):
        BivariateLaurent({0: PuiseuxSeries(Fraction(1, 2), [1, 2])}, -1, 2, 2)


def test_window_addition_intersects_windows_and_truncations():
    a = BivariateLaurent({0: PuiseuxSeries(0, [1, 2, 3])}, -2, 3, 3)
    b = BivariateLaurent({0: PuiseuxSeries(0, [5, 5])}, -1, 5, 2)
    total = a + b
    assert (total.z_min, total.z_max, total.qterms) == (-1, 3, 2)
    assert total.entry(0).coeffs == (Fraction(6), Fraction(7))


def test_window_derivative_shifts_and_scales():
    f = BivariateLaurent({-2: PuiseuxSeries(0, [1]), 3: PuiseuxSeries(0, [7])}, -2, 3, 1)
    df = f.d_dz()
    assert df.entry(-3).coefficient(0) == -2
    assert df.entry(2).coefficient(0) == 21
    zdz = f.z_d_dz()
    assert zdz.entry(-2).coefficient(0) == -2
    assert zdz.entry(3).coefficient(0) == 21


def test_entry_outside_the_window_raises():
    f = BivariateLaurent({}, -1, 1, 2)
    with pytest.raises(ValueError):
        f.entry(2)


# ---------------------------------------------------------------------------
# the P_k window against its defining double sum
# ---------------------------------------------------------------------------

def test_p_series_matches_the_analytic_double_sum():
    # same z-window on both sides; the summands are written from the
    # analytic definition, not from the generating-function code
    x, q = 0.2, 0.01
    for k in (1, 2, 3):
        window = eval_window(p_series(k, 40, -8, 8), x, q)
        direct = 0.0
        for n in range(1, 9):
            direct += n ** (k - 1) * x ** n / (1 - q ** n) / math.factorial(k - 1)
            direct += ((-n) ** (k - 1) * x ** (-n) / math.factorial(k - 1)
                       * (-(q ** n) / (1 - q ** n)))
        assert abs(window - direct) < 1e-12, f"P_{k}({x}, {q})"


def test_p_zcoeff_has_the_geometric_q_structure():
    # scalar n^(k-1)/(k-1)! = 3, support at multiples of 3 including q^0
    s = p_zcoeff(2, 3, 10)
    assert [s.coefficient(i) for i in range(10)] == [3, 0, 0, 3, 0, 0, 3, 0, 0, 3]
    t = p_zcoeff(2, -3, 10)
    assert [t.coefficient(i) for i in range(10)] == [0, 0, 0, 3, 0, 0, 3, 0, 0, 3]
    with pytest.raises(ValueError):
        p_zcoeff(2, 0, 4)


def test_exponential_substitution_window_against_numeric_values():
    z0 = 0.1
    for k in (1, 2, 3):
        window = p_series_at_exp(k, 6, 8)
        # q^0 tail: the resummed (d/dz)^(k-1) of e^z/(1-e^z), scaled
        got0 = sum(float(window.entry(e).coefficient(0)) * z0 ** e
                   for e in range(-k, 9))
        f = [math.exp(z0) / (1 - math.exp(z0)),
             math.exp(z0) / (1 - math.exp(z0)) ** 2,
             math.exp(z0) * (1 + math.exp(z0)) / (1 - math.exp(z0)) ** 3]
        want0 = f[k - 1] / math.factorial(k - 1)
        assert abs(got0 - want0) < 1e-9, f"q^0 tail of P_{k}(e^z, q)"
        # q^4 slice: finite divisor sum of e^(d z) terms, Taylor-truncated
        # to the same z-window as the artifact
        got4 = sum(float(window.entry(e).coefficient(4)) * z0 ** e
                   for e in range(-k, 9))
        taylor = lambda y: sum(y ** j / math.factorial(j) for j in range(9))
        want4 = sum(d ** (k - 1) * (taylor(d * z0) + (-1) ** k * taylor(-d * z0))
                    for d in (1, 2, 4)) / math.factorial(k - 1)
        assert abs(got4 - want4) < 1e-12, f"q^4 slice of P_{k}(e^z, q)"


# ---------------------------------------------------------------------------
# the Weierstrass-type windows
# ---------------------------------------------------------------------------

def test_wp_has_a_unit_pole_and_an_eisenstein_tail():
    for k in (1, 2, 3, 4):
        wp = wp_expansion(k, 8, 8)
        pole = wp.entry(-k)
        assert pole.coefficient(0) == 1
        assert all(c == 0 for c in pole.coeffs[1:])
    wp2 = wp_expansion(2, 8, 8)
    assert wp2.entry(2) == eisenstein(4, 8) * 3
    assert wp2.entry(4) == eisenstein(6, 8) * 5
    assert wp2.entry(0).is_zero()
    wp1 = wp_expansion(1, 8, 8)
    assert wp1.entry(3) == -eisenstein(4, 8)
    assert wp1.entry(5) == -eisenstein(6, 8)
    assert wp1.entry(1).is_zero()


def test_wp_windows_only_carry_one_parity():
    for k in (1, 2, 3, 4, 5):
        for e in wp_expansion(k, 6, 8).entries:
            assert (e - k) % 2 == 0


# ---------------------------------------------------------------------------
# the exact identity suites
# ---------------------------------------------------------------------------

def test_substitution_identities_hold_exactly():
    assert_all_pass(verify_p_wp_relations(k_max=5, terms=9, z_max=8))


def test_structural_identities_hold_exactly():
    assert_all_pass(verify_wp_structure(k_max=5, terms=9, z_max=8))


def test_residue_identities_hold_for_all_small_weights():
    for w in range(1, 7):
        assert_all_pass(verify_residue_identities(w, terms=6))


def test_binomial_mode_expansion_holds_for_all_small_weights():
    for w in range(1, 6):
        rep = verify_expansion_identity(w, terms=6, i_max=8, n_max=6)
        assert rep.passed, f"w={w}: {rep.mismatches[:1]}"


def test_bracket_rows_are_prefixes_of_deeper_rows():
    # verify_expansion_identity reads every b_{i-m} from one row per m
    for w in range(1, 7):
        for m in range(-2, 9):
            for d in range(1, 13):
                deep = bracket_coeffs(w, m, d).coeffs
                for k in range(1, d + 1):
                    assert deep[:k] == bracket_coeffs(w, m, k).coeffs, (w, m, k, d)


def test_binomial_mode_expansion_catches_a_perturbed_bracket_row(monkeypatch):
    def perturbed(w, m, depth=12):
        row = bracket_coeffs(w, m, depth)
        if m != 2 or depth < 2:
            return row
        return BracketCoeffTable(row.weight, row.m, (row[0], row[1] + 1) + row.coeffs[2:])

    monkeypatch.setattr(elliptic, "bracket_coeffs", perturbed)
    for w in range(1, 6):
        rep = verify_expansion_identity(w, terms=6, i_max=8, n_max=6)
        assert not rep.passed and rep.checked == 648
        # b_1 of the m = 2 row enters the z^3 expansion only
        assert {label.split()[0] for label, _, _ in rep.mismatches} == {"i=3"}, w


def test_residue_identities_catch_a_perturbed_shifted_row(monkeypatch):
    # residue-p3 expects E_3 = 0, which an empty sum would also give, so a
    # perturbed term of the shifted P_3 row must show up as a mismatch
    real = elliptic.p_shift_zcoeff
    for w, n, q_power in [(w, 6, 1) for w in range(1, 7)] + [(6, 1, 3)]:
        def perturbed(k, m, terms, n=n, q_power=q_power):
            s = real(k, m, terms)
            if (k, m) != (3, n):
                return s
            coeffs = list(s.coeffs)
            coeffs[q_power] += 1
            return PuiseuxSeries(s.lam, coeffs)

        monkeypatch.setattr(elliptic, "p_shift_zcoeff", perturbed)
        unit, p2, p3 = verify_residue_identities(w, terms=6, ms=(2, 3))
        assert unit.passed and p2.passed
        assert not p3.passed and [label for label, _, _ in p3.mismatches] == [f" q^{q_power}"], (w, n)


def test_identity_suites_reject_nonpositive_weight():
    with pytest.raises(ValueError):
        verify_residue_identities(0)
    with pytest.raises(ValueError):
        verify_expansion_identity(0)
