"""Elliptic-type bivariate windows against their analytic definitions.

P_k(x, q) is the two-sided sum of n^(k-1)/(k-1)! x^n/(1-q^n) over nonzero
n, and wp_k is the pole 1/z^k plus an Eisenstein tail. The exact identity
suites are asserted wholesale; on top of that, the windows are evaluated
numerically at concrete (x, q) points and compared against the convergent
double sums, which does not share any code with the series constructors.

A window is a dict from z-power to its tuple of q-coefficients. The residue
sums and the mode-expansion right-hand sides run over int, on rows that
elliptic._p_row builds once, and the divisor sums of p_series_at_exp are
qseries.sigma. The earlier loops over Fraction are kept below as
references, and the integer rows are perturbed through _p_row to show the
suites see them.
"""

import math
import sys
from fractions import Fraction

import pytest

from traceform import bracket, elliptic
from traceform.bracket import bracket_coeffs
from traceform.elliptic import (
    p_series,
    p_series_at_exp,
    verify_expansion_identity,
    verify_p_wp_relations,
    verify_residue_identities,
    verify_wp_structure,
    wp_expansion,
)
from traceform.qseries import PuiseuxSeries, bernoulli, eisenstein


def assert_all_pass(reports):
    for rep in reports:
        assert rep.passed, f"{rep.identity} {rep.params}: first mismatch {rep.mismatches[:1]}"


def eval_window(window, x, q):
    """Evaluate a window numerically: sum over z-powers of x^e times the q-series."""
    return sum(x ** e * sum(float(c) * q ** i for i, c in enumerate(row)) for e, row in window.items())


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
    # the z^n row of P_2(z, q): scalar n^(k-1)/(k-1)! = 3, support at
    # multiples of 3 including q^0; the z^0 row is zero
    window = p_series(2, 10)
    assert list(window[3]) == [3, 0, 0, 3, 0, 0, 3, 0, 0, 3]
    assert list(window[-3]) == [0, 0, 0, 3, 0, 0, 3, 0, 0, 3]
    assert window[0] == (0,) * 10 and sorted(window) == list(range(-8, 9))
    with pytest.raises(ValueError):
        elliptic._p_row(2, 0, 4, False)


def test_exponential_substitution_window_against_numeric_values():
    z0 = 0.1
    for k in (1, 2, 3):
        window = p_series_at_exp(k, 6, 8)
        # q^0 tail: the resummed (d/dz)^(k-1) of e^z/(1-e^z), scaled
        got0 = sum(float(window[e][0]) * z0 ** e for e in range(-k, 9))
        f = [math.exp(z0) / (1 - math.exp(z0)),
             math.exp(z0) / (1 - math.exp(z0)) ** 2,
             math.exp(z0) * (1 + math.exp(z0)) / (1 - math.exp(z0)) ** 3]
        want0 = f[k - 1] / math.factorial(k - 1)
        assert abs(got0 - want0) < 1e-9, f"q^0 tail of P_{k}(e^z, q)"
        # q^4 slice: finite divisor sum of e^(d z) terms, Taylor-truncated
        # to the same z-window as the artifact
        got4 = sum(float(window[e][4]) * z0 ** e for e in range(-k, 9))
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
        assert sorted(wp) == list(range(-k, 9))
        pole = wp[-k]
        assert pole[0] == 1
        assert all(c == 0 for c in pole[1:])
    wp2 = wp_expansion(2, 8, 8)
    assert wp2[2] == (eisenstein(4, 8) * 3).coeffs
    assert wp2[4] == (eisenstein(6, 8) * 5).coeffs
    assert not any(wp2[0])
    wp1 = wp_expansion(1, 8, 8)
    assert wp1[3] == (-eisenstein(4, 8)).coeffs
    assert wp1[5] == (-eisenstein(6, 8)).coeffs
    assert not any(wp1[1])


def test_wp_windows_only_carry_one_parity():
    for k in (1, 2, 3, 4, 5):
        for e, row in wp_expansion(k, 6, 8).items():
            assert (e - k) % 2 == 0 or not any(row)


# ---------------------------------------------------------------------------
# the exact identity suites
# ---------------------------------------------------------------------------

def test_window_mismatches_cover_the_common_window_in_order():
    # the lowest z-power counts too; powers and q-terms only one side holds do not
    one, two = Fraction(1), Fraction(2)
    got = {-2: (one, one), -1: (one, one), 0: (one, two, two)}
    want = {-2: (two, one), -1: (one, one), 0: (one, one), 1: (two, two)}
    assert elliptic._window_mismatches(got, want) == [("z^-2 q^0", "1", "2"), ("z^0 q^1", "2", "1")]


def test_each_wp_window_is_built_once_per_suite_call(monkeypatch):
    calls = []
    real = elliptic.wp_expansion

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(elliptic, "wp_expansion", counted)
    verify_p_wp_relations(k_max=5, terms=9, z_max=8)
    assert calls == [(k, 9, 8) for k in range(1, 6)]
    calls.clear()
    # wp_1 .. wp_5, each one power wider than z_max, serve the parity check
    # and both sides of the recursion
    verify_wp_structure(k_max=5, terms=9, z_max=8)
    assert calls == [(k, 9, 9) for k in range(1, 6)]


def test_substitution_identities_hold_exactly():
    assert_all_pass(verify_p_wp_relations(k_max=5, terms=9, z_max=8))


def test_structural_identities_hold_exactly():
    reports = verify_wp_structure(k_max=5, terms=9, z_max=8)
    assert_all_pass(reports)
    # the parity check counts the nonzero rows of wp_1 .. wp_5 only
    assert (reports[0].identity, reports[0].checked) == ("wp-parity", 25)


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
                deep = bracket_coeffs(w, m, d)
                for k in range(1, d + 1):
                    assert deep[:k] == bracket_coeffs(w, m, k), (w, m, k, d)


def test_binomial_mode_expansion_catches_a_perturbed_bracket_row(monkeypatch):
    def perturbed(w, m, depth=12):
        row = bracket_coeffs(w, m, depth)
        if m != 2 or depth < 2:
            return row
        return (row[0], row[1] + 1) + row[2:]

    monkeypatch.setattr(elliptic, "bracket_coeffs", perturbed)
    for w in range(1, 6):
        rep = verify_expansion_identity(w, terms=6, i_max=8, n_max=6)
        assert not rep.passed and rep.checked == 648
        # b_1 of the m = 2 row enters the z^3 expansion only
        assert {label.split()[0] for label, _, _ in rep.mismatches} == {"i=3"}, w


def test_binomial_mode_expansion_catches_a_negated_binomial(monkeypatch):
    # the scale C(w-1+n, i) comes from math.comb, so a wrong generalized
    # binomial moves the bracket rows and not the left-hand side; it is
    # negated wherever the package binds it, as an edit of its body would be
    real = bracket._gbinom
    for module in [m for name, m in sys.modules.items() if name.startswith("traceform.")]:
        if getattr(module, "_gbinom", None) is real:
            monkeypatch.setattr(module, "_gbinom", lambda m, i: -real(m, i))
    bracket_coeffs.cache_clear()
    try:
        for w in range(1, 6):
            assert not verify_expansion_identity(w, terms=6, i_max=8, n_max=6).passed, w
    finally:
        monkeypatch.undo()
        bracket_coeffs.cache_clear()


_P_ROW = elliptic._p_row


def _perturb_row(monkeypatch, k, n, shifted, q_power):
    """Add 1 to the numerator of q^q_power in the (k, n) row of P_k(z, q) or P_k(zq, q)."""
    def perturbed(kk, nn, terms, sh):
        row = _P_ROW(kk, nn, terms, sh)
        if (kk, nn, sh) != (k, n, shifted):
            return row
        return row[:q_power] + (row[q_power] + 1,) + row[q_power + 1:]

    monkeypatch.setattr(elliptic, "_p_row", perturbed)


def test_residue_identities_catch_a_perturbed_shifted_row(monkeypatch):
    # residue-p3 expects E_3 = 0, which an empty sum would also give, so a
    # perturbed term of the shifted P_3 row must show up as a mismatch
    for w, n, q_power in [(w, 6, 1) for w in range(1, 7)] + [(6, 1, 3)]:
        _perturb_row(monkeypatch, 3, n, True, q_power)
        unit, _, p2, p3, _, _ = verify_residue_identities(w, terms=6)
        assert unit.passed and p2.passed
        assert not p3.passed and [label for label, _, _ in p3.mismatches] == [f"z^0 q^{q_power}"], (w, n)


def test_identities_catch_a_perturbed_unshifted_row(monkeypatch):
    # z^-6 of P_3 enters the residue sum only through the i = -1 pole, with
    # c_{-1} = 1, and the mode expansion from z^2 on, with b_0 = 1
    for w, q_power in [(w, 1) for w in range(1, 6)] + [(5, 0), (2, 4)]:
        _perturb_row(monkeypatch, 3, -6, False, q_power)
        unit, _, p2, p3, _, _ = verify_residue_identities(w, terms=6)
        assert unit.passed and p2.passed
        assert [label for label, _, _ in p3.mismatches] == [f"z^0 q^{q_power}"], (w, q_power)
        rep = verify_expansion_identity(w, terms=6, i_max=8, n_max=6)
        assert not rep.passed and rep.checked == 648
        labels = {tuple(label.split()) for label, _, _ in rep.mismatches}
        assert {(n, q) for _, n, q in labels} == {("n=-6", f"q^{q_power}")}, (w, q_power)
        assert ("i=2", "n=-6", f"q^{q_power}") in labels


def test_substitution_identities_catch_a_perturbed_divisor_sum(monkeypatch):
    # z^2 q^3 of P_2(e^z, q) is the divisor sum 2 sigma_3(3) / 2!
    real = elliptic.p_series_at_exp

    def perturbed(k, terms, z_max=8):
        window = real(k, terms, z_max)
        if k == 2:
            row = window[2]
            window[2] = row[:3] + (row[3] + 1,) + row[4:]
        return window

    assert real(2, 9)[2][3] == 28
    monkeypatch.setattr(elliptic, "p_series_at_exp", perturbed)
    reports = verify_p_wp_relations(k_max=5, terms=9, z_max=8)
    assert [rep.params["k"] for rep in reports if not rep.passed] == [2]
    assert reports[1].mismatches == (("z^2 q^3", "29", "28"),)


@pytest.mark.parametrize("call", [
    lambda: verify_residue_identities(1, terms=0),
    lambda: verify_expansion_identity(1, terms=0),
    lambda: verify_expansion_identity(1, i_max=-1),
    lambda: verify_expansion_identity(1, n_max=0),
    lambda: verify_p_wp_relations(k_max=0),
    lambda: verify_p_wp_relations(terms=0),
    lambda: verify_wp_structure(k_max=0),
    lambda: verify_wp_structure(terms=0),
])
def test_identity_suites_reject_sizes_that_check_nothing(call):
    with pytest.raises(ValueError, match="must be at least"):
        call()


def test_smallest_sizes_still_check_something():
    assert verify_expansion_identity(1, terms=1, i_max=0, n_max=1).checked == 2
    (rep,) = verify_p_wp_relations(k_max=1, terms=1)
    assert rep.passed and rep.checked == 10
    (parity,) = verify_wp_structure(k_max=1, terms=1)
    assert parity.passed and parity.checked > 0
    assert all(rep.checked == 1 for rep in verify_residue_identities(1, terms=1))


# ---------------------------------------------------------------------------
# the integer loops against the earlier Fraction loops
# ---------------------------------------------------------------------------

def _reference_zcoeff(k, n, terms, shifted):
    """z^n of P_k(z, q), or of P_k(zq, q) if shifted, as a Fraction list."""
    scalar = Fraction(n ** (k - 1), math.factorial(k - 1))
    out = [Fraction(0)] * terms
    if n > 0:
        for i in range(n if shifted else 0, terms, n):
            out[i] = scalar
    else:
        for i in range(0 if shifted else -n, terms, -n):
            out[i] = -scalar
    return out


def _reference_residue_term(i, w, func, shifted_side, terms):
    if i >= 0:
        pairs = [(i - j - w + 1, Fraction(math.comb(i, j) * (-1) ** j)) for j in range(i + 1)]
    elif not shifted_side:
        pairs = [(-j - w, 1) for j in range(terms + w + 1)]
    else:
        pairs = [(j - w + 1, -1) for j in range(terms + w + 1)]
    total = [Fraction(0)] * terms
    for n, beta in pairs:
        val = func(n)
        if val is not None:
            for k, co in enumerate(val):
                if co:
                    total[k] += co * beta
    return total


def _reference_residue_identity_value(w, m, terms):
    """The earlier i-sum of c_i (A_i - B_i), in Fraction arithmetic throughout."""
    one = [Fraction(1)] + [Fraction(0)] * (terms - 1)
    if m is None:
        afunc = bfunc = lambda n: one if n == 0 else None
        i_top = 2
    else:
        afunc = lambda n: _reference_zcoeff(m, n, terms, False) if n else None
        minus = [-co for co in one] if m == 1 else None
        bfunc = lambda n: _reference_zcoeff(m, n, terms, True) if n else minus
        i_top = m + 2
    c = list(bracket_coeffs(w, -1, i_top + 2))
    total = [Fraction(0)] * terms
    for i in range(-1, i_top + 1):
        a = _reference_residue_term(i, w, afunc, False, terms)
        b = _reference_residue_term(i, w, bfunc, True, terms)
        for k in range(terms):
            total[k] += (a[k] - b[k]) * c[i + 1]
    return PuiseuxSeries(0, total)


def _reference_expansion_identity(w, terms, i_max, n_max):
    """(checked, mismatches) of the earlier Fraction loop of verify_expansion_identity."""
    bad, checked = [], 0
    rows = [elliptic.bracket_coeffs(w, m, i_max - m + 1) for m in range(i_max + 1)]
    for i in range(i_max + 1):
        for n in list(range(-n_max, 0)) + list(range(1, n_max + 1)):
            scale = Fraction(math.prod(w - 1 + n - t for t in range(i)), math.factorial(i))
            lhs = [co * scale for co in _reference_zcoeff(1, n, terms, False)]
            rhs = [Fraction(0)] * terms
            for m in range(i + 1):
                for k, co in enumerate(_reference_zcoeff(m + 1, n, terms, False)):
                    rhs[k] += co * rows[m][i - m]
            checked += terms
            bad += [(f"i={i} n={n} q^{k}", str(a), str(b))
                    for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b]
    return checked, tuple(bad)


def _reference_p_series_at_exp(k, terms, z_max):
    """The earlier window: q^0 from Bernoulli numbers, q^l by Fraction divisor sums."""
    g = {-1: Fraction(-1), 0: Fraction(-1, 2)}
    for r in range(1, z_max + k):
        g[r] = -bernoulli(r + 1) / math.factorial(r + 1)
    for _ in range(k - 1):
        g = {e - 1: co * e for e, co in g.items() if e != 0 and co != 0}
    rows = {e: [g.get(e, Fraction(0)) / math.factorial(k - 1)] + [Fraction(0)] * (terms - 1)
            for e in range(-k, z_max + 1)}
    for l in range(1, terms):
        for d in range(1, l + 1):
            if l % d == 0:
                dk = Fraction(d ** (k - 1), math.factorial(k - 1))
                flip = -1 if (k - 1) % 2 == 0 else 1
                for j in range(z_max + 1):
                    term = dk * Fraction(d ** j, math.factorial(j))
                    rows[j][l] += term + flip * term * (-1) ** j
    return {e: tuple(co) for e, co in rows.items()}


def test_integer_residue_sums_match_the_fraction_loop():
    for m in (None, 1, 2, 3, 4, 5, 6):
        for w in range(1, 9):
            for terms in range(1, 11):
                got = elliptic._residue_identity_value(w, m, terms)
                assert got == _reference_residue_identity_value(w, m, terms).coeffs, (w, m, terms)


def test_integer_mode_expansion_matches_the_fraction_loop(monkeypatch):
    sizes = [(6, 8, 6), (1, 0, 1), (9, 3, 8), (4, 10, 2)]
    for w in range(1, 7):
        for terms, i_max, n_max in sizes:
            rep = verify_expansion_identity(w, terms, i_max, n_max)
            assert rep.passed
            assert (rep.checked, rep.mismatches) == _reference_expansion_identity(w, terms, i_max, n_max)

    # mismatch rows are reported with the same labels and values
    def perturbed(w, m, depth=12):
        row = bracket_coeffs(w, m, depth)
        return row if depth < 2 else (row[0], row[1] + Fraction(1, 3)) + row[2:]

    monkeypatch.setattr(elliptic, "bracket_coeffs", perturbed)
    for w in range(1, 4):
        rep = verify_expansion_identity(w, terms=6, i_max=8, n_max=6)
        assert rep.mismatches and (rep.checked, rep.mismatches) == _reference_expansion_identity(w, 6, 8, 6)


def test_integer_divisor_sums_match_the_fraction_loop():
    for k in range(1, 7):
        for terms, z_max in ((1, 0), (9, 8), (13, 5)):
            assert p_series_at_exp(k, terms, z_max) == _reference_p_series_at_exp(k, terms, z_max), (k, terms)


def test_integer_rows_are_built_once_per_argument():
    elliptic._p_row.cache_clear()
    for w in range(1, 6):
        verify_expansion_identity(w, terms=6, i_max=8, n_max=6)
    info = elliptic._p_row.cache_info()
    # rows of P_1 .. P_9 at 12 values of n, the nine windows shared by all w
    assert (info.currsize, info.misses) == (9 * 12, 9 * 12)
    assert p_series(3, 5, -2, -2) == {-2: tuple(Fraction(c, 2) for c in (0, 0, -4, 0, -4))}
    # the shifted row over (k-1)! = 2: P_3(zq, q) at z^-2 starts at q^0
    assert elliptic._p_row(3, -2, 5, True) == (-4, 0, -4, 0, -4)


def test_identity_suites_reject_nonpositive_weight():
    with pytest.raises(ValueError):
        verify_residue_identities(0)
    with pytest.raises(ValueError):
        verify_expansion_identity(0)
