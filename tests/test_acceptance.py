"""Acceptance gate: one test and one pass/fail line per shipped criterion.

Every criterion states its own tolerance (exact unless a float bound is
given) and a wall-clock budget. Run with -v to get the per-criterion lines
from pytest itself; each test also prints its own PASS line with the
measured time when it completes inside the budget.
"""

import cmath
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from traceform import mde
from traceform.bracket import bracket_coeffs, inverse_bracket_coeffs
from traceform.elliptic import (
    verify_expansion_identity,
    verify_p_wp_relations,
    verify_residue_identities,
    verify_wp_structure,
)
from traceform.mde import (
    TRACE_CASES,
    case_transform_report,
    e2_inversion_residual,
    eta_power_check,
    leading_exponent,
    sl2_branch_check,
    trace_case_solution,
)
from traceform.qseries import eta_power
from traceform.virasoro import (
    c20_quotient_dim,
    graded_dims,
    gram_matrix,
    l_action,
    minimal_model,
    singular_vectors,
)
from traceform.zhu import zhu_poly


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name}: {elapsed:.2f}s exceeded the {seconds}s budget"
    print(f"PASS {name} ({elapsed:.2f}s / budget {seconds}s)")


def test_criterion_01_trace_series_are_eta_powers_exactly():
    with budget("criterion 1: four trace series match eta powers to 30 coefficients", 60):
        for case in TRACE_CASES:
            rep = eta_power_check(case, terms=30)
            assert rep.match, f"m={case.m}: first mismatch at coefficient {rep.first_mismatch}"
            assert rep.terms == 30


def test_criterion_02_leading_exponents_with_the_flagged_quote():
    with budget("criterion 2: leading exponents, one external quote flagged", 1):
        for case in TRACE_CASES:
            assert leading_exponent(case) == case.h_w - case.c / 24
        agrees = [leading_exponent(case) == case.quoted_exponent for case in TRACE_CASES]
        assert agrees == [True, True, True, False]
        assert leading_exponent(TRACE_CASES[3]) == Fraction(1, 84)
        assert TRACE_CASES[3].quoted_exponent == Fraction(1, 81)


def test_criterion_03_weierstrass_windows_are_exact_through_z8_q8():
    with budget("criterion 3: parity and substitution identities, k <= 5, z^8 q^8", 30):
        for rep in verify_wp_structure(k_max=5, terms=9, z_max=8):
            assert rep.passed, f"{rep.identity} {rep.params}: {rep.mismatches[:1]}"
        for rep in verify_p_wp_relations(k_max=5, terms=9, z_max=8):
            assert rep.passed, f"k={rep.params['k']}: {rep.mismatches[:1]}"


def test_criterion_04_residue_and_expansion_identities():
    with budget("criterion 4: residue identities to q^6, expansion to |x| <= 6", 60):
        for w in range(1, 7):
            for rep in verify_residue_identities(w, terms=7):
                assert rep.passed, f"{rep.identity} at w={w}: {rep.mismatches[:1]}"
        for w in range(1, 6):
            rep = verify_expansion_identity(w, terms=7, i_max=8, n_max=6)
            assert rep.passed, f"expansion at w={w}: {rep.mismatches[:1]}"


def test_criterion_05_bracket_rows_and_round_trip():
    with budget("criterion 5: binomial row, conformal row, depth-8 round trip", 1):
        for w in range(1, 7):
            row = bracket_coeffs(w, 0, 10)
            assert row == tuple(
                Fraction(comb(w - 1, i)) if i <= w - 1 else Fraction(0) for i in range(10))
        assert bracket_coeffs(2, 1, 4) == (
            Fraction(1), Fraction(1, 2), Fraction(-1, 6), Fraction(1, 12))
        for w in (1, 2, 3, 5):
            for n in (-2, -1, 0, 1, 3):
                inv = inverse_bracket_coeffs(w, n, 8)
                fwd = [bracket_coeffs(w, n + j, 8) for j in range(8)]
                for t in range(8):
                    acc = sum(inv[j] * fwd[j][t - j] for j in range(t + 1))
                    assert acc == (1 if t == 0 else 0), f"(w={w}, n={n}) slot {t}"


def character_dims(p, q, r, s, n_max):
    """Independent graded dimensions from the alternating character sum."""
    part = [1] + [0] * n_max
    for piece in range(1, n_max + 1):
        for n in range(piece, n_max + 1):
            part[n] += part[n - piece]
    dims = [0] * (n_max + 1)
    k = 0
    while True:
        hit = False
        for kk in {k, -k}:
            for sign, off in ((1, p * q * kk * kk + kk * (q * r - p * s)),
                              (-1, p * q * kk * kk + kk * (q * r + p * s) + r * s)):
                if off <= n_max:
                    hit = True
                    for n in range(max(off, 0), n_max + 1):
                        dims[n] += sign * part[n - off]
        if not hit and k > 0:
            return dims
        k += 1


def test_criterion_06_module_structure():
    with budget("criterion 6: Gram formula, level-2 null vectors, vacuum dims", 30):
        for case in TRACE_CASES:
            c, h = case.c, case.h_u
            g = gram_matrix(c, h, 2)
            assert g.entries == ((4 * h + c / 2, 6 * h), (6 * h, 4 * h * (2 * h + 1)))
            found = singular_vectors(c, h, 2)
            assert len(found) == 1, f"(c, h) = ({c}, {h})"
            assert l_action(1, found[0]).is_zero()
            assert l_action(2, found[0]).is_zero()
        got = graded_dims(Fraction(1, 2), Fraction(0), 8, vacuum=True)
        assert got == character_dims(3, 4, 1, 1, 8)


def test_criterion_07_zhu_spectra_match_the_kac_tables():
    with budget("criterion 7: Zhu polynomial roots for the first three models", 120):
        for m, degree in ((1, 3), (2, 6), (3, 10)):
            zp = zhu_poly(m)
            assert zp.degree == degree
            assert zp.complete, f"m={m} left an unfactored piece"
            assert zp.stabilized, f"m={m} truncation did not stabilize"
            assert sorted(zp.root_set()) == list(minimal_model(m).distinct_weights()), f"m={m}"


def test_criterion_08_zero_mode_quotients_stabilize_under_the_spanning_bound():
    with budget("criterion 8: quotient stabilization for the four modules", 60):
        for case in TRACE_CASES:
            dims = c20_quotient_dim(case.c, case.h_u, 8)
            # the vacuum null vector is a depth-(m+1)(m+2)/2 string of
            # L(-2) modes plus deeper terms, which caps the quotient
            bound = (case.m + 1) * (case.m + 2) // 2
            assert dims[-1] == dims[-2], f"m={case.m} did not stabilize: {dims}"
            assert dims[-1] <= bound, f"m={case.m}: {dims[-1]} > bound {bound}"
        control = c20_quotient_dim(Fraction(1, 2), Fraction(1, 3), 8)
        assert control[-1] > control[-2], f"generic control stabilized: {control}"


def test_criterion_09_transform_ratio_is_constant_within_1e6():
    with budget("criterion 9: modular transform constancy at 80 terms", 10):
        for case in TRACE_CASES:
            rep = case_transform_report(case, terms=80)
            assert rep.taus == mde.TAU_SAMPLES
            assert rep.max_modulus_error < 1e-6, f"m={case.m}: {rep.max_modulus_error}"
            assert rep.max_spread < 1e-6, f"m={case.m}: {rep.max_spread}"
            lam = leading_exponent(case)
            assert trace_case_solution(case, terms=5).exponent == lam
            assert rep.t_eigenvalue == cmath.exp(2j * cmath.pi * float(lam))


def test_criterion_10_quasimodular_inversion_and_branch_identities():
    with budget("criterion 10: E2 inversion and branch factors within 1e-6", 5):
        for tau in mde.TAU_SAMPLES:
            assert e2_inversion_residual(tau, terms=80) < 1e-6
        for case in TRACE_CASES:
            assert sl2_branch_check(case.h_u, taus=mde.TAU_SAMPLES) < 1e-6
