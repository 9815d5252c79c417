"""Change-of-coordinates rows and the square-bracket Virasoro action.

The rows are re-derived here from scratch: a_i is the z^(m+i) coefficient
of (log(1+z))^m (1+z)^(w-1), computed with plain series arithmetic on the
unit factor log(1+z)/z. The strongest check is at the bottom: the expanded
square-bracket modes must satisfy the exact Virasoro commutation relations
on concrete module elements, central term included.
"""

from fractions import Fraction

import pytest

from reference_routes import square_mode_action, square_virasoro_action
from traceform.bracket import bracket_coeffs, inverse_bracket_coeffs
from traceform.qseries import PuiseuxSeries
from traceform.virasoro import verma_monomial


def oracle_row(w, m, depth):
    """[z^(m+i)] (log(1+z))^m (1+z)^(w-1) for i = 0..depth-1, from scratch."""
    pad = depth + abs(m) + w + 4
    unit = [Fraction((-1) ** n, n + 1) for n in range(pad)]   # log(1+z)/z
    total = PuiseuxSeries(0, unit).pow_rational(m)
    onez = PuiseuxSeries(0, [Fraction(1), Fraction(1)] + [Fraction(0)] * (pad - 2))
    for _ in range(w - 1):
        total = total * onez
    return tuple(total.coefficient(i) for i in range(depth))


def test_rows_match_the_generating_function_definition():
    for w in (1, 2, 3, 5):
        for m in (-3, -2, -1, 0, 1, 2, 4):
            got = bracket_coeffs(w, m, 8)
            assert got == oracle_row(w, m, 8), f"row (w={w}, m={m})"


def _reference_mul_trunc(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return out


def _reference_unit_pow(u, r, n):
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n):
        out[m] = sum((((r + 1) * k - m) * u[k] * out[m - k] for k in range(1, m + 1)), Fraction(0)) / m
    return out


def test_rows_match_the_plain_list_route():
    """The rows built from PuiseuxSeries equal the earlier list-based helpers'."""
    depth = 12
    unit = [Fraction((-1) ** k, k + 1) for k in range(depth)]
    for w in range(7):
        binom = [Fraction(1)]
        for i in range(1, depth):
            binom.append(binom[-1] * Fraction(w - i, i))
        for m in range(-6, 7):
            want = _reference_mul_trunc(_reference_unit_pow(unit, Fraction(m), depth), binom, depth)
            assert bracket_coeffs(w, m, depth) == tuple(want), f"row (w={w}, m={m})"


def test_zeroth_row_is_binomial():
    from math import comb
    for w in range(1, 8):
        row = bracket_coeffs(w, 0, 12)
        for i in range(12):
            assert row[i] == (comb(w - 1, i) if i <= w - 1 else 0)


def test_frozen_low_rows():
    assert bracket_coeffs(2, -1, 4) == (
        Fraction(1), Fraction(3, 2), Fraction(5, 12), Fraction(-1, 24))
    assert bracket_coeffs(1, -1, 4) == (
        Fraction(1), Fraction(1, 2), Fraction(-1, 12), Fraction(1, 24))
    assert bracket_coeffs(2, 1, 4) == (
        Fraction(1), Fraction(1, 2), Fraction(-1, 6), Fraction(1, 12))


def test_inverse_rows_compose_to_the_identity():
    depth = 9
    for w in (1, 2, 4):
        for n in (-2, -1, 0, 2):
            inv = inverse_bracket_coeffs(w, n, depth)
            fwd = [bracket_coeffs(w, n + j, depth) for j in range(depth)]
            for t in range(depth):
                acc = sum(inv[j] * fwd[j][t - j] for j in range(t + 1))
                assert acc == (1 if t == 0 else 0), f"(w={w}, n={n}) slot {t}"


def test_rows_need_a_positive_depth():
    with pytest.raises(ValueError):
        bracket_coeffs(2, 0, 0)
    with pytest.raises(ValueError):
        inverse_bracket_coeffs(2, 0, 0)


# ---------------------------------------------------------------------------
# expanded square-bracket modes
# ---------------------------------------------------------------------------

C, H = Fraction(1, 2), Fraction(1, 16)


def test_square_l_minus_two_on_a_highest_weight_vector():
    u = verma_monomial(C, H, ())
    got = square_virasoro_action(-2, u)
    want = (verma_monomial(C, H, (2,)) + verma_monomial(C, H, (1,)) * Fraction(3, 2)
            + u * (H * Fraction(5, 12) - C / 24))
    assert got == want


def test_square_l_zero_fixes_the_highest_weight_vector():
    u = verma_monomial(C, H, ())
    assert square_virasoro_action(0, u) == u * H
    for n in (1, 2, 3):
        assert square_virasoro_action(n, u).is_zero()


def test_square_modes_satisfy_the_virasoro_relations():
    samples = [
        verma_monomial(C, H, ()),
        verma_monomial(C, H, (1,)),
        verma_monomial(C, H, (2, 1)) + verma_monomial(C, H, (1, 1, 1)) * 3,
    ]
    for v in samples:
        for m in range(-3, 3):
            for n in range(m, 3):
                lhs = (square_virasoro_action(m, square_virasoro_action(n, v))
                       - square_virasoro_action(n, square_virasoro_action(m, v)))
                rhs = square_virasoro_action(m + n, v) * (m - n)
                if m + n == 0:
                    rhs = rhs + v * (C * Fraction(m ** 3 - m, 12))
                assert lhs == rhs, f"[L[{m}], L[{n}]] on {v!r}"


def test_square_modes_come_from_the_conformal_vector():
    omega = verma_monomial(C, Fraction(0), (2,), vacuum=True)
    u = verma_monomial(C, H, (1, 1))
    for n in (-2, -1, 0, 1, 2):
        expanded = square_mode_action(omega, n + 1, u)
        if n == -2:
            expanded = expanded - u * (C / 24)
        assert expanded == square_virasoro_action(n, u)


def test_square_mode_action_requires_a_vacuum_left_factor():
    u = verma_monomial(C, H, ())
    with pytest.raises(ValueError):
        square_mode_action(u, 0, u)
