"""Coefficient tables relating round-bracket and square-bracket modes.

For a vector of conformal weight w the square-bracket modes expand in round
ones through the exponential change of coordinates, with

    v[m] = sum_{i>=0} a_i v(m+i),   a_i = [z^(m+i)] (log(1+z))^m (1+z)^(w-1).

The table is unitriangular (a_0 = 1), the m = 0 row of the plain binomial
expansion (1+z)^(w-1) gives the binomial coefficients C(w-1, i), and m may be
any integer: negative rows use the inverse powers of log(1+z)/z, still with
rational entries. The Virasoro shift is L[n] = omega~[n+1], so the L[0] row
is bracket_coeffs(2, 1) = (1, 1/2, -1/6, 1/12, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import virasoro
from .qseries import PuiseuxSeries
from .virasoro import VermaVector, _sum_scaled


@lru_cache(maxsize=None)
def _log1p_over_z(n: int) -> tuple[Fraction, ...]:
    """Coefficients of log(1+z)/z = 1 - z/2 + z^2/3 - ..."""
    return tuple(Fraction((-1) ** k, k + 1) for k in range(n))


@lru_cache(maxsize=None)
def _binom_row(w_minus_1: int, n: int) -> tuple[Fraction, ...]:
    """Coefficients of (1+z)^(w-1), valid for any integer exponent."""
    out = [Fraction(1)]
    for i in range(1, n):
        out.append(out[-1] * Fraction(w_minus_1 - i + 1, i))
    return tuple(out)


@dataclass(frozen=True)
class BracketCoeffTable:
    """One row of the mode change of variables: v[m] = sum a_i v(m+i)."""

    weight: int
    m: int
    coeffs: tuple[Fraction, ...]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __len__(self) -> int:
        return len(self.coeffs)


@lru_cache(maxsize=None)
def bracket_coeffs(w: int, m: int, depth: int = 12) -> BracketCoeffTable:
    """Row a_i = [z^(m+i)] (log(1+z))^m (1+z)^(w-1) for i = 0..depth-1.

    Factoring (log(1+z))^m = z^m (log(1+z)/z)^m shifts the extraction to
    [z^i] of a unit series, which is what makes a_0 = 1 and negative m legal.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    unit_pow = PuiseuxSeries(0, _log1p_over_z(depth)).pow_rational(m)
    return BracketCoeffTable(w, m, (unit_pow * PuiseuxSeries(0, _binom_row(w - 1, depth))).coeffs)


@lru_cache(maxsize=None)
def inverse_bracket_coeffs(w: int, n: int, depth: int = 12) -> BracketCoeffTable:
    """Row b_i of the inverse change: v(n) = sum_{i>=0} b_i v[n+i].

    Solved by unitriangular back-substitution against the forward rows, so
    composing the two tables gives the identity to any depth.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    rows = [bracket_coeffs(w, n + j, depth).coeffs for j in range(depth)]
    b = [Fraction(1)]
    for t in range(1, depth):
        acc = Fraction(0)
        for j in range(t):
            acc += b[j] * rows[j][t - j]
        b.append(-acc)
    return BracketCoeffTable(w, n, tuple(b))


def square_mode_action(v: VermaVector, m: int, u: VermaVector) -> VermaVector:
    """v[m]u expanded in round modes, v[m] = sum_i a_i v(m+i).

    v must live in the vacuum vertex algebra; each homogeneous piece of
    weight w uses the (w, m) coefficient row. The sum is finite because
    v(j)u vanishes once j exceeds level(u) + w - 1.
    """
    if not v.vacuum:
        raise ValueError("square modes need a vacuum vertex algebra vector")
    lev_u = max(u.level_components(), default=0)
    terms = []
    for w, piece in v.level_components().items():
        top = lev_u + w - 1 - m
        if top >= 0:
            row = bracket_coeffs(w, m, top + 1)
            terms += [(a, virasoro.mode_action(piece, m + i, u))
                      for i, a in enumerate(row.coeffs) if a != 0]
    return _sum_scaled(u, terms)


def square_virasoro_action(n: int, u: VermaVector) -> VermaVector:
    """L[n]u for the square-bracket Virasoro modes, expanded in round modes.

    L[n] is the (n+1) mode of the shifted conformal vector omega - c/24, so
    L[n] = sum_i a_i L(n+i) with the (2, n+1) coefficient row, plus -c/24
    times the identity when n = -2.
    """
    lev_u = max(u.level_components(), default=0)
    top = lev_u - n
    terms = []
    if top >= 0:
        row = bracket_coeffs(2, n + 1, top + 1)
        terms = [(a, virasoro.l_action(n + i, u)) for i, a in enumerate(row.coeffs) if a != 0]
    if n == -2:
        terms.append((-u.c / 24, u))
    return _sum_scaled(u, terms)
