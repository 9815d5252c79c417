"""Coefficient tables relating round-bracket and square-bracket modes.

For a vector of conformal weight w the square-bracket modes expand in round
ones through the exponential change of coordinates, with

    v[m] = sum_{i>=0} a_i v(m+i),   a_i = [z^(m+i)] (log(1+z))^m (1+z)^(w-1).

The table is unitriangular (a_0 = 1), the m = 0 row of the plain binomial
expansion (1+z)^(w-1) gives the binomial coefficients C(w-1, i), and m may be
any integer: negative rows use the inverse powers of log(1+z)/z, still with
rational entries. The Virasoro shift is L[n] = omega~[n+1], so the L[0] row
is bracket_coeffs(2, 1) = (1, 1/2, -1/6, 1/12, ...).

_gbinom, the generalized binomial C(m, i) as an int for m of any sign,
builds the (1+z)^(w-1) factor of every row (elliptic checks it on math.comb).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .qseries import PuiseuxSeries


@lru_cache(maxsize=None)
def _log1p_over_z(n: int) -> tuple[Fraction, ...]:
    """Coefficients of log(1+z)/z = 1 - z/2 + z^2/3 - ..."""
    return tuple(Fraction((-1) ** k, k + 1) for k in range(n))


@lru_cache(maxsize=None)
def _gbinom(m: int, i: int) -> int:
    """Generalized binomial C(m, i) for integer m of any sign."""
    num = 1
    for t in range(i):
        num *= m - t
    return num // factorial(i)


@lru_cache(maxsize=None)
def bracket_coeffs(w: int, m: int, depth: int = 12) -> tuple[Fraction, ...]:
    """Row a_i = [z^(m+i)] (log(1+z))^m (1+z)^(w-1) for i = 0..depth-1.

    Factoring (log(1+z))^m = z^m (log(1+z)/z)^m shifts the extraction to
    [z^i] of a unit series, which is what makes a_0 = 1 and negative m legal.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    unit_pow = PuiseuxSeries(0, _log1p_over_z(depth)).pow_rational(m)
    binom = PuiseuxSeries(0, [_gbinom(w - 1, i) for i in range(depth)])
    return (unit_pow * binom).coeffs


def inverse_bracket_coeffs(w: int, n: int, depth: int = 12) -> tuple[Fraction, ...]:
    """Row b_i of the inverse change: v(n) = sum_{i>=0} b_i v[n+i].

    Solved by unitriangular back-substitution against the forward rows, so
    composing the two tables gives the identity to any depth.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    rows = [bracket_coeffs(w, n + j, depth) for j in range(depth)]
    b = [Fraction(1)]
    for t in range(1, depth):
        acc = Fraction(0)
        for j in range(t):
            acc += b[j] * rows[j][t - j]
        b.append(-acc)
    return tuple(b)

