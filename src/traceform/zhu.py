"""Zhu algebra of the universal Virasoro vertex algebra.

A(V) = V / O(V), where O(V) is spanned by the elements

    o(a, u) = sum_{i=0}^{w} C(w, i) a(i-2) u

for homogeneous a of weight w. For the vacuum Virasoro algebra A(V) is the
polynomial ring Q[x] with x the class of the conformal vector. Membership
of L(-3-n)b + 2L(-2-n)b + L(-1-n)b in O(V) for every n >= 0 (the
weight-shifted residue elements built from the conformal vector) collapses
any PBW monomial class to the closed form

    [L(-M) b] = (-1)^M ((M-1) x + wt b) [b],    M >= 1,

which class_polynomial implements. In particular [L(-1)b] = -wt(b) [b] and
[L(-2)b] = (x + wt b)[b]. The test suite checks these reductions against
Zhu's products and a direct truncated span of O(V) rather than assume them.

zhu_poly(m) reads the level of the first vacuum singular vector of the
(p, q) = (m+2, m+3) minimal model off the Kac determinant, (p-1)(q-1), and
solves for that vector at that one level. Its class reduces to a monic
polynomial g whose roots recover the Kac weight table.

The polynomial work runs over integers. class_polynomial clears the
vector's denominators once and divides by that one denominator at the end,
and linalg.rational_roots tests each candidate p/q as an integer and
divides it out over Z. Only results leave as Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import virasoro
from .linalg import _CommonDenominator, _poly_trim, rational_roots
# l_action is read through this module by the benchmark's tracing test
from .virasoro import VermaVector, l_action, minimal_model  # noqa: F401


# ---------------------------------------------------------------------------
# classes in A(V) as polynomials in x = [omega]
# ---------------------------------------------------------------------------

def _descend(poly: list[int], mu: tuple[int, ...], wt: int) -> list[int]:
    """[L(-mu) b] from [b] = poly and wt b, one reduction factor per part.

    Parts act from the right, so the factor of each part sees wt b plus the
    parts to its right.
    """
    for m_part in reversed(mu):
        sign = -1 if m_part % 2 else 1
        const, slope = sign * wt, sign * (m_part - 1)
        out = [const * co for co in poly] + [0]
        for i, co in enumerate(poly):
            out[i + 1] += slope * co
        poly = out
        wt += m_part
    return poly


def class_polynomial(vec: VermaVector) -> list[Fraction]:
    """[vec] in A(V) = Q[x], coefficients ascending in x.

    Applies [L(-M) b] = (-1)^M ((M-1)x + wt b)[b] factor by factor to each
    PBW monomial of vec, over the integer numerators of vec's coefficients
    cleared to one denominator, which divides out at the end.
    """
    if not vec.module.vacuum:
        raise ValueError("class_polynomial needs a vector of the vacuum vertex algebra")
    cleared = _CommonDenominator(vec.entries.values())
    acc = [0]
    for mu, num in zip(vec.entries, cleared.nums):
        poly = _descend([num], mu, 0)
        acc.extend([0] * (len(poly) - len(acc)))
        for i, a in enumerate(poly):
            acc[i] += a
    return [Fraction(a, cleared.den) for a in _poly_trim(acc)]


# ---------------------------------------------------------------------------
# the Zhu polynomial of a minimal model
# ---------------------------------------------------------------------------

def _monic(poly: list[Fraction]) -> tuple[Fraction, ...]:
    """poly divided by its leading coefficient; poly must be nonzero."""
    poly = _poly_trim(list(poly))
    return tuple(co / poly[-1] for co in poly)


class ZhuPoly(NamedTuple):
    """Monic image g = coeffs of the first vacuum singular vector alpha in A(V) = Q[x]."""

    m: int
    c: Fraction
    singular_level: int
    coeffs: tuple[Fraction, ...]                 # ascending, monic
    roots: tuple[tuple[Fraction, int], ...]
    complete: bool                               # True if the polynomial split over Q

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def stabilized(self) -> bool:
        """Whether the span of the descendant classes has g as its least element: always.

        Each class [L(-mu) alpha] is [alpha] times one linear factor per part
        of mu (_descend), so every element of the span is a multiple of
        [alpha], and mu = () puts [alpha] itself in the span. Its monic
        element of least degree is therefore g at every truncation. The
        property stays for its readers, the zhu report and the benchmark's
        spectrum check.
        """
        return True

    def root_set(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.roots)


def _singular_level(m: int) -> int:
    """(p-1)(q-1) for (p, q) = (m+2, m+3): the first vacuum null level."""
    return (m + 1) * (m + 2)


def _find_vacuum_singular(m: int) -> VermaVector:
    """The singular vector of L(c,0)-to-be at the level the Kac table predicts.

    For the (p, q) minimal model the vacuum Verma module, with L(-1)1 already
    divided out, first degenerates at level (p-1)(q-1) (the Kac determinant;
    Feigin-Fuchs), so one kernel solve there replaces a level-by-level scan.
    The solve must find exactly one vector, and singular_vectors checks that
    L(1) and L(2) annihilate it.
    """
    level = _singular_level(m)
    found = virasoro.singular_vectors(minimal_model(m).c, 0, level, vacuum=True)
    if len(found) != 1:
        raise AssertionError(f"expected one singular vector at level {level}, found {len(found)}")
    return found[0]


def zhu_poly(m: int) -> ZhuPoly:
    """Zhu polynomial of the (m+2, m+3) minimal model central charge.

    Finds the singular vector at the predicted singular level and reduces
    its class to a monic polynomial g. The sorted distinct roots reproduce
    the Kac weight table.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    alpha_class = class_polynomial(_find_vacuum_singular(m))
    if not any(alpha_class):
        raise AssertionError("the singular vector has zero class in A(V)")
    g = _monic(alpha_class)
    roots, rest = rational_roots(g)
    return ZhuPoly(m, minimal_model(m).c, _singular_level(m), g, tuple(roots), rest == 0)
