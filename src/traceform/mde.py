"""Modular differential equations satisfied by graded trace functions.

For a highest weight vector u of weight h in a module over the minimal model
vertex algebra, the trace function S(x) of any descendant x of u obeys two
families of vanishing relations, with v running over the vacuum algebra and
E_{2k} the Eisenstein series normalized as -B_{2k}/(2k)! + 2/(2k-1)! sum
sigma_{2k-1}(n) q^n:

    S(v[0] x) = 0
    S(v[-2] x) + sum_{k>=2} (2k-1) E_{2k} S(v[2k-2] x) = 0

together with the derivative rule for square-bracket Virasoro strings,

    S(L[-2] x) = (theta + wt[x] E_2) S(x) + sum_{k>=2} E_{2k} S(L[2k-2] x).

On a string, L[2k-2] L[-2]^i u = mu_k(i) L[-2]^(i-k+1) u with mu_2(i) =
i (4h + c/2) + 4 i (i-1) and mu_k(i) = 2k sum_{r<i} mu_{k-1}(r), from the
commutators [L(2), L(-2)] = 4 L(0) + c/2 and [L(2k-2), L(-2)] = 2k L(2k-4).

All three are computed in the round picture, through Zhu's isomorphism of
(V, Y[ ], omega - c/24) with (V, Y, omega) (JAMS 1996, Thm 4.2.1): the map
Phi: L(-mu) u -> L[-mu] u is an isomorphism of Verma modules with
Phi(v(n) x) = sigma(v)[n] Phi(x), sigma being Phi on the vacuum module. Phi
keeps the level filtration and the maximal submodule, so the strings
L(-2)^i u and the relations v(0) x and v(-2) x + sum (2k-1) E_{2k} v(2k-2) x,
homogeneous of weight h + level + 4 a4 + 6 a6, give the same recursion under
every bound. Write R0(a, y) = a(0) y and R2(a, y) for the E-tail of a(-2) y.
Translation covariance, (L(-1)a)(n) = [L(-1), a(n)], gives

    R0(L(-1)a, y) = R0(omega, a(0) y) - R0(a, L(-1) y)
    R2(L(-1)a, y) = R0(omega, a(-2) y) + sum_j (2j-1) E_{2j} R0(omega, a(2j-2) y) - R2(a, L(-1) y),

each term of the relation's weight, the E_{2j} terms E4, E6 shifts of L(-1)
relations. L(-k-1)1 = L(-1) L(-k)1 / (k-1), so by induction on k the
relations of every strong generator L(-k)1 lie in the span of omega's,
L(-1) x and L(-3) x + sum_{j>=2} (2j-1) E_{2j} L(2j-3) x (omega(n) =
L(n-1)), built with l_action. That these span the relations of every vacuum
vector is measured, not proven. At c = 0, omega = 0 in L(c,0): no relations.
build_relation_space spans the relations below a bound, and
derive_recursion looks for the least m with

    [L[-2]^m u] + sum_{i<m} r_i [L[-2]^i u] = 0

modulo that span, the r_i holomorphic modular of weight 2(m-i). The span
grows one weight level at a time from h + 2, up to a weight bound (default
h + 8) that also caps the order (derive_recursion). Relations, and the
vectors reduced against them, are plain {(level, index, a4, a6):
Fraction} dicts as graded_vector returns them, held in RelationSpace, a
RowSpan. to_ode then turns the recursion into a monic order-m equation in
iterated Serre derivatives with modular coefficients. The ModularODE
constructor expands that equation once into theta_form, in powers of
theta = q d/dq with coefficients in Q[E2, E4, E6]. Its q-expansions, made
once per form and number of terms, are the theta columns: the indicial
polynomial is their q^0 row, and frobenius_solve reads them to produce
exact solutions. The numeric helpers evaluate truncated series on the
upper half plane to check modular transformation behaviour of the solutions.

derive_recursion is memoised on its normalised arguments and to_ode on the
recursion, so the eta and modular checks of one trace case share one
derivation, one equation and one theta form. The Frobenius recurrence runs
on integer numerators over a running common denominator, one dot product
per theta column and step, and keeps no list of numerators besides the
inputs of those dot products; its coefficients come out as Fraction like
everything else.
The q-expansion of a theta form clears each Eisenstein series once, builds
each monomial in them once for all the polynomials of the form, and
multiplies over the integers.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd
from operator import add, mul
from typing import Iterable, NamedTuple

from . import virasoro
from .linalg import RowSpan, _CommonDenominator, _RationalLike, _frac, rational_roots
from .qseries import PuiseuxSeries, _convolve, eisenstein, eta_power
from .virasoro import VermaVector, verma_monomial


# ---------------------------------------------------------------------------
# polynomials in E2, E4, E6
# ---------------------------------------------------------------------------

class QuasiModularPoly:
    """Exact polynomial in E2, E4, E6, keyed by exponent triples.

    A monomial E2^a E4^b E6^c has weight 2a + 4b + 6c. theta() applies
    q d/dq through the Ramanujan system

        theta E2 = -E2^2 + 5 E4
        theta E4 = -4 E2 E4 + 14 E6
        theta E6 = -6 E2 E6 + (60/7) E4^2

    and serre(w) = theta + w E2 sends weight-w polynomials without E2 to
    weight-(w+2) polynomials without E2, since the weight term cancels the
    quasi-modular part exactly.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[int, int, int], _RationalLike] | None = None):
        clean: dict[tuple[int, int, int], Fraction] = {}
        for key, co in (entries or {}).items():
            a2, a4, a6 = key
            if a2 < 0 or a4 < 0 or a6 < 0:
                raise ValueError(f"negative exponent in monomial {key}")
            co = _frac(co)
            if co != 0:
                clean[(a2, a4, a6)] = co
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QuasiModularPoly is immutable")

    @classmethod
    def constant(cls, x: _RationalLike) -> "QuasiModularPoly":
        return cls({(0, 0, 0): x})

    @classmethod
    def e2(cls) -> "QuasiModularPoly":
        return cls({(1, 0, 0): 1})

    @classmethod
    def e4(cls) -> "QuasiModularPoly":
        return cls({(0, 1, 0): 1})

    @classmethod
    def e6(cls) -> "QuasiModularPoly":
        return cls({(0, 0, 1): 1})

    def is_zero(self) -> bool:
        return not self.entries

    @property
    def has_e2(self) -> bool:
        return any(a2 > 0 for a2, _, _ in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiModularPoly):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __add__(self, other: "QuasiModularPoly") -> "QuasiModularPoly":
        if not isinstance(other, QuasiModularPoly):
            return NotImplemented
        out = dict(self.entries)
        for key, co in other.entries.items():
            out[key] = out.get(key, Fraction(0)) + co
        return QuasiModularPoly(out)

    def __neg__(self) -> "QuasiModularPoly":
        return QuasiModularPoly({k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "QuasiModularPoly") -> "QuasiModularPoly":
        return self + (-other)

    def __mul__(self, other) -> "QuasiModularPoly":
        if isinstance(other, QuasiModularPoly):
            out: dict[tuple[int, int, int], Fraction] = {}
            for (a, b, c), x in self.entries.items():
                for (d, e, f), y in other.entries.items():
                    key = (a + d, b + e, c + f)
                    out[key] = out.get(key, Fraction(0)) + x * y
            return QuasiModularPoly(out)
        return QuasiModularPoly({k: v * _frac(other) for k, v in self.entries.items()})

    __rmul__ = __mul__

    def theta(self) -> "QuasiModularPoly":
        out = QuasiModularPoly()
        de2 = QuasiModularPoly({(2, 0, 0): -1, (0, 1, 0): 5})
        de4 = QuasiModularPoly({(1, 1, 0): -4, (0, 0, 1): 14})
        de6 = QuasiModularPoly({(1, 0, 1): -6, (0, 2, 0): Fraction(60, 7)})
        for (a2, a4, a6), co in self.entries.items():
            if a2:
                out = out + (co * a2) * QuasiModularPoly({(a2 - 1, a4, a6): 1}) * de2
            if a4:
                out = out + (co * a4) * QuasiModularPoly({(a2, a4 - 1, a6): 1}) * de4
            if a6:
                out = out + (co * a6) * QuasiModularPoly({(a2, a4, a6 - 1): 1}) * de6
        return out

    def serre(self, weight: _RationalLike) -> "QuasiModularPoly":
        return self.theta() + _frac(weight) * QuasiModularPoly.e2() * self

    def to_series(self, terms: int) -> PuiseuxSeries:
        """q-expansion to the given number of terms, over the integers (_expand)."""
        return _expand((self,), terms)[0]

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        bits = []
        for (a2, a4, a6), co in sorted(self.entries.items()):
            names = [f"E{k}^{p}" if p > 1 else f"E{k}"
                     for k, p in ((2, a2), (4, a4), (6, a6)) if p]
            mono = "*".join(names) or "1"
            bits.append(f"({co})*{mono}" if names else f"({co})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"QuasiModularPoly({self.entries!r})"


def _expand(polys: tuple[QuasiModularPoly, ...], terms: int) -> tuple[PuiseuxSeries, ...]:
    """q-expansions of polys to the given number of terms, over the integers.

    Each E_k is cleared once to integer numerators over its denominator.
    A monomial E2^a E4^b E6^c is one integer convolution of the monomial
    with one factor of its lowest-weight series less, and is built once for
    all of polys, so the theta forms of one equation share their powers and
    products. For each poly, the scalars co / (denominator of the monomial)
    go over one common denominator, and each coefficient is one integer dot
    product over it.
    """
    built = {(0, 0, 0): ([1] + [0] * (terms - 1), 1)}   # monomial -> (nums, den)

    def monomial(key: tuple[int, int, int]) -> tuple[list[int], int]:
        if key not in built:
            i = next(i for i, p in enumerate(key) if p)
            if sum(key) == 1:
                e = _CommonDenominator(eisenstein(2 * i + 2, terms).coeffs)
                built[key] = (e.nums, e.den)
            else:
                nums, den = monomial(tuple(p - (j == i) for j, p in enumerate(key)))
                e_nums, e_den = monomial(tuple(int(j == i) for j in range(3)))
                built[key] = (_convolve(nums, e_nums), den * e_den)
        return built[key]

    out = []
    for poly in polys:
        factors = [monomial(key) for key in poly.entries]
        scalars = _CommonDenominator(co / den for co, (_, den) in zip(poly.entries.values(), factors))
        acc = [0] * terms
        for x, (nums, _) in zip(scalars.nums, factors):
            acc = list(map(add, acc, map(x.__mul__, nums)))
        out.append(PuiseuxSeries(Fraction(0), [Fraction(v, scalars.den) for v in acc]))
    return tuple(out)


@lru_cache(maxsize=None)
def eisenstein_modular_poly(two_k: int) -> QuasiModularPoly:
    """E_{2k} for 2k >= 4 written in the ring Q[E4, E6].

    From 2k = 8 on, by the classical recurrence of the Laurent coefficients
    (2k-1) E_{2k} of wp_2,

        (2k+1)(k-3)(2k-1) E_{2k}
            = 3 sum_{p=2}^{k-2} (2p-1)(2k-2p-1) E_{2p} E_{2k-2p},

    which is homogeneous of weight 2k and so holds for the normalization
    E_{2k} = G_{2k} / (2 pi i)^{2k}.
    """
    if two_k % 2 or two_k < 4:
        raise ValueError("only even weights >= 4 are polynomial in E4 and E6")
    if two_k == 4:
        return QuasiModularPoly.e4()
    if two_k == 6:
        return QuasiModularPoly.e6()
    k = two_k // 2
    total = QuasiModularPoly()
    for p in range(2, k - 1):
        total = total + (2 * p - 1) * (2 * k - 2 * p - 1) * (
            eisenstein_modular_poly(2 * p) * eisenstein_modular_poly(two_k - 2 * p))
    return total * Fraction(3, (2 * k + 1) * (k - 3) * (2 * k - 1))


# ---------------------------------------------------------------------------
# graded vectors and the relation space
# ---------------------------------------------------------------------------

GradedKey = tuple[int, int, int, int]


def graded_vector(vec: VermaVector, e4: int = 0, e6: int = 0) -> dict[GradedKey, Fraction]:
    """Project onto irreducible coordinates and attach a monomial.

    Keys are (level, index, a4, a6): index enumerates the irreducible basis
    of the module at that level, and the monomial E4^a4 E6^a6 multiplies the
    coordinate. The grading weight of a key is h + level + 4 a4 + 6 a6.
    """
    return {(lvl, idx, e4, e6): co for (lvl, idx), co in virasoro.irreducible_coordinates(vec).items()}


def _monomials_of_weight(w: int) -> list[tuple[int, int]]:
    return [(a4, a6) for a4 in range(w // 4 + 1)
            for a6 in range(w // 6 + 1) if 4 * a4 + 6 * a6 == w]


class RelationSpace(RowSpan):
    """Span of the trace-vanishing relations below a total weight bound.

    The span grows one weight level at a time: grow() adds the relations of
    v = omega on the next level, L(-1) u and the E-tail of L(-3) u (none at
    c = 0; the module docstring shows omega suffices), and the E4, E6 shifts
    of earlier generators that land exactly on it, which that argument
    needs. It is the RowSpan of those rows: its reduced row echelon form
    does not depend on the order rows arrive in, so reduce() gives the same
    canonical representative, modulo everything the bound can see, however
    the span got there. RelationSpace(c, h, bound) grows from level 0 to the
    largest level under the bound, which must be at least 2: the first trace
    string [L[-2] u] sits at level 2.
    """

    def __init__(self, c: _RationalLike, h: _RationalLike, weight_bound: _RationalLike):
        super().__init__()
        self.c, self.h = _frac(c), _frac(h)
        level_bound = int(_frac(weight_bound) - self.h)
        if level_bound < 2:
            raise ValueError("weight bound leaves no room above the highest weight vector")
        self.level_bound = 0
        self._gens: list[tuple[int, dict[GradedKey, Fraction]]] = []
        while self.level_bound < level_bound:
            self.grow()

    @property
    def weight_bound(self) -> Fraction:
        """h plus the highest level the span has reached."""
        return self.h + self.level_bound

    def grow(self) -> None:
        """Add every relation of weight exactly h + level_bound + 1."""
        level = self.level_bound + 1
        c, h = self.c, self.h
        umod = virasoro.verma_module(c, h, h == 0)
        for wg, g in self._gens:
            for a4, a6 in _monomials_of_weight(level - wg):
                self.add({(lvl, idx, b4 + a4, b6 + a6): co
                                for (lvl, idx, b4, b6), co in g.items()})
        # omega(0) u = L(-1) u one level up, the E-tail of omega(-2) u = L(-3) u three up
        gens = []
        if c != 0:
            gens = [graded_vector(virasoro.l_action(-1, umod.monomial(umu)))
                    for umu in virasoro.level_coordinates(c, h, level - 1, h == 0).basis]
            for umu in virasoro.level_coordinates(c, h, level - 3, h == 0).basis if level >= 3 else ():
                u = umod.monomial(umu)
                g = graded_vector(virasoro.l_action(-3, u))
                for j in range(2, level // 2 + 1):
                    gx = graded_vector(virasoro.l_action(2 * j - 3, u))
                    for (_, a4, a6), co in eisenstein_modular_poly(2 * j).entries.items():
                        for (lvl, idx, _, _), val in gx.items():
                            virasoro._acc(g, (lvl, idx, a4, a6), (2 * j - 1) * co * val)
                gens.append(g)
        for g in gens:
            if g:
                self._gens.append((level, g))
                self.add(g)
        self.level_bound = level


def build_relation_space(c: _RationalLike, h: _RationalLike,
                         weight_bound: _RationalLike | None = None) -> RelationSpace:
    """Relation span for modules of highest weight h; bound defaults to h+8.

    derive_recursion asks for h + 2 and grows the result itself, a level at
    a time, up to its own bound.
    """
    h = _frac(h)
    if weight_bound is None:
        weight_bound = h + 8
    return RelationSpace(c, h, weight_bound)


# ---------------------------------------------------------------------------
# the recursion in L[-2] strings and its differential equation
# ---------------------------------------------------------------------------

class TraceRecursion(NamedTuple):
    """[L[-2]^order u] + sum_i r_i [L[-2]^i u] = 0 modulo the relation span."""

    c: Fraction
    h: Fraction
    order: int
    coefficients: tuple[QuasiModularPoly, ...]   # r_i, weight 2(order - i)
    weight_bound: Fraction


def derive_recursion(c: _RationalLike, h: _RationalLike,
                     weight_bound: _RationalLike | None = None) -> TraceRecursion:
    """Least-order recursion for the trace of L[-2] strings on u.

    The relation span starts at h + 2 and grows one level at a time. As soon
    as [L[-2] u] reduces to zero the answer is order 1 with no coefficients:
    no order is lower, there is no weight-2 modular form, and a larger bound
    only enlarges the span. Otherwise the span grows to the weight bound,
    which is a cap, and every order m with h + 2m <= bound is tried there,
    lowest first: the string [L[-2]^m u] sits at weight h + 2m, so the bound
    is also the cap on the order. For each m, the modular r_i of weight
    2(m-i) are solved for that make the string combination reduce to zero.
    Raises if nothing closes, which usually means the weight bound is too
    small. The result's weight_bound is the bound the span reached.

    Derivations are memoised on the normalised arguments, so h = 1 and
    Fraction(1), or weight_bound None and h + 8, share one entry. A failed
    derivation is not memoised and raises again on the next call.
    """
    h = _frac(h)
    bound = h + 8 if weight_bound is None else _frac(weight_bound)
    return _derive_recursion(_frac(c), h, bound)


@lru_cache(maxsize=None)
def _derive_recursion(c: Fraction, h: Fraction, weight_bound: Fraction) -> TraceRecursion:
    rel = build_relation_space(c, h, min(weight_bound, h + 2))
    top = (weight_bound - h) // 2
    strings = [verma_monomial(c, h, (2,) * i, h == 0) for i in range(top + 1)]
    # grow until [L[-2] u] reduces to zero, which m = 1 below returns as the
    # order-1 recursion (no candidates, so the span stays empty), or until
    # the next level would pass the bound
    first = graded_vector(strings[1])
    while rel.weight_bound + 1 <= weight_bound and not rel.contains(first):
        rel.grow()
    for m in range(1, top + 1):
        # candidate E4^a4 E6^a6 [L[-2]^i u] carries the tag (-1, i, a4, a6),
        # below every graded key, so the tags record the row operations; the
        # string reduced against the candidates closes exactly when no graded
        # key is left, and its tags are then the r_i
        cands = RowSpan()
        for i in range(m):
            for a4, a6 in _monomials_of_weight(2 * (m - i)):
                cands.add(rel.reduce(graded_vector(strings[i], e4=a4, e6=a6)) | {(-1, i, a4, a6): 1})
        left = cands.reduce(rel.reduce(graded_vector(strings[m])))
        if any(lvl >= 0 for lvl, _, _, _ in left):
            continue
        rs: list[dict[tuple[int, int, int], Fraction]] = [{} for _ in range(m)]
        for (_, i, a4, a6), co in left.items():
            rs[i][(0, a4, a6)] = co
        return TraceRecursion(c, h, m, tuple(map(QuasiModularPoly, rs)), rel.weight_bound)
    raise ValueError(f"no recursion of order <= {top} under weight bound {weight_bound}")


def _leibniz(op: list[QuasiModularPoly], weights: Iterable[_RationalLike]) -> list[QuasiModularPoly]:
    """Leibniz rule: D sum_t a_t X^t = sum_t (a_t.serre(w_t) X^t + a_t X^(t+1)),
    X^t being theta^t in _theta_form and d^(t) in to_ode's tables."""
    zero = QuasiModularPoly()
    return [a.serre(w) + b for a, w, b in zip(op + [zero], weights, [zero] + op)]


def _theta_form(h: Fraction, serre_coeffs: tuple[QuasiModularPoly, ...]) -> tuple[QuasiModularPoly, ...]:
    """P_t with sum_j H_j d^(j) = sum_t P_t theta^t, t = 0..order; d^(j+1) = D_(h+2j) d^(j)."""
    form = [QuasiModularPoly()] * len(serre_coeffs)
    op = [QuasiModularPoly.constant(1)]          # d^(j) in powers of theta
    for j, hj in enumerate(serre_coeffs):
        if j:
            op = _leibniz(op, repeat(h + 2 * (j - 1)))
        for t, a in enumerate(op):
            form[t] = form[t] + hj * a
    return tuple(form)


class ModularODE:
    """Monic equation sum_j H_j d^(j) S = 0 in iterated Serre derivatives.

    d^(j) is the j-fold Serre derivative starting at weight h, and H_j is
    holomorphic modular of weight 2(order-j) with H_order = 1. The
    constructor, which to_ode and hand-built equations share, builds the
    theta form once (_theta_form); equality compares the other fields.
    """

    __slots__ = ("c", "h", "order", "serre_coeffs", "theta_form")

    def __init__(self, c: Fraction, h: Fraction, order: int, serre_coeffs: tuple[QuasiModularPoly, ...]):
        self.c, self.h, self.order, self.serre_coeffs = c, h, order, serre_coeffs
        self.theta_form = _theta_form(h, serre_coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.c, self.h, self.order, self.serre_coeffs) == (other.c, other.h, other.order, other.serre_coeffs)

    def indicial_polynomial(self) -> tuple[Fraction, ...]:
        """P(lam) = sum_t P_t(0) lam^t, ascending: the q^0 row of the theta columns."""
        return tuple(a.coefficient(0) for a in self.theta_operator(1))

    def indicial_roots(self) -> tuple[list[tuple[Fraction, int]], int]:
        return rational_roots(self.indicial_polynomial())

    def theta_operator(self, terms: int) -> tuple[PuiseuxSeries, ...]:
        """Coefficients A_t(q) with the equation written as sum_t A_t theta^t.

        The q-expansion is memoised on the theta form and terms, so the roots
        of one equation share it.
        """
        return _theta_series(self.theta_form, terms)

    def __str__(self) -> str:
        bits = [f"D^{self.order}"]
        for j in range(self.order - 1, -1, -1):
            if not self.serre_coeffs[j].is_zero():
                bits.append(f"[{self.serre_coeffs[j]}] D^{j}")
        return " + ".join(bits) + " = 0"


@lru_cache(maxsize=None)
def _theta_series(form: tuple[QuasiModularPoly, ...], terms: int) -> tuple[PuiseuxSeries, ...]:
    return _expand(form, terms)


def _string_scalars(c: Fraction, h: Fraction, order: int) -> dict[int, list[Fraction]]:
    """mu[k][i] = mu_k(i) of to_ode for 2 <= k <= order and i < order."""
    mu = {2: [i * (4 * h + c / 2) + 4 * i * (i - 1) for i in range(order)]}
    for k in range(3, order + 1):
        mu[k] = [2 * k * s for s in accumulate(mu[k - 1][:-1], initial=0)]
    return mu


@lru_cache(maxsize=None)
def to_ode(rec: TraceRecursion) -> ModularODE:
    """Convert a string recursion into its modular differential equation.

    Builds tables T_i with S(L[-2]^i u) = sum_j T_i[j] d^(j) S(u) from the
    derivative rule, with L[2k-2] L[-2]^i u = mu_k(i) L[-2]^(i-k+1) u read off
    [L(2), L(-2)] = 4 L(0) + c/2 and [L(2k-2), L(-2)] = 2k L(2k-4), k >= 3:
    mu_2(i) = i (4h + c/2) + 4 i (i-1), mu_k(i) = 2k sum_{r<i} mu_{k-1}(r).
    Then H_j = T_m[j] + sum_i r_i T_i[j], free of E2, which is asserted since
    it is forced when everything upstream is consistent.
    """
    c, h, m = rec.c, rec.h, rec.order
    mu = _string_scalars(c, h, m)
    tables: list[list[QuasiModularPoly]] = [[QuasiModularPoly.constant(1)]]
    for i in range(m):
        # T_i[j] has weight 2(i - j), j = 0..i+1
        nxt = _leibniz(tables[i], range(2 * i, -3, -2))
        for k in range(2, i + 2):
            for j, g in enumerate(tables[i - k + 1]):
                nxt[j] = nxt[j] + mu[k][i] * (eisenstein_modular_poly(2 * k) * g)
        tables.append(nxt)
    coeffs = list(tables[m])
    for r, table in zip(rec.coefficients, tables):
        for j, g in enumerate(table):
            coeffs[j] = coeffs[j] + r * g
    for j, acc in enumerate(coeffs):
        if acc.has_e2:
            raise AssertionError(f"E2 survived in the order-{j} coefficient: {acc}")
    if coeffs[m] != QuasiModularPoly.constant(1):
        raise AssertionError("leading coefficient is not 1")
    return ModularODE(c, h, m, tuple(coeffs))


# ---------------------------------------------------------------------------
# Frobenius solutions
# ---------------------------------------------------------------------------

class ResonantExponentError(ArithmeticError):
    """Raised when an indicial root recurs at an integer shift.

    The series ansatz without logarithms breaks down there, so the solver
    reports the collision instead of silently producing garbage.
    """

    def __init__(self, exponent: Fraction, step: int):
        self.exponent = exponent
        self.step = step
        super().__init__(
            f"indicial polynomial vanishes again at {exponent} + {step}; "
            "a logarithmic solution would be needed")


class FrobeniusSolution(NamedTuple):
    """q^exponent times an exact power series with unit constant term."""

    exponent: Fraction
    coeffs: tuple[Fraction, ...]

    def to_puiseux(self) -> PuiseuxSeries:
        return PuiseuxSeries(self.exponent, self.coeffs)


def frobenius_solve(ode: ModularODE, exponent: _RationalLike, terms: int = 30) -> FrobeniusSolution:
    """Exact series solution q^exponent (1 + a_1 q + ...) of the equation.

    The exponent must be an indicial root; coefficients follow from the
    order-by-order linear recurrence, and a vanishing leading factor at a
    later step raises ResonantExponentError.
    """
    lam = _frac(exponent)
    if terms < 1:
        raise ValueError("terms must be positive")
    A = ode.theta_operator(terms)
    if any(series.lam != 0 or series.terms != terms for series in A):
        raise AssertionError("theta-operator coefficients must be power series with all terms")
    # A_t is the q-expansion of the theta form's P_t, so the q^0 row a[0]
    # below is the indicial polynomial, read from the same expansion. Write
    # A_t = sum_i a[i][t] q^i / D with integers a[i][t], lam = p/q and
    # T = order. Then sum_t A_t[i] (lam + r)^t = sum_t a[i][t] xs[r][t] / (D q^T)
    # with xs[r][t] = (p + r q)^t q^(T-t). With coefficient r = num_r / den
    # over the running denominator den, step n needs sum_t sum_{r<n}
    # a[n-r][t] ys[t][r] for ys[t][r] = num_r xs[r][t]: one dot product per
    # column t, of the column read from q^(terms-1) down to q^1 (rcols)
    # against ys[t]. Columns that vanish past q^0 drop out; the monic theta^T
    # column is the constant 1. Only ys reads the num_r, so the loop keeps den
    # and the newest numerator, and rescales ys whenever den grows.
    width = len(A)
    ints = _CommonDenominator(c for row in zip(*(series.coeffs for series in A)) for c in row)
    a = [ints.nums[i * width:(i + 1) * width] for i in range(terms)]
    p, q = lam.numerator, lam.denominator
    xs = [[(p + r * q) ** t * q ** (width - 1 - t) for t in range(width)] for r in range(terms)]

    def indicial(r: int) -> int:
        """D q^T times the indicial polynomial at lam + r."""
        return sum(map(mul, a[0], xs[r]))

    if indicial(0) != 0:
        raise ValueError(f"{lam} is not an indicial root")
    live = [t for t in range(width) if any(a[i][t] for i in range(1, terms))]
    rcols = [[a[i][t] for i in range(terms - 1, 0, -1)] for t in live]
    coeffs = [Fraction(1)]
    den = 1
    ys = [[xs[0][t]] for t in live]
    for n in range(1, terms):
        acc = sum(sum(map(mul, rcol[terms - 1 - n:], y)) for rcol, y in zip(rcols, ys))
        lead = indicial(n)
        if lead == 0:
            raise ResonantExponentError(lam, n)
        x = Fraction(-acc, den * lead)
        coeffs.append(x)
        d = x.denominator
        if den % d:
            scale = d // gcd(den, d)
            den *= scale
            ys = [[v * scale for v in y] for y in ys]
        num = x.numerator * (den // d)
        for y, t in zip(ys, live):
            y.append(num * xs[n][t])
    return FrobeniusSolution(lam, tuple(coeffs))


# ---------------------------------------------------------------------------
# the four unitary trace cases
# ---------------------------------------------------------------------------

class TraceCase(NamedTuple):
    """One verified intertwining trace: insertion weight h_u, trace module
    weight h_w, and the externally quoted leading exponent of the series."""

    m: int
    c: Fraction
    h_u: Fraction
    h_w: Fraction
    quoted_exponent: Fraction


TRACE_CASES: tuple[TraceCase, ...] = (
    TraceCase(1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 16), Fraction(1, 24)),
    TraceCase(2, Fraction(7, 10), Fraction(1, 10), Fraction(3, 80), Fraction(1, 120)),
    TraceCase(3, Fraction(4, 5), Fraction(2, 5), Fraction(1, 15), Fraction(1, 30)),
    # the quoted exponent 1/81 disagrees with h_w - c/24 = 1/84; the CLI's
    # leading-exponent-m4 check flags it as a suspected misprint in the source list
    TraceCase(4, Fraction(6, 7), Fraction(1, 7), Fraction(1, 21), Fraction(1, 81)),
)


def leading_exponent(case: TraceCase) -> Fraction:
    """Exponent of the trace series, h_w - c/24; equals h_u/12 in every case."""
    return case.h_w - case.c / 24


def trace_case_ode(case: TraceCase) -> ModularODE:
    return to_ode(derive_recursion(case.c, case.h_u))


def trace_case_solution(case: TraceCase, terms: int = 30) -> FrobeniusSolution:
    """Frobenius solution at the exponent h_w - c/24."""
    return frobenius_solve(trace_case_ode(case), leading_exponent(case), terms)


class EtaCheckReport(NamedTuple):
    m: int
    terms: int
    exponent: Fraction
    match: bool
    first_mismatch: int | None


def eta_power_check(case: TraceCase, terms: int = 30) -> EtaCheckReport:
    """Compare the solved trace series against eta^(2 h_u) coefficient-wise."""
    sol = trace_case_solution(case, terms)
    target = eta_power(2 * case.h_u, terms)
    series = sol.to_puiseux()
    first = None
    if series.lam != target.lam:
        first = 0
    else:
        for n, (a, b) in enumerate(zip(series.coeffs, target.coeffs)):
            if a != b:
                first = n
                break
    return EtaCheckReport(case.m, terms, sol.exponent, first is None, first)


# ---------------------------------------------------------------------------
# numeric checks on the upper half plane
# ---------------------------------------------------------------------------

TAU_SAMPLES: tuple[complex, ...] = (0.3 + 1.1j, 1j, -0.2 + 0.8j)


def _cpow(base: complex, expo: float) -> complex:
    return cmath.exp(expo * cmath.log(base))


def modular_transform_ratio(series: PuiseuxSeries, t: _RationalLike, tau: complex) -> complex:
    """(-(i tau))^(-t) S(-1/tau) / S(tau), principal branches."""
    t = float(_frac(t))
    num, _ = series.eval_numeric(-1 / tau)
    den, _ = series.eval_numeric(tau)
    return _cpow(-1j * tau, -t) * num / den


class TransformReport(NamedTuple):
    m: int
    taus: tuple[complex, ...]
    ratios: tuple[complex, ...]
    max_modulus_error: float
    max_spread: float
    t_eigenvalue: complex


def case_transform_report(case: TraceCase, terms: int = 80,
                          taus: tuple[complex, ...] = TAU_SAMPLES) -> TransformReport:
    """Numeric S-transform behaviour of a solved trace series.

    The ratio should be a constant of modulus one across sample points; the
    T-eigenvalue exp(2 pi i lam) is exact from the leading exponent. The
    spread is 0 by construction at fewer than two distinct points, so those
    raise ValueError.
    """
    distinct = len(set(taus))
    if distinct < 2:
        raise ValueError(f"the transform check needs at least two distinct sample points, got {distinct}")
    sol = trace_case_solution(case, terms)
    series = sol.to_puiseux()
    ratios = tuple(modular_transform_ratio(series, case.h_u, tau) for tau in taus)
    mod_err = max(abs(abs(r) - 1) for r in ratios)
    spread = max(abs(r - ratios[0]) for r in ratios)
    t_eig = cmath.exp(2j * cmath.pi * float(sol.exponent))
    return TransformReport(case.m, tuple(taus), ratios, mod_err, spread, t_eig)


def e2_inversion_residual(tau: complex, terms: int = 80) -> float:
    """|E2(-1/tau) - tau^2 E2(tau) + tau/(2 pi i)| from truncated series."""
    e2 = eisenstein(2, terms)
    lhs, _ = e2.eval_numeric(-1 / tau)
    rhs, _ = e2.eval_numeric(tau)
    return abs(lhs - (tau * tau * rhs - tau / (2j * cmath.pi)))


def sl2_branch_check(t: _RationalLike, taus: tuple[complex, ...] = TAU_SAMPLES) -> float:
    """Branch consistency of the automorphy factors for S^2 and (ST) loops.

    Both products telescope to 1 when the principal branches compose
    cleanly; returns the largest deviation over the sample points.
    """
    t = float(_frac(t))
    worst = 0.0
    for tau in taus:
        f1 = _cpow(-1j * tau, -t) * _cpow(-1j * (-1 / tau), -t)
        f2 = _cpow(1j, t) * _cpow(1 - tau, -t) * _cpow(-1j / (tau - 1), -t)
        worst = max(worst, abs(f1 - 1), abs(f2 - 1))
    return worst
