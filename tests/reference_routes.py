"""Reference routes the tests check the package against; nothing in the package calls them.

Zhu's products. For homogeneous a of weight w the bilinear operations on V are

    a . u   = sum_{i=0}^{w}   C(w, i)   a(i-1) u      (the Zhu product)
    u * a   = sum_{i>=0}      C(w-1, i) a(i-1) u      (the opposite side)
    o(a, u) = sum_{i=0}^{w}   C(w, i)   a(i-2) u      (spans O(V))

and A(V) = V / O(V). The sum for u * a stops at i = w - 1 for w >= 1; at
w = 0, a is a multiple of the vacuum, whose only nonzero mode is a(-1), and
the binomial is the generalized C(-1, 0) = 1. OSpace is the direct
truncated span of O(V) inside the irreducible vacuum algebra, against
which zhu.class_polynomial's closed-form reductions are checked rather than
assumed.

The square-bracket modes. v[m] = sum_i a_i v(m+i) with the coefficient rows
of traceform.bracket, and L[n] the (n+1) mode of the shifted conformal
vector omega - c/24. The trace derivation works in the round picture
through Zhu's isomorphism; these expansions are the square picture it is
checked against.

The modes a(n) of a vacuum vector a = L(-m_1)... 1 on any module in the
same central charge, through the associativity formula

    (a(m)b)(r) = sum_i (-1)^i C(m,i) [a(m-i) b(r+i) - (-1)^m b(m+r-i) a(i)],

peeled one L(-M) at a time with omega(n) = L(n-1); on bounded-below modules
every sum is finite. The package needs only the modes of the strong
generators L(-k)1, in closed form through l_action; mode_action, on every
vacuum vector, is what the Zhu products and the spans below are built on.
AllGeneratorsRelationSpace takes its trace relations from v(0)u and the
E-tail of v(-2)u for every basis vector v of L(c,0), and
all_generators_quotient_dims its C2 quotients from a(-2)u and a(0)u for
every basis vector a; the package's spans from omega, through L(-1)u and
L(-3)u, and its C2 quotient from every L(-n)u, n >= 3, must equal them.

Coordinates are read through virasoro.irreducible_coordinates as a module
attribute, so a test that patches that one projection sees every call.

The Serre derivative of a q-series, theta f + k E_2 f, with theta = q d/dq
and three more operations on PuiseuxSeries that only the tests use:
truncate, shifted and is_zero. The package applies theta to polynomials in
E_2, E_4 and E_6 only (mde.QuasiModularPoly.theta and serre); on series it
is the oracle of the Ramanujan identities.

Dense Gauss-Jordan. _reference_rref_dense pivots on the leftmost columns,
and _reference_solve_dense reads one solution of A x = b off the reduced
[A | b], with the free variables set to 0. The package solves for the
coefficients of a trace recursion inside a RowSpan (mde._derive_recursion);
the square-picture derivation of the tests solves through these instead.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from traceform import virasoro
from traceform.bracket import bracket_coeffs
from traceform.linalg import RowSpan, _frac
from traceform.mde import RelationSpace, _monomials_of_weight, eisenstein_modular_poly, graded_vector
from traceform.qseries import PuiseuxSeries, eisenstein
from traceform.virasoro import VermaModule, VermaVector, _acc, _gbinom, _lower, _strip_ones


def level_components(v: VermaVector) -> dict[int, VermaVector]:
    """v split into homogeneous pieces keyed by level = |partition|, lowest first."""
    split: dict = {}
    for mu, co in v.entries.items():
        split.setdefault(sum(mu), {})[mu] = co
    return {lvl: v._like(part) for lvl, part in sorted(split.items())}


def _sum_scaled(u: VermaVector, terms) -> VermaVector:
    """sum of k * vec over the (k, vec) terms, in the module of u, built once."""
    out: dict = {}
    for k, vec in terms:
        for mu, co in vec.entries.items():
            _acc(out, mu, co * k)
    return u._like(out)


# ---------------------------------------------------------------------------
# modes of vacuum vectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _mode(module: VermaModule, mu: tuple[int, ...], r: int, nu: tuple[int, ...]):
    """Coefficients of a(r) u for a = L(-mu) 1 and u = L(-nu) v_h in module."""
    if not mu:
        return ((nu, 1),) if r == -1 else ()
    M, b = mu[0], mu[1:]
    m_ = 1 - M
    sign_m = -1 if m_ % 2 else 1
    out: dict = {}
    imax = max(sum(nu) + sum(b) - 1 - r, sum(nu) + 1, 0)
    for i in range(imax + 1):
        coeff = _gbinom(m_, i)
        if i % 2:
            coeff = -coeff
        if coeff == 0:
            continue
        # first piece: L(-M-i) applied to b(r+i) u
        for nu1, co1 in _mode(module, b, r + i, nu):
            for nu2, co2 in _lower(M + i, nu1):
                _acc(out, nu2, coeff * co1 * co2)
        # second piece: -(-1)^(1-M) b(1-M+r-i) applied to L(i-1) u
        k = i - 1
        lu = _lower(1, nu) if k < 0 else module._act(k, nu)
        for nu1, co1 in lu:
            if module.vacuum and nu1 and nu1[-1] == 1:
                continue
            for nu2, co2 in _mode(module, b, 1 - M + r - i, nu1):
                _acc(out, nu2, -sign_m * coeff * co1 * co2)
    if module.vacuum:
        out = _strip_ones(out)
    return tuple(out.items())


def mode_action(a: VermaVector, n: int, u: VermaVector) -> VermaVector:
    """a(n) u for a vacuum-module vector a and a module vector u, same c.

    Read on square-bracket PBW labels it is a[n] u, by Zhu's isomorphism as
    the traceform.mde docstring states it.
    """
    if not a.vacuum:
        raise ValueError("modes are defined for vectors of the vacuum vertex algebra")
    if a.c != u.c:
        raise ValueError("central charges differ")
    out: dict = {}
    for mu, ca in a.entries.items():
        for nu, cu in u.entries.items():
            for rho, co in _mode(u.module, mu, n, nu):
                _acc(out, rho, ca * cu * co)
    return u._like(out)


class AllGeneratorsRelationSpace(RelationSpace):
    """The trace relations from every basis vector v of L(c,0), through mode_action."""

    def grow(self):
        level = self.level_bound + 1
        c, h = self.c, self.h
        vmod, umod = virasoro.verma_module(c, Fraction(0), True), virasoro.verma_module(c, h, h == 0)
        ubasis = [virasoro.level_coordinates(c, h, lu, h == 0).basis for lu in range(level)]
        for wg, g in self._gens:
            for a4, a6 in _monomials_of_weight(level - wg):
                self._span.add({(lvl, idx, b4 + a4, b6 + a6): co
                                for (lvl, idx, b4, b6), co in g.items()})
        # v of level lv and u of level lu give v(0) u at level lv + lu - 1 and
        # the E-tail of v(-2) u at level lv + lu + 1
        for lv in range(2, level + 2):
            for vmu in virasoro.level_coordinates(c, Fraction(0), lv, vacuum=True).basis:
                v = vmod.monomial(vmu)
                for lu, mode in ((level + 1 - lv, 0), (level - 1 - lv, -2)):
                    for umu in ubasis[lu] if lu >= 0 else ():
                        u = umod.monomial(umu)
                        g = graded_vector(mode_action(v, mode, u))
                        for k in range(2, level // 2 + 1) if mode == -2 else ():
                            gx = graded_vector(mode_action(v, 2 * k - 2, u))
                            for (_, a4, a6), co in eisenstein_modular_poly(2 * k).entries.items():
                                for (lvl, idx, _, _), val in gx.items():
                                    _acc(g, (lvl, idx, a4, a6), (2 * k - 1) * co * val)
                        if g:
                            self._gens.append((level, g))
                            self._span.add(g)
        self.level_bound = level


def all_generators_quotient_dims(c, h, max_level: int, zero_modes: bool) -> list[int]:
    """c2_quotient_dim, and with zero_modes c20_quotient_dim, from a(-2)u and a(0)u for every a."""
    c, h = _frac(c), _frac(h)
    vac, module = virasoro.verma_module(c, Fraction(0), True), virasoro.verma_module(c, h, h == 0)
    by_level: dict[int, list[VermaVector]] = {}
    for la in range(2, max_level + 1):
        for mu in virasoro.level_coordinates(c, 0, la, vacuum=True).basis:
            a = vac.monomial(mu)
            for lu in range(0, max_level + 1):
                for nu in virasoro.level_coordinates(c, h, lu, h == 0).basis:
                    u = module.monomial(nu)
                    # a(n) u has level la + lu - n - 1
                    for n in (-2, 0) if zero_modes else (-2,):
                        if la + lu - n - 1 <= max_level:
                            by_level.setdefault(la + lu - n - 1, []).append(mode_action(a, n, u))
    span, dims, total = RowSpan(), [], 0
    for lvl in range(max_level + 1):
        total += virasoro.level_coordinates(c, h, lvl, h == 0).dim
        for w in by_level.get(lvl, []):
            span.add(virasoro.irreducible_coordinates(w))
        dims.append(total - span.rank)
    return dims


# ---------------------------------------------------------------------------
# Zhu's products
# ---------------------------------------------------------------------------

def _require_vacuum(a: VermaVector) -> None:
    if not a.vacuum:
        raise ValueError("the left factor must live in the vacuum vertex algebra")


def a_dot_u(a: VermaVector, u: VermaVector) -> VermaVector:
    """Zhu product a . u, linear in both arguments."""
    _require_vacuum(a)
    return _sum_scaled(u, ((comb(w, i), mode_action(piece, i - 1, u))
                           for w, piece in level_components(a).items() for i in range(w + 1)))


def u_star_a(u: VermaVector, a: VermaVector) -> VermaVector:
    """Opposite-side product u * a, with u * 1 = u.

    The difference a . u - u * a is exactly sum_{j>=0} C(wt a - 1, j) a(j) u,
    summed over the homogeneous pieces of a.
    """
    _require_vacuum(a)
    return _sum_scaled(u, ((_gbinom(w - 1, i), mode_action(piece, i - 1, u))
                           for w, piece in level_components(a).items() for i in range(max(w, 1))))


def o_elem(a: VermaVector, u: VermaVector) -> VermaVector:
    """A single spanning element of O(V): sum_i C(w,i) a(i-2)u."""
    _require_vacuum(a)
    return _sum_scaled(u, ((comb(w, i), mode_action(piece, i - 2, u))
                           for w, piece in level_components(a).items() for i in range(w + 1)))


class OSpace:
    """Truncated span of O(V) inside the irreducible vacuum algebra L(c,0).

    Generators o(a, u) are included once their top level l(a)+l(u)+1 fits
    under the truncation; quotient_dims[T] is dim L(c,0)_{<=T} modulo the
    generators available by level T, so a stabilizing tail is visible and a
    too-small truncation shows up honestly as a larger dimension.
    """

    def __init__(self, c, trunc: int):
        self.c = _frac(c)
        self.trunc = trunc
        self._coords = [virasoro.level_coordinates(self.c, 0, l, vacuum=True)
                        for l in range(trunc + 1)]
        self.module_dims = [lc.dim for lc in self._coords]
        basis = [lc.basis for lc in self._coords]
        self._module = virasoro.verma_module(self.c, Fraction(0), True)
        gens_by_top: dict[int, list[VermaVector]] = {}
        for la in range(2, trunc + 1):
            for mu in basis[la]:
                a = self._module.monomial(mu)
                for lu in range(0, trunc - la):
                    for nu in basis[lu]:
                        u = self._module.monomial(nu)
                        gens_by_top.setdefault(la + lu + 1, []).append(o_elem(a, u))
        self._span = RowSpan()
        self.quotient_dims: list[int] = []
        total = 0
        for top in range(trunc + 1):
            total += self.module_dims[top]
            for w in gens_by_top.get(top, []):
                self._span.add(self.coords(w))
            self.quotient_dims.append(total - self._span.rank)

    def coords(self, vec: VermaVector) -> dict[tuple[int, int], Fraction]:
        """Concatenated irreducible coordinates keyed by (level, index)."""
        top = max(map(sum, vec.entries), default=0)
        if top > self.trunc:
            raise ValueError(f"vector reaches level {top}, truncation is {self.trunc}")
        return virasoro.irreducible_coordinates(vec)

    def quotient_basis(self) -> list[tuple[int, int]]:
        """Non-pivot coordinate keys: a basis of the truncated quotient."""
        pivots = self._span.pivot_keys
        return [(lvl, i) for lvl in range(self.trunc + 1) for i in range(self.module_dims[lvl])
                if (lvl, i) not in pivots]

    def x_matrix(self, level_cap: int) -> tuple[list[tuple[int, int]], list[list[Fraction]]]:
        """Matrix of multiplication by [omega] on the truncated quotient.

        Needs every quotient basis key at level <= level_cap and the images
        to stay inside the same key set; raises if the truncation is too
        tight for that closure.
        """
        keys = self.quotient_basis()
        if any(lvl > level_cap for lvl, _ in keys):
            raise ValueError("quotient basis reaches above level_cap; raise the truncation")
        omega = self._module.monomial((2,))
        index = {k: t for t, k in enumerate(keys)}
        cols: list[list[Fraction]] = []
        for lvl, i in keys:
            rep = self._module.monomial(self._coords[lvl].basis[i])
            red = self._span.reduce(self.coords(a_dot_u(omega, rep)))
            col = [Fraction(0)] * len(keys)
            for key, co in red.items():
                if key not in index:
                    raise ValueError("omega action leaves the truncated quotient; raise the truncation")
                col[index[key]] = co
            cols.append(col)
        matrix = [[cols[j][i] for j in range(len(keys))] for i in range(len(keys))]
        return keys, matrix


# ---------------------------------------------------------------------------
# square-bracket modes expanded in round ones
# ---------------------------------------------------------------------------

def square_mode_action(v: VermaVector, m: int, u: VermaVector) -> VermaVector:
    """v[m]u expanded in round modes, v[m] = sum_i a_i v(m+i).

    v must live in the vacuum vertex algebra; each homogeneous piece of
    weight w uses the (w, m) coefficient row. The sum is finite because
    v(j)u vanishes once j exceeds level(u) + w - 1.
    """
    if not v.vacuum:
        raise ValueError("square modes need a vacuum vertex algebra vector")
    lev_u = max(level_components(u), default=0)
    terms = []
    for w, piece in level_components(v).items():
        top = lev_u + w - 1 - m
        if top >= 0:
            row = bracket_coeffs(w, m, top + 1)
            terms += [(a, mode_action(piece, m + i, u)) for i, a in enumerate(row) if a != 0]
    return _sum_scaled(u, terms)


def square_virasoro_action(n: int, u: VermaVector) -> VermaVector:
    """L[n]u for the square-bracket Virasoro modes, expanded in round modes.

    L[n] is the (n+1) mode of the shifted conformal vector omega - c/24, so
    L[n] = sum_i a_i L(n+i) with the (2, n+1) coefficient row, plus -c/24
    times the identity when n = -2.
    """
    lev_u = max(level_components(u), default=0)
    top = lev_u - n
    terms = []
    if top >= 0:
        row = bracket_coeffs(2, n + 1, top + 1)
        terms = [(a, virasoro.l_action(n + i, u)) for i, a in enumerate(row) if a != 0]
    if n == -2:
        terms.append((-u.c / 24, u))
    return _sum_scaled(u, terms)


# ---------------------------------------------------------------------------
# series operations
# ---------------------------------------------------------------------------

def theta(f: PuiseuxSeries) -> PuiseuxSeries:
    """q d/dq, exact on the retained window."""
    return PuiseuxSeries(f.lam, [(f.lam + i) * c for i, c in enumerate(f.coeffs)], None)


def truncate(f: PuiseuxSeries, terms: int) -> PuiseuxSeries:
    """f with its first terms coefficients kept."""
    if terms < 1:
        raise ValueError("terms must be positive")
    return PuiseuxSeries(f.lam, f.coeffs[:terms], f.weight)


def shifted(f: PuiseuxSeries, r) -> PuiseuxSeries:
    """f multiplied by q^r."""
    return PuiseuxSeries(f.lam + _frac(r), f.coeffs, None)


def is_zero(f: PuiseuxSeries) -> bool:
    return all(c == 0 for c in f.coeffs)


def serre_derivative(f: PuiseuxSeries, k) -> PuiseuxSeries:
    """Weight-k Serre derivative theta(f) + k E_2 f, to the length of f."""
    return theta(f) + (eisenstein(2, len(f.coeffs)) * f) * _frac(k)


# ---------------------------------------------------------------------------
# dense Gauss-Jordan
# ---------------------------------------------------------------------------

def _reference_rref_dense(rows):
    """(reduced rows, pivot columns) of a dense matrix, pivots on the leftmost columns."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _reference_solve_dense(rows, rhs):
    """One solution of A x = b with the free variables 0, or None if inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = _reference_rref_dense([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[ncols]
    return x
