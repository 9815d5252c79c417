"""Exact q-series with a rational leading exponent.

A PuiseuxSeries is q^lam * (a_0 + a_1 q + ... + a_{N-1} q^{N-1}) + O(q^{lam+N})
with lam and all a_i rational. Coefficients live on the lattice lam + Z;
exponents below lam are zero by construction, exponents at lam+N and beyond
are unknown, not zero. Arithmetic keeps whatever window of coefficients is
still exact, so products truncate to the shorter factor and sums to the
shorter reach.

Eisenstein series use the normalization E_k = G_k / (2 pi i)^k, i.e.

    E_k(q) = -B_k / k! + (2 / (k-1)!) * sum_{n>=1} sigma_{k-1}(n) q^n,

so E_2 = -1/12 + 2q + 6q^2 + ..., E_4 = 1/720 + q/3 + 3q^2 + ... The
classical normalizations with constant term 1 (E_2^std = -12 E_2,
E_4^std = 720 E_4, E_6^std = -30240 E_6) are each E_k divided by its constant
term. The weight-k Serre derivative d_k f = theta f + k E_2 f with
theta = q d/dq sends weight k to k+2 and kills eta^(2k); the modular ODE
machinery applies theta and d_k to polynomials in E_2, E_4, E_6
(mde.QuasiModularPoly.theta and serre), so a series has no theta of its own.

Coefficients are stored as Fraction, but the hot kernels run over int. A
sum aligns the two windows by integer offsets and adds coefficient by
coefficient. A product holds each factor as integer numerators over one
common denominator (linalg._CommonDenominator), convolves those over the
nonzero support of the factor with more zero numerators (_convolve), and
builds one Fraction per output coefficient. The power recurrence of
pow_rational (and so eta_power) needs no common denominator that grows: for
r = p/q every coefficient of (f/f_0)^r below q^N lies over the one
denominator (q f_0)^(N-1) gcd((N-1)!, q^(N-1)), f_0 the cleared leading
numerator, because binom(p/q, n) has denominator q^n gcd(n!, q^n). So the
recurrence runs on integer numerators over that denominator, fixed before it
starts, with one exact division per step, and reads only the nonzero
support of f (J.C.P. Miller's recurrence). The Euler product of eta comes
from the pentagonal number theorem in O(N). Results are exactly those of the
plain Fraction loops, whichever order the factors come in. The constructor
coerces coefficients only when some of them are not already Fraction.
Eisenstein series are memoised on (k, terms).
"""

from __future__ import annotations

import cmath
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from operator import add
from os import PathLike
from typing import Iterator

from .linalg import _CommonDenominator, _RationalLike, _frac


@contextmanager
def _uncapped_digits() -> Iterator[None]:
    """Lift Python's cap on the digits of int <-> str conversion, and restore it after.

    Exact coefficients pass the default cap of 4300 digits (a numerator of
    eta^(1/9973) at 1100 terms, or of E_1600). Where sys has no such cap
    there is nothing to lift; inside a lifted block this is a no-op.
    """
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _fmt_frac(x: _RationalLike) -> str:
    """x as "num/den", the form of cache files and CLI output; an int prints over 1."""
    return f"{x.numerator}/{x.denominator}"


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Cauchy product of two integer coefficient lists of one length, truncated to it.

    Loops over the nonzero support of the list with more zeros: integer
    addition is exact and commutes, so the order only changes the cost.
    """
    if b.count(0) > a.count(0):
        a, b = b, a
    acc = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            acc[i:] = map(add, acc[i:], map(x.__mul__, b))
    return acc


class PuiseuxSeries:
    """Truncated series q^lam * sum a_n q^n with exact rational data.

    weight is an optional modular weight tag. It is bookkeeping only: sums keep
    it when both operands agree, products add it, and anything that breaks
    homogeneity drops it.
    """

    __slots__ = ("lam", "coeffs", "weight")

    def __init__(self, lam: _RationalLike, coeffs, weight: _RationalLike | None = None):
        coeffs = tuple(coeffs)
        if set(map(type, coeffs)) != {Fraction}:
            coeffs = tuple(map(_frac, coeffs))
        object.__setattr__(self, "lam", _frac(lam))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "weight", None if weight is None else _frac(weight))
        if not self.coeffs:
            raise ValueError("a series needs at least one retained coefficient")

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> int:
        """Number of retained coefficients."""
        return len(self.coeffs)

    @property
    def end_exponent(self) -> Fraction:
        """First unknown exponent: the series is exact below this."""
        return self.lam + len(self.coeffs)

    def coefficient(self, exponent: _RationalLike) -> Fraction:
        """Exact coefficient of q^exponent; raises if it is beyond the truncation."""
        e = _frac(exponent)
        if e < self.lam:
            return Fraction(0)
        if e >= self.end_exponent:
            raise ValueError(f"coefficient of q^{e} is beyond the truncation q^{self.end_exponent}")
        off = e - self.lam
        if off.denominator != 1:
            return Fraction(0)
        return self.coeffs[int(off)]

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if (self.lam - other.lam).denominator != 1:
            raise ValueError(
                f"cannot add series on different exponent lattices ({self.lam} vs {other.lam})")
        lo, hi = (self, other) if self.lam <= other.lam else (other, self)
        off = int(hi.lam - lo.lam)
        # below hi.lam only lo contributes; zip stops at the shorter reach
        coeffs = list(lo.coeffs[:off]) + [a + b for a, b in zip(lo.coeffs[off:], hi.coeffs)]
        weight = self.weight if self.weight == other.weight else None
        return PuiseuxSeries(lo.lam, coeffs, weight)

    def __neg__(self):
        return PuiseuxSeries(self.lam, [-c for c in self.coeffs], self.weight)

    def __sub__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return PuiseuxSeries(self.lam, [a * c for a in self.coeffs], self.weight)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        # Cauchy product of the integer numerators over one denominator per factor
        n = min(len(self.coeffs), len(other.coeffs))
        a = _CommonDenominator(self.coeffs[:n])
        b = _CommonDenominator(other.coeffs[:n])
        acc = _convolve(a.nums, b.nums)
        den = a.den * b.den
        weight = None
        if self.weight is not None and other.weight is not None:
            weight = self.weight + other.weight
        return PuiseuxSeries(self.lam + other.lam, [Fraction(v, den) for v in acc], weight)

    __rmul__ = __mul__

    def pow_rational(self, r: _RationalLike) -> "PuiseuxSeries":
        """f^r for rational r via the power recurrence.

        Needs a nonzero leading coefficient; for non-integer r the leading
        coefficient must be exactly 1 so the result stays rational.
        """
        r = _frac(r)
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("pow_rational needs a nonzero leading coefficient")
        if r.denominator != 1 and a0 != 1:
            raise ValueError("non-integer powers need leading coefficient 1 after factoring q^lam")
        # out_n = (1/n) sum_k ((r+1)k - n) (f_k/f_0) out_{n-k}, with r = p/q,
        # f_k = fs.nums[k] / fs.den and out_m = nums[m] / den for the one
        # denominator den of the module docstring; step n divides by n q f_0
        n_terms = len(self.coeffs)
        fs = _CommonDenominator(self.coeffs)
        f0 = fs.nums[0]
        p, q = r.numerator, r.denominator
        support = [(k, (p + q) * k * fs.nums[k], q * fs.nums[k])
                   for k in range(1, n_terms) if fs.nums[k]]
        top = n_terms - 1
        den = (q * f0) ** top * gcd(factorial(top), q ** top)
        nums = [den]
        for n in range(1, n_terms):
            acc = 0
            for k, a, b in support:
                if k > n:
                    break
                acc += (a - n * b) * nums[n - k]
            x, rem = divmod(acc, n * q * f0)
            if rem:
                raise AssertionError(f"power recurrence left a remainder at step {n}")
            nums.append(x)
        out = [Fraction(x, den) for x in nums]
        lead = a0 ** int(r) if r.denominator == 1 else Fraction(1)
        if lead != 1:
            out = [lead * c for c in out]
        weight = None if self.weight is None else r * self.weight
        return PuiseuxSeries(r * self.lam, out, weight)

    # -- numeric evaluation ------------------------------------------------

    def eval_numeric(self, tau: complex) -> tuple[complex, float]:
        """Evaluate at q = exp(2 pi i tau), Im tau > 0.

        Returns (value, error proxy) where the proxy is the magnitude of the
        last retained term (of the last retained exponent when that
        coefficient happens to vanish).
        """
        if tau.imag <= 0:
            raise ValueError("tau must be in the upper half-plane")
        two_pi_i = 2j * cmath.pi
        q = cmath.exp(two_pi_i * tau)
        value = 0 + 0j
        power = cmath.exp(two_pi_i * tau * float(self.lam))
        last_term = abs(power)
        for c in self.coeffs:
            num = c.numerator
            if num:
                term = num / c.denominator * power   # the division float(c) does via numbers.Rational
                value += term
                last_term = abs(term)
            else:
                last_term = abs(power)
            power *= q
        return value, last_term

    # -- comparisons and output --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.lam == other.lam and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.lam, self.coeffs))

    def __repr__(self):
        return f"PuiseuxSeries(lam={self.lam!r}, terms={len(self.coeffs)}, weight={self.weight!r})"

    def __str__(self):
        shown = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.lam + i
            if e == 0:
                shown.append(f"{c}")
            else:
                exp = f"q^({e})" if e.denominator != 1 or e < 0 else (f"q^{e}" if e != 1 else "q")
                shown.append(exp if c == 1 else (f"-{exp}" if c == -1 else f"{c}*{exp}"))
            if len(shown) == 8:
                shown.append("...")
                break
        body = " + ".join(shown).replace("+ -", "- ") if shown else "0"
        return f"{body} + O(q^({self.end_exponent}))"


# -- standard number-theoretic ingredients ----------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the convention B_1 = -1/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            total += i ** k
            j = n // i
            if j != i:
                total += j ** k
        i += 1
    return total


# -- Eisenstein series -------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def eisenstein(k: int, terms: int) -> PuiseuxSeries:
    """E_k to the given number of terms, in the G_k/(2 pi i)^k normalization.

    Only even k >= 2 name a nonzero series; anything else is rejected. The
    result is immutable and memoised on (k, terms), typed so that 2.0 is
    still rejected after eisenstein(2, ...) ran.
    """
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise ValueError(f"Eisenstein weight must be an even integer >= 2, got {k!r}")
    if terms < 1:
        raise ValueError("terms must be positive")
    coeffs = [-bernoulli(k) / factorial(k)]
    fac = factorial(k - 1)
    for n in range(1, terms):
        coeffs.append(Fraction(2 * sigma(k - 1, n), fac))
    return PuiseuxSeries(0, coeffs, weight=k)


# -- eta and its rational powers ----------------------------------------------

def _euler_product(terms: int) -> list[Fraction]:
    """Coefficients of prod_{n>=1} (1 - q^n) up to q^(terms-1).

    By Euler's pentagonal number theorem the product is
    sum_{k in Z} (-1)^k q^(k(3k-1)/2), so each coefficient is 0 or +-1.
    """
    coeffs = [0] * terms
    k, sign = 0, 1
    while k * (3 * k - 1) // 2 < terms:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < terms:
                coeffs[e] = sign
        k, sign = k + 1, -sign
    return [Fraction(c) for c in coeffs]


def eta(terms: int) -> PuiseuxSeries:
    """Dedekind eta = q^(1/24) prod (1 - q^n), weight tag 1/2."""
    if terms < 1:
        raise ValueError("terms must be positive")
    return PuiseuxSeries(Fraction(1, 24), _euler_product(terms), weight=Fraction(1, 2))


def eta_power(r: _RationalLike, terms: int) -> PuiseuxSeries:
    """eta^r for rational r: leading exponent r/24, weight tag r/2."""
    return eta(terms).pow_rational(_frac(r))


# -- series cache files -------------------------------------------------------

def write_series(path: str | PathLike, series: PuiseuxSeries) -> None:
    """Write the exact cache format: a one-line header, then one rational per line.

    Header: 'lambda=<p>/<q> terms=<N> weight=<w|none>'. Numbers of any
    length are written in full.
    """
    w = "none" if series.weight is None else _fmt_frac(series.weight)
    lines = [f"lambda={_fmt_frac(series.lam)} terms={len(series.coeffs)} weight={w}"]
    with _uncapped_digits():
        lines.extend(_fmt_frac(c) for c in series.coeffs)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series(path: str | PathLike) -> PuiseuxSeries:
    """Read a series cache file written by write_series, numbers of any length included."""
    with open(path, "r", encoding="ascii") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise ValueError(f"{path}: empty series file")
    try:
        fields = dict(item.split("=", 1) for item in raw[0].split())
        lam = Fraction(fields["lambda"])
        terms = int(fields["terms"])
        weight = None if fields["weight"] == "none" else Fraction(fields["weight"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: bad header {raw[0]!r}") from exc
    if terms < 1:
        raise ValueError(f"{path}: bad header {raw[0]!r}")
    body = raw[1:]
    if len(body) != terms:
        raise ValueError(f"{path}: header promises {terms} coefficients, file has {len(body)}")
    coeffs = []
    with _uncapped_digits():
        for ln in body:
            try:
                coeffs.append(Fraction(ln))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}: bad coefficient {ln!r}") from exc
    return PuiseuxSeries(lam, coeffs, weight)
