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
E_4^std = 720 E_4, E_6^std = -30240 E_6) are available through
classical_eisenstein. The weight-k Serre derivative is
d_k f = theta f + k E_2 f with theta = q d/dq; it sends weight k to k+2
and kills eta^(2k), which is what the modular ODE machinery is built on.

Coefficients are stored as Fraction, but the hot kernels run over int. A
sum aligns the two windows by integer offsets and adds coefficient by
coefficient. A product and the power recurrence of pow_rational (and so
eta_power) hold each factor as integer numerators over one common
denominator (_CommonDenominator), convolve those over the nonzero support
of the factor with more zero numerators, and build one Fraction per output
coefficient. The Euler product of eta comes from the pentagonal number
theorem in O(N). Results are exactly those of the plain Fraction loops,
whichever order the factors come in. The constructor coerces coefficients
only when some of them are not already Fraction.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from operator import add
from os import PathLike

from .linalg import _RationalLike, _frac


def _fmt_frac(x: _RationalLike) -> str:
    """x as "num/den", the form of cache files and CLI output; an int prints over 1."""
    return f"{x.numerator}/{x.denominator}"


class _CommonDenominator:
    """Rationals held as integer numerators nums over one denominator den.

    Series products and the recurrences of pow_rational and
    mde.frobenius_solve take integer dot products of these numerators instead
    of normalising a Fraction at every step. append() rescales the numerators
    already held when the new value's denominator does not divide den.
    """

    __slots__ = ("nums", "den")

    def __init__(self, values: Iterable[Fraction]) -> None:
        self.nums: list[int] = []
        self.den = 1
        for x in values:
            self.append(x)

    def append(self, x: Fraction) -> None:
        d = x.denominator
        if self.den % d:
            scale = d // gcd(self.den, d)
            self.nums = [v * scale for v in self.nums]
            self.den *= scale
        self.nums.append(x.numerator * (self.den // d))


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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, terms: int) -> "PuiseuxSeries":
        if terms < 1:
            raise ValueError("terms must be positive")
        return PuiseuxSeries(self.lam, self.coeffs[:terms], self.weight)

    def shifted(self, r: _RationalLike) -> "PuiseuxSeries":
        """Multiply by q^r."""
        return PuiseuxSeries(self.lam + _frac(r), self.coeffs, None)

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
        # Cauchy product of the integer numerators over one denominator per
        # factor, looping over the nonzero support of the sparser factor: integer
        # addition is exact and commutes, so the order only changes the cost
        n = min(len(self.coeffs), len(other.coeffs))
        a = _CommonDenominator(self.coeffs[:n])
        b = _CommonDenominator(other.coeffs[:n])
        if b.nums.count(0) > a.nums.count(0):
            a, b = b, a
        acc = [0] * n
        for i, x in enumerate(a.nums):
            if x:
                acc[i:] = map(add, acc[i:], map(x.__mul__, b.nums))
        den = a.den * b.den
        weight = None
        if self.weight is not None and other.weight is not None:
            weight = self.weight + other.weight
        return PuiseuxSeries(self.lam + other.lam, [Fraction(v, den) for v in acc], weight)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = PuiseuxSeries(0, [1] + [0] * (len(self.coeffs) - 1), Fraction(0))
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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
        # f_k = fs.nums[k] / fs.den and out_m = outs.nums[m] / outs.den
        n_terms = len(self.coeffs)
        fs = _CommonDenominator(self.coeffs)
        f0 = fs.nums[0]
        support = [(k, fs.nums[k]) for k in range(1, n_terms) if fs.nums[k]]
        p, q = r.numerator, r.denominator
        out = [Fraction(1)]
        outs = _CommonDenominator(out)
        for n in range(1, n_terms):
            nums = outs.nums
            acc = 0
            for k, fk in support:
                if k > n:
                    break
                acc += ((p + q) * k - n * q) * fk * nums[n - k]
            out.append(Fraction(acc, n * q * f0 * outs.den))
            outs.append(out[-1])
        lead = a0 ** int(r) if r.denominator == 1 else Fraction(1)
        if lead != 1:
            out = [lead * c for c in out]
        weight = None if self.weight is None else r * self.weight
        return PuiseuxSeries(r * self.lam, out, weight)

    # -- calculus and evaluation -------------------------------------------

    def theta(self) -> "PuiseuxSeries":
        """q d/dq, exact on the retained window."""
        return PuiseuxSeries(self.lam, [(self.lam + i) * c for i, c in enumerate(self.coeffs)], None)

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
            term = float(c) * power
            if c != 0:
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

def eisenstein(k: int, terms: int) -> PuiseuxSeries:
    """E_k to the given number of terms, in the G_k/(2 pi i)^k normalization.

    Only even k >= 2 name a nonzero series; anything else is rejected.
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


def classical_eisenstein(k: int, terms: int) -> PuiseuxSeries:
    """E_k normalized to constant term 1 (so E_4 = 1 + 240q + ...)."""
    base = eisenstein(k, terms)
    return base * (1 / base.coeffs[0])


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


# -- Serre derivative ---------------------------------------------------------

def serre_derivative(f: PuiseuxSeries, k: _RationalLike) -> PuiseuxSeries:
    """Weight-k Serre derivative theta(f) + k E_2 f, tagged with weight k+2.

    If f carries a weight tag it must match k; that catches transposed
    arguments early.
    """
    k = _frac(k)
    if f.weight is not None and f.weight != k:
        raise ValueError(f"series is tagged weight {f.weight}, not {k}")
    e2 = eisenstein(2, len(f.coeffs))
    out = f.theta() + (e2 * f) * k
    return PuiseuxSeries(out.lam, out.coeffs, weight=k + 2)


def serre_derivative_iterated(f: PuiseuxSeries, k: _RationalLike, j: int) -> PuiseuxSeries:
    """j-fold Serre derivative starting at weight k: d_{k+2(j-1)} ... d_k f."""
    k = _frac(k)
    out = f
    for t in range(j):
        out = serre_derivative(out, k + 2 * t)
    return out


# -- series cache files -------------------------------------------------------

def write_series(path: str | PathLike, series: PuiseuxSeries) -> None:
    """Write the exact cache format: a one-line header, then one rational per line.

    Header: 'lambda=<p>/<q> terms=<N> weight=<w|none>'.
    """
    w = "none" if series.weight is None else _fmt_frac(series.weight)
    lines = [f"lambda={_fmt_frac(series.lam)} terms={len(series.coeffs)} weight={w}"]
    lines.extend(_fmt_frac(c) for c in series.coeffs)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series(path: str | PathLike) -> PuiseuxSeries:
    """Read a series cache file written by write_series."""
    with open(path, "r", encoding="ascii") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise ValueError(f"{path}: empty series file")
    try:
        fields = dict(item.split("=", 1) for item in raw[0].split())
        lam = Fraction(fields["lambda"])
        terms = int(fields["terms"])
        weight = None if fields["weight"] == "none" else Fraction(fields["weight"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: bad header {raw[0]!r}") from exc
    body = raw[1:]
    if len(body) != terms:
        raise ValueError(f"{path}: header promises {terms} coefficients, file has {len(body)}")
    return PuiseuxSeries(lam, [Fraction(ln) for ln in body], weight)
