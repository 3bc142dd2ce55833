"""Exact arithmetic in cyclotomic fields Q(zeta_d).

A scalar is a rational polynomial in zeta_d, stored canonically reduced
modulo the d-th cyclotomic polynomial Phi_d: phi(d) integer numerators
over one positive denominator, in lowest terms.  `Fraction` appears only
where values come in (the constructor, `wire.scalar`) and go out
(`coeffs`, `as_fraction`, `repr`, `to_json`, `approx`).  Equality of
values is equality of canonical representations (after embedding into a
common order), so all downstream rewriting is decidable and bit-exact.
The only floating point is `approx`.  It serves display, and one decision:
`fusion._positive_real` reads the sign of a non-rational Gram pivot from
it, raising InvariantBreach when a 1e-9 guard cannot decide the sign.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from affa import wire


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of Phi_d, monic of degree phi(d)."""
    if d < 1:
        raise ValueError("order must be >= 1")
    # x^d - 1 divided by the product of Phi_e over proper divisors e | d.
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _poly_exact_div(num, list(cyclotomic_poly(e)))
    return tuple(num)


def _poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        # den is monic in every use here
        out[shift] = c
        if c:
            for i, dc in enumerate(den):
                num[shift + i] -= c * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def euler_phi(d: int) -> int:
    return len(cyclotomic_poly(d)) - 1


@lru_cache(maxsize=None)
def _phi_tail(d: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(d), the nonzero (i, c) of Phi_d below its leading term)."""
    phi = cyclotomic_poly(d)
    deg = len(phi) - 1
    return deg, tuple((i, c) for i, c in enumerate(phi[:deg]) if c)


def _cyclo(order: int, cs: list[int], den: int, out=None) -> "Cyclo":
    """sum(cs[i] * zeta_order^i) / den, den > 0, in lowest terms, as `out`
    (a new Cyclo by default); cs (at least phi(order) entries) is reduced
    in place modulo Phi_order."""
    deg, tail = _phi_tail(order)
    for k in range(len(cs) - 1, deg - 1, -1):
        c = cs[k]
        if c:
            base = k - deg
            for i, p in tail:
                cs[base + i] -= c * p
    del cs[deg:]
    g = math.gcd(den, *cs)
    if g != 1:
        cs = [c // g for c in cs]
        den //= g
    if out is None:
        out = object.__new__(Cyclo)
    _set = object.__setattr__
    _set(out, "order", order)
    _set(out, "num", tuple(cs))
    _set(out, "den", den)
    return out


class Cyclo:
    """sum(num[i] * zeta_order^i) / den in Q(zeta_order); immutable."""

    __slots__ = ("order", "num", "den")

    def __init__(self, coeffs: Iterable[Fraction | int | str], order: int = 1):
        fs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
              for c in coeffs]
        den = math.lcm(*(f.denominator for f in fs))
        folded = [0] * order
        for i, f in enumerate(fs):
            folded[i % order] += f.numerator * (den // f.denominator)
        _cyclo(order, folded, den, self)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Cyclo is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(order: int = 1) -> "Cyclo":
        return Cyclo([], order)

    @staticmethod
    def one(order: int = 1) -> "Cyclo":
        return Cyclo([1], order)

    @staticmethod
    def from_fraction(q: Fraction | int, order: int = 1) -> "Cyclo":
        return Cyclo([q], order)

    # -- basics --------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of zeta^0 .. zeta^(order-1) as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num) + \
            (Fraction(0),) * (self.order - len(self.num))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    def embed(self, order: int) -> "Cyclo":
        """Re-express in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        step = order // self.order
        cs = [0] * order
        for i, c in enumerate(self.num):
            cs[i * step] = c
        return _cyclo(order, cs, self.den)

    def _pair(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if self.order == other.order:
            return self, other
        d = math.lcm(self.order, other.order)
        return self.embed(d), other.embed(d)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Cyclo") -> "Cyclo":
        a, b = self._pair(_as_cyclo(other))
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return _cyclo(a.order, [x * sa + y * sb for x, y in zip(a.num, b.num)],
                      den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return _cyclo(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-_as_cyclo(other))

    def __rsub__(self, other) -> "Cyclo":
        return _as_cyclo(other) - self

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        a, b = self._pair(_as_cyclo(other))
        bn = b.num
        out = [0] * (2 * len(bn) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(bn, i):
                    if y:
                        out[j] += x * y
        return _cyclo(a.order, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Field inverse: the product of the other Galois conjugates over
        the norm, which is rational."""
        if self.is_zero():
            raise ZeroDivisionError("Cyclo inverse of zero")
        d = self.order
        others = Cyclo.one(d)
        for k in range(2, d):
            if math.gcd(k, d) == 1:
                others = others * self._galois(k)
        norm = (self * others).as_fraction()
        scale = norm.denominator if norm > 0 else -norm.denominator
        return _cyclo(d, [c * scale for c in others.num],
                      others.den * abs(norm.numerator))

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        return self * _as_cyclo(other).inverse()

    def conj(self) -> "Cyclo":
        """Complex conjugation: zeta_d -> zeta_d^{-1}."""
        return self._galois(-1)

    def _galois(self, k: int) -> "Cyclo":
        """The Galois conjugate zeta_d -> zeta_d^k (k coprime to d)."""
        d = self.order
        cs = [0] * d
        for i, c in enumerate(self.num):
            cs[(i * k) % d] += c
        return _cyclo(d, cs, self.den)

    def __pow__(self, k: int) -> "Cyclo":
        if k < 0:
            return self.inverse() ** (-k)
        if k <= 1:
            return self if k else Cyclo.one(self.order)
        half = self ** (k >> 1)
        return half * half * self if k & 1 else half * half

    # -- comparison ----------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_fraction(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # values compare across orders; no canonical hash

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mon = f"z{self.order}" + (f"^{i}" if i > 1 else "")
                terms.append(mon if c == 1 else f"{c}*{mon}")
        return " + ".join(terms) if terms else "0"

    # -- float value: display, and the sign of a Gram pivot -------------
    def approx(self) -> complex:
        z = complex(math.cos(2 * math.pi / self.order),
                    math.sin(2 * math.pi / self.order))
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + complex(c)
        return out

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "Cyclo":
        return Cyclo(*wire.scalar(obj))


def _as_cyclo(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.from_fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyclo")


def root_power(order: int, k: int) -> Cyclo:
    """zeta_order^(k mod order)."""
    k %= order
    return Cyclo([0] * k + [1], order)
