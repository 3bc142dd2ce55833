"""Exact arithmetic in cyclotomic fields Q(zeta_d).

A scalar is a rational polynomial in zeta_d, stored canonically reduced
modulo the d-th cyclotomic polynomial Phi_d.  Equality of values is
equality of canonical representations (after embedding into a common
order), so all downstream rewriting is decidable and bit-exact.  The
only floating point is `approx`.  It serves display, and one decision:
`fusion._positive_real` reads the sign of a non-rational Gram pivot from
it, raising InvariantBreach when a 1e-9 guard cannot decide the sign.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

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


def _reduce_mod_phi(coeffs: Sequence[Fraction], d: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_d to the canonical rep of degree < phi(d).

    Returns a tuple of length d padded with zeros above phi(d).
    """
    # First fold exponents mod d (zeta^d = 1).
    folded = [Fraction(0)] * d
    for i, c in enumerate(coeffs):
        folded[i % d] += c
    phi = cyclotomic_poly(d)
    deg = len(phi) - 1
    for k in range(d - 1, deg - 1, -1):
        c = folded[k]
        if c:
            folded[k] = Fraction(0)
            for i in range(deg):
                folded[k - deg + i] -= c * phi[i]
    return tuple(folded)


class Cyclo:
    """An exact element of Q(zeta_order); immutable."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[Fraction | int | str], order: int = 1):
        object.__setattr__(self, "order", order)
        cs = [Fraction(c) for c in coeffs]
        object.__setattr__(self, "coeffs", _reduce_mod_phi(cs, order))

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
        return Cyclo([Fraction(q)], order)

    # -- basics --------------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

    def embed(self, order: int) -> "Cyclo":
        """Re-express in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        step = order // self.order
        cs = [Fraction(0)] * order
        for i, c in enumerate(self.coeffs):
            cs[i * step] = c
        return Cyclo(cs, order)

    def _pair(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        d = math.lcm(self.order, other.order)
        return self.embed(d), other.embed(d)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Cyclo") -> "Cyclo":
        a, b = self._pair(_as_cyclo(other))
        return Cyclo([x + y for x, y in zip(a.coeffs, b.coeffs)], a.order)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo([-c for c in self.coeffs], self.order)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-_as_cyclo(other))

    def __rsub__(self, other) -> "Cyclo":
        return _as_cyclo(other) - self

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        a, b = self._pair(_as_cyclo(other))
        d = a.order
        out = [Fraction(0)] * (2 * d)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return Cyclo(out, d)

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
        return Cyclo([c / norm for c in others.coeffs], d)

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        return self * _as_cyclo(other).inverse()

    def conj(self) -> "Cyclo":
        """Complex conjugation: zeta_d -> zeta_d^{-1}."""
        return self._galois(-1)

    def _galois(self, k: int) -> "Cyclo":
        """The Galois conjugate zeta_d -> zeta_d^k (k coprime to d)."""
        d = self.order
        cs = [Fraction(0)] * d
        for i, c in enumerate(self.coeffs):
            cs[(i * k) % d] += c
        return Cyclo(cs, d)

    def __pow__(self, k: int) -> "Cyclo":
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclo.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ----------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_fraction(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

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
        for i in reversed(range(self.order)):
            out = out * z + complex(self.coeffs[i])
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
