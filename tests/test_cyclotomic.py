import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affa.cyclotomic import (
    Cyclo,
    cyclotomic_poly,
    root_power,
)

F = Fraction


def test_cyclotomic_polys_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_canonicalize_examples():
    # 1 + x + x^2 + x^3 at order 4 reduces to zero
    assert Cyclo([1, 1, 1, 1], 4).is_zero()
    assert Cyclo([1], 1) == Cyclo.one()
    # zeta_6^6 = 1
    assert Cyclo([0] * 6 + [1], 6) == Cyclo.one(6)


def test_pow_multiplies_only_while_bits_remain(monkeypatch):
    calls = []
    mul = Cyclo.__mul__
    monkeypatch.setattr(Cyclo, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    z8 = root_power(8, 1)
    counts = []
    for k in (1, 2, 3, 4, 8):
        calls.clear()
        assert z8 ** k == root_power(8, k)
        counts.append(len(calls))
    assert counts == [0, 1, 2, 2, 3]
    monkeypatch.undo()
    assert z8 ** 0 == Cyclo.one(8) and (z8 ** 0).order == 8
    assert z8 ** -3 == root_power(8, -3)
    assert Cyclo.from_fraction(F(2, 3)) ** -2 == Cyclo.from_fraction(F(9, 4))
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero() ** -1


def test_arith_examples():
    z4 = root_power(4, 1)
    assert z4 * z4 == Cyclo.from_fraction(-1)
    z6 = root_power(6, 1)
    assert z6.conj() == root_power(6, 5)
    z3 = root_power(3, 1)
    assert (z3 + -z3).is_zero()
    # operands of different orders meet in the common field
    assert (z3 + z4).order == 12


def test_root_power_examples():
    assert root_power(1, 7) == Cyclo.one()
    assert root_power(4, -1) == root_power(4, 3)
    assert root_power(2, 3) == Cyclo.from_fraction(-1)


def test_root_power_inverse_pairs():
    for d in range(1, 13):
        for k in range(d):
            assert root_power(d, k) * root_power(d, d - k) == Cyclo.one(d)


def test_cross_order_equality_and_embedding():
    assert Cyclo.one(1) == Cyclo.one(4)
    assert root_power(2, 1) == root_power(6, 3)
    x = root_power(3, 1)
    assert x.embed(12) == root_power(12, 4)
    with pytest.raises(ValueError):
        x.embed(8)


def test_inverse_and_division():
    random.seed(1)
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15):
        for _ in range(5):
            x = Cyclo([Fraction(random.randint(-3, 3)) for _ in range(d)], d)
            if x.is_zero():
                continue
            assert x * x.inverse() == Cyclo.one(d)
            assert (x / x) == Cyclo.one(d)


@settings(max_examples=60)
@given(
    d=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_conj_ring_homomorphism(d, data):
    coeffs = st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=d, max_size=d,
    )
    a = Cyclo(data.draw(coeffs), d)
    b = Cyclo(data.draw(coeffs), d)
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


def test_canonical_reduction_degree():
    for d in (1, 2, 3, 4, 6, 8, 12):
        x = Cyclo([1] * (3 * d), d)
        deg = len(cyclotomic_poly(d)) - 1
        assert all(c == 0 for c in x.coeffs[deg:])
        assert len(x.coeffs) == d or d == 1


def test_json_round_trip():
    x = Cyclo([Fraction(1, 2), -2, 0, Fraction(7, 3)], 12)
    assert Cyclo.from_json(x.to_json()) == x
    with pytest.raises(ValueError):
        Cyclo.from_json({"coeffs": []})


def test_approx_display_helper():
    z8 = root_power(8, 1)
    v = z8.approx()
    assert math.isclose(v.real, math.cos(math.pi / 4), abs_tol=1e-12)
    assert math.isclose(v.imag, math.sin(math.pi / 4), abs_tol=1e-12)



# A Fraction reference for the property below: the coefficients of
# zeta_d^0 .. zeta_d^(d-1), exponents folded mod d, reduced mod Phi_d.
def _ref(coeffs, d):
    folded = [Fraction(0)] * d
    for i, c in enumerate(coeffs):
        folded[i % d] += Fraction(c)
    phi = cyclotomic_poly(d)
    deg = len(phi) - 1
    for k in range(d - 1, deg - 1, -1):
        c, folded[k] = folded[k], Fraction(0)
        for i in range(deg):
            folded[k - deg + i] -= c * phi[i]
    return tuple(folded)


def _ref_embed(r, d, e):
    out = [Fraction(0)] * e
    for i, c in enumerate(r):
        out[i * (e // d)] = c
    return _ref(out, e)


def _ref_mul(r, s, d):
    out = [Fraction(0)] * (2 * d)
    for i, x in enumerate(r):
        for j, y in enumerate(s):
            out[i + j] += x * y
    return _ref(out, d)


def _ref_galois(r, d, k):
    out = [Fraction(0)] * d
    for i, c in enumerate(r):
        out[(i * k) % d] += c
    return _ref(out, d)


def _assert_normal(x):
    assert len(x.num) == len(cyclotomic_poly(x.order)) - 1
    assert all(type(c) is int for c in (x.den, *x.num))
    assert x.den >= 1 and math.gcd(x.den, *x.num) == 1


@settings(max_examples=150, deadline=None)
@given(
    da=st.integers(min_value=1, max_value=12),
    db=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_integer_arithmetic_matches_fraction_reference(da, db, data):
    def coeffs(d):
        return data.draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            max_size=2 * d))

    ca, cb = coeffs(da), coeffs(db)
    a, b = Cyclo(ca, da), Cyclo(cb, db)
    e = math.lcm(da, db)
    ra, rb = _ref_embed(_ref(ca, da), da, e), _ref_embed(_ref(cb, db), db, e)
    assert a.coeffs == _ref(ca, da) and b.coeffs == _ref(cb, db)
    results = {
        "+": (a + b, tuple(x + y for x, y in zip(ra, rb))),
        "-": (a - b, tuple(x - y for x, y in zip(ra, rb))),
        "*": (a * b, _ref_mul(ra, rb, e)),
        "conj": (a.conj(), _ref_galois(_ref(ca, da), da, -1)),
    }
    for op, (got, want) in results.items():
        assert got.coeffs == want, op
        _assert_normal(got)
    for x in (a, b, -a, a.embed(e)):
        _assert_normal(x)
    assert (a == b) == (ra == rb)
    assert a == Cyclo(ra, e) and b == Cyclo(rb, e)
    # equal values at one order have equal numerators and denominators
    same = [a.embed(e), (a + b) - b, (a * b + a) - a * b, Cyclo(ra, e)]
    assert len({(x.order, x.num, x.den) for x in same}) == 1
    if not a.is_zero():
        inv = a.inverse()
        _assert_normal(inv)
        assert _ref_mul(inv.coeffs, _ref(ca, da), da) == _ref([1], da)


# repr and to_json of fixed values, as printed before integer numerators.
# One value per order: whether a value of Q(zeta_3) prints at order 3 or 6
# depends on the order it was computed in, and is not pinned here.
PRINTED = [
    (Cyclo.zero(), "0", ["0"]),
    (Cyclo.zero(8), "0", ["0"] * 8),
    (Cyclo([F(1, 2)]), "1/2", ["1/2"]),
    (Cyclo([F(7, 3), -2], 3), "7/3 + -2*z3", ["7/3", "-2", "0"]),
    (Cyclo([F(1, 2), 0, F(7, 3)], 4), "-11/6", ["-11/6", "0", "0", "0"]),
    (Cyclo([0, F(1, 2), F(7, 3)], 6), "-7/3 + 17/6*z6",
     ["-7/3", "17/6", "0", "0", "0", "0"]),
    (Cyclo([1, F(1, 2), 0, F(-7, 3)], 8), "1 + 1/2*z8 + -7/3*z8^3",
     ["1", "1/2", "0", "-7/3", "0", "0", "0", "0"]),
    (Cyclo([F(1, 2), -2, 0, F(7, 3)], 12), "1/2 + -2*z12 + 7/3*z12^3",
     ["1/2", "-2", "0", "7/3"] + ["0"] * 8),
    (Cyclo([2, 1], 3).inverse(), "1/3 + -1/3*z3", ["1/3", "-1/3", "0"]),
    (Cyclo([1, 1], 8).inverse(), "1/2 + -1/2*z8 + 1/2*z8^2 + -1/2*z8^3",
     ["1/2", "-1/2", "1/2", "-1/2", "0", "0", "0", "0"]),
    (Cyclo([F(1, 2), 0, 0, 0, F(7, 3)], 12).inverse(),
     "18/163 + -84/163*z12^2", ["18/163", "0", "-84/163"] + ["0"] * 9),
]


@pytest.mark.parametrize("value, text, coeffs", PRINTED,
                         ids=[t for _, t, _ in PRINTED])
def test_printed_forms_are_unchanged(value, text, coeffs):
    assert repr(value) == text
    assert value.to_json() == {"order": value.order, "coeffs": coeffs}
