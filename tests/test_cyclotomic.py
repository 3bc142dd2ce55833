import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affa.cyclotomic import (
    Cyclo,
    cyclotomic_poly,
    euler_phi,
    root_power,
)


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
        deg = euler_phi(d)
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
