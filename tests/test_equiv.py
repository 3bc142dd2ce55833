import random
from itertools import product

import pytest

from affa import equiv
from affa.cyclotomic import Cyclo, root_power
from affa.diagram import Morphism
from affa.equiv import (
    CocycleSpec,
    check_cocycle,
    check_functor,
    cocycle,
    image_theory,
    source_theory,
    to_image,
)
from affa.evaluate import eval_closed, inner_product, morphism_eq
from affa.theory import BoxKind, Family, Label, Theory


VEC3 = source_theory("vec", 3, 1)
VEC4 = source_theory("vec", 4, 1)
REP2 = source_theory("rep", 2)
REP3 = source_theory("rep", 3)


def test_cocycle_spec_validation():
    with pytest.raises(ValueError):
        CocycleSpec(0, Cyclo.one())
    with pytest.raises(ValueError):
        CocycleSpec(3, root_power(4, 1))  # i is not a cube root of 1


def test_cocycle_carry_values():
    spec = CocycleSpec(2, root_power(2, 1))  # zeta = -1
    assert cocycle(spec, 1, 1, 1) == -Cyclo.one()
    assert cocycle(spec, 0, 1, 1) == Cyclo.one()
    assert cocycle(spec, 1, 1, 0) == Cyclo.one()
    with pytest.raises(ValueError):
        cocycle(spec, 2, 0, 0)


@pytest.mark.parametrize("m", range(1, 7))
def test_cocycle_identity_all_roots(m):
    for e in range(m):
        assert check_cocycle(CocycleSpec(m, root_power(m, e)))


def _cyclo_identity(spec):
    """The 3-cocycle identity on `Cyclo` products of `cocycle` values: the
    reference the exponent check must agree with."""
    m, w = spec.m, cocycle
    return all(w(spec, (a + b) % m, c, d) * w(spec, a, b, (c + d) % m)
               == w(spec, a, b, c) * w(spec, a, (b + c) % m, d)
               * w(spec, b, c, d)
               for a, b, c, d in product(range(m), repeat=4))


@pytest.mark.parametrize("m", range(1, 5))
def test_exponent_check_agrees_with_cyclo_identity(m):
    for e in range(m):
        # zeta given in order m and in the larger order 2m
        for zeta in (root_power(m, e), root_power(2 * m, 2 * e)):
            spec = CocycleSpec(m, zeta)
            assert spec.zeta_exp == e
            assert check_cocycle(spec) == _cyclo_identity(spec)


@pytest.mark.parametrize("m", [3, 4])
def test_exponent_check_sees_a_perturbed_carry(m, monkeypatch):
    # at m = 2 the carry cocycle is the indicator of (1, 1, 1) itself, so
    # adding it again leaves a cocycle; m >= 3 must fail
    carry = equiv._carry
    monkeypatch.setattr(equiv, "_carry", lambda m, i, j, k:
                        carry(m, i, j, k) + ((i, j, k) == (1, 1, 1)))
    spec = CocycleSpec(m, root_power(m, 1))
    assert not check_cocycle(spec)
    assert not _cyclo_identity(spec)


def test_cocycle_spec_exponent_is_not_part_of_its_value():
    spec = CocycleSpec(2, root_power(2, 1))
    assert spec == CocycleSpec(2, root_power(4, 2))
    assert repr(spec) == f"CocycleSpec(m=2, zeta={root_power(2, 1)!r})"


def test_image_theory_parity_and_conjugate_root():
    th = image_theory(VEC4)
    assert th.family is Family.ARROW_AODD and th.n == 2
    assert th.root() == VEC4.root().conj()
    th = image_theory(VEC3)
    assert th.family is Family.ARROW_AEVEN and th.n == 1
    assert th.root() == VEC3.root().conj()
    assert image_theory(REP3).root() == Cyclo.one()


def test_image_theory_rejections():
    with pytest.raises(ValueError):
        image_theory(Theory(Family.ARROW_AODD, 1, 1, 0))
    with pytest.raises(ValueError):
        image_theory(source_theory("vec", 1))


def test_functor_images_check_their_source():
    gen = Morphism.generator(VEC3, BoxKind.SCRIPT_U)
    assert not to_image(gen).is_zero()
    with pytest.raises(ValueError):
        to_image(to_image(gen))  # an arrow-theory morphism has no image


def test_image_respects_compose_and_tensor():
    u = Morphism.generator(VEC3, BoxKind.SCRIPT_U)
    ustar = Morphism.generator(VEC3, BoxKind.SCRIPT_USTAR)
    lhs = to_image(ustar.compose(u))
    rhs = to_image(ustar).compose(to_image(u))
    assert morphism_eq(lhs, rhs)
    lhs = to_image(u.tensor(ustar))
    rhs = to_image(u).tensor(to_image(ustar))
    assert morphism_eq(lhs, rhs)


def test_rotated_source_box_is_not_in_the_image():
    u = Morphism.generator(VEC3, BoxKind.SCRIPT_U, 1)
    with pytest.raises(ValueError):
        to_image(u)
    cap = Morphism.generator(REP2, BoxKind.NCAP_PLUS, 1)
    with pytest.raises(ValueError):
        to_image(cap)


def test_closed_source_diagrams_evaluate_through_the_image():
    u = Morphism.generator(VEC3, BoxKind.SCRIPT_U)
    ustar = Morphism.generator(VEC3, BoxKind.SCRIPT_USTAR)
    assert eval_closed(ustar.compose(u)) == Cyclo.one()
    cap = Morphism.generator(REP2, BoxKind.NCAP_PLUS)
    cup = Morphism.generator(REP2, BoxKind.NCUP_PLUS)
    assert eval_closed(cap.compose(cup)) == Cyclo.one()


def test_size_one_source_is_trivial():
    th = source_theory("vec", 1)
    u = Morphism.generator(th, BoxKind.SCRIPT_U)
    ustar = Morphism.generator(th, BoxKind.SCRIPT_USTAR)
    assert eval_closed(ustar.compose(u)) == Cyclo.one()
    # the plain strand is Plus + Minus, so a plain loop is worth two at
    # size one as through the image at every larger size
    for m in range(1, 5):
        th = source_theory("rep", m)
        plain = Morphism.identity(th, [Label.PLAIN])
        assert eval_closed(Morphism.loop(th, Label.PLAIN)) \
            == Cyclo.from_fraction(2), m
        assert inner_product(plain, plain) == Cyclo.from_fraction(2), m
        # beside a closed box pair: still one factor of two per loop
        cup = Morphism.generator(th, BoxKind.NCUP_MINUS)
        loops = Morphism.loop(th, Label.PLAIN).tensor(
            Morphism.loop(th, Label.PLAIN))
        assert eval_closed(loops.tensor(cup.adjoint().compose(cup))) \
            == Cyclo.from_fraction(4), m
    # at size one two boxes that are not adjoint still close to one
    th = source_theory("rep", 1)
    caps = Morphism.generator(th, BoxKind.NCAP_PLUS).tensor(
        Morphism.generator(th, BoxKind.NCAP_MINUS))
    assert eval_closed(caps.compose(Morphism.cup(th, Label.PLUS))) \
        == Cyclo.one()


@pytest.mark.parametrize("m", range(1, 5))
def test_check_functor_vec_all_roots(m):
    for e in range(m):
        report = check_functor("vec", m, e)
        assert report["ok"], report


@pytest.mark.parametrize("m", range(1, 5))
def test_check_functor_rep(m):
    assert check_functor("rep", m)["ok"]


def test_source_theory_validation():
    with pytest.raises(ValueError):
        source_theory("nope", 2)
    th = source_theory("vec", 4, 2)  # reduced: a square root of unity
    assert (th.root_order, th.root_exp) == (2, 1)


def _source_layer(th, rng, word):
    """A random tensor product of source generators at rotation 0 and
    identities whose bottom is `word`: a box with no bottom legs may go in
    before any letter, and one with no top legs takes the next letters
    when they fit its bottom."""
    gens = [Morphism.generator(th, kind) for kind in th.spec.kinds]
    pieces, i = [], 0
    while True:
        if rng.random() < 0.3:
            pieces.append(rng.choice([g for g in gens if not g.bottom]))
        if i == len(word):
            break
        caps = [g for g in gens
                if g.bottom and g.bottom == tuple(word[i:i + len(g.bottom)])]
        if caps and rng.random() < 0.5:
            pieces.append(rng.choice(caps))
            i += len(pieces[-1].bottom)
        else:
            pieces.append(Morphism.identity(th, word[i:i + 1]))
            i += 1
    out = Morphism.identity(th, [])
    for p in pieces:
        out = out.tensor(p)
    return out


@pytest.mark.parametrize("which", ["vec", "rep"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_image_commutes_with_compose_tensor_and_adjoint(which, m):
    # term for term, not only after evaluation: to_image relabels each
    # strand, so the image of a product is the product of the images
    th = source_theory(which, m, 1)
    rng = random.Random(m)
    boxes = 0
    for _ in range(12):
        f = _source_layer(th, rng, ())
        while not f.top:
            f = _source_layer(th, rng, ())
        f = _source_layer(th, rng, f.top).compose(f)
        g = _source_layer(th, rng, f.top)
        h = _source_layer(th, rng, ())
        gf = g.compose(f)
        assert to_image(gf) == to_image(g).compose(to_image(f))
        assert to_image(gf.tensor(h)) == to_image(gf).tensor(to_image(h))
        assert to_image(gf.adjoint()) == to_image(gf).adjoint()
        assert to_image(f.adjoint().compose(f)) == \
            to_image(f).adjoint().compose(to_image(f))
        boxes += sum(len(d.boxes) for d in gf.terms)
    assert boxes >= 24


@pytest.mark.parametrize("which", ["vec", "rep"])
@pytest.mark.parametrize("m", range(1, 7))
def test_hom_dims_match_the_per_word_route(which, m):
    # the report grades its words as it grows them; the reference builds
    # every word and grades its image through fusion.grading
    from affa.fusion import Word, grading
    image = {Label.DOT: Label.DOWN, Label.PLUS: Label.UP,
             Label.MINUS: Label.DOWN}
    weight = {Label.DOT: 1, Label.PLUS: 1, Label.MINUS: -1}
    for e in range(m):
        th = source_theory(which, m, e)
        letters = [l for l in th.spec.alphabet if l is not Label.PLAIN]
        tt = image_theory(th) if m > 1 else None  # size one: no image
        rows = []
        for length in range(2 * m + 1):
            for word in product(letters, repeat=length):
                src = 1 if sum(weight[l] for l in word) % m == 0 else 0
                tgt = 1 if tt is None or grading(
                    Word(tt, tuple(image[l] for l in word))) \
                    == grading(Word(tt, ())) else 0
                rows.append({"word": [l.value for l in word], "source": src,
                             "target": tgt, "ok": src == tgt})
        assert check_functor(which, m, e)["hom_dims"] == rows
