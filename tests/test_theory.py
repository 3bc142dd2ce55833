import json
import pickle
from dataclasses import fields

import pytest

from affa.cyclotomic import Cyclo
from affa.diagram import Morphism
from affa.theory import (
    SPECS,
    BoxKind,
    Family,
    FamilySpec,
    Label,
    MAX_WIRE_N,
    Theory,
    alphabet,
    box_kinds,
    box_signature,
    click_rewrite,
    dual_label,
    kind_adjoint,
    leg_count,
    rooted_theories,
    star_parity,
)


def shaded(n, order=1, exp=0):
    return Theory(Family.SHADED_AODD, n, order, exp)


def arrow_odd(n, order=1, exp=0):
    return Theory(Family.ARROW_AODD, n, order, exp)


def arrow_even(n, order=1, exp=0):
    return Theory(Family.ARROW_AEVEN, n, order, exp)


def color(n, order=1, exp=0):
    return Theory(Family.COLOR_AODD, n, order, exp)


def test_shaded_signature_example():
    th = shaded(2)
    assert box_signature(th, BoxKind.U) == (
        (Label.BLUE, Label.RED), (Label.RED, Label.BLUE))
    assert box_signature(th, BoxKind.USTAR) == (
        (Label.RED, Label.BLUE), (Label.BLUE, Label.RED))
    # V shares U's signature; only the star parity differs
    assert box_signature(th, BoxKind.V) == box_signature(th, BoxKind.U)
    assert star_parity(BoxKind.U) == 0
    assert star_parity(BoxKind.V) == 1


def test_arrow_signatures():
    assert box_signature(arrow_odd(2), BoxKind.U) == (
        (Label.UP, Label.UP), (Label.DOWN, Label.DOWN))
    assert box_signature(arrow_even(1), BoxKind.U) == (
        (Label.UP, Label.UP), (Label.DOWN,))
    assert box_signature(arrow_even(1), BoxKind.USTAR) == (
        (Label.DOWN,), (Label.UP, Label.UP))


def test_source_signatures():
    vec = Theory(Family.VEC_CYCLIC, 3, 3, 1)
    assert box_signature(vec, BoxKind.SCRIPT_U) == ((), (Label.DOT,) * 3)
    su = Theory(Family.SU2_REP, 2, 2, 1)
    assert box_signature(su, BoxKind.NCAP_MINUS) == ((Label.MINUS,) * 2, ())
    assert box_signature(su, BoxKind.NCUP_PLUS) == ((), (Label.PLUS,) * 2)
    with pytest.raises(ValueError):
        box_signature(su, BoxKind.U)


def test_cyc_signature_is_ccw():
    th = shaded(2)
    # bottom left-to-right, then top right-to-left
    assert tuple(lab for lab, _ in th.leg_table[BoxKind.U]) == (
        Label.BLUE, Label.RED, Label.BLUE, Label.RED)
    assert leg_count(arrow_even(1), BoxKind.U) == 3


def test_alphabets_and_duals():
    assert Label.PLAIN in alphabet(shaded(1))
    assert alphabet(Theory(Family.VEC_CYCLIC, 2)) == frozenset({Label.DOT})
    assert dual_label(Label.UP) is Label.DOWN
    assert dual_label(Label.RED) is Label.RED
    assert kind_adjoint(BoxKind.U) is BoxKind.USTAR
    assert kind_adjoint(BoxKind.NCUP_MINUS) is BoxKind.NCAP_MINUS


@pytest.mark.parametrize("enum_type", [Family, Label, BoxKind],
                         ids=lambda t: t.__name__)
def test_enum_members_hash_by_identity_soundly(enum_type):
    # A str mixin would make members equal to their values, which the
    # identity hash does not honour.
    assert Label.RED != "Red"
    assert Label("Red") is Label.RED
    table = {m: i for i, m in enumerate(enum_type)}
    for i, m in enumerate(enum_type):
        assert m != m.value
        assert table[enum_type(m.value)] == i
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, proto)) is m


def test_theory_validation():
    with pytest.raises(ValueError):
        shaded(3, 2, 1)  # 2 does not divide 3
    with pytest.raises(ValueError):
        arrow_even(2, 2, 1)  # 2 does not divide 5
    with pytest.raises(ValueError):
        Theory(Family.SHADED_AINF, 3)
    with pytest.raises(ValueError):
        Theory(Family.ARROW_AINF, None, 2, 1)
    Theory(Family.SHADED_AINF)  # box-free theory is fine
    assert arrow_even(2, 5, 3).root() == Cyclo([0, 0, 0, 1, 0], 5)


def test_theory_json_round_trip():
    for th in (shaded(3, 3, 2), arrow_odd(2, 4, 1), arrow_even(2, 5, 2),
               color(4, 2, 1), Theory(Family.COLOR_AINF),
               Theory(Family.VEC_CYCLIC, 5, 5, 3),
               Theory(Family.SU2_REP, 3, 3, 1)):
        assert Theory.from_json(th.to_json()) == th
    with pytest.raises(ValueError):
        Theory.from_json({"family": "NoSuchFamily"})


def test_theory_json_is_read_to_one_instance_per_presentation():
    for th in (shaded(3, 3, 2), arrow_even(2, 5, 2), Theory(Family.COLOR_AINF),
               Theory(Family.SU2_REP, 3, 3, 1)):
        first = Theory.from_json(th.to_json())
        assert Theory.from_json(json.loads(json.dumps(th.to_json()))) is first
        assert first == th
    # a refused theory is not cached: it is refused on every read
    root = {"order": 1, "exp": 0}
    for doc, message in (
            ({"family": "ShadedAodd", "n": MAX_WIRE_N + 1, "root": root},
             "exceeds"),
            ({"family": "ShadedAodd", "n": True, "root": root},
             "must be an integer"),
            ({"family": "ShadedAodd", "n": 3, "root": {"order": 2, "exp": 1}},
             "must divide"),
            ({"family": "ShadedAodd", "n": 3, "root": {"order": 3, "exp": 3}},
             "reduced")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Theory.from_json(doc)


def test_click_rewrite_round_trips():
    for th in rooted_theories(3):
        for kind in box_kinds(th):
            k2, c_fwd = click_rewrite(th, kind, +1)
            k3, c_back = click_rewrite(th, k2, -1)
            assert k3 is kind
            assert c_fwd * c_back == Cyclo.one()


def test_full_rotation_is_identity():
    """Applying the click rewrite leg-count many times returns the original
    kind with total scalar 1."""
    for th in rooted_theories(3):
        for kind in box_kinds(th):
            cur, total = kind, Cyclo.one()
            for _ in range(leg_count(th, kind)):
                cur, c = click_rewrite(th, cur, +1)
                total = total * c
            assert cur is kind
            assert total == Cyclo.one()


def test_rooted_theories_cover_every_root():
    theories = rooted_theories(3)
    assert len(theories) == len(set(theories)) == 39
    assert {th.family for th in theories} == {
        Family.SHADED_AODD, Family.ARROW_AODD, Family.ARROW_AEVEN,
        Family.COLOR_AODD}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_family_spec_is_consistent(family):
    infinite = SPECS[family].category == "infinite"
    for n in (1, 2, 3):
        th = Theory(family, None if infinite else n)
        for kind in box_kinds(th):
            bot, top = box_signature(th, kind)
            assert set(bot + top) <= alphabet(th)
            assert box_signature(th, kind_adjoint(kind)) == (top, bot)
        # the click orbits partition the boxes of every family with clicks
        orbits = [k for orbit in th.spec.orbits for k in orbit]
        if th.spec.click:
            assert sorted(orbits, key=lambda k: k.value) == \
                sorted(box_kinds(th), key=lambda k: k.value)


# Per family: the root bound and the grading order at size n (None where
# the family has none), and (category, oriented, group) as each family
# stated them before they were read off the presentation.
REFERENCE = {
    Family.SHADED_AODD: (lambda n: n, lambda n: 2 * n,
                         ("finite", False, "dihedral")),
    Family.COLOR_AODD: (lambda n: n, lambda n: 2 * n,
                        ("finite", False, "dihedral")),
    Family.ARROW_AODD: (lambda n: 2 * n, lambda n: 2 * n,
                        ("finite", True, "cyclic")),
    Family.ARROW_AEVEN: (lambda n: 2 * n + 1, lambda n: 2 * n + 1,
                         ("finite", True, "cyclic")),
    Family.SHADED_AINF: (None, None, ("infinite", False, "dihedral")),
    Family.ARROW_AINF: (None, None, ("infinite", True, "cyclic")),
    Family.COLOR_AINF: (None, None, ("infinite", False, "dihedral")),
    Family.VEC_CYCLIC: (lambda m: m, None, ("source", False, None)),
    Family.SU2_REP: (lambda m: m, None, ("source", True, None)),
}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_derived_orders_and_groups_match_the_reference(family):
    assert [f.name for f in fields(FamilySpec) if f.init] == [
        "alphabet", "plain", "shaded", "r_strand", "conjugate_image",
        "boxes", "click"]
    bound, grading, facts = REFERENCE[family]
    spec = SPECS[family]
    assert (spec.category, spec.oriented, spec.group) == facts
    if spec.category == "infinite":
        th = Theory(family)
        with pytest.raises(ValueError):
            th.root_bound()
        assert th.grading()[1] == th.labeling_group()[1] == 0
        return
    for n in range(1, 13):
        th = Theory(family, n)
        assert th.root_bound() == bound(n)
        if grading is None:
            with pytest.raises(ValueError):
                th.grading()
        else:
            assert th.grading()[1] == grading(n)
            assert th.labeling_group()[1] == bound(n)


def test_root_orders_are_the_divisors_of_the_full_turn_sum():
    # one full turn of a generator is the identity diagram, so the click
    # exponents over it give root**N = 1, and exactly those roots are legal
    for fam, spec in SPECS.items():
        if spec.category != "finite":
            continue
        for n in range(1, 5):
            bound = Theory(fam, n).root_bound()
            for d in range(1, 2 * bound + 1):
                if bound % d:
                    with pytest.raises(ValueError):
                        Theory(fam, n, d, 1 % d)
                else:
                    Theory(fam, n, d, 1 % d)
    for th in rooted_theories(3):
        for kind in box_kinds(th):
            g = Morphism.generator(th, kind)
            assert g.click(leg_count(th, kind)).terms == g.terms, (th, kind)


def test_box_kind_lists():
    assert box_kinds(shaded(1)) == (BoxKind.U, BoxKind.USTAR,
                                    BoxKind.V, BoxKind.VSTAR)
    assert box_kinds(Theory(Family.SHADED_AINF)) == ()
    assert len(box_kinds(Theory(Family.SU2_REP, 1))) == 4
