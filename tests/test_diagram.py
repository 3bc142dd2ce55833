import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affa.cyclotomic import Cyclo, root_power
from affa.diagram import (
    Diagram,
    Morphism,
    Strand,
    _ep_key,
    anchor,
    bnd,
    boxleg,
    walk_faces,
)
from affa.theory import (
    SPECS,
    BoxKind,
    Family,
    InvariantBreach,
    Label,
    Theory,
    box_kinds,
    dual_label,
    rooted_theories,
)


SH2 = Theory(Family.SHADED_AODD, 2, 2, 1)
SH1 = Theory(Family.SHADED_AODD, 1)
AR2 = Theory(Family.ARROW_AODD, 2, 4, 1)
AE1 = Theory(Family.ARROW_AEVEN, 1, 3, 1)
CO2 = Theory(Family.COLOR_AODD, 2, 2, 1)
AINF = Theory(Family.ARROW_AINF)


def the_diagram(m: Morphism) -> Diagram:
    (d,) = m.terms
    return d


def test_identity_validates_with_two_faces():
    m = Morphism.identity(SH2, [Label.RED])
    d = the_diagram(m)
    assert d.validate() == []
    assert len(d.faces()) == 2


def test_generators_validate_everywhere():
    theories = [SH2, SH1, AR2, AE1, CO2,
                Theory(Family.VEC_CYCLIC, 3, 3, 1),
                Theory(Family.SU2_REP, 2, 2, 1)]
    from affa.theory import box_kinds, leg_count
    for th in theories:
        for kind in box_kinds(th):
            for rot in range(leg_count(th, kind)):
                d = the_diagram(Morphism.generator(th, kind, rot))
                assert d.validate() == [], (th, kind, rot, d.validate())


def test_bare_box_face_count():
    # a lone k-legged box cut out of the plane leaves k regions
    from affa.theory import box_kinds, leg_count
    for th in (SH2, AR2, AE1):
        for kind in box_kinds(th):
            d = the_diagram(Morphism.generator(th, kind))
            assert len(d.faces()) == leg_count(th, kind)


def test_walk_faces_labels_roots_and_clashes():
    # faces 0-1-2 in a row and face 3 alone; face 2 leads its component
    path = [(0, 1, -1), (1, 0, -1), (1, 2, -1), (2, 1, -1)]
    assert walk_faces(4, path, 1) == ([1, -1, 1, 1], [0, 0, 0, 3])
    assert walk_faces(4, path, 1, first=(2,)) == ([1, -1, 1, 1], [2, 2, 2, 3])
    with pytest.raises(InvariantBreach, match="two labels"):
        walk_faces(3, path + [(0, 2, -1)], 1)


def test_crossing_is_rejected():
    s1 = Strand(bnd("top", 0), bnd("top", 2), Label.RED)
    s2 = Strand(bnd("top", 1), bnd("top", 3), Label.RED)
    d = Diagram.make(SH2, [], [Label.RED] * 4, [], [s1, s2])
    assert any("non-planar" in e for e in d.validate())
    # the nested matching is fine
    s1 = Strand(bnd("top", 0), bnd("top", 3), Label.RED)
    s2 = Strand(bnd("top", 1), bnd("top", 2), Label.RED)
    d = Diagram.make(SH2, [], [Label.RED] * 4, [], [s1, s2])
    assert d.validate() == []


def test_planarity_is_counted_per_component():
    # the crossing arcs (V=1, E=2, F=1) beside a free loop (V=1, E=1,
    # F=2): V - E + F is 2 in all, but 2 per component is 4
    s1 = Strand(bnd("top", 0), bnd("top", 2), Label.RED)
    s2 = Strand(bnd("top", 1), bnd("top", 3), Label.RED)
    loop = Strand(anchor(0, 0), anchor(0, 1), Label.RED)
    d = Diagram.make(SH2, [], [Label.RED] * 4, [], [s1, s2, loop])
    assert d.validate() == ["non-planar: V=2 E=3 F=3 over 2 components"]


def test_one_face_table_serves_every_reader(monkeypatch):
    # _made_shaded's check builds the table of the diagram it makes;
    # validate, the region labels and the exponent read that same table
    import affa.diagram
    from affa.labeling import label_regions, term_exponent
    built = []
    build = affa.diagram._face_table
    monkeypatch.setattr(affa.diagram, "_face_table",
                        lambda d: built.append(d) or build(d))
    u = Morphism.generator(SH2, BoxKind.U)
    d = the_diagram(u.adjoint().compose(u).trace_close())
    assert d.boxes and sum(x is d for x in built) == 1
    assert d.validate() == []
    lab = label_regions(d)
    assert term_exponent(d)[0].faces is lab.faces is d.faces()
    assert sum(x is d for x in built) == 1
    assert d.face_index() is d.face_index()


def test_label_mismatch_is_rejected():
    s = Strand(bnd("bottom", 0), bnd("top", 0), Label.RED)
    d = Diagram.make(SH2, [Label.BLUE], [Label.RED], [], [s])
    assert d.validate() != []


def test_flow_mismatch_is_rejected():
    # an Up strand must flow bottom -> top
    s = Strand(bnd("bottom", 0), bnd("top", 0), Label.UP, -1)
    d = Diagram.make(AR2, [Label.UP], [Label.UP], [], [s])
    assert any("flow" in e for e in d.validate())


def test_make_names_oriented_strands_and_from_json_refuses_them():
    # an oriented strand is named by the object at its source: make
    # renames a mislabeled one, while a JSON term as written is refused
    cases = 0
    for th in rooted_theories(2):
        if not th.is_oriented():
            continue
        for kind in box_kinds(th):
            d = the_diagram(
                Morphism.generator(th, kind, 1).click(1).adjoint())
            wrong = [Strand(s.a, s.b, dual_label(s.label), s.dir)
                     if s.dir and s.a[0] != "anchor" else s
                     for s in d.strands]
            assert wrong != list(d.strands)
            assert Diagram.make(th, d.bottom, d.top, d.boxes, wrong) == d
            term = Diagram(th, d.bottom, d.top, d.boxes, d.n_anchors,
                           tuple(wrong)).to_json()
            with pytest.raises(ValueError, match="source object"):
                Diagram.from_json(term)
            cases += 1
    assert cases == 28


def test_compose_identity_unit():
    for th, kind in ((SH2, BoxKind.U), (AR2, BoxKind.USTAR),
                     (AE1, BoxKind.U), (CO2, BoxKind.V)):
        g = Morphism.generator(th, kind)
        assert Morphism.identity(th, g.top).compose(g) == g
        assert g.compose(Morphism.identity(th, g.bottom)) == g


def test_tensor_associative_and_boundary():
    a = Morphism.generator(SH2, BoxKind.U)
    b = Morphism.identity(SH2, [Label.RED])
    c = Morphism.cup(SH2, Label.BLUE)
    assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))
    t = a.tensor(c)
    assert t.top == a.top + c.top


def test_cap_after_cup_is_a_loop():
    m = Morphism.cap(SH2, Label.RED).compose(Morphism.cup(SH2, Label.RED))
    assert m == Morphism.loop(SH2, Label.RED)
    m = Morphism.cap(AR2, Label.UP).compose(Morphism.cup(AR2, Label.UP))
    assert m == Morphism.loop(AR2, Label.UP)


def test_zigzag_is_identity():
    for th, lab in ((SH2, Label.RED), (AR2, Label.UP), (AR2, Label.DOWN),
                    (Theory(Family.SU2_REP, 2, 2, 1), Label.PLUS)):
        ident = Morphism.identity(th, [lab])
        from affa.theory import dual_label
        lower = ident.tensor(Morphism.cup(th, dual_label(lab)))
        upper = Morphism.cap(th, lab).tensor(ident)
        assert upper.compose(lower) == ident


def test_compose_mismatch_is_zero():
    # red meets blue through the interface: the term vanishes
    top_red = Morphism.identity(SH2, [Label.RED])
    bot_blue = Morphism.identity(SH2, [Label.BLUE])
    assert top_red.compose(bot_blue).is_zero()
    # gluing cup(Up)'s [Up, Down] under cap(Down)'s [Down, Up] clashes too
    cup = Morphism.cup(AR2, Label.UP)
    cap = Morphism.cap(AR2, Label.DOWN)
    assert cap.compose(cup).is_zero()
    assert not Morphism.cap(AR2, Label.UP).compose(cup).is_zero()


def test_shading_clash_is_zero():
    # U's star region is unshaded, V*'s is shaded; stacked at n=1 they share
    # the left region, so the composite vanishes
    u = Morphism.generator(SH1, BoxKind.U)
    vstar = Morphism.generator(SH1, BoxKind.VSTAR)
    assert vstar.compose(u).is_zero()
    ustar = Morphism.generator(SH1, BoxKind.USTAR)
    assert not ustar.compose(u).is_zero()


def test_unshadable_tensor_product_is_zero():
    # tensor is a splice with no pairs, so it ends in the same shading
    # check as compose and trace closure: two generators side by side
    # whose boxes no checkerboard shading fits are the zero term
    from affa.theory import leg_count
    products, zero = 0, Counter()
    for th in rooted_theories(2):
        gens = [Morphism.generator(th, kind, r) for kind in box_kinds(th)
                for r in range(leg_count(th, kind))]
        for a, b in itertools.product(gens, repeat=2):
            m = a.tensor(b)
            products += 1
            zero[th.family, th.n] += m.is_zero()
            assert all(d.validate() == [] for d in m.terms), (th, a, b)
    assert products == 1616
    assert +zero == {(Family.SHADED_AODD, 2): 256,
                     (Family.SHADED_AODD, 1): 32}


def test_adjoint_is_involution():
    for m in (Morphism.generator(SH2, BoxKind.U, rot=1),
              Morphism.generator(AE1, BoxKind.U),
              Morphism.cup(AR2, Label.UP),
              Morphism.cap(CO2, Label.BLUE),
              Morphism.loop(AR2, Label.UP)):
        assert m.adjoint().adjoint() == m


def test_adjoint_antihomomorphism():
    u = Morphism.generator(SH2, BoxKind.U)
    ustar = Morphism.generator(SH2, BoxKind.USTAR)
    lhs = ustar.compose(u).adjoint()
    rhs = u.adjoint().compose(ustar.adjoint())
    assert lhs == rhs


def test_adjoint_of_generator_is_adjoint_kind():
    u = Morphism.generator(AE1, BoxKind.U)
    assert u.adjoint() == Morphism.generator(AE1, BoxKind.USTAR)
    v = Morphism.generator(SH2, BoxKind.V)
    assert v.adjoint() == Morphism.generator(SH2, BoxKind.VSTAR)


def test_click_boundary_matches_tables():
    # one notch turns U's boundary into Vstar's (shaded), and leaves the
    # arrow U boundary invariant
    u = Morphism.generator(SH2, BoxKind.U).click(1)
    vstar = Morphism.generator(SH2, BoxKind.VSTAR)
    assert (u.bottom, u.top) == (vstar.bottom, vstar.top)
    au = Morphism.generator(AR2, BoxKind.U).click(1)
    assert (au.bottom, au.top) == ((Label.UP,) * 2, (Label.DOWN,) * 2)


def test_click_full_turn_is_structural_identity():
    from affa.theory import leg_count
    for th, kind in ((SH2, BoxKind.U), (AR2, BoxKind.USTAR),
                     (AE1, BoxKind.U), (CO2, BoxKind.VSTAR)):
        m = Morphism.generator(th, kind, rot=1)
        k = leg_count(th, kind)
        assert m.click(k) == m
        assert m.click(1).click(-1) == m


def test_click_by_c_equals_c_single_notches():
    for th in rooted_theories(3):
        for kind in box_kinds(th):
            g = Morphism.generator(th, kind)
            pair = g.tensor(Morphism.identity(th, [Label.PLAIN])) \
                .tensor(g.adjoint())
            two = g.compose(g.adjoint()) + Morphism.identity(th, g.top) \
                .scale(th.root())
            for m in (g, pair, two):
                k = len(m.bottom) + len(m.top)
                for sign in (+1, -1):
                    notched = m
                    for c in range(1, 2 * k + 2):
                        notched = notched.click(sign)
                        assert m.click(sign * c) == notched, (th, kind, c)


def test_trace_of_identity_is_loops():
    w = [Label.RED, Label.BLUE]
    tr = Morphism.identity(SH2, w).trace_close("right")
    assert tr == Morphism.loop(SH2, Label.RED).tensor(
        Morphism.loop(SH2, Label.BLUE))
    assert tr == Morphism.identity(SH2, w).trace_close("left")


def test_mixed_loop_is_named_at_its_lowest_pair():
    # a loop of one plain and one oriented arc is named by its flow at the
    # lowest pair, where its walk starts, whichever arc is oriented: it
    # gets the name of the same circle drawn fully oriented
    X, U, D = Label.PLAIN, Label.UP, Label.DOWN

    def loop_label(m):
        (s,) = the_diagram(m).strands
        return s.label

    def circle(cap, cup):
        return Morphism.cap(AR2, cap).compose(Morphism.cup(AR2, cup))

    for cap, cup, want in ((X, U, U), (U, X, U), (X, D, D), (D, X, D),
                           (U, U, U), (D, D, D)):
        assert loop_label(circle(cap, cup)) == want, (cap, cup)
    for lab in (U, D):
        # one circle is one term, whichever arcs carry the orientation
        total = circle(lab, lab) + circle(lab, X) + circle(X, lab)
        assert len(total.terms) == 1
    for dir, want in ((+1, U), (-1, D)):
        d = Diagram.make(AR2, [X, X], [X, X], [], [
            Strand(bnd("bottom", 0), bnd("bottom", 1), U, dir),
            Strand(bnd("top", 0), bnd("top", 1), X, 0)])
        assert d.validate() == []
        assert loop_label(Morphism.from_diagram(d).trace_close()) == want
    for dir, want in ((+1, D), (-1, U)):
        # a plain bottom arc and an oriented top arc trace to the loop of
        # the fully oriented trace, whose bottom arc runs the other way
        top = Strand(bnd("top", 0), bnd("top", 1), D, dir)
        for bottom in (Strand(bnd("bottom", 0), bnd("bottom", 1), X, 0),
                       Strand(bnd("bottom", 0), bnd("bottom", 1), U, -dir)):
            d = Diagram.make(AR2, [X, X], [X, X], [], [bottom, top])
            assert d.validate() == []
            tr = Morphism.from_diagram(d).trace_close()
            assert loop_label(tr) == want, (dir, bottom.label)


def test_expand_plain_counts():
    loops = Morphism.loop(SH2, Label.PLAIN)
    for _ in range(2):
        loops = loops.tensor(Morphism.loop(SH2, Label.PLAIN))
    expanded = loops.expand_plain()
    # interchangeable loops collapse to multisets of colors, with the
    # binomial multiplicities summing to 2^3
    assert len(expanded.terms) == 4
    total = Cyclo.zero()
    for c in expanded.terms.values():
        total = total + c
    assert total == Cyclo.from_fraction(8)


def _loops(th, k, label=Label.PLAIN):
    m = Morphism.identity(th, [])
    for _ in range(k):
        m = m.tensor(Morphism.loop(th, label))
    return m


def _expand_by_colourings(m):
    """Every colouring of every term's plain loops, one diagram each."""
    colours = m.theory.spec.plain
    dir = +1 if m.theory.is_oriented() else 0

    def colourings(d, c):
        plain = [i for i, s in enumerate(d.strands) if s.label is Label.PLAIN]
        for pick in itertools.product(colours, repeat=len(plain)):
            strands = list(d.strands)
            for i, lab in zip(plain, pick):
                strands[i] = Strand(strands[i].a, strands[i].b, lab, dir)
            yield Diagram.make(d.theory, (), (), d.boxes, strands), c

    return Morphism(m.theory, (), (), (t for d, c in m.terms.items()
                                       for t in colourings(d, c)))


def _merging_sums():
    """Closed sums whose colourings merge across terms, some cancelling."""
    from affa.testgen import random_closed
    for th in (SH2, AR2, AE1, CO2):
        first, second = th.spec.plain
        for seed in range(3):
            x = Morphism.from_diagram(random_closed(th, 4, 1, seed))
            y = Morphism.from_diagram(random_closed(th, 4, 0, seed + 50))
            z = th.root()
            yield (x.tensor(_loops(th, 4))
                   - x.tensor(Morphism.loop(th, first)).tensor(_loops(th, 3))
                   + y.tensor(_loops(th, 3)).scale(z))
            yield (_loops(th, 3) - Morphism.loop(th, first)
                   .tensor(_loops(th, 2)) - Morphism.loop(th, second)
                   .tensor(_loops(th, 2)))


def test_expand_plain_matches_every_colouring():
    from affa.evaluate import _eval_term, eval_with_steps
    for m in _merging_sums():
        want = _expand_by_colourings(m)
        got = m.expand_plain()
        assert list(got.terms) == list(want.terms)
        assert [repr(c) for c in got.terms.values()] == \
            [repr(c) for c in want.terms.values()]
        value, steps = Cyclo.zero(), 0
        for d, c in want.terms.items():
            v, st = _eval_term(d)
            value, steps = value + c * v, steps + st
        assert eval_with_steps(m) == (value, steps)
    assert (_loops(AR2, 3) - Morphism.loop(AR2, Label.UP)
            .tensor(_loops(AR2, 2)) - Morphism.loop(AR2, Label.DOWN)
            .tensor(_loops(AR2, 2))).expand_plain().is_zero()


def test_expand_plain_makes_one_diagram_per_colour_count(monkeypatch):
    import affa.diagram
    from affa.testgen import random_closed
    boxed = random_closed(AR2, 6, 0, 1)
    assert len(boxed.boxes) >= 2
    m = Morphism.from_diagram(boxed).tensor(_loops(AR2, 20))
    ordered = []
    real = affa.diagram._canonical_box_order

    def counted(*args):
        ordered.append(1)
        return real(*args)

    # the boxes of a made diagram are already numbered: expansion only
    # re-sorts its loops
    monkeypatch.setattr(affa.diagram, "_canonical_box_order", counted)
    expanded = m.expand_plain()
    assert not ordered and len(expanded.terms) == 21
    total = Cyclo.zero()
    for c in expanded.terms.values():
        total = total + c
    assert total == Cyclo.from_fraction(2 ** 20)


def _made_diagrams():
    """Diagrams with at least two boxes from `Diagram.make`: random closed
    draws (with free loops), and the open w, w clicked and w* w for w two
    generators side by side, over every finite theory with n <= 3 at every
    legal root."""
    from affa.testgen import random_closed
    for th in rooted_theories(3):
        kinds = box_kinds(th)
        if not kinds:
            continue
        for seed in range(3):
            d = random_closed(th, 6, 2, seed)
            if len(d.boxes) >= 2:
                yield d
        w = Morphism.generator(th, kinds[0]).tensor(
            Morphism.generator(th, kinds[-1], 1))
        for m in (w, w.click(1), w.adjoint().compose(w)):
            yield from m.terms


def test_make_is_invariant_under_box_renumbering():
    rng = random.Random(0)
    moved = 0
    for d in _made_diagrams():
        nb = len(d.boxes)
        for _ in range(3):
            perm = list(range(nb))
            rng.shuffle(perm)
            boxes = [None] * nb
            for old, new in enumerate(perm):
                boxes[new] = d.boxes[old]

            def ep(e):
                return boxleg(perm[e[1]], e[2]) if e[0] == "box" else e
            # each strand also written from its other end: make orders it
            strands = [Strand(ep(s.b), ep(s.a), s.label, -s.dir)
                       for s in d.strands]
            moved += perm != list(range(nb))
            assert Diagram.make(d.theory, d.bottom, d.top, boxes,
                                strands) == d, (d, perm)
    assert moved > 100


def test_make_is_idempotent():
    for d in _made_diagrams():
        assert Diagram.make(d.theory, d.bottom, d.top, d.boxes,
                            d.strands) == d


def test_expand_plain_rejects_an_open_morphism():
    with pytest.raises(ValueError):
        Morphism.identity(AR2, [Label.PLAIN]).expand_plain()


def test_morphism_linear_algebra():
    u = Morphism.generator(SH2, BoxKind.U)
    v = Morphism.generator(SH2, BoxKind.V)
    z = u + v - u - v
    assert z.is_zero()
    w = u.scale(root_power(2, 1)) + u.scale(root_power(2, 1))
    assert w == u.scale(-2)


def test_serialization_round_trip():
    ms = [Morphism.generator(SH2, BoxKind.U, rot=3),
          Morphism.generator(SH2, BoxKind.U).scale(root_power(2, 1))
          + Morphism.generator(SH2, BoxKind.V).scale(-3),
          Morphism.generator(AE1, BoxKind.USTAR, rot=2),
          Morphism.loop(CO2, Label.RED),
          Morphism.identity(AINF, [Label.PLAIN, Label.UP]),
          Morphism.generator(AR2, BoxKind.U).click(1)]
    u = Morphism.generator(AR2, BoxKind.U)
    closed = u.adjoint().compose(u).trace_close()
    assert not closed.is_zero()
    ms.append(closed.tensor(Morphism.loop(AR2, Label.UP))
              .tensor(Morphism.loop(AR2, Label.DOWN)))
    for m in ms:
        data = m.serialize()
        assert Morphism.parse(data) == m
        # every strand written from its other end (loops from slot 1 to
        # slot 0) is read as written and made into the same morphism
        doc = json.loads(data)
        for t in doc["terms"]:
            for s in t["strands"]:
                s["a"], s["b"], s["dir"] = s["b"], s["a"], -s["dir"]
        swapped = Morphism.parse(json.dumps(doc))
        assert swapped == m
        assert swapped.serialize() == data


def test_coefficients_of_the_root_field_round_trip():
    # Q(zeta_d) lies in Q(zeta_N) exactly when d divides lcm(2, N): -1 in
    # a box-free theory (N = 1), zeta6 = -zeta3**2 when N = 3
    for m in (Morphism.identity(AINF, [Label.UP]).scale(root_power(2, 1)),
              Morphism.generator(AE1, BoxKind.U).scale(root_power(6, 1))):
        assert Morphism.parse(m.serialize()) == m
    outside = Morphism.generator(SH2, BoxKind.U).scale(root_power(3, 1))
    with pytest.raises(ValueError, match="does not divide"):
        outside.serialize()


def test_clicked_generators_validate():
    # an oriented strand whose source changes row takes the object there
    from affa.theory import leg_count
    for th in rooted_theories(3):
        for kind in box_kinds(th):
            g = Morphism.generator(th, kind)
            for c in range(1, leg_count(th, kind)):
                (d,) = g.click(c).terms
                assert d.validate() == [], (th, kind, c)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Morphism.parse(b"{not json")
    with pytest.raises(ValueError):
        Morphism.parse(b'{"bottom": []}')
    bad = Morphism.generator(SH2, BoxKind.U).serialize().replace(
        b'"Red"', b'"Crimson"')
    with pytest.raises(ValueError):
        Morphism.parse(bad)


@settings(max_examples=40, deadline=None)
@given(word=st.lists(st.sampled_from([Label.RED, Label.BLUE, Label.PLAIN]),
                     max_size=5))
def test_identity_idempotent_under_compose(word):
    ident = Morphism.identity(SH2, word)
    assert ident.compose(ident) == ident
    assert ident.adjoint() == ident


@settings(max_examples=40, deadline=None)
@given(word=st.lists(st.sampled_from([Label.UP, Label.DOWN]), max_size=4))
def test_oriented_trace_gives_one_loop_per_strand(word):
    tr = Morphism.identity(AR2, word).trace_close()
    (d,) = tr.terms if tr.terms else (None,)
    if word:
        assert d.n_anchors == len(word)
    else:
        assert d.n_anchors == 0


COMPOSE_DIGESTS = Path(__file__).parent / "data" / "compose_digests.json"


def digest_theories() -> list[Theory]:
    """Every finite theory with n <= 3 at every legal root, the three
    infinite theories, and both source categories for 2 <= m <= 4 at
    every root."""
    from affa.equiv import source_theory
    return (rooted_theories(3)
            + [Theory(fam) for fam, spec in SPECS.items()
               if spec.category == "infinite"]
            + [source_theory(which, m, e) for which in ("vec", "rep")
               for m in range(2, 5) for e in range(m)])


def digest_draws_and_closures(th: Theory) -> tuple[list, list]:
    """Twenty random closed diagrams (finite planar theories only) and,
    per defining relation, tr((l - r)* (l - r))."""
    from affa.evaluate import defining_relations
    from affa.testgen import random_closed
    draws = ([random_closed(th, 6, 2, seed) for seed in range(20)]
             if th.spec.category == "finite" else [])
    closures = []
    for _, lhs, rhs in defining_relations(th):
        diff = lhs - rhs
        closures.append(diff.adjoint().compose(diff).trace_close())
    return draws, closures


def compose_digest(th: Theory) -> str:
    """sha256 over `digest_draws_and_closures(th)`, the terms of each
    closure sorted: a pin on what compose, adjoint and trace closure
    produce."""
    h = hashlib.sha256()
    draws, closures = digest_draws_and_closures(th)
    for d in draws:
        h.update(json.dumps(d.to_json(), sort_keys=True).encode())
    for closed in closures:
        for t in sorted(json.dumps(d.to_json(c), sort_keys=True)
                        for d, c in closed.terms.items()):
            h.update(t.encode())
    return h.hexdigest()


def test_compose_and_trace_match_recorded_digests():
    recorded = json.loads(COMPOSE_DIGESTS.read_text())
    theories = digest_theories()
    assert len(theories) == 60
    assert [r["theory"] for r in recorded] == [th.to_json() for th in theories]
    got = [compose_digest(th) for th in theories]
    changed = [r["theory"] for r, g in zip(recorded, got) if r["sha256"] != g]
    assert not changed


def _faces_by_sorted_walk(d: Diagram) -> tuple:
    """d's faces numbered by a walk over every endpoint sorted by
    `_ep_key`, on a rotation system built here from d's fields."""
    from affa.theory import leg_count
    rotations = [[bnd("top", j) for j in range(len(d.top))]
                 + [bnd("bottom", i) for i in reversed(range(len(d.bottom)))]]
    rotations += [[boxleg(b, c) for c in range(leg_count(d.theory, kind))]
                  for b, (kind, _) in enumerate(d.boxes)]
    rotations += [[anchor(a, 0), anchor(a, 1)] for a in range(d.n_anchors)]
    succ = {e: f for rot in rotations for e, f in zip(rot, rot[1:] + rot[:1])}
    other = {}
    for s in d.strands:
        other[s.a], other[s.b] = s.b, s.a
    faces, seen = [], set()
    for e in sorted(succ, key=_ep_key):
        face = []
        while e not in seen:
            seen.add(e)
            face.append(e)
            e = succ[other[e]]
        if face:
            faces.append(tuple(face))
    return tuple(faces)


def test_made_strands_are_in_canonical_order():
    # make writes each strand from its lower end and sorts the strands
    # by it, the face table walks the endpoints in that order without
    # sorting them, and expand_plain leaves its recoloured loops where
    # make would put them
    checked, recoloured = 0, 0
    for th in digest_theories():
        draws, closures = digest_draws_and_closures(th)
        for d in draws + [t for m in closures for t in m.terms]:
            terms = list(Morphism.from_diagram(d).expand_plain().terms)
            for t in terms:
                assert t == Diagram.make(t.theory, t.bottom, t.top, t.boxes,
                                         t.strands), (th, d)
            recoloured += d.boxes != () and terms != [d]
            for x in [d] + terms:
                keys = [(_ep_key(s.a), _ep_key(s.b)) for s in x.strands]
                assert all(ka < kb for ka, kb in keys), x
                assert keys == sorted(keys), x
                assert x.faces() == _faces_by_sorted_walk(x), x
                checked += 1
    assert checked > 1000 and recoloured > 100, (checked, recoloured)


def test_close_pair_matches_compose_then_trace():
    # the one-walk closure, made and summed over the term pairs, against
    # the two-step one, on every defining relation's pairs (l, l), (l, r),
    # (l - r, l - r) and every Gram pair of spanning diagrams of the words
    # of length <= 6
    from affa.diagram import _close_pair, _made
    from affa.equiv import to_image
    from affa.evaluate import defining_relations
    from affa.fusion import span_diagrams

    def check(f, g):
        fs = f.adjoint()
        one = Morphism(f.theory, (), (), (
            (_made(got[0]), ca * cb) for da, ca in fs.terms.items()
            for db, cb in g.terms.items()
            if (got := _close_pair(da, db)) is not None))
        two = fs.compose(g).trace_close()
        assert one == two
        assert list(one.terms) == list(two.terms)

    relations = 0
    for th in digest_theories():
        for _, lhs, rhs in defining_relations(th):
            if th.spec.category == "source":
                lhs, rhs = to_image(lhs), to_image(rhs)
            for f, g in ((lhs, lhs), (lhs, rhs), (lhs - rhs, lhs - rhs)):
                check(f, g)
                relations += 1
    grams = 0
    for th in dict.fromkeys(Theory.with_root(th.family, th.n, 1)
                            for th in rooted_theories(3)):
        for length in range(7):
            for word in itertools.product(th.spec.plain, repeat=length):
                basis = [Morphism.from_diagram(d) for d in
                         span_diagrams(th, word, length // 2)]
                for i, f in enumerate(basis):
                    for g in basis[i:]:
                        check(f, g)
                        grams += 1
    assert (relations, grams) == (2106, 3982)
