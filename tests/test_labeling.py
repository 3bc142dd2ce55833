import pytest

from affa.cyclotomic import Cyclo
from affa.diagram import Diagram, Morphism
from affa.labeling import invariant, label_product, label_regions, word
from affa.theory import BoxKind, Family, Label, Theory


SH2 = Theory(Family.SHADED_AODD, 2, 2, 1)
SH3 = Theory(Family.SHADED_AODD, 3, 3, 1)
AR2 = Theory(Family.ARROW_AODD, 2, 4, 1)
AE1 = Theory(Family.ARROW_AEVEN, 1, 3, 1)
CO2 = Theory(Family.COLOR_AODD, 2, 2, 1)


def the_diagram(m: Morphism) -> Diagram:
    (d,) = m.terms
    return d


def test_group_element_relations():
    # labels are (rot, flip) pairs: rho^rot b^flip with rho = rb, or u^rot
    n = 4
    mul = label_product(n)
    e, r, b = (0, 0), (1, 1), (0, 1)
    assert mul(r, r) == e
    assert mul(b, b) == e
    rho = mul(r, b)
    acc = e
    for _ in range(n):
        acc = mul(acc, rho)
    assert acc == e
    rbr = mul(rho, r)
    assert mul(rbr, rbr) == e
    assert word(r, True, n) == "r"
    assert word(b, True, n) == "b"
    assert word(rho, True, n) in ("rb", "br" * (n - 1))
    mul = label_product(6)
    u = (1, 0)
    u3 = mul(mul(u, u), u)
    assert mul(u3, u3) == e
    assert word((5, 0), False, 6) == "u^-1"


def test_regions_counts():
    ident = the_diagram(Morphism.identity(SH2, [Label.RED]))
    assert len(ident.faces()) == 2
    loop = the_diagram(Morphism.loop(SH2, Label.BLUE))
    assert len(loop.faces()) == 2
    # a strand-free diagram is one region
    empty = the_diagram(Morphism.identity(SH2, []))
    assert label_regions(empty) == [(0, 0)]


def test_red_loop_labeling():
    labels = label_regions(the_diagram(Morphism.loop(SH2, Label.RED)))
    assert labels[0] == (0, 0)
    assert sorted(labels) == [(0, 0), (1, 1)]
    assert {word(g, *SH2.labeling_group()) for g in labels} == {"1", "r"}
    # the color family records red strands with the other reflection
    labels = label_regions(the_diagram(Morphism.loop(CO2, Label.RED)))
    assert sorted(labels) == [(0, 0), (0, 1)]
    assert {word(g, *CO2.labeling_group()) for g in labels} == {"1", "b"}


def test_oriented_loop_labeling():
    up = label_regions(the_diagram(Morphism.loop(AR2, Label.UP)))
    down = label_regions(the_diagram(Morphism.loop(AR2, Label.DOWN)))
    (inner_up,) = [g for g in up if g != (0, 0)]
    (inner_down,) = [g for g in down if g != (0, 0)]
    dihedral, order = AR2.labeling_group()
    assert not dihedral
    assert label_product(order)(inner_up, inner_down) == (0, 0)
    assert {word(inner_up, False, order),
            word(inner_down, False, order)} == {"u", "u^-1"}


def test_labeling_rejects_bad_input():
    open_d = the_diagram(Morphism.identity(SH2, [Label.RED]))
    with pytest.raises(ValueError):
        label_regions(open_d)
    plain = the_diagram(Morphism.loop(SH2, Label.PLAIN))
    with pytest.raises(ValueError):
        label_regions(plain)
    vec_loop = the_diagram(Morphism.loop(Theory(Family.VEC_CYCLIC, 3, 3, 1),
                                         Label.DOT))
    with pytest.raises(ValueError):
        label_regions(vec_loop)


def _closed_pair(th, kind):
    g = Morphism.generator(th, kind)
    return g.compose(g.adjoint()).trace_close()


def test_invariant_box_pair_is_one():
    for th, kind in ((SH2, BoxKind.U), (SH3, BoxKind.V), (AR2, BoxKind.U),
                     (AE1, BoxKind.USTAR), (CO2, BoxKind.V)):
        assert invariant(_closed_pair(th, kind)) == Cyclo.one()


def test_invariant_does_not_validate_made_diagrams(monkeypatch):
    u = Morphism.generator(AR2, BoxKind.U)
    m = u.adjoint().compose(u.click(1)).trace_close()
    calls = []
    validate = Diagram.validate
    monkeypatch.setattr(Diagram, "validate",
                        lambda d: calls.append(d) or validate(d))
    invariant(m)
    assert calls == []


def test_invariant_of_loops_and_empty():
    empty = Morphism.from_diagram(
        Diagram.make(SH2, [], [], [], []), Cyclo.from_fraction(5))
    assert invariant(empty) == Cyclo.from_fraction(5)
    assert invariant(Morphism.loop(SH2, Label.RED)) == Cyclo.one()
    # a plain loop splits into the two colors, each worth 1
    assert invariant(Morphism.loop(AR2, Label.PLAIN)) == Cyclo.from_fraction(2)


def test_invariant_multiplicative_over_tensor():
    a = _closed_pair(SH3, BoxKind.U)
    b = _closed_pair(SH3, BoxKind.VSTAR)
    va, vb = invariant(a), invariant(b)
    assert invariant(a.tensor(b)) == va * vb


def _face_component(d: Diagram, f0: int) -> set[int]:
    _, face_of = d.face_index()
    adj: dict[int, set[int]] = {}
    for s in d.strands:
        fa, fb = face_of[s.a], face_of[s.b]
        adj.setdefault(fa, set()).add(fb)
        adj.setdefault(fb, set()).add(fa)
    seen, queue = {f0}, [f0]
    while queue:
        for g in adj.get(queue.pop(), ()):
            if g not in seen:
                seen.add(g)
                queue.append(g)
    return seen


def test_relabeling_from_any_face_translates_back():
    samples = [the_diagram(Morphism.loop(AR2, Label.UP)),
               the_diagram(_closed_pair(SH2, BoxKind.U)),
               the_diagram(_closed_pair(AE1, BoxKind.U)),
               the_diagram(Morphism.loop(SH2, Label.RED).tensor(
                   Morphism.loop(SH2, Label.BLUE)))]
    for d in samples:
        mul = label_product(d.theory.labeling_group()[1])
        base = label_regions(d)
        for f0 in range(len(base)):
            moved = label_regions(d, start_face=f0)
            for f in _face_component(d, f0):
                assert mul(base[f0], moved[f]) == base[f]


def test_star_face_is_identity():
    d = the_diagram(_closed_pair(SH2, BoxKind.U))
    assert label_regions(d)[0] == (0, 0)
