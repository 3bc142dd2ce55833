import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affa.cyclotomic import Cyclo, root_power
from affa.fusion import (
    FusionGraph,
    Word,
    bratteli,
    gram_matrix,
    grading,
    hom_dim,
    principal_graph,
    simple_decompose,
    span_diagrams,
    trace_of_word,
)
from affa.theory import Family, Label, Theory, rooted_theories


SH1 = Theory(Family.SHADED_AODD, 1, 1, 0)
SH2 = Theory(Family.SHADED_AODD, 2, 2, 1)
AR1 = Theory(Family.ARROW_AODD, 1, 2, 1)
AR2 = Theory(Family.ARROW_AODD, 2, 4, 1)
AE2 = Theory(Family.ARROW_AEVEN, 2, 5, 1)
CO2 = Theory(Family.COLOR_AODD, 2, 2, 1)
ARINF = Theory(Family.ARROW_AINF)


def test_grading_is_cyclic_and_additive_for_arrows():
    w = Word(AR2, (Label.DOWN, Label.DOWN, Label.DOWN))
    assert grading(w) == 3
    assert grading(Word(AR2, ())) == 0
    assert grading(Word(AR2, (Label.UP, Label.DOWN))) == 0


def test_grading_alternates_for_checkerboard_words():
    # adjacent strands of the same color contribute opposite steps
    assert grading(Word(SH2, (Label.RED, Label.RED))) == 0
    assert grading(Word(SH2, (Label.RED, Label.BLUE))) == 2
    assert grading(Word(CO2, (Label.BLUE, Label.RED))) == 2


def test_plain_letters_have_no_grading():
    with pytest.raises(ValueError):
        grading(Word(AR2, (Label.PLAIN,)))


def test_hom_dim_by_weight():
    empty = Word(AR2, ())
    # dim Hom(Q1^k, unit) = 1 exactly when the cyclic order divides k
    for k in range(13):
        expected = 1 if k % 4 == 0 else 0
        assert hom_dim(empty, Word(AR2, (Label.DOWN,) * k)) == expected
    assert hom_dim(Word(AR2, (Label.UP,)), Word(AR2, (Label.DOWN,) * 3)) == 1


def test_hom_dim_needs_matching_theory():
    with pytest.raises(ValueError):
        hom_dim(Word(AR2, ()), Word(AR1, ()))


def test_simple_decompose_gives_shortest_word():
    assert simple_decompose(Word(AR2, (Label.DOWN,) * 3)).display() == "P1"
    assert simple_decompose(Word(AR2, ())).display() == "1"
    w = simple_decompose(Word(SH2, (Label.RED, Label.BLUE)))
    assert len(w.labels) == 2
    assert grading(w) == grading(Word(SH2, (Label.RED, Label.BLUE)))


@pytest.mark.parametrize("th,count", [
    (SH2, 4), (AR2, 4), (AE2, 5), (CO2, 4),
    (Theory(Family.SHADED_AODD, 5, 1, 0), 10),
    (Theory(Family.ARROW_AEVEN, 5, 1, 0), 11)])
def test_principal_graph_is_the_affine_cycle(th, count):
    g = principal_graph(th)
    assert len(g.vertices) == count
    assert all(t == Fraction(1) for t in g.traces)
    # trace formula at loop parameter 2: twice each trace is the sum of
    # the neighbours' traces, counted with multiplicity
    for v in range(count):
        nb = sum(m for i, j, m in g.edges if v in (i, j))
        assert nb == 2


def test_smallest_cycle_is_a_double_edge():
    g = principal_graph(SH1)
    assert g.vertices == ("1", "Q1")
    assert g.edges == ((0, 1, 2),)


def test_infinite_graph_needs_and_respects_radius():
    with pytest.raises(ValueError):
        principal_graph(ARINF)
    g = principal_graph(ARINF, radius=3)
    assert len(g.vertices) == 7  # a path: 0, +-1, +-2, +-3
    assert all(t == Fraction(1) for t in g.traces)
    with pytest.raises(ValueError, match="infinite families only"):
        principal_graph(SH1, radius=1)


def test_bratteli_matches_walk_counts():
    rows = 6
    for th in (AR2, SH2, AE2):
        _, m = th.grading()
        b = bratteli(th, rows)
        # independent oracle: multiplicities are +-1 walk counts on Z_m
        walks = {0: 1}
        for r in range(rows):
            assert b["dims"][r] == sum(v * v for v in walks.values())
            nxt: dict[int, int] = {}
            for e, c in walks.items():
                for d in (+1, -1):
                    f = (e + d) % m
                    nxt[f] = nxt.get(f, 0) + c
            walks = nxt


def test_bratteli_row_zero_is_the_unit():
    b = bratteli(AR2, 3)
    assert b["rows"][0] == [{"word": "1", "mult": 1}]
    assert b["dims"] == [1, 2, 8, 32]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_trace_of_plain_word_is_power_of_two(k):
    assert trace_of_word(Word(SH2, (Label.PLAIN,) * k)) \
        .as_fraction() == 2 ** k


def test_trace_of_simple_word_is_one():
    from affa.cyclotomic import Cyclo
    assert trace_of_word(Word(AR2, (Label.DOWN, Label.UP))) == Cyclo.one()


def test_gram_of_balanced_arrow_word():
    w = Word(AR1, (Label.DOWN,) * 4)  # weight 4 = 0 mod 2: dimension 1
    res = gram_matrix(w, max_boxes=2)
    assert res.rank == 1
    assert res.psd
    assert res.size >= 1


def test_gram_of_unbalanced_word_is_zero_dimensional():
    res = gram_matrix(Word(AR2, (Label.DOWN,)), max_boxes=0)
    assert res.size == 0 and res.rank == 0 and res.psd


def test_gram_rejects_plain_words():
    with pytest.raises(ValueError):
        gram_matrix(Word(SH2, (Label.PLAIN,)), max_boxes=0)


def test_span_diagrams_are_valid_and_boundary_only():
    word = (Label.RED, Label.BLUE, Label.RED, Label.BLUE)
    for d in span_diagrams(SH2, word, max_boxes=2):
        assert d.validate() == []
        assert not d.bottom and tuple(d.top) == word
    # every finite full-order theory with n <= 3, every word of length
    # <= 6: valid diagrams, none repeated
    full = list(dict.fromkeys(Theory.with_root(th.family, th.n, 1)
                              for th in rooted_theories(3)))
    assert len(full) == 12
    count = 0
    for th in full:
        for length in range(7):
            for word in itertools.product(th.spec.plain, repeat=length):
                basis = span_diagrams(th, word, length // 2)
                assert len(set(basis)) == len(basis)
                for d in basis:
                    assert d.validate() == []
                    assert not d.bottom and d.top == word
                count += len(basis)
    assert count == 1650


def test_non_real_pivot_is_an_invariant_breach():
    # a raise, not an assert, so the check also runs under `python -O`
    from affa.cyclotomic import root_power
    from affa.fusion import _positive_real
    from affa.theory import InvariantBreach
    with pytest.raises(InvariantBreach, match="not real"):
        _positive_real(root_power(4, 1))


X5 = root_power(5, 1) + root_power(5, 4)
PHI5 = -(root_power(5, 2) + root_power(5, 3))


@pytest.mark.parametrize("rows, expected", [
    ([[0, 1], [1, 0]], (2, False)),                    # a 2x2 pivot
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (3, False)),   # 2x2, then -2
    ([[1, 0], [0, -1]], (2, False)),
    ([[1, 1], [1, 1]], (1, True)),
    ([[0] * 3] * 3, (0, True)),
    # Q(z5), where the sign of a non-rational pivot is read from its
    # floating-point value: x = 2cos(2pi/5) ~ 0.618 and its Galois
    # conjugate phi = -2cos(4pi/5) ~ 1.618, so 1 - x^2 > 0 > 1 - phi^2
    ([[X5]], (1, True)),
    ([[-X5]], (1, False)),
    ([[1, X5], [X5, 1]], (2, True)),
    ([[1, PHI5], [PHI5, 1]], (2, False)),
])
def test_rank_and_psd_off_the_gram_path(rows, expected):
    # no Gram matrix reaches a negative or a 2x2 pivot, nor (in any
    # workload, CLI golden or demo) a non-rational pivot
    from affa.fusion import _rank_and_psd
    matrix = [[x if isinstance(x, Cyclo) else Cyclo.from_fraction(x)
               for x in row] for row in rows]
    assert _rank_and_psd(matrix) == expected


@settings(max_examples=25, deadline=None)
@given(bits=st.lists(st.booleans(), min_size=0, max_size=6),
       th=st.sampled_from([SH2, AR2, AE2, CO2]))
def test_gram_rank_equals_hom_dim(bits, th):
    hi, lo = ((Label.RED, Label.BLUE) if not th.is_oriented()
              else (Label.UP, Label.DOWN))
    word = tuple(hi if b else lo for b in bits)
    res = gram_matrix(Word(th, word), max_boxes=len(word) // 2)
    assert res.rank == hom_dim(Word(th, ()), Word(th, word))
    assert res.psd


SPAN_DIGESTS = Path(__file__).parent / "data" / "span_digests.json"


def span_digest(th: Theory) -> str:
    """sha256 over the JSON of every spanning diagram of every word of
    length <= 5 in the theory's two strand generators."""
    h = hashlib.sha256()
    for length in range(6):
        for word in itertools.product(th.spec.plain, repeat=length):
            for d in span_diagrams(th, word, length // 2):
                h.update(json.dumps(d.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def test_spanning_sets_match_recorded_digests():
    recorded = json.loads(SPAN_DIGESTS.read_text())
    theories = rooted_theories(3)
    assert [r["theory"] for r in recorded] == [th.to_json() for th in theories]
    got = [span_digest(th) for th in theories]
    changed = [r["theory"] for r, g in zip(recorded, got) if r["sha256"] != g]
    assert not changed


GRAM_DIGESTS = Path(__file__).parent / "data" / "gram_digests.json"


def full_order_theories(n_max: int) -> list[Theory]:
    """One theory per finite family and n <= n_max, its root of full
    order."""
    return [Theory.with_root(th.family, th.n, 1)
            for th in rooted_theories(n_max) if th.root_exp == 0]


def gram_digest(th: Theory) -> str:
    """sha256 over the repr of the Gram result (matrix, rank, PSD) of
    every word of length <= 6 in the theory's two strand generators."""
    h = hashlib.sha256()
    for length in range(7):
        for word in itertools.product(th.spec.plain, repeat=length):
            res = gram_matrix(Word(th, word), length // 2)
            h.update(repr(res).encode())
    return h.hexdigest()


def test_gram_matrices_match_recorded_digests():
    recorded = json.loads(GRAM_DIGESTS.read_text())
    theories = full_order_theories(4)
    assert [r["theory"] for r in recorded] == [th.to_json() for th in theories]
    got = [gram_digest(th) for th in theories]
    changed = [r["theory"] for r, g in zip(recorded, got) if r["sha256"] != g]
    assert not changed


def test_inner_product_is_conjugate_symmetric():
    # gram_matrix fills its lower triangle by conjugation, so check here
    # that <g, f> is the conjugate of <f, g> for every pair of spanning
    # diagrams of every short word
    from affa.diagram import Morphism
    from affa.evaluate import inner_product
    pairs = 0
    for th in rooted_theories(3):
        for length in range(6):
            for word in itertools.product(th.spec.plain, repeat=length):
                basis = [Morphism.from_diagram(d)
                         for d in span_diagrams(th, word, length // 2)]
                for f, g in itertools.combinations(basis, 2):
                    assert inner_product(g, f) == inner_product(f, g).conj()
                    pairs += 1
    assert pairs == 164


def test_shading_parity_rule_matches_face_parities():
    # span_diagrams picks a box's shading class by arithmetic: with legs
    # meeting slots 0..k-1 in descending order from `shift`, the star
    # corner's region has parity (shift - rot) % 2 relative to the outer
    # region; check that against the 2-colouring of the faces
    from affa.diagram import (Diagram, Strand, bnd, boxleg, leg_to_boundary,
                              walk_faces)
    from affa.theory import leg_count
    shaded = [th for th in rooted_theories(4)
              if th.is_shaded() and th.root_order == 1]
    assert [th.n for th in shaded] == [1, 2, 3, 4]
    for th in shaded:
        for kind in th.spec.kinds:
            k = leg_count(th, kind)
            for rot in range(k):
                for shift in range(k):
                    legs = [(shift - t) % k for t in range(k)]
                    ends = [leg_to_boundary(th, th.leg(kind, rot, leg),
                                            "top") for leg in legs]
                    strands = [Strand(boxleg(0, leg), bnd("top", t),
                                      lab, dir)
                               for t, (leg, (lab, dir))
                               in enumerate(zip(legs, ends))]
                    d = Diagram.make(th, [], [e[0] for e in ends],
                                     [(kind, rot)], strands)
                    assert d.validate() == []
                    faces, face_of = d.face_index()
                    sign, _ = walk_faces(len(faces), [
                        (face_of[e], face_of[s.other(e)], -1)
                        for s in d.strands for e in (s.a, s.b)], 1)
                    parity = [int(x < 0) for x in sign]
                    star = parity[face_of[d.star_face_endpoint(0)]]
                    outer = parity[face_of[bnd("top", k - 1)]]
                    assert star ^ outer == (shift - rot) % 2
