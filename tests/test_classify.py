import pytest

from affa import classify
from affa.classify import (
    are_isomorphic,
    classify_presentations,
    click_eigenvalue,
    count_classes,
    enumerate_presentations,
)
from affa.theory import Family, Theory


def test_enumeration_sizes():
    assert len(enumerate_presentations("unshaded-a-odd", 2)) == 6
    assert len(enumerate_presentations("a-even", 1)) == 3
    assert len(enumerate_presentations("shaded-a-odd", 3)) == 3
    assert len(enumerate_presentations("shaded-a-inf")) == 1
    assert len(enumerate_presentations("unshaded-a-inf")) == 2


def test_enumeration_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_presentations("nope", 2)
    with pytest.raises(ValueError):
        enumerate_presentations("shaded-a-odd")
    with pytest.raises(ValueError):
        enumerate_presentations("a-even", 0)
    with pytest.raises(ValueError, match="no size parameter"):
        enumerate_presentations("shaded-a-inf", 5)


def test_enumerated_presentations_are_distinct_theories():
    seen = set(enumerate_presentations("unshaded-a-odd", 3))
    assert len(seen) == 9


@pytest.mark.parametrize("family,n,expected", [
    ("shaded-a-odd", 1, 1), ("shaded-a-odd", 4, 4),
    ("unshaded-a-odd", 1, 3), ("unshaded-a-odd", 3, 9),
    ("a-even", 2, 5), ("shaded-a-inf", None, 1),
    ("unshaded-a-inf", None, 2)])
def test_count_classes(family, n, expected):
    assert count_classes(family, n) == expected


@pytest.mark.parametrize("family,n", [
    ("shaded-a-odd", 4), ("unshaded-a-odd", 3), ("a-even", 2)])
def test_count_classes_computes_one_eigenvalue_per_presentation(
        family, n, monkeypatch):
    calls = []
    real = classify.click_eigenvalue
    monkeypatch.setattr(classify, "click_eigenvalue",
                        lambda th: calls.append(th) or real(th))
    count_classes(family, n)
    assert calls == enumerate_presentations(family, n)


@pytest.mark.parametrize("family,n", [
    ("unshaded-a-odd", 2), ("a-even", 2), ("unshaded-a-inf", None)])
def test_single_pass_classes_match_pairwise_isomorphism(family, n):
    rows = classify_presentations(family, n)
    for t1, _, c1 in rows:
        for t2, _, c2 in rows:
            assert are_isomorphic(t1, t2)[0] == (c1 == c2)


def test_click_eigenvalue_recovers_the_declared_root():
    for family in ("shaded-a-odd", "unshaded-a-odd", "a-even"):
        for n in (1, 2, 3):
            for th in enumerate_presentations(family, n):
                assert click_eigenvalue(th) == th.root()


def test_click_eigenvalue_needs_boxes():
    with pytest.raises(ValueError):
        click_eigenvalue(Theory(Family.ARROW_AINF))


def test_isomorphism_is_reflexive():
    for th in enumerate_presentations("unshaded-a-odd", 2):
        ok, reason = are_isomorphic(th, th)
        assert ok, reason


def test_conjugate_roots_are_not_isomorphic():
    t1 = Theory(Family.ARROW_AODD, 2, 4, 1)   # omega = i
    t2 = Theory(Family.ARROW_AODD, 2, 4, 3)   # omega = -i
    ok, reason = are_isomorphic(t1, t2)
    assert not ok
    assert "relabeling" in reason


def test_arrow_and_color_cases_are_distinguished():
    t1 = Theory(Family.ARROW_AODD, 2, 1, 0)
    t2 = Theory(Family.COLOR_AODD, 2, 1, 0)
    ok, reason = are_isomorphic(t1, t2)
    assert not ok
    assert "duality" in reason


def test_different_sizes_are_not_isomorphic():
    ok, reason = are_isomorphic(Theory(Family.ARROW_AODD, 1, 1, 0),
                                Theory(Family.ARROW_AODD, 2, 1, 0))
    assert not ok
    assert "principal" in reason


def test_box_free_presentations():
    arrow = Theory(Family.ARROW_AINF)
    color = Theory(Family.COLOR_AINF)
    assert are_isomorphic(arrow, arrow)[0]
    assert not are_isomorphic(arrow, color)[0]
