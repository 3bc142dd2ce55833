import hashlib
import json
import random
from pathlib import Path

import pytest

from affa.diagram import (Morphism, _beside, _close_pair, _flipped,
                          _generator_box)
from affa.testgen import _try_draw, random_closed
from affa.theory import BoxKind, Family, Theory, box_kinds, rooted_theories


SH2 = Theory(Family.SHADED_AODD, 2, 2, 1)
AR2 = Theory(Family.ARROW_AODD, 2, 4, 1)
CO2 = Theory(Family.COLOR_AODD, 2, 2, 1)
AE1 = Theory(Family.ARROW_AEVEN, 1, 3, 1)


def test_same_seed_same_diagram():
    for seed in range(20):
        a = random_closed(SH2, 5, 2, seed)
        b = random_closed(SH2, 5, 2, seed)
        assert a == b


def test_different_seeds_differ_somewhere():
    draws = {random_closed(AR2, 5, 2, seed) for seed in range(30)}
    assert len(draws) > 1


@pytest.mark.parametrize("th", [SH2, AR2, CO2, AE1,
                                Theory(Family.SHADED_AINF),
                                Theory(Family.ARROW_AINF)])
def test_draws_are_closed_and_valid(th):
    for seed in range(50):
        d = random_closed(th, 4, 2, seed)
        assert not d.bottom and not d.top
        assert d.validate() == []


def test_zero_budget_gives_loops_only():
    for seed in range(10):
        d = random_closed(SH2, 0, 3, seed)
        assert not d.boxes


def test_bounds_must_be_nonnegative():
    with pytest.raises(ValueError):
        random_closed(SH2, -1, 0, 0)
    with pytest.raises(ValueError):
        random_closed(SH2, 0, -1, 0)


@pytest.mark.parametrize("th", [SH2, AR2])
def test_coverage_over_many_draws(th):
    stats: dict = {}
    for seed in range(1000):
        random_closed(th, 6, 2, seed, stats=stats)
    for kind in box_kinds(th):
        assert stats.get(f"kind:{kind.value}", 0) > 0, kind
    assert stats.get("tensor:left", 0) > 0
    assert stats.get("tensor:right", 0) > 0
    assert stats.get("close:left", 0) > 0
    assert stats.get("close:right", 0) > 0
    assert stats.get("clicked", 0) > 0


DRAW_DIGESTS = Path(__file__).parent / "data" / "draw_digests.json"
DRAW_THEORIES = rooted_theories(4) + [Theory(Family.SHADED_AINF),
                                      Theory(Family.ARROW_AINF),
                                      Theory(Family.COLOR_AINF)]


def draw_digest(th: Theory) -> str:
    """sha256 over the repr of each draw and of its stats, for seeds
    0..99 at bounds (6, 2) and (4, 0)."""
    h = hashlib.sha256()
    for max_boxes, max_loops in ((6, 2), (4, 0)):
        for seed in range(100):
            stats: dict = {}
            d = random_closed(th, max_boxes, max_loops, seed, stats=stats)
            h.update(repr(d).encode())
            h.update(repr(stats).encode())
    return h.hexdigest()


def test_draws_match_recorded_digests():
    recorded = json.loads(DRAW_DIGESTS.read_text())
    assert [r["theory"] for r in recorded] == \
        [th.to_json() for th in DRAW_THEORIES]
    got = [draw_digest(th) for th in DRAW_THEORIES]
    changed = [r["theory"] for r, g in zip(recorded, got) if r["sha256"] != g]
    assert not changed


def test_a_word_whose_shading_clashes_is_redrawn():
    # Attempt 0 of seed 8 in ShadedAodd n=1 puts V (rotation 1) and U
    # (rotation 0) side by side, whose shadings clash, so the word is zero
    # and the draw goes to attempt 1.  The closure tr(w* w) of that word
    # passes its own shading check, so only the check on the open word
    # sends it there.
    th = Theory(Family.SHADED_AODD, 1, 1, 0)
    v, u = (Morphism.generator(th, BoxKind.V, 1),
            Morphism.generator(th, BoxKind.U, 0))
    assert v.tensor(u).is_zero()
    w = _beside(_generator_box(th, BoxKind.V, 1),
                _generator_box(th, BoxKind.U, 0))
    assert _close_pair(_flipped(w), w) is not None

    def attempt(k):
        return _try_draw(th, 6, 2, random.Random(8 * 1000003 + k), None)

    assert attempt(0) is None
    assert random_closed(th, 6, 2, 8) == attempt(1)
