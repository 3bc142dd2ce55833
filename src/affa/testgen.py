"""Seeded random closed diagrams for oracle and property testing.

Diagrams are grown by well-typed operations only (tensoring generators and
loops, clicking, composing with the adjoint, tracing out the boundary), so
every draw is planar and valid by construction.  A draw is the closure
tr(w* w) of a random word w.  w is grown unmade, from the unmade forms of
the operations in `affa.diagram`, and `Diagram.make` runs once per draw,
on the closure with its loops.  Two shading checks decide a redraw: one on
the open word, where a tensor such as V tensor U clashes, and the one
`_close_pair` runs on the closure.  The closure's check alone would not
do, as a clashing word can close into components that each shade.
"""

from __future__ import annotations

import random

from affa.diagram import (
    Diagram,
    _beside,
    _clicked,
    _close_pair,
    _flipped,
    _generator_box,
    loop_strand,
)
from affa.theory import (
    InvariantBreach,
    Theory,
    alphabet,
    box_kinds,
    leg_count,
)


def random_closed(theory: Theory, max_boxes: int, max_loops: int,
                  seed: int, stats: dict | None = None) -> Diagram:
    """A valid closed diagram, deterministic in the seed.

    Built as the trace closure of w* w for a random word w of generator
    boxes (tensored on either side, occasionally clicked), then decorated
    with free loops.  `stats`, when given, accumulates coverage counters.
    """
    if max_boxes < 0 or max_loops < 0:
        raise ValueError("bounds must be nonnegative")
    for attempt in range(64):
        d = _try_draw(theory, max_boxes, max_loops,
                      random.Random(seed * 1000003 + attempt), stats)
        if d is not None:
            return d
    raise AssertionError("could not draw a nonzero closure")


def _try_draw(theory: Theory, max_boxes: int, max_loops: int,
              rng: random.Random, stats: dict | None) -> Diagram | None:
    kinds = box_kinds(theory)
    w = Diagram(theory, (), (), (), 0, ())
    n_boxes = rng.randint(0, max_boxes // 2) if kinds else 0
    for _ in range(n_boxes):
        kind = rng.choice(kinds)
        g = _generator_box(theory, kind,
                           rng.randrange(leg_count(theory, kind)))
        if rng.random() < 0.5:
            w = _beside(w, g)
            side = "right"
        else:
            w = _beside(g, w)
            side = "left"
        if stats is not None:
            stats[f"kind:{kind.value}"] = stats.get(f"kind:{kind.value}",
                                                    0) + 1
            stats[f"tensor:{side}"] = stats.get(f"tensor:{side}", 0) + 1
    if (w.bottom or w.top) and rng.random() < 0.5:
        w = _clicked(w, rng.choice([1, -1]))
        if stats is not None:
            stats["clicked"] = stats.get("clicked", 0) + 1
    # a shading clash in the word or in its closure is the zero term;
    # redraw
    if not w._shading_consistent() or \
            (got := _close_pair(_flipped(w), w)) is None:
        return None
    closed, _ = got
    # both closures are one map on the sphere, but the side is still drawn
    # and counted, so the random stream and the stats stay as they were
    side = rng.choice(["left", "right"])
    if stats is not None:
        stats[f"close:{side}"] = stats.get(f"close:{side}", 0) + 1
    loop_labels = sorted(alphabet(theory), key=lambda l: l.value)
    loops = [loop_strand(closed.n_anchors + i, rng.choice(loop_labels))
             for i in range(rng.randint(0, max_loops))]
    d = Diagram.make(theory, (), (), closed.boxes, [*closed.strands, *loops])
    errors = d.validate()
    if errors:
        raise InvariantBreach("drew an invalid diagram: " + "; ".join(errors))
    return d
