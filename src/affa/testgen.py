"""Seeded random closed diagrams for oracle and property testing.

Diagrams are grown by well-typed operations only (tensoring generators and
loops, clicking, composing with the adjoint, tracing out the boundary), so
every draw is planar and valid by construction.
"""

from __future__ import annotations

import random

from affa.diagram import Diagram, Morphism
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
    w = Morphism.identity(theory, [])
    n_boxes = rng.randint(0, max_boxes // 2) if kinds else 0
    for _ in range(n_boxes):
        kind = rng.choice(kinds)
        rot = rng.randrange(leg_count(theory, kind))
        g = Morphism.generator(theory, kind, rot)
        if rng.random() < 0.5:
            w = w.tensor(g)
            side = "right"
        else:
            w = g.tensor(w)
            side = "left"
        if stats is not None:
            stats[f"kind:{kind.value}"] = stats.get(f"kind:{kind.value}",
                                                    0) + 1
            stats[f"tensor:{side}"] = stats.get(f"tensor:{side}", 0) + 1
    if (w.bottom or w.top) and rng.random() < 0.5:
        w = w.click(rng.choice([1, -1]))
        if stats is not None:
            stats["clicked"] = stats.get("clicked", 0) + 1
    closed = w.adjoint().trace_compose(w)
    if closed.is_zero():
        # a shading clash can kill the closure; redraw
        return None
    # both closures are one map on the sphere, but the side is still drawn
    # and counted, so the random stream and the stats stay as they were
    side = rng.choice(["left", "right"])
    if stats is not None:
        stats[f"close:{side}"] = stats.get(f"close:{side}", 0) + 1
    loop_labels = sorted(alphabet(theory), key=lambda l: l.value)
    for _ in range(rng.randint(0, max_loops)):
        closed = closed.tensor(Morphism.loop(theory,
                                             rng.choice(loop_labels)))
    (d,) = closed.terms
    errors = d.validate()
    if errors:
        raise InvariantBreach("drew an invalid diagram: " + "; ".join(errors))
    return d
