"""The command-line front end and the seeded random-diagram generator.

Every library capability is exposed as an `affa` subcommand with JSON
output; random closed diagrams are deterministic in the seed and power
the oracle-equivalence self-test."""

import os
import tempfile

from affa.cli import run
from affa.diagram import Morphism
from affa.testgen import random_closed
from affa.theory import Family, Label, Theory

th = Theory(Family.ARROW_AODD, 1, 2, 1)
d = random_closed(th, max_boxes=4, max_loops=1, seed=11)
print("seeded draw: ", len(d.boxes), "boxes,", len(d.strands), "strands")
print("same seed again is identical:",
      d == random_closed(th, max_boxes=4, max_loops=1, seed=11))

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "draw.json")
    with open(path, "wb") as fh:
        fh.write(Morphism.from_diagram(d).serialize())
    print("\n$ affa eval --in", os.path.basename(path))
    run(["eval", "--in", path])

print("\n$ affa classify --family a-even --n 1")
run(["classify", "--family", "a-even", "--n", "1"])

print("\n$ affa graph --family UnshadedArrowAodd --n 1 --format dot")
run(["graph", "--family", "UnshadedArrowAodd", "--n", "1",
     "--format", "dot"])
