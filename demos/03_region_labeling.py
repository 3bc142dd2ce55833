"""The region-labeling invariant: an independent oracle for evaluation.

Regions of a closed diagram are labeled by elements of the strand group
(dihedral for checkerboard families, cyclic for arrow families); each
box reads an integer off its star region, and the declared root raised
to the total reproduces the diagram's value without any rewriting."""

from affa.diagram import Morphism
from affa.evaluate import eval_closed
from affa.labeling import invariant, label_regions, word
from affa.testgen import random_closed
from affa.theory import Family, Theory

th = Theory(Family.SHADED_AODD, 2, 2, 1)

for seed in (0, 3, 7):
    d = random_closed(th, 6, 1, seed)
    m = Morphism.from_diagram(d)
    print(f"seed {seed}: boxes={len(d.boxes)}",
          f"rewriting={eval_closed(m)} labeling={invariant(m)}")

d = next(random_closed(th, 6, 0, s) for s in range(20)
         if random_closed(th, 6, 0, s).boxes)
print("\nregion labels of one diagram (group-element words):")
for face, g in enumerate(label_regions(d)):
    print(f"  face {face}: {word(g, *th.labeling_group())}")
