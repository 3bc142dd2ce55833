"""Enumeration of the affine-A presentations and their classification.

A presentation is a theory: a family, a size parameter, and a root of
unity.  The count of presentations follows from the click table: a full
turn of a generator is the identity, so root**N = 1 with N the turn's
click exponent sum (`Theory.root_bound`).  The complete isomorphism
invariant (`_invariant`) is the pair (duality type of the strand
generator, click eigenvalue): the strand generator is either self-dual
(shaded and color cases) or dual to its reverse (arrow case), and the
eigenvalue of the one-notch rotation on the generator box is the
declared root, unchanged by either generator relabeling.  So isomorphism
testing compares invariants, the eigenvalue recomputed through the
evaluator, not read off the declaration; classifying a family computes
one per presentation and compares it with those of the classes so far.
"""

from __future__ import annotations

from affa.cyclotomic import Cyclo
from affa.diagram import Morphism
from affa.theory import (SPECS, BoxKind, Family, Theory, box_kinds,
                         click_rewrite)

# The families of each classification key, in enumeration order.
_KEY_FAMILIES = {
    "shaded-a-odd": (Family.SHADED_AODD,),
    "unshaded-a-odd": (Family.ARROW_AODD, Family.COLOR_AODD),
    "a-even": (Family.ARROW_AEVEN,),
    "shaded-a-inf": (Family.SHADED_AINF,),
    "unshaded-a-inf": (Family.ARROW_AINF, Family.COLOR_AINF),
}
FAMILY_KEYS = tuple(_KEY_FAMILIES)


def enumerate_presentations(family: str, n: int | None = None) -> list[Theory]:
    """Every presentation in the given family at size n, one per root.

    Families: 'shaded-a-odd' (n choices of sigma), 'unshaded-a-odd'
    (2n arrow choices of omega plus n color choices of tau), 'a-even'
    (2n+1 choices of omega), and the box-free 'shaded-a-inf' (one) and
    'unshaded-a-inf' (arrow and color).
    """
    fams = _KEY_FAMILIES.get(family)
    if fams is None:
        raise ValueError(f"unknown family {family!r}")
    if SPECS[fams[0]].category == "infinite":
        if n is not None:
            raise ValueError("infinite families take no size parameter n")
        return [Theory(fam) for fam in fams]
    if n is None or n < 1:
        raise ValueError("finite families need a positive size parameter")
    return [Theory.with_root(fam, n, k) for fam in fams
            for k in range(Theory(fam, n).root_bound())]


def click_eigenvalue(th: Theory) -> Cyclo:
    """The scalar by which one notch of rotation acts on a generator box.

    Computed as tr(h* F(g)) / tr(h* h) where g is a generator and h the
    generator its one-notch rotation lands on; equals the declared root.
    """
    kinds = box_kinds(th)
    if not kinds:
        raise ValueError("a box-free theory has no click eigenvalue")
    g_kind = BoxKind.U if BoxKind.U in kinds else BoxKind.V
    h_kind, _ = click_rewrite(th, g_kind, +1)
    from affa.evaluate import inner_product
    g = Morphism.generator(th, g_kind)
    h = Morphism.generator(th, h_kind)
    return inner_product(h, g.click(1)) / inner_product(h, h)


def _invariant(th: Theory) -> tuple:
    """(duality type, n, family, click eigenvalue or None when box-free),
    equal exactly for isomorphic presentations.  The arrow strand is dual
    to its reverse; the color and shaded strands are self-dual."""
    duality = ("arrow" if th.is_oriented() else
               "shaded" if th.is_shaded() else "color")
    return (duality, th.n, th.family,
            click_eigenvalue(th) if box_kinds(th) else None)


def are_isomorphic(t1: Theory, t2: Theory) -> tuple[bool, str]:
    """Decide isomorphism of two presentations; returns (answer, reason).

    Two presentations are isomorphic exactly when the strand generators
    have the same duality type, the principal graphs match, and the click
    eigenvalues agree (a generator relabeling either fixes or swaps the
    generator pair, and both options preserve the eigenvalue).
    """
    (dual1, *graph1, eig1), (dual2, *graph2, eig2) = map(_invariant, (t1, t2))
    if dual1 != dual2:
        return False, ("the strand generator's duality type differs "
                       "(self-dual vs dual to its reverse)")
    if graph1 != graph2:
        return False, "the principal graphs differ"
    if eig1 is None:
        return True, "identical box-free presentations"
    if eig1 != eig2:
        return False, ("the click eigenvalues differ under both "
                       "generator relabelings")
    return True, "matching duality type and click eigenvalue"


def classify_presentations(family: str, n: int | None = None
                           ) -> list[tuple[Theory, Cyclo | None, int]]:
    """Each of the family's presentations with its click eigenvalue (None
    when box-free) and its isomorphism class, classes numbered in order of
    first appearance.

    One invariant is computed per presentation and compared against those
    of the class representatives, as `are_isomorphic` compares two."""
    rows = []
    reps: list[tuple] = []
    for th in enumerate_presentations(family, n):
        key = _invariant(th)
        cls = next((c for c, k in enumerate(reps) if k == key), None)
        if cls is None:
            cls = len(reps)
            reps.append(key)
        rows.append((th, key[-1], cls))
    return rows


def count_classes(family: str, n: int | None = None) -> int:
    """Number of isomorphism classes among the family's presentations."""
    return len({cls for _, _, cls in classify_presentations(family, n)})
