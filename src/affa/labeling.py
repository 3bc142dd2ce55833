"""Region labeling of closed diagrams and the resulting scalar invariant.

The strands of a closed diagram cut the sphere into regions.  Walking
across a strand multiplies a region's group label on the right: red and
blue strands by the reflections r and b of a dihedral group, oriented
strands by the generator u of a cyclic group (crossing left-to-right
relative to the arrow).  A label is a pair (rot, flip): rho^rot * b^flip
in D_n = <r, b | r^2 = b^2 = (rb)^n = 1> with rho = rb, or u^rot (flip
always 0) in Z_m; rot is reduced mod the group's order, and order 0 means
the infinite group (no reduction).  The outermost region of each
component gets the identity (0, 0).  Each box then reads an integer off
the label of the region its star corner sits in, and the diagram's value
is the declared root of unity raised to the sum of those integers.  The
regions are the faces of the diagram's `FaceTable`, the one
`Diagram.validate` reads, and the labels come from `diagram.walk_faces`,
given the group's product, which fails if a region would get two labels.
"""

from __future__ import annotations

from affa.cyclotomic import Cyclo
from affa.diagram import Diagram, Morphism, walk_faces
from affa.theory import (
    BoxKind,
    Label,
    ORIENTED_LABELS,
    Theory,
)

# Crossing an oriented strand from its left face to its right face (facing
# along the arrow) multiplies by u**ARROW_CROSS_EXP; the left face is the
# one containing the strand's source endpoint.  One of the two readings of
# "from the point of view of the arrow".  The rewriting evaluator agrees
# with it on tr(w* w) draws only: 172 of the 356 phase pairs tr(h* F^c g)
# disagree (ROADMAP item 1).
ARROW_CROSS_EXP = +1


def label_product(order: int):
    """The labeling group's product on (rot, flip) pairs, for a rotation
    of the given order (0: no reduction).  One rule serves both groups, as
    a cyclic label never carries a flip."""
    def mul(g, h):
        rot = g[0] - h[0] if g[1] else g[0] + h[0]
        return rot % order if order else rot, g[1] ^ h[1]
    return mul


def word(g: tuple[int, int], dihedral: bool, order: int) -> str:
    """A reduced word for label g, for display: alternating in r, b
    (dihedral) or a power of u (cyclic)."""
    j, flip = g
    if order and j > order - j:
        j -= order
    if not dihedral:
        return "1" if j == 0 else "u" if j == 1 else f"u^{j}"
    if not flip:
        return "1" if j == 0 else "rb" * j if j > 0 else "br" * -j
    # rho^j b:  (rb)^(j-1) r for j >= 1,  (br)^(-j) b for j <= 0
    return "rb" * (j - 1) + "r" if j >= 1 else "br" * -j + "b"


def _crossing(theory: Theory, s, face_of) -> list[tuple[int, int, tuple]]:
    """(from_face, to_face, right multiplier) entries for one strand.  No
    multiplier is the identity, so `walk_faces` rejects a strand with one
    face on both sides."""
    if s.dir:
        src = s.a if s.dir == +1 else s.b
        # Free loops are canonicalized to dir +1 with the circulation kept
        # in the label: a negative label circulates against the flow slot
        # order, so the drawn arrow leaves from the other slot.
        if s.a[0] == "anchor" and ORIENTED_LABELS[s.label] < 0:
            src = s.other(src)
        left, right = face_of[src], face_of[s.other(src)]
        return [(left, right, (ARROW_CROSS_EXP, 0)),
                (right, left, (-ARROW_CROSS_EXP, 0))]
    gen = (1, 1) if s.label is theory.spec.r_strand else (0, 1)
    fa, fb = face_of[s.a], face_of[s.b]
    return [(fa, fb, gen), (fb, fa, gen)]


def label_regions(d: Diagram, start_face: int | None = None) -> list:
    """Each face's label in the unique labeling with the outermost region
    of each component labeled by the identity (or `start_face`, if given,
    for its component); a strand-free diagram is one region."""
    if not d.is_closed():
        raise ValueError("label_regions requires a closed diagram")
    if any(s.label is Label.PLAIN for s in d.strands):
        raise ValueError("expand plain strands before labeling")
    order = d.theory.labeling_group()[1]
    face_of = d.face_index()[1]
    labels, _ = walk_faces(
        len(d.faces()) or 1,
        [c for s in d.strands for c in _crossing(d.theory, s, face_of)],
        (0, 0), () if start_face is None else (start_face,),
        label_product(order))
    return labels


def _box_ell(g: tuple[int, int], kind: BoxKind, dihedral: bool) -> int:
    """The integer a box contributes, read from its star-region label."""
    rot, flip = g
    if dihedral:
        base = (1 - rot) if flip else rot
        if kind in (BoxKind.USTAR, BoxKind.VSTAR):
            base = -base
        return base
    return -rot if kind is BoxKind.U else rot


def term_exponent(d: Diagram) -> tuple[list, int]:
    """The region labels of a closed diagram with boxes and no plain
    strands, and the exponent of the root it evaluates to: the sum of
    its box star-region integers, reduced mod the group order."""
    labels = label_regions(d)
    dihedral = d.theory.labeling_group()[0]
    face_of = d.face_index()[1]
    ell = sum(_box_ell(labels[face_of[d.star_face_endpoint(b)]], kind,
                       dihedral)
              for b, (kind, _) in enumerate(d.boxes))
    return labels, ell % d.theory.root_bound()


def invariant(m: Morphism) -> Cyclo:
    """The closed-diagram invariant: per term, the declared root raised to
    the sum of the box star-region integers, weighted by coefficients."""
    if m.bottom or m.top:
        raise ValueError("invariant requires a closed morphism")
    m.theory.labeling_group()  # reject families without a labeling
    total = Cyclo.zero()
    for d, c in m.expand_plain().terms.items():
        if not d.boxes:
            total = total + c
            continue
        total = total + c * m.theory.root_pow(term_exponent(d)[1])
    return total
