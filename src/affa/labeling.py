"""Region labeling of closed diagrams and the resulting scalar invariant.

The strands of a closed diagram cut the sphere into regions.  Walking
across a strand multiplies a region's group label on the right: red and
blue strands by the reflections r and b of a dihedral group, oriented
strands by the generator u of a cyclic group (crossing left-to-right
relative to the arrow).  The outermost region of each component gets the
identity.  Each box then reads an integer off the label of the region
its star corner sits in, and the diagram's value is the declared root of
unity raised to the sum of those integers.  The regions are the faces
of the diagram's `FaceTable`, the one `Diagram.validate` reads, and the
labels come from `diagram.walk_faces`, which fails if a region would get
two labels.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# "from the point of view of the arrow"; fixed by agreement with the
# rewriting evaluator.
ARROW_CROSS_EXP = +1


@dataclass(frozen=True)
class GroupElement:
    """Element of the labeling group in normal form.

    Dihedral D_n = <r, b | r^2 = b^2 = (rb)^n = 1>, stored as rho^rot * b^flip
    with rho = rb; cyclic Z_m stored as u^rot.  order is the order of rho
    (resp. u); order 0 means the infinite group (no reduction).
    """

    dihedral: bool
    order: int
    rot: int
    flip: bool = False

    def __post_init__(self):
        if not self.dihedral and self.flip:
            raise ValueError("cyclic elements carry no flip")
        if self.order:
            object.__setattr__(self, "rot", self.rot % self.order)

    @staticmethod
    def identity(dihedral: bool, order: int) -> "GroupElement":
        return GroupElement(dihedral, order, 0)

    def is_identity(self) -> bool:
        return self.rot == 0 and not self.flip

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if (self.dihedral, self.order) != (other.dihedral, other.order):
            raise ValueError("group mismatch")
        if not self.dihedral:
            return GroupElement(False, self.order, self.rot + other.rot)
        rot = self.rot + (-other.rot if self.flip else other.rot)
        return GroupElement(True, self.order, rot, self.flip ^ other.flip)

    def inverse(self) -> "GroupElement":
        if not self.dihedral:
            return GroupElement(False, self.order, -self.rot)
        if self.flip:
            return self  # reflections are involutions
        return GroupElement(True, self.order, -self.rot)

    def times_r(self) -> "GroupElement":
        return self * GroupElement(True, self.order, 1, True)

    def times_b(self) -> "GroupElement":
        return self * GroupElement(True, self.order, 0, True)

    def times_u(self, exp: int) -> "GroupElement":
        return self * GroupElement(False, self.order, exp)

    def word(self) -> str:
        """A reduced word for display: alternating in r, b (dihedral) or a
        power of u (cyclic)."""
        if not self.dihedral:
            if self.rot == 0:
                return "1"
            e = self.rot
            if self.order and e > self.order - e:
                e -= self.order
            if e == 1:
                return "u"
            return f"u^{e}"
        j = self.rot
        if self.order and j > self.order - j:
            j -= self.order
        if not self.flip:
            if j == 0:
                return "1"
            return "rb" * j if j > 0 else "br" * (-j)
        # rho^j b:  (rb)^(j-1) r for j >= 1,  (br)^(-j) b for j <= 0
        if j >= 1:
            return "rb" * (j - 1) + "r"
        return "br" * (-j) + "b"

    def __repr__(self):
        return f"GroupElement({self.word()!r})"


@dataclass(frozen=True)
class RegionLabeling:
    faces: tuple
    labels: dict


def regions(d: Diagram) -> tuple[tuple, ...]:
    """The faces of a valid diagram (`from_json` checks one read from
    outside); a strand-free diagram is one region."""
    return d.faces() or ((),)


def _crossing(theory: Theory, s, face_of,
              ident: GroupElement) -> list[tuple[int, int, GroupElement]]:
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
        u = GroupElement(False, ident.order, ARROW_CROSS_EXP)
        return [(left, right, u), (right, left, u.inverse())]
    if s.label is theory.spec.r_strand:
        gen = ident.times_r()
    else:
        gen = ident.times_b()
    fa, fb = face_of[s.a], face_of[s.b]
    return [(fa, fb, gen), (fb, fa, gen)]


def label_regions(d: Diagram, start_face: int | None = None) -> RegionLabeling:
    """The unique labeling of regions with the outermost region of each
    component labeled by the identity (or `start_face`, if given, for its
    component)."""
    if not d.is_closed():
        raise ValueError("label_regions requires a closed diagram")
    if any(s.label is Label.PLAIN for s in d.strands):
        raise ValueError("expand plain strands before labeling")
    dihedral, order = d.theory.labeling_group()
    ident = GroupElement.identity(dihedral, order)
    faces = regions(d)
    face_of = d.face_index()[1]
    labels, _ = walk_faces(
        len(faces),
        [c for s in d.strands for c in _crossing(d.theory, s, face_of, ident)],
        ident, () if start_face is None else (start_face,))
    return RegionLabeling(faces, dict(enumerate(labels)))


def _box_ell(g: GroupElement, kind: BoxKind) -> int:
    """The integer a box contributes, read from its star-region label."""
    if g.dihedral:
        base = (1 - g.rot) if g.flip else g.rot
        if kind in (BoxKind.USTAR, BoxKind.VSTAR):
            base = -base
        return base
    return -g.rot if kind is BoxKind.U else g.rot


def term_exponent(d: Diagram) -> tuple[RegionLabeling, int]:
    """The region labeling of a closed diagram with boxes and no plain
    strands, and the exponent of the root it evaluates to: the sum of
    its box star-region integers, reduced mod the group order."""
    lab = label_regions(d)
    face_of = d.face_index()[1]
    ell = sum(_box_ell(lab.labels[face_of[d.star_face_endpoint(b)]], kind)
              for b, (kind, _) in enumerate(d.boxes))
    return lab, ell % d.theory.root_bound()


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
