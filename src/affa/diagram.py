"""Planar diagrams as combinatorial maps, and formal linear combinations.

A Diagram is a rotation system: boxes with counterclockwise leg orders,
degree-2 anchor vertices hosting free loops, and (for open diagrams) a
single collapsed boundary vertex.  Strands are a perfect matching on
endpoints.  Planarity is one Euler count, V - E + F = 2C over the C
connected components, so equality of diagrams is decidable structure
equality and isotopy invariance holds by construction.  A diagram's
`FaceTable`, built on first use, holds its faces for `validate`, the
shading check and `affa.labeling`; one walk from face to face across
strands (`walk_faces`) finds the components, the checkerboard parities
and the region labels.

Endpoints are tuples:
    ("bnd", "bottom"|"top", i)   boundary point
    ("box", b, leg)              physical leg (ccw from bottom-left)
    ("anchor", a, s)             anchor slot s in {0, 1}
Their canonical order (`_ep_key`) is the bottom points, the box legs,
the anchor slots, then the top points.  A made diagram writes each
strand from its lower end, lists the strands in this order and numbers
its faces walking the endpoints in it.  `_ccw_boundary` lists the
boundary points counterclockwise.

Orientation is carried by labels: Up/Plus flow upward through the
boundary, Down/Minus downward.  A strand's `dir` is +1 when the flow
runs from endpoint `a` to endpoint `b`, -1 the other way, 0 when the
label is unoriented.  The label of an oriented strand is the object
presented at its source endpoint.  `Diagram.make` alone orders each
strand's endpoints (a swap negates `dir`) and names it, so operations
hand it only endpoints and flows; `Diagram.validate` reads a diagram
from JSON as written, and it is never repaired.

Every closure is one join (`_join`): the boundary points to be joined
are paired, the strands through each pair are walked into one, and the
free loops go on anchors 0..k-1; the join is left unmade.  Composing a
after b (`_stack`) moves b's top points past a's top and a's bottom
points past b's bottom, then pairs b's top point i with a's bottom point
i; trace closure pairs bottom point i with top point i.  Compose and
trace closure make the join and then run the shading check
(`_made_shaded`); so does tensor, on `_beside`, which pairs nothing and
numbers b's boxes, boundary points and anchors after a's.  A closed
pairing tr(a after b) (`_close_pair`) joins the glue pairs and the trace
pairs at once and runs the shading check on the join unmade: the
evaluator's inner products and Gram entries read it as written.  Each
Morphism generator, tensor, click and adjoint is an unmade helper
(`_generator_box`, `_beside`, `_clicked`, `_flipped`) followed by
`Diagram.make`; `affa.testgen` grows a random word from the helpers
alone and makes only its closure.  `Diagram.make` names the free loops
and puts each on its own anchor, in label order, whatever anchors the
operations hand them on.  A Morphism sums the coefficients of repeated
diagrams itself, so each operation just lists its terms.

`Diagram.make` numbers the boxes by a canonical traversal
(`_canonical_box_order`) over integer tables of the rotation system,
built once per call.  Loops are set aside before the boxes are numbered,
so `expand_plain`, which only recolours plain loops, appends them after
the kept strands of a made diagram and never numbers its boxes again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import comb
from operator import itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from affa import wire
from affa.cyclotomic import Cyclo
from affa.theory import (
    SRC,
    BoxKind,
    InvariantBreach,
    Label,
    ORIENTED_LABELS,
    Theory,
    alphabet,
    boundary_flow,
    boundary_object,
    box_kinds,
    box_signature,
    dual_label,
    kind_adjoint,
    leg_count,
    plain_expansion,
    star_parity,
)

Endpoint = tuple


def bnd(side: str, i: int) -> Endpoint:
    return ("bnd", side, i)


def boxleg(b: int, leg: int) -> Endpoint:
    return ("box", b, leg)


def anchor(a: int, s: int) -> Endpoint:
    return ("anchor", a, s)


def _ep_key(e: Endpoint):
    if e[0] == "bnd":
        return (0 if e[1] == "bottom" else 3, 0, e[2])
    return (1 if e[0] == "box" else 2, e[1], e[2])


def _ccw_boundary(p: int, q: int) -> tuple[Endpoint, ...]:
    """The boundary points of a p-to-q diagram counterclockwise: the
    bottom left to right, then the top right to left."""
    return (*(bnd("bottom", i) for i in range(p)),
            *(bnd("top", j) for j in reversed(range(q))))


class Strand(NamedTuple):
    a: Endpoint
    b: Endpoint
    label: Label
    dir: int = 0  # +1: flow a->b, -1: flow b->a, 0: unoriented

    def other(self, e: Endpoint) -> Endpoint:
        return self.b if e == self.a else self.a

    def flow_at(self, e: Endpoint) -> int:
        """SRC (+1) where the flow starts, SNK (-1) where it ends, else 0."""
        return self.dir if e == self.a else -self.dir


def _canonical_box_order(theory: Theory, bottom: Sequence[Label],
                         top: Sequence[Label],
                         boxes: Sequence[tuple[BoxKind, int]],
                         strands: Iterable[Strand]) -> list[int]:
    """Box numbering by a canonical traversal of the rotation system, so
    structurally equal diagrams agree regardless of input box order.  A
    component off the boundary is traversed from leg 0 of each of its
    boxes of least (kind, rotation); legs are numbered on the box itself,
    so no other leg is needed.

    The traversals read integer tables built once per call.  Boxes are
    vertices 0..nb-1 and the collapsed boundary is vertex nb; each vertex
    lists its rotation as (label value, flow there, target vertex, the
    target's position in its rotation, the target's leg or boundary
    index).  Returns the old indices in their new order."""
    nb = len(boxes)
    if nb <= 1:
        return list(range(nb))
    p, q = len(bottom), len(top)
    # the boundary's rotation is `_ccw_boundary` reversed: the top left
    # to right, then the bottom right to left (see `Diagram.faces`)
    rots: list[list] = [[None] * leg_count(theory, k) for k, _ in boxes]
    rots.append([None] * (p + q))

    def place(e: Endpoint) -> tuple[int, int]:
        if e[0] == "box":
            return e[1], e[2]
        return nb, (e[2] if e[1] == "top" else q + p - 1 - e[2])

    for s in strands:
        (va, pa), (vb, pb) = place(s.a), place(s.b)
        flow = s.flow_at(s.a)
        lab = s.label.value
        rots[va][pa] = (lab, flow, vb, pb, s.b[2])
        rots[vb][pb] = (lab, -flow, va, pa, s.a[2])
    keys = [(k.value, r) for k, r in boxes]
    heads = [("v", *key) for key in keys] + [("v", "bnd")]

    def traverse(root: int):
        """Breadth-first over vertices, scanning each rotation from the
        entry position: an encoding invariant under box renumbering, and
        the boxes in the order met."""
        index = [-1] * (nb + 1)
        index[root] = 0
        enc = []
        queue = [(root, 0)]
        for v, entry in queue:
            enc.append(heads[v])
            rot = rots[v]
            for lab, flow, tv, tpos, tkey in rot[entry:] + rot[:entry]:
                if index[tv] < 0:
                    index[tv] = len(queue)
                    queue.append((tv, tpos))
                enc.append(("e", lab, flow, index[tv], tkey))
        return tuple(enc), [v for v, _ in queue if v < nb]

    placed: list[int] = traverse(nb)[1] if p or q else []
    gone = set(placed)
    remaining = [i for i in range(nb) if i not in gone]
    comps = []
    while remaining:
        comp = traverse(remaining[0])[1]
        key = min(keys[i] for i in comp)
        comps.append(min((traverse(i) for i in comp if keys[i] == key),
                         key=lambda got: got[0]))
        gone = set(comp)
        remaining = [i for i in remaining if i not in gone]
    comps.sort(key=lambda x: x[0])
    for _, order in comps:
        placed.extend(order)
    return placed


def _object_at(theory: Theory, boxes: Sequence[tuple[BoxKind, int]],
               e: Endpoint, role: int) -> Label | None:
    """Oriented object presented at endpoint e by a strand whose flow role
    there is `role`; None when unconstrained (anchors)."""
    if e[0] == "bnd":
        return boundary_object(theory, e[1], role)
    if e[0] == "box":
        kind, rot = boxes[e[1]]
        return theory.leg(kind, rot, e[2])[0]
    return None


def leg_to_boundary(theory: Theory, leg: tuple[Label, int],
                    side: str) -> tuple[Label, int]:
    """A strand from a box leg with leg-table entry `leg` straight to a
    boundary point on `side`: (the letter the point must carry, the
    strand's direction from the leg to the point)."""
    lab, flow = leg
    return (boundary_object(theory, side, -flow) if flow else lab), flow


def boundary_arc(side: str, word: Sequence[Label], i: int,
                 j: int) -> Strand | None:
    """The arc joining points i and j of a `side` boundary word, or None
    unless their letters are dual."""
    if word[i] != dual_label(word[j]):
        return None
    return Strand(bnd(side, i), bnd(side, j), word[i],
                  boundary_flow(word[i], side))


def walk_faces(n_faces: int, crossings: Iterable[tuple[int, int, object]],
               ident, first: Iterable[int] = (),
               times=mul) -> tuple[list, list[int]]:
    """Label faces 0..n_faces-1 by walking across strands: a crossing
    (fa, fb, mult) gives fb the label of fa `times` mult.  The first face
    of each component (those in `first` before the rest, in index order)
    gets `ident`.  Returns each face's label and its component's first
    face; a face reached with two labels is an InvariantBreach."""
    adj: list[list] = [[] for _ in range(n_faces)]
    for fa, fb, mult in crossings:
        adj[fa].append((fb, mult))
    labels: list = [None] * n_faces
    root: list[int] = [-1] * n_faces
    for f0 in chain(first, range(n_faces)):
        if root[f0] != -1:
            continue
        labels[f0], root[f0] = ident, f0
        stack = [f0]
        while stack:
            f = stack.pop()
            for g, mult in adj[f]:
                want = times(labels[f], mult)
                if root[g] == -1:
                    labels[g], root[g] = want, f0
                    stack.append(g)
                elif labels[g] != want:
                    raise InvariantBreach(
                        "face reached with two labels: planarity bug")
    return labels, root


class FaceTable(NamedTuple):
    """A diagram's rotation system: each vertex's endpoints ccw (boundary,
    boxes, anchors), the strand at each endpoint and, if the strands use
    exactly those endpoints, `index`: the faces and each endpoint's face."""
    rotations: tuple[tuple[Endpoint, ...], ...]
    strand_at: dict[Endpoint, Strand]
    index: tuple[tuple[tuple[Endpoint, ...], ...], dict[Endpoint, int]] | None


def _face_table(d: Diagram) -> FaceTable:
    """d's FaceTable; ValueError if a strand endpoint is used twice.
    Faces are numbered walking the endpoints in `_ep_key` order."""
    p, q = len(d.bottom), len(d.top)
    ccw = _ccw_boundary(p, q)
    rotations = (
        ccw[::-1],
        *(tuple(boxleg(b, c) for c in range(leg_count(d.theory, kind)))
          for b, (kind, _) in enumerate(d.boxes)),
        *((anchor(a, 0), anchor(a, 1)) for a in range(d.n_anchors)))
    strand_at: dict[Endpoint, Strand] = {}
    for s in d.strands:
        for e in (s.a, s.b):
            if e in strand_at:
                raise ValueError(f"endpoint {e} used twice")
            strand_at[e] = s
    succ = {e: f for rot in rotations for e, f in zip(rot, rot[1:] + rot[:1])}
    if succ.keys() != strand_at.keys():
        return FaceTable(rotations, strand_at, None)
    faces: list[tuple[Endpoint, ...]] = []
    face_of: dict[Endpoint, int] = {}
    for e in chain(ccw[:p], *rotations[1:], rotations[0][:q]):
        face = []
        while e not in face_of:
            face_of[e] = len(faces)
            face.append(e)
            e = succ[strand_at[e].other(e)]
        if face:
            faces.append(tuple(face))
    return FaceTable(rotations, strand_at, (tuple(faces), face_of))


@dataclass(frozen=True)
class Diagram:
    theory: Theory
    bottom: tuple[Label, ...]
    top: tuple[Label, ...]
    boxes: tuple[tuple[BoxKind, int], ...]
    n_anchors: int
    strands: tuple[Strand, ...]

    @staticmethod
    def make(theory: Theory,
             bottom: Sequence[Label],
             top: Sequence[Label],
             boxes: Sequence[tuple[BoxKind, int]],
             strands: Iterable[Strand]) -> "Diagram":
        """Canonical constructor: normalizes box rotations mod leg count,
        names each oriented strand by the object at its source, numbers
        the boxes by `_canonical_box_order`, then writes each strand from
        its lower end and sorts them, keying each end once.  Every strand
        between anchor slots is a loop, whatever anchor ids it carries,
        named by its flow from slot 0 to slot 1 (the dual label if it
        flows back).  Loops are set aside before the boxes are numbered,
        so recolouring one cannot move a box; `_loop_strands` puts them on
        anchors 0..k-1.  The input must use each boundary point and box
        leg exactly once, as `validate` checks: `from_json` validates a
        diagram before it is made, and the operations keep this."""
        boxes = tuple((k, r % leg_count(theory, k)) for k, r in boxes)
        out, loops = [], []
        for s in strands:
            if s.a[0] == "anchor" and s.b[0] == "anchor":
                flow = s.dir if s.a[2] == 0 else -s.dir
                loops.append((dual_label(s.label), +1) if flow == -1
                             else (s.label, flow))
                continue
            if s.dir:
                obj = _object_at(theory, boxes, s.a if s.dir == +1 else s.b,
                                 SRC)
                if obj is not None and obj is not s.label:
                    s = Strand(s.a, s.b, obj, s.dir)
            out.append(s)
        order = _canonical_box_order(theory, bottom, top, boxes, out)
        if order != list(range(len(boxes))):
            new = {old: i for i, old in enumerate(order)}
            boxes = tuple(boxes[old] for old in order)
            out = [Strand(
                boxleg(new[s.a[1]], s.a[2]) if s.a[0] == "box" else s.a,
                boxleg(new[s.b[1]], s.b[2]) if s.b[0] == "box" else s.b,
                s.label, s.dir) for s in out]
        keyed = []
        for s in out:
            ka, kb = _ep_key(s.a), _ep_key(s.b)
            keyed.append((ka, s) if ka < kb
                         else (kb, Strand(s.b, s.a, s.label, -s.dir)))
        keyed += ((_ep_key(s.a), s) for s in _loop_strands(loops))
        keyed.sort(key=itemgetter(0))
        # from a list: a tuple built from a generator is resized as it
        # grows, and that raised the peak memory of long runs
        return Diagram(theory, tuple(bottom), tuple(top), boxes, len(loops),
                       tuple([s for _, s in keyed]))

    # -- rotation system ------------------------------------------------
    @cached_property
    def _table(self) -> FaceTable:
        return _face_table(self)

    def is_closed(self) -> bool:
        return not self.bottom and not self.top

    def faces(self) -> tuple[tuple[Endpoint, ...], ...]:
        """Face orbits of the rotation system.  Each face is the cyclic
        tuple of endpoints it sweeps; every endpoint lies in exactly one
        face.  Each vertex's endpoints run counterclockwise (all vertices
        viewed from the same side of the sphere); the collapsed boundary
        vertex sits at infinity, hence runs the square boundary
        clockwise."""
        return self.face_index()[0]

    def face_index(self) -> tuple[tuple, dict[Endpoint, int]]:
        """The faces and each endpoint's face, the same pair every call."""
        if self._table.index is None:
            raise ValueError("faces need every endpoint on one strand")
        return self._table.index

    def star_face_endpoint(self, b: int) -> Endpoint:
        """The endpoint whose face corner is the star corner of box b
        (ccw between legs rot-1 and rot)."""
        _, rot = self.boxes[b]
        return boxleg(b, rot)

    # -- validation -------------------------------------------------------
    def validate(self) -> list[str]:
        """The ways the diagram breaks its theory, in order, or []: a
        label outside the alphabet, an illegal box kind or rotation, an
        endpoint used twice, a strand at an anchor that is not a loop
        between the two sides of that anchor, endpoints other than the
        boundary points, box legs and anchors 0..n_anchors-1, a strand
        label or flow its endpoints refuse, an Euler count V - E + F other
        than 2C over its C components (one of them is not planar), and in
        shaded theories boxes no checkerboard shading fits.  It reads the
        diagram as written, before `make` numbers it, via its FaceTable."""
        errors: list[str] = []
        th = self.theory
        alpha = alphabet(th)
        for lab in (*self.bottom, *self.top):
            if lab not in alpha:
                errors.append(f"boundary label {lab.value} not in alphabet")
        legal = box_kinds(th)
        for i, (kind, rot) in enumerate(self.boxes):
            if kind not in legal:
                return errors + [f"box {i}: kind {kind.value} illegal here"]
            if not (0 <= rot < leg_count(th, kind)):
                errors.append(f"box {i}: rotation {rot} out of range")
        try:
            table = self._table
        except ValueError as exc:
            return errors + [str(exc)]
        for s in self.strands:
            e = s.a if s.a[0] == "anchor" else s.b
            if e[0] == "anchor" and \
                    {s.a, s.b} != {anchor(e[1], 0), anchor(e[1], 1)}:
                errors.append(f"anchor {e[1]} side {e[2]} is not on a loop "
                              f"between sides 0 and 1 of anchor {e[1]}")
        if table.index is None:
            ends, used = set(chain(*table.rotations)), table.strand_at.keys()
            if missing := sorted(ends - used, key=_ep_key):
                errors.append(f"uncovered endpoints: {missing[:4]}")
            if extra := sorted(used - ends, key=_ep_key):
                errors.append(f"stray endpoints: {extra[:4]}")
            return errors
        for s in self.strands:
            errors.extend(self._check_strand(s, alpha))
        if errors:
            return errors
        # Planarity: V - E + F = 2 on each connected component, so 2C over
        # all C of them.  The faces a walk across strands reaches from one
        # face are one component's faces.
        faces, face_of = table.index
        _, root = walk_faces(len(faces), [
            (face_of[e], face_of[s.other(e)], 1)
            for s in self.strands for e in (s.a, s.b)], 1)
        n_v, n_e = sum(map(bool, table.rotations)), len(self.strands)
        n_f, n_c = len(faces), len(set(root))
        if n_v - n_e + n_f != 2 * n_c:
            return [f"non-planar: V={n_v} E={n_e} F={n_f} "
                    f"over {n_c} components"]
        if not self._shading_consistent():
            return ["inconsistent checkerboard shading at boxes"]
        return []

    def _check_strand(self, s: Strand, alpha: frozenset[Label]) -> list[str]:
        th = self.theory
        errors = []
        if s.label not in alpha:
            return [f"strand label {s.label.value} not in alphabet"]
        sign = ORIENTED_LABELS.get(s.label)
        if s.label is Label.PLAIN:
            if s.dir:
                errors.append("plain strand cannot carry a direction")
            for e in (s.a, s.b):
                if e[0] == "box":
                    errors.append("plain strand cannot end on a box leg")
                elif e[0] == "bnd" and self._end(e)[0] is not Label.PLAIN:
                    errors.append("plain strand at a labeled boundary point")
            return errors
        if sign is None:
            # Unoriented concrete label: must equal both endpoint labels.
            if s.dir:
                errors.append(f"{s.label.value} strand cannot be directed")
            for e in (s.a, s.b):
                exp = self._end(e)[0]
                if exp is not None and exp is not Label.PLAIN and exp != s.label:
                    errors.append(f"strand label {s.label.value} != endpoint "
                                  f"label {exp.value} at {e}")
            return errors
        # Oriented strand: one source, one sink; label = object at source.
        if s.dir not in (+1, -1):
            return [f"oriented strand needs a direction: {s}"]
        for e in (s.a, s.b):
            need = self._end(e)[1]
            if need and need != s.flow_at(e):
                errors.append(f"flow disagreement at {e}")
        src = s.a if s.dir == +1 else s.b
        obj = _object_at(th, self.boxes, src, SRC)
        if obj is not None and obj != s.label:
            errors.append(
                f"strand label {s.label.value} != source object {obj.value}")
        return errors

    def _end(self, e: Endpoint) -> tuple[Label | None, int]:
        """The label at e and the flow role it requires there (SRC/SNK,
        or 0 if unconstrained); (None, 0) at anchors."""
        if e[0] == "bnd":
            lab = (self.bottom if e[1] == "bottom" else self.top)[e[2]]
            return lab, boundary_flow(lab, e[1])
        if e[0] == "box":
            kind, rot = self.boxes[e[1]]
            return self.theory.leg(kind, rot, e[2])
        return None, 0

    def _shading_consistent(self) -> bool:
        """Exists a checkerboard parity per component matching all boxes:
        the sign of a walk flipping it across every strand, consistent as
        every vertex of a planar diagram has even degree.  True unless the
        theory is shaded and there are boxes."""
        if not (self.theory.is_shaded() and self.boxes):
            return True
        faces, face_of = self.face_index()
        sign, root = walk_faces(len(faces), [
            (face_of[e], face_of[s.other(e)], -1)
            for s in self.strands for e in (s.a, s.b)], 1)
        required: dict[int, int] = {}
        for b, (kind, _) in enumerate(self.boxes):
            f = face_of[self.star_face_endpoint(b)]
            val = (sign[f] < 0) ^ star_parity(kind)
            if required.setdefault(root[f], val) != val:
                return False
        return True

    # -- serialization -----------------------------------------------------
    def to_json(self, coeff: Cyclo | None = None) -> dict:
        def ep(e):
            if e[0] == "bnd":
                return {"bnd": e[1], "i": e[2]}
            if e[0] == "box":
                return {"box": e[1], "leg": e[2]}
            return {"anchor": e[1], "side": e[2]}

        out = {
            "theory": self.theory.to_json(),
            "bottom": [l.value for l in self.bottom],
            "top": [l.value for l in self.top],
            "boxes": [{"kind": k.value, "rot": r} for k, r in self.boxes],
            "strands": [{"a": ep(s.a), "b": ep(s.b), "label": s.label.value,
                         "dir": s.dir} for s in self.strands],
            "anchors": self.n_anchors,
        }
        if coeff is not None:
            out["coeff"] = coeff.to_json()
        return out

    @staticmethod
    def from_json(obj: dict) -> "Diagram":
        """The diagram a term object writes, validated as written and then
        made canonical; its loops sit on anchors 0..anchors-1, one each."""
        th, bottom, top = _read_boundary(obj)
        # a missing kind, endpoint or label reads as None, which no enum
        # value or endpoint is
        boxes = [(BoxKind(b.get("kind")), wire.integer(b.get("rot", 0), "rot"))
                 for b in wire.items(obj.get("boxes", []), "boxes")]
        boxes = [(k, r % leg_count(th, k)) for k, r in boxes]
        strands = [Strand(wire.endpoint(s.get("a")), wire.endpoint(s.get("b")),
                          Label(s.get("label")),
                          wire.integer(s.get("dir", 0), "dir"))
                   for s in wire.items(obj.get("strands", []), "strands")]
        loops = sum(s.a[0] == s.b[0] == "anchor" for s in strands)
        errs = Diagram(th, tuple(bottom), tuple(top), tuple(boxes), loops,
                       tuple(strands)).validate()
        if errs:
            raise ValueError("invalid diagram: " + "; ".join(errs))
        declared = wire.integer(obj.get("anchors", loops), "anchors")
        if declared != loops:
            raise ValueError(f"{declared} anchors declared, but the strands "
                             f"use {loops}")
        return Diagram.make(th, bottom, top, boxes, strands)


class Morphism:
    """A formal scalar-linear combination of diagrams sharing a boundary."""

    __slots__ = ("theory", "bottom", "top", "terms")

    def __init__(self, theory: Theory, bottom: Sequence[Label],
                 top: Sequence[Label],
                 terms: Iterable[tuple[Diagram, Cyclo]] = ()):
        """Sums the coefficients of repeated diagrams and drops zeros."""
        self.theory = theory
        self.bottom = tuple(bottom)
        self.top = tuple(top)
        clean: dict[Diagram, Cyclo] = {}
        for d, c in terms:
            if (d.theory, d.bottom, d.top) != (theory, self.bottom, self.top):
                raise ValueError("term boundary does not match morphism")
            if not c.is_zero():
                clean[d] = clean[d] + c if d in clean else c
        self.terms = {d: c for d, c in clean.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(theory: Theory, bottom: Sequence[Label],
             top: Sequence[Label]) -> "Morphism":
        return Morphism(theory, bottom, top)

    @staticmethod
    def from_diagram(d: Diagram, coeff: Cyclo | None = None) -> "Morphism":
        c = coeff if coeff is not None else Cyclo.one()
        return Morphism(d.theory, d.bottom, d.top, ((d, c),))

    @staticmethod
    def identity(theory: Theory, word: Sequence[Label]) -> "Morphism":
        strands = [Strand(bnd("bottom", i), bnd("top", i), lab,
                          boundary_flow(lab, "bottom"))
                   for i, lab in enumerate(word)]
        return Morphism.from_diagram(Diagram.make(theory, word, word, [],
                                                  strands))

    @staticmethod
    def generator(theory: Theory, kind: BoxKind, rot: int = 0) -> "Morphism":
        """The bare generator box at the given rotation offset
        (`_generator_box`)."""
        return Morphism.from_diagram(_made(_generator_box(theory, kind, rot)))

    @staticmethod
    def cup(theory: Theory, label: Label) -> "Morphism":
        """The arc from nothing to [label, dual(label)]; for unoriented
        labels both new points carry `label`."""
        word = [label, dual_label(label)]
        s = boundary_arc("top", word, 0, 1)
        return Morphism.from_diagram(Diagram.make(theory, [], word, [], [s]))

    @staticmethod
    def cap(theory: Theory, label: Label) -> "Morphism":
        """The arc from [label, dual(label)] to nothing."""
        word = [label, dual_label(label)]
        s = boundary_arc("bottom", word, 0, 1)
        return Morphism.from_diagram(Diagram.make(theory, word, [], [], [s]))

    @staticmethod
    def loop(theory: Theory, label: Label) -> "Morphism":
        """A single free loop on a fresh anchor."""
        return Morphism.from_diagram(Diagram.make(theory, [], [], [],
                                                  [loop_strand(0, label)]))

    # -- linear structure -------------------------------------------------
    def _check_same_boundary(self, other: "Morphism"):
        if (self.theory, self.bottom, self.top) != \
                (other.theory, other.bottom, other.top):
            raise ValueError("boundary signature mismatch")

    def __add__(self, other: "Morphism") -> "Morphism":
        self._check_same_boundary(other)
        return Morphism(self.theory, self.bottom, self.top,
                        chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + other.scale(-1)

    def scale(self, c: Cyclo | int | Fraction) -> "Morphism":
        if not isinstance(c, Cyclo):
            c = Cyclo.from_fraction(c)
        return Morphism(self.theory, self.bottom, self.top,
                        ((d, x * c) for d, x in self.terms.items()))

    def __rmul__(self, c) -> "Morphism":
        return self.scale(c)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        if (self.theory, self.bottom, self.top) != \
                (other.theory, other.bottom, other.top):
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[d] == other.terms[d] for d in self.terms)

    __hash__ = None

    def __repr__(self):
        return (f"Morphism({self.theory.family.value}, "
                f"{[l.value for l in self.bottom]}->"
                f"{[l.value for l in self.top]}, {len(self.terms)} terms)")

    # -- diagrammatic operations -------------------------------------------
    def _pairwise(self, other: "Morphism", op: str, bottom: Sequence[Label],
                  top: Sequence[Label], join) -> "Morphism":
        """The sum over term pairs of join(self's term, other's term), a
        diagram or None (a zero term), times both coefficients."""
        if self.theory != other.theory:
            raise ValueError(f"theory mismatch in {op}")
        return Morphism(self.theory, bottom, top,
                        ((d, ca * cb) for da, ca in self.terms.items()
                         for db, cb in other.terms.items()
                         if (d := join(da, db)) is not None))

    def tensor(self, other: "Morphism") -> "Morphism":
        return self._pairwise(other, "tensor", self.bottom + other.bottom,
                              self.top + other.top,
                              lambda a, b: _made_shaded(_beside(a, b)))

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other: glue other's top to self's bottom."""
        if len(self.bottom) != len(other.top):
            raise ValueError("compose length mismatch")
        return self._pairwise(other, "compose", other.bottom, self.top, _glue)

    def adjoint(self) -> "Morphism":
        return Morphism(self.theory, self.top, self.bottom,
                        ((_made(_flipped(d)), c.conj())
                         for d, c in self.terms.items()))

    def click(self, steps: int) -> "Morphism":
        newb, newt, _ = _click_boundary(self.bottom, self.top, steps)
        return Morphism(self.theory, newb, newt,
                        ((_made(_clicked(d, steps)), c)
                         for d, c in self.terms.items()))

    def trace_close(self, side: str = "right") -> "Morphism":
        if self.bottom != self.top:
            raise ValueError("trace requires equal bottom and top words")
        if side not in ("left", "right"):
            raise ValueError("side must be left or right")
        # On the sphere the two closures are isotopic, and the engine works
        # with sphere maps (these theories are spherical), so both sides
        # yield the same combinatorial map.
        return Morphism(self.theory, [], [],
                        ((dd, c) for d, c in self.terms.items()
                         if (dd := _trace_diagram(d)) is not None))

    def expand_plain(self) -> "Morphism":
        """Each plain loop as the sum of the two strand colours.  A term with
        p plain loops becomes p+1 terms: for j = p down to 0, the first j
        loops in the first colour, the rest in the second, times C(p, j).
        Closed morphisms only: there every plain strand is a free loop."""
        if self.bottom or self.top:
            raise ValueError("plain expansion requires a closed morphism")
        return Morphism(self.theory, (), (),
                        (t for d, c in self.terms.items()
                         for t in _expand_plain_loops(d, c)))

    # -- serialization -----------------------------------------------------
    def serialize(self) -> bytes:
        for order in {c.order for c in self.terms.values()}:
            _check_scalar_order(self.theory, order)
        terms = [d.to_json(c) for d, c in sorted(
            self.terms.items(), key=lambda kv: repr(kv[0]))]
        doc = {"theory": self.theory.to_json(),
               "bottom": [l.value for l in self.bottom],
               "top": [l.value for l in self.top],
               "terms": terms}
        return json.dumps(doc, indent=1).encode()

    @staticmethod
    def parse(data: bytes | str) -> "Morphism":
        doc = wire.document(data)
        th, bottom, top = _read_boundary(doc)
        terms = wire.items(doc.get("terms", []), "terms")
        one = {"order": 1, "coeffs": ["1"]}

        def coeff(obj) -> Cyclo:
            # Cyclo builds one entry per unit of order, so a huge order is
            # refused before it is built
            coeffs, order = wire.scalar(obj)
            _check_scalar_order(th, order)
            return Cyclo(coeffs, order)

        return Morphism(th, bottom, top,
                        ((Diagram.from_json(t), coeff(t.get("coeff", one)))
                         for t in terms))


def _check_scalar_order(th: Theory, order: int) -> None:
    """Refuse order d unless Q(zeta_d) lies in the theory's root field
    Q(zeta_N): unless d divides lcm(2, N), N the root bound (1 unboxed)."""
    bound = th.root_bound() if th.spec.kinds else 1
    field = bound if bound % 2 == 0 else 2 * bound
    if field % order:
        raise ValueError(f"scalar order {order} does not divide {field}, "
                         "the order of the theory's root field")


def _read_boundary(obj) -> tuple[Theory, list[Label], list[Label]]:
    """The theory and boundary words of a morphism or term object."""
    if not isinstance(obj, dict) or "theory" not in obj:
        raise ValueError("expected an object with a theory")
    return (Theory.from_json(obj["theory"]),
            wire.word(obj.get("bottom", []), "bottom", Label),
            wire.word(obj.get("top", []), "top", Label))


# ---------------------------------------------------------------------------
# diagram-level operation internals
# ---------------------------------------------------------------------------

def _made(d: Diagram) -> Diagram:
    """d as `Diagram.make` leaves it."""
    return Diagram.make(d.theory, d.bottom, d.top, d.boxes, d.strands)


def _made_shaded(d: Diagram | None) -> Diagram | None:
    """d made, or None (the zero term) when d is None or no checkerboard
    shading fits it.  The check runs on the made diagram, which keeps the
    FaceTable it builds for the region labeling."""
    if d is None:
        return None
    d = _made(d)
    return d if d._shading_consistent() else None


def _generator_box(theory: Theory, kind: BoxKind, rot: int) -> Diagram:
    """The bare generator box at rotation offset `rot` (taken mod its leg
    count), unmade, legs running straight to the boundary: the first legs
    to the bottom left to right, the rest to the top right to left."""
    rot %= leg_count(theory, kind)
    p = len(box_signature(theory, kind)[0])
    letters: list[Label] = []
    strands = []
    for c, e in enumerate(_ccw_boundary(p, leg_count(theory, kind) - p)):
        letter, flow = leg_to_boundary(theory, theory.leg(kind, rot, c), e[1])
        letters.append(letter)
        strands.append(Strand(boxleg(0, c), e, letter, flow))
    return Diagram(theory, tuple(letters[:p]), tuple(letters[p:][::-1]),
                   ((kind, rot),), 0, tuple(strands))


def loop_strand(a: int, label: Label) -> Strand:
    """A free loop of `label` on anchor a, oriented loops flowing from
    slot 0 to slot 1."""
    return Strand(anchor(a, 0), anchor(a, 1), label,
                  +1 if label in ORIENTED_LABELS else 0)


def _loop_strands(loops: Iterable[tuple[Label, int]]) -> list[Strand]:
    """Free loops given as (label, dir), dir +1 or 0, sorted by (label,
    dir) and put on anchors 0..k-1, as `Diagram.make` leaves them."""
    return [Strand(anchor(i, 0), anchor(i, 1), lab, dir) for i, (lab, dir)
            in enumerate(sorted(loops, key=lambda ld: (ld[0].value, ld[1])))]


def _offset_endpoint(e: Endpoint, dbox: int, dbot: int, dtop: int,
                     danc: int) -> Endpoint:
    """e with its box index, boundary position and anchor index shifted."""
    if e[0] == "box":
        return boxleg(e[1] + dbox, e[2])
    if e[0] == "anchor":
        return anchor(e[1] + danc, e[2])
    if e[1] == "bottom":
        return bnd("bottom", e[2] + dbot)
    return bnd("top", e[2] + dtop)


def _offset_strand(s: Strand, dbox: int, dbot: int, dtop: int,
                   danc: int = 0) -> Strand:
    return Strand(_offset_endpoint(s.a, dbox, dbot, dtop, danc),
                  _offset_endpoint(s.b, dbox, dbot, dtop, danc),
                  s.label, s.dir)


def _beside(a: Diagram, b: Diagram) -> Diagram:
    """a tensor b, unmade: b to the right of a, its boxes, boundary points
    and anchors numbered after a's.  The shading check is left to the
    caller, as a clash is the zero term."""
    return Diagram(a.theory, a.bottom + b.bottom, a.top + b.top,
                   a.boxes + b.boxes, a.n_anchors + b.n_anchors,
                   a.strands + tuple([
                       _offset_strand(s, len(a.boxes), len(a.bottom),
                                      len(a.top), a.n_anchors)
                       for s in b.strands]))


def _join(theory: Theory, bottom: Sequence[Label], top: Sequence[Label],
          boxes: Sequence[tuple[BoxKind, int]], strands: Sequence[Strand],
          pairs: Sequence[tuple[Endpoint, Endpoint]]) -> Diagram | None:
    """The diagram of strands joined through each pair of boundary points,
    which leave the boundary, unmade; None (the zero term) on a label or
    flow disagreement along a walk.  Other endpoints keep their names.  A
    walk between two kept endpoints becomes one kept strand, and a closed
    walk a free loop; the kept strands come first, then the free loops of
    `strands` and the closed walks, on anchors 0..k-1.  A walk's strand
    carries its flow and, when unoriented, its colour; `Diagram.make`
    orders and names it.  A closed walk starts at its loop's lowest pair
    and is recorded by its flow there: dir +1 when it flows as the
    theory's `up` colour would, else -1."""
    link: dict[Endpoint, Endpoint] = {}
    for x, y in pairs:
        link[x], link[y] = y, x
    at: dict[Endpoint, Strand] = {}
    for s in strands:
        at[s.a] = at[s.b] = s
    done: set[int] = set()

    def walk(e: Endpoint):
        """Follow strands from e to a kept endpoint, or back to e (end
        None): (end, unoriented label, flow along the walk), or None on a
        disagreement."""
        label, flow = None, 0
        while id(at[e]) not in done:
            s = at[e]
            done.add(id(s))
            if s.dir:
                f = s.flow_at(e)
                if flow and flow != f:
                    return None
                flow = f
            elif s.label is not Label.PLAIN:
                if label not in (None, s.label):
                    return None
                label = s.label
            x = s.other(e)
            if x not in link:
                return x, label, flow
            e = link[x]
        return None, label, flow

    kept: list[Strand] = []
    loops: list[Strand] = []
    for s in strands:
        if s.a not in link and s.b not in link:
            if s.a[0] == "anchor":
                s = Strand(anchor(len(loops), s.a[2]),
                           anchor(len(loops), s.b[2]), s.label, s.dir)
                loops.append(s)
            else:
                kept.append(s)
            continue
        if id(s) in done or (s.a in link and s.b in link):
            continue
        e = s.b if s.a in link else s.a
        got = walk(e)
        if got is None:
            return None
        end, label, flow = got
        kept.append(Strand(e, end, label or Label.PLAIN, flow))
    up = plain_expansion(theory)[0]
    for x, _ in pairs:
        if id(at[x]) in done:
            continue
        got = walk(x)
        if got is None:
            return None
        _, label, flow = got
        if flow:
            lab, dir = up, (+1 if flow == boundary_flow(up, x[1]) else -1)
        else:
            lab, dir = label or Label.PLAIN, 0
        loops.append(Strand(anchor(len(loops), 0), anchor(len(loops), 1),
                            lab, dir))
    return Diagram(theory, tuple(bottom), tuple(top), tuple(boxes),
                   len(loops), tuple(kept + loops))


def _stack(a: Diagram, b: Diagram) -> tuple[
        list[Strand], list[tuple[Endpoint, Endpoint]]] | None:
    """The strands of b stacked under a, and the pairs that glue b's top
    point i to a's bottom point i; None (a zero term) when two glued
    letters disagree.  b's top points move past a's top and a's bottom
    points past b's bottom; b's boxes come first."""
    for lb, la in zip(b.top, a.bottom):
        if lb is not Label.PLAIN and la is not Label.PLAIN and lb != la:
            return None
    p, q = len(b.bottom), len(a.top)
    strands = [_offset_strand(s, 0, 0, q) for s in b.strands]
    strands += [_offset_strand(s, len(b.boxes), p, 0) for s in a.strands]
    return strands, [(bnd("top", q + i), bnd("bottom", p + i))
                     for i in range(len(b.top))]


def _trace_pairs(n: int) -> list[tuple[Endpoint, Endpoint]]:
    """The pairs of a trace closure: bottom point i with top point i."""
    return [(bnd("bottom", i), bnd("top", i)) for i in range(n)]


def _glue(a: Diagram, b: Diagram) -> Diagram | None:
    """a after b (b's top glued to a's bottom); None = zero term."""
    if (stacked := _stack(a, b)) is None:
        return None
    return _made_shaded(_join(a.theory, b.bottom, a.top, b.boxes + a.boxes,
                              *stacked))


def _close_pair(a: Diagram, b: Diagram) -> tuple[Diagram, int] | None:
    """tr(a after b), b's bottom word being a's top, as written: the glue
    pairs and the trace pairs walked at once, never made.  Returns the
    unmade closed diagram, its free loops on anchors 0..k-1, and how many
    of them are plain; None (the zero term) on a disagreement along a walk
    or a checkerboard clash.  The shading check reads only the rotation
    system, so it answers on the unmade diagram as on the made one."""
    if (stacked := _stack(a, b)) is None:
        return None
    strands, pairs = stacked
    d = _join(a.theory, (), (), b.boxes + a.boxes, strands,
              pairs + _trace_pairs(len(b.bottom)))
    if d is None or not d._shading_consistent():
        return None
    return d, sum(s.label is Label.PLAIN and s.a[0] == "anchor"
                  for s in d.strands)


def _trace_diagram(d: Diagram) -> Diagram | None:
    return _made_shaded(_join(d.theory, (), (), d.boxes, d.strands,
                              _trace_pairs(len(d.bottom))))


def _flipped(d: Diagram) -> Diagram:
    """d's adjoint, unmade: d flipped top to bottom, arrows reversed, each
    box its adjoint kind at the opposite rotation (mod its leg count, for
    `star_face_endpoint`)."""
    th = d.theory

    def remap(e: Endpoint) -> Endpoint:
        if e[0] == "bnd":
            return bnd("top" if e[1] == "bottom" else "bottom", e[2])
        if e[0] == "box":
            kind, _ = d.boxes[e[1]]
            return boxleg(e[1], leg_count(th, kind) - 1 - e[2])
        return e

    # Flipping vertically and reversing arrows swaps each endpoint's flow
    # role, so every strand but a loop reverses.
    strands = [Strand(remap(s.a), remap(s.b), s.label,
                      s.dir if s.a[0] == "anchor" else -s.dir)
               for s in d.strands]
    return Diagram(th, d.top, d.bottom,
                   tuple((kind_adjoint(k), -r % leg_count(th, k))
                         for k, r in d.boxes),
                   d.n_anchors, tuple(strands))


def _clicked(d: Diagram, steps: int) -> Diagram:
    """d with its boundary clicked by `steps` notches (`_click_boundary`),
    unmade."""
    newb, newt, moves = _click_boundary(d.bottom, d.top, steps)
    return Diagram(d.theory, newb, newt, d.boxes, d.n_anchors, tuple(
        Strand(moves.get(s.a, s.a), moves.get(s.b, s.b), s.label, s.dir)
        for s in d.strands))


def _click_boundary(bottom: Sequence[Label], top: Sequence[Label],
                    steps: int):
    """Boundary rotation by `steps` notches of the counterclockwise
    positions (`_ccw_boundary`); a +1 click slides every point one
    position clockwise (the outer star advances a notch).  Returns
    (bottom', top', endpoint moves); a label dualizes when its point ends
    in the other row (each crossing flips row and dualizes)."""
    p, k = len(bottom), len(bottom) + len(top)
    ccw, word = _ccw_boundary(p, len(top)), (*bottom, *reversed(top))
    new: list = [None] * k
    moves: dict[Endpoint, Endpoint] = {}
    for c, src in enumerate(ccw):
        pos = (c - steps) % k
        moves[src] = ccw[pos]
        new[pos] = word[c] if src[1] == ccw[pos][1] else dual_label(word[c])
    return tuple(new[:p]), tuple(reversed(new[p:])), moves


def _plain_colourings(d: Diagram) -> tuple[
        list[Strand], list[tuple[Label, int]],
        tuple[tuple[Label, int], tuple[Label, int]],
        list[tuple[int, int, int]]]:
    """A made closed diagram's plain expansion in parts: its kept strands
    (all but the free loops, in d's order); its coloured loops as (label,
    dir); the two colours a plain loop splits into, as (label, dir); and
    for j = p down to 0, p its plain loops, the colouring (j, p - j,
    C(p, j)): j plain loops in the first colour and p - j in the second,
    C(p, j) times.  One colouring, (0, 0, 1), without plain loops."""
    kept, loops, p = [], [], 0
    for s in d.strands:
        if s.a[0] != "anchor":
            kept.append(s)
        elif s.label is Label.PLAIN:
            p += 1
        else:
            loops.append((s.label, s.dir))
    dir = +1 if d.theory.is_oriented() else 0
    colours = tuple((lab, dir) for lab in plain_expansion(d.theory))
    return (kept, loops, colours,
            [(j, p - j, comb(p, j)) for j in range(p, -1, -1)])


def _expand_plain_loops(d: Diagram,
                        c: Cyclo) -> Iterator[tuple[Diagram, Cyclo]]:
    """d's terms, one per colouring of its plain loops (`_plain_colourings`).
    d comes from `Diagram.make`, which numbers the boxes with the loops
    set aside, so the boxes and other strands are kept and the loops go
    after them (d is closed, so every kept strand starts on a box leg,
    before the anchors)."""
    kept, loops, (first, second), colourings = _plain_colourings(d)
    if len(colourings) == 1:
        yield d, c
        return
    for j, k, mult in colourings:
        coloured = loops + [first] * j + [second] * k
        yield (Diagram(d.theory, (), (), d.boxes, len(coloured),
                       tuple(kept + _loop_strands(coloured))),
               c if mult == 1 else c * mult)
