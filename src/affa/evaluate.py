"""Exact evaluation of closed diagrams by local rewriting.

At index 4 a plain strand is the sum of the two strand colors, and in a
closed diagram every plain strand is a free loop, so a term with p plain
loops is the sum of p+1 colourings (j loops in the first color and the
rest in the second, times C(p, j), for j = p down to 0).  The colourings
share the term's base -- its boxes, its kept strands and its loop count
-- and so its value and its rewrite steps.  So `eval_with_steps` reduces
each term once, merges the colourings of all terms by (base, loop
colours), as `expand_plain` merges the diagrams it builds, and counts
the steps over the merged, nonzero expansion, without building a diagram
per colouring.  A term is reduced box pair by box pair: the
lowest-numbered live box is rotated
until a strand to a second box leaves its first position (each notch of
rotation applies a click relation, whose cost is a power of the root),
the partner box is rotated to face it, the remaining parallel strands
are reconnected across the pair (saddle relations, free), and the two
boxes -- at that point an adjoint pair -- cancel by the unitary
relation.  Free loops pop at factor one.  So a term's value is the root
raised to the sum of its click exponents: the walk adds integers, and
each term builds one scalar at the end.  The measure (live boxes, free
loops) strictly decreases at every cancellation and pop, which is
checked (an InvariantBreach otherwise, also under `python -O`).

An inner product tr(f* g) is never made into a diagram: f's terms are
flipped unmade (`diagram._flipped`), and `trace_pairing` closes each term
pair with `diagram._close_pair` and reduces the closure as written.  A
closure's p plain loops are not expanded, since the p+1 colourings share
its boxes and so its click exponent: it is worth 2^p times its value
with the loops popped.  tr(f* f) pairs each unordered term pair once and
adds the conjugate for the mirror pair.

A source category of size m >= 2 is evaluated through its functor image
(`affa.equiv`), which `_to_planar` alone applies.  A size-one source has
none: `_eval_term` cancels its one-leg boxes in pairs at one, so there a
valid closed diagram is worth 2^p for its p plain loops.
"""

from __future__ import annotations

from affa.cyclotomic import Cyclo
from affa.diagram import (
    Diagram,
    Morphism,
    Strand,
    _close_pair,
    _flipped,
    _plain_colourings,
    bnd,
    boundary_arc,
)
from affa.theory import (
    BoxKind,
    Family,
    InvariantBreach,
    Label,
    Theory,
    boundary_flow,
    box_kinds,
    box_signature,
    click_rewrite,
    dual_label,
    kind_adjoint,
    leg_count,
    plain_expansion,
)

# Increasing a box's rotation offset by one notch applies the Fourier
# transform once in this direction.  One of the two readings of "rotate
# the star counterclockwise"; fixed by the click relations in the test
# suite.  The region-labeling invariant agrees with it on tr(w* w) draws
# only: 172 of the 356 phase pairs tr(h* F^c g) disagree (ROADMAP item 1).
CLICK_DIR = +1


def _to_planar(m: Morphism) -> Morphism:
    """m, or for a source of size m >= 2 its functor image."""
    if m.theory.is_planar_algebra() or m.theory.m < 2:
        return m
    from affa.equiv import to_image
    return to_image(m)


def eval_with_steps(m: Morphism) -> tuple[Cyclo, int]:
    """Value of a closed morphism and the number of rewrite steps used.
    Each term is reduced once (terms with one base share the reduction),
    and the colourings of all terms are merged by key, (base, loop
    colours); `steps` is summed over the merged colourings with a nonzero
    coefficient, the terms of `m.expand_plain()`."""
    if m.bottom or m.top:
        raise ValueError("evaluation requires a closed morphism")
    m = _to_planar(m)
    if not m.theory.is_planar_algebra():  # size one: m is tr(1* m)
        return inner_product(unit_empty(m.theory), m), 0
    bases: dict[tuple, int] = {}
    terms: list[Diagram] = []
    merged: dict[tuple, Cyclo] = {}
    for d, c in m.terms.items():
        kept, loops, (first, second), colourings = _plain_colourings(d)
        b = bases.setdefault(
            (d.boxes, tuple(kept), len(loops) + len(colourings) - 1),
            len(terms))
        if b == len(terms):
            terms.append(d)
        # a made loop has one of the two colours; any other is keyed as is
        rest = tuple(x for x in loops if x != first and x != second)
        nf, ns = loops.count(first), loops.count(second)
        for j, k, mult in colourings:
            key = (b, rest, nf + j, ns + k)
            x = c if mult == 1 else c * mult
            merged[key] = merged[key] + x if key in merged else x
    total, steps, reduced = Cyclo.zero(), 0, {}
    for (b, *_), c in merged.items():
        if c.is_zero():
            continue
        if b not in reduced:
            reduced[b] = _eval_term(terms[b])
        val, st = reduced[b]
        total = total + c * val
        steps += st
    return total, steps


def eval_closed(m: Morphism) -> Cyclo:
    """The scalar a closed morphism evaluates to."""
    return eval_with_steps(m)[0]


def trace_pairing(a: Diagram, b: Diagram) -> Cyclo:
    """tr(a after b) for diagrams of a planar algebra or a size-one
    source, b's bottom word being a's top: the closure `_close_pair`
    leaves, reduced as written, times 2^p for its p plain loops."""
    if (got := _close_pair(a, b)) is None:
        return Cyclo.zero()
    d, plain = got
    val, _ = _eval_term(d)
    return val * (1 << plain) if plain else val


def inner_product(f: Morphism, g: Morphism) -> Cyclo:
    """tr(f* g) for morphisms with a common boundary: `trace_pairing`
    summed over the term pairs of f* and g, in every theory.  f's terms
    are flipped unmade, so no adjoint is made.  tr(f* f) pairs each
    unordered term pair once, since tr(d_j* d_i) is the conjugate of
    tr(d_i* d_j)."""
    if (f.theory, f.bottom, f.top) != (g.theory, g.bottom, g.top):
        raise ValueError("inner product needs a common boundary")
    pf = _to_planar(f)
    same = g is f
    gterms = list((pf if same else _to_planar(g)).terms.items())
    total = Cyclo.zero()
    for i, (da, ca) in enumerate(pf.terms.items()):
        adj, ca = _flipped(da), ca.conj()
        for j, (db, cb) in enumerate(gterms[i:] if same else gterms):
            val = trace_pairing(adj, db)
            if not val.is_zero():
                x = ca * cb * val
                total = total + (x + x.conj() if same and j else x)
    return total


def morphism_eq(f: Morphism, g: Morphism) -> bool:
    """Equality in the category: the difference has vanishing norm.

    Sound because tr(f* f) is positive definite in every theory handled
    here (for the source categories, through a faithful functor).
    """
    if (f.theory, f.bottom, f.top) != (g.theory, g.bottom, g.top):
        raise ValueError("comparable morphisms need a common boundary")
    d = f - g
    return inner_product(d, d).is_zero()


# -- the rewriting loop ----------------------------------------------------

def _click_to(theory: Theory, boxes: list, b: int, leg: int,
              target: int) -> tuple[int, int]:
    """Rotate box b so that physical leg `leg` sits at intrinsic position
    `target`; returns the exponent of the root the clicks cost (the sum
    of their click-table exponents) and the notch count."""
    kind, rot = boxes[b]
    k = leg_count(theory, kind)
    steps = ((leg - target) - rot) % k
    clicks = theory.spec.clicks
    exp = 0
    for _ in range(steps):
        kind, e = clicks[kind, CLICK_DIR]
        exp += e
    boxes[b] = (kind, (rot + steps) % k)
    return exp, steps


def _eval_term(d: Diagram) -> tuple[Cyclo, int]:
    """The value of a closed diagram, made or as written, each free loop
    popped at one, and the rewrite steps used."""
    th = d.theory
    conn: dict[tuple[int, int], tuple[int, int]] = {}
    nloops = 0
    for s in d.strands:
        if s.a[0] == "anchor":
            nloops += 1
        else:
            conn[(s.a[1], s.a[2])] = (s.b[1], s.b[2])
            conn[(s.b[1], s.b[2])] = (s.a[1], s.a[2])
    boxes = list(d.boxes)
    live = set(range(len(boxes)))
    exp = 0
    steps = 0
    measure = (len(live), nloops)
    while live:
        A = min(live)
        kindA, rotA = boxes[A]
        k = leg_count(th, kindA)
        legA = None
        for pos in range(k):
            leg = (rotA + pos) % k
            partner = conn.get((A, leg))
            if partner is None:
                raise InvariantBreach("dangling box leg in a closed diagram")
            if partner[0] != A:
                legA = leg
                break
        if legA is None:
            # every strand of A returning to A would need an innermost
            # chord joining two adjacent legs, which no box allows
            raise InvariantBreach("box whose strands all return to it")
        B, legB = conn[(A, legA)]
        e, st = _click_to(th, boxes, A, legA, 0)
        exp, steps = exp + e, steps + st
        kindA, rotA = boxes[A]
        e, st = _click_to(th, boxes, B, legB, k - 1)
        exp, steps = exp + e, steps + st
        kindB, rotB = boxes[B]
        if leg_count(th, kindB) != k:
            raise InvariantBreach("paired boxes of unequal size")
        # a one-leg box is a size-one source's: any two joined cancel at one
        if kindB is not kind_adjoint(kindA) and k > 1:
            raise InvariantBreach("evaluation paired two non-adjoint boxes")
        p = len(box_signature(th, kindA)[0])
        q = k - p
        # saddle moves: force A's remaining lower legs onto B in order
        for i in range(1, p):
            xa = (A, (rotA + i) % k)
            xb = (B, (rotB + k - 1 - i) % k)
            if conn[xa] == xb:
                continue
            ea, eb = conn[xa], conn[xb]
            conn[xa], conn[xb] = xb, xa
            conn[ea], conn[eb] = eb, ea
            steps += 1
        # unitary cancellation: drop the connecting strands, splice the rest
        for i in range(p):
            del conn[(A, (rotA + i) % k)]
            del conn[(B, (rotB + k - 1 - i) % k)]
        for i in range(q):
            x = (A, (rotA + k - 1 - i) % k)
            y = (B, (rotB + i) % k)
            ea, eb = conn.pop(x), conn.pop(y)
            if ea == y:
                nloops += 1
                continue
            conn[ea], conn[eb] = eb, ea
        live.discard(A)
        live.discard(B)
        steps += 1
        now = (len(live), nloops)
        if not now < measure:
            raise InvariantBreach("evaluation measure failed to decrease")
        measure = now
    if conn:
        raise InvariantBreach("leftover strands after eliminating all boxes")
    # pop the free loops, one unit factor each
    steps += nloops
    while nloops:
        now = (0, nloops - 1)
        if not now < measure:
            raise InvariantBreach("evaluation measure failed to decrease")
        measure, nloops = now, nloops - 1
    return th.root_pow(exp), steps


# -- defining relations ----------------------------------------------------

def unit_empty(theory: Theory) -> Morphism:
    """The empty diagram as a morphism (the scalar one)."""
    return Morphism.from_diagram(Diagram.make(theory, [], [], [], []))


def strand_projection(theory: Theory, label: Label) -> Morphism:
    """A single concretely labeled strand with plain boundary points: the
    minimal projection cutting the plain strand to one color/orientation."""
    s = Strand(bnd("bottom", 0), bnd("top", 0), label,
               boundary_flow(label, "bottom"))
    d = Diagram.make(theory, [Label.PLAIN], [Label.PLAIN], [], [s])
    return Morphism.from_diagram(d)


def _planar_relations(th: Theory) -> list[tuple[str, Morphism, Morphism]]:
    one0 = unit_empty(th)
    zero0 = Morphism.zero(th, [], [])
    c1, c2 = plain_expansion(th)
    rels = [
        (f"bubble-{c1.value}", Morphism.loop(th, c1), one0),
        (f"bubble-{c2.value}", Morphism.loop(th, c2), one0),
    ]
    for c in (c1, c2):
        word = [c, dual_label(c)]
        rels.append((f"saddle-{c.value}",
                     Morphism.cup(th, c).compose(Morphism.cap(th, c)),
                     Morphism.identity(th, word)))
    rels.append(("orthogonal-strands",
                 Morphism.cap(th, c1).compose(Morphism.cup(th, c2)), zero0))
    rels.append(("plain-strand-splits",
                 Morphism.identity(th, [Label.PLAIN]),
                 strand_projection(th, c1) + strand_projection(th, c2)))
    for kind in box_kinds(th):
        g = Morphism.generator(th, kind)
        rels.append((f"unitary-{kind.value}-right",
                     g.compose(g.adjoint()),
                     Morphism.identity(th, g.top)))
        rels.append((f"unitary-{kind.value}-left",
                     g.adjoint().compose(g),
                     Morphism.identity(th, g.bottom)))
        new_kind, cost = click_rewrite(th, kind, +1)
        rels.append((f"click-{kind.value}",
                     g.click(1),
                     Morphism.generator(th, new_kind).scale(cost)))
        if new_kind is not kind:
            kind2, cost2 = click_rewrite(th, new_kind, +1)
            if kind2 is not kind:
                raise InvariantBreach(f"{kind.value} does not click back "
                                      "to itself in two steps")
            rels.append((f"click-twice-{kind.value}",
                         g.click(2), g.scale(cost * cost2)))
    return rels


def _vec_relations(th: Theory) -> list[tuple[str, Morphism, Morphism]]:
    u = Morphism.generator(th, BoxKind.SCRIPT_U)
    ustar = u.adjoint()
    dot = Morphism.identity(th, [Label.DOT])
    zeta = th.root()
    return [
        ("counit", ustar.compose(u), unit_empty(th)),
        ("unit", u.compose(ustar),
         Morphism.identity(th, [Label.DOT] * th.m)),
        # the slide of the box past a strand; of the two mirror readings
        # of the pictured relation, the one the other relations force is
        # zeta . (id_1 (x) U)  =  U (x) id_1
        ("slide", dot.tensor(u).scale(zeta), u.tensor(dot)),
    ]


def _rainbow_caps(th: Theory, first: Label) -> Morphism:
    """All-nested caps on the word first^m (dual(first))^m."""
    m = th.m
    word = [first] * m + [dual_label(first)] * m
    strands = [boundary_arc("bottom", word, i, 2 * m - 1 - i)
               for i in range(m)]
    return Morphism.from_diagram(Diagram.make(th, word, [], [], strands))


def _rep_relations(th: Theory) -> list[tuple[str, Morphism, Morphism]]:
    P, M = Label.PLUS, Label.MINUS
    one0 = unit_empty(th)
    idp = Morphism.identity(th, [P])
    idm = Morphism.identity(th, [M])
    ncup_m = Morphism.generator(th, BoxKind.NCUP_MINUS)
    ncup_p = Morphism.generator(th, BoxKind.NCUP_PLUS)
    ncap_m = Morphism.generator(th, BoxKind.NCAP_MINUS)
    ncap_p = Morphism.generator(th, BoxKind.NCAP_PLUS)
    rels = [
        ("zigzag-plus",
         Morphism.cap(th, P).tensor(idp).compose(
             idp.tensor(Morphism.cup(th, M))), idp),
        ("zigzag-minus",
         idm.tensor(Morphism.cap(th, P)).compose(
             Morphism.cup(th, M).tensor(idm)), idm),
        ("circle-plus", Morphism.cap(th, P).compose(Morphism.cup(th, P)),
         one0),
        ("circle-minus", Morphism.cap(th, M).compose(Morphism.cup(th, M)),
         one0),
        ("box-circle-minus", ncap_m.compose(ncup_m), one0),
        ("box-circle-plus", ncap_p.compose(ncup_p), one0),
        ("box-slide-minus", ncap_m.tensor(idm), idm.tensor(ncap_m)),
        ("box-slide-plus", ncap_p.tensor(idp), idp.tensor(ncap_p)),
        ("box-pair-plus-minus", ncap_p.tensor(ncap_m),
         _rainbow_caps(th, P)),
        ("box-pair-minus-plus", ncap_m.tensor(ncap_p),
         _rainbow_caps(th, M)),
        ("saddle-plus-minus", Morphism.cup(th, P).compose(Morphism.cap(th, P)),
         Morphism.identity(th, [P, M])),
        ("saddle-minus-plus", Morphism.cup(th, M).compose(Morphism.cap(th, M)),
         Morphism.identity(th, [M, P])),
        ("orthogonal-signs",
         Morphism.cap(th, P).compose(Morphism.cup(th, M)),
         Morphism.zero(th, [], [])),
    ]
    return rels


def defining_relations(th: Theory) -> list[tuple[str, Morphism, Morphism]]:
    """(name, lhs, rhs) for every defining relation of the theory; each
    pair is expected to satisfy morphism_eq."""
    if th.is_planar_algebra():
        return _planar_relations(th)
    if th.family is Family.VEC_CYCLIC:
        return _vec_relations(th)
    if th.family is Family.SU2_REP:
        return _rep_relations(th)
    raise ValueError(f"no relation table for {th.family.value}")
