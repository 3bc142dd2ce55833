"""Simple objects as strand words: grading, hom dimensions, principal
graphs, Bratteli diagrams, traces, and Gram matrices.

Every simple object is an invertible tensor word in the two strand
generators (P1 = red/up, Q1 = blue/down).  A word's class is its grading,
an int in the cyclic group Z_N of invertible simples (any int for the
infinite families, whose group is Z), and hom spaces between words are
one-dimensional exactly when the gradings agree.  Oriented words grade
letter by letter (Q1 -> +1, P1 -> -1); checkerboard words grade by
parity pairs, since the shading alternates along the boundary and swaps
the roles of the two colors at odd positions.  Gram matrices
are computed from exhaustive spanning sets: planar diagrams onto the
word built from boundary-to-boundary arcs and generator boxes none of
whose strands touch another box (box-to-box strands always cancel by the
evaluation algorithm).  A box is fitted to its slots by a match
against the theory's leg table: its legs meet the slots in descending
(clockwise) order, each leg's entry must fit the letter of its slot,
and in shaded families a parity test on the first leg and the first slot
picks the canonical shading class (see `_fit_box`).
One symmetric elimination (`_rank_and_psd`) gives a Gram matrix's rank
and positive semidefiniteness; the sign of a non-rational pivot is read
from a floating-point value (`_positive_real`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from affa.cyclotomic import Cyclo
from affa.diagram import (
    Diagram,
    Morphism,
    Strand,
    _flipped,
    bnd,
    boundary_arc,
    boxleg,
    leg_to_boundary,
)
from affa.theory import (
    InvariantBreach,
    Label,
    Theory,
    dual_label,
    leg_count,
    plain_expansion,
    star_parity,
)


def _display_name(label: Label) -> str:
    return {Label.RED: "P1", Label.UP: "P1",
            Label.BLUE: "Q1", Label.DOWN: "Q1",
            Label.PLAIN: "X"}[label]


@dataclass(frozen=True)
class Word:
    """A tensor word in the strand generators (plain strands allowed only
    where a non-simple object makes sense, e.g. traces)."""

    theory: Theory
    labels: tuple[Label, ...]

    def __post_init__(self):
        self.theory.grading()
        object.__setattr__(self, "labels", tuple(self.labels))
        allowed = set(plain_expansion(self.theory)) | {Label.PLAIN}
        for l in self.labels:
            if l not in allowed:
                raise ValueError(f"{l.value} is not a strand generator")

    def display(self) -> str:
        if not self.labels:
            return "1"
        return "*".join(_display_name(l) for l in self.labels)

    def dual(self) -> "Word":
        return Word(self.theory,
                    tuple(dual_label(l) for l in reversed(self.labels)))


def grade_steps(th: Theory) -> tuple[dict[Label, int], dict[Label, int]]:
    """How each strand generator moves a word's grading at an even and at
    an odd position: Q1 by +1 and P1 by -1, the other way round at odd
    positions when the theory grades by parity pairs."""
    pairs, _ = th.grading()
    p1, q1 = plain_expansion(th)
    even = {q1: 1, p1: -1}
    return even, {q1: -1, p1: 1} if pairs else even


def grading(w: Word) -> int:
    """The word's simple class: its residue in [0, N) for a class group
    Z_N, or any int for the infinite families."""
    _, order = w.theory.grading()
    steps = grade_steps(w.theory)
    total = 0
    for pos, l in enumerate(w.labels):
        if l is Label.PLAIN:
            raise ValueError("plain strands have no grading")
        total += steps[pos % 2][l]
    return total % order if order else total


def hom_dim(w1: Word, w2: Word) -> int:
    """1 when the words land on the same simple class, else 0."""
    if w1.theory != w2.theory:
        raise ValueError("hom_dim needs words of one theory")
    return 1 if grading(w1) == grading(w2) else 0


def _element_labels(th: Theory, e: int) -> tuple[Label, ...]:
    """The canonical shortest word of class e."""
    pairs, order = th.grading()
    p1, q1 = plain_expansion(th)
    if order and e > order - e:
        e -= order
    if not pairs:
        return (q1 if e > 0 else p1,) * abs(e)
    # alternating colors: the shading swaps the letters at odd positions
    first, second = (q1, p1) if e > 0 else (p1, q1)
    return tuple(first if t % 2 == 0 else second for t in range(abs(e)))


def simple_decompose(w: Word) -> Word:
    """The canonical representative of the word's simple class."""
    return Word(w.theory, _element_labels(w.theory, grading(w)))


# -- graphs ------------------------------------------------------------------

@dataclass(frozen=True)
class FusionGraph:
    """Vertices are simple classes; edges carry multiplicities."""

    vertices: tuple[str, ...]
    traces: tuple[Fraction, ...]
    edges: tuple[tuple[int, int, int], ...]


def _step(order: int, g: int, delta: int) -> int:
    return (g + delta) % order if order else g + delta


def _class_vertices(th: Theory, radius: int | None):
    """BFS of simple classes under tensoring by the plain strand.  From
    any class the two summands of the strand move it one step either way
    around the cyclic class group, which a finite family covers whole."""
    _, order = th.grading()
    if order:
        if radius is not None:
            raise ValueError("a radius applies to infinite families only")
        radius = order
    elif radius is None:
        raise ValueError("infinite families need a radius")
    seen = {0: 0}
    frontier = [0]
    elems = [0]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for delta in (+1, -1):
                u = _step(order, v, delta)
                if u not in seen:
                    seen[u] = len(elems)
                    elems.append(u)
                    nxt.append(u)
        frontier = nxt
    return elems, seen, order


def principal_graph(th: Theory, radius: int | None = None) -> FusionGraph:
    """The graph of simple classes under tensoring with the plain strand;
    an affine A cycle for the finite families, a line segment view for the
    infinite ones.  Each edge is counted once, from its +1 step: Z_2's
    two steps from one class to the other make a double edge."""
    elems, index, order = _class_vertices(th, radius)
    counts: dict[tuple[int, int], int] = {}
    for i, v in enumerate(elems):
        j = index.get(_step(order, v, +1))
        if j is None:
            continue  # beyond the requested radius
        a, b = min(i, j), max(i, j)
        counts[(a, b)] = counts.get((a, b), 0) + 1
    edges = tuple(sorted((a, b, c) for (a, b), c in counts.items()))
    if order:
        # affine A: every vertex has total degree two, and with all traces
        # equal to one the delta = 2 trace formula holds on the nose
        for i in range(len(elems)):
            deg = sum(m for a, b, m in edges if i in (a, b))
            if deg != 2:
                raise InvariantBreach(
                    "principal graph is not an affine A cycle")
    words = tuple(Word(th, _element_labels(th, v)).display() for v in elems)
    return FusionGraph(words, (Fraction(1),) * len(elems), edges)


def bratteli(th: Theory, rows: int) -> dict:
    """Rows 0..rows of the tensor powers of the plain strand, with edge
    multiplicities and the box-space dimensions (sums of squares)."""
    if rows < 0:
        raise ValueError("rows must be nonnegative")
    _, order = th.grading()
    current = {0: 1}
    out_rows = []
    out_edges = []
    dims = []
    for level in range(rows + 1):
        ordered = sorted(current)
        out_rows.append([
            {"word": Word(th, _element_labels(th, g)).display(),
             "mult": current[g]} for g in ordered])
        dims.append(sum(c * c for c in current.values()))
        if level == rows:
            break
        nxt: dict[int, int] = {}
        edges: dict[tuple[int, int], int] = {}
        for g in current:
            for delta in (+1, -1):
                h = _step(order, g, delta)
                nxt[h] = nxt.get(h, 0) + current[g]
        pos = {h: j for j, h in enumerate(sorted(nxt))}
        for i, g in enumerate(ordered):
            for delta in (+1, -1):
                j = pos[_step(order, g, delta)]
                edges[(i, j)] = edges.get((i, j), 0) + 1
        out_edges.append(sorted((i, j, m) for (i, j), m in edges.items()))
        current = nxt
    return {"rows": out_rows, "edges": out_edges, "dims": dims}


def trace_of_word(w: Word) -> Cyclo:
    """The categorical trace of the identity on the word."""
    from affa.evaluate import inner_product
    ident = Morphism.identity(w.theory, list(w.labels))
    return inner_product(ident, ident)


# -- Gram matrices -----------------------------------------------------------

@lru_cache(maxsize=None)
def _fit_box(th: Theory, orbit, letters, first_parity: int):
    """One (kind, legs, ends) attaching a box of the given click orbit at
    rotation 0 to slots carrying the letters, or None; `ends` holds the
    (letter, direction) of the strand from each leg to its slot, the
    letter serving as its label (`Diagram.make` names an oriented one).

    Slot t takes leg (shift - t) % k: the slots run left to right, so
    the legs meeting them run clockwise around the box.  A fit is the
    first (kind, shift) at which every leg's leg-table entry fits the
    letter of its slot; a rotation would only shift the table.  All fits
    are proportional by the click relations, so one representative spans
    their line.  In shaded families the fit must also lie in the
    canonical shading class, the one leaving the outer region unshaded:
    the star corner's region has checkerboard parity shift % 2 relative
    to the region left of the first slot, and that region has parity
    `first_parity` (the first slot's position mod 2) relative to the
    outer one (walking along the boundary crosses one strand per point),
    so the test is shift % 2 == star_parity(kind) ^ first_parity.  The
    other class spans the hom space of the oppositely shaded boundary
    object, which shares the strand colours."""
    k = len(letters)
    for kind in orbit:
        want = star_parity(kind) ^ first_parity
        for shift in range(k):
            if th.is_shaded() and shift % 2 != want:
                continue
            legs = tuple((shift - t) % k for t in range(k))
            ends = [leg_to_boundary(th, th.leg(kind, 0, leg), "top")
                    for leg in legs]
            if all(e[0] == w for e, w in zip(ends, letters)):
                return kind, legs, tuple(ends)
    return None


def _fillings(th: Theory, word, segments: list, budget: int):
    """Non-crossing fillings of the segments (lists of positions) by
    blocks, each with the number of boxes it uses (at most `budget`).

    A block is the set of positions one piece attaches to: an arc joins
    two points, and a box of a click orbit with k legs joins k.  The
    block holding the first position of the first segment cuts that
    segment into the gaps between its points and the tail after its last
    one.  No piece crosses a block, so these and the later segments are
    filled independently.  The decomposition by first block is unique,
    so every attachment topology comes out once: arcs first, then boxes
    in `th.spec.orbits` order."""
    if not segments:
        yield [], 0
        return
    (i, *rest), *later = segments
    shapes = [(None, 2)]
    if budget > 0:
        shapes += [(orbit, leg_count(th, orbit[0]))
                   for orbit in th.spec.orbits]
    for orbit, k in shapes:
        for picks in combinations(range(len(rest)), k - 1):
            slots = (i, *(rest[p] for p in picks))
            if orbit is None:
                piece, cost = boundary_arc("top", word, i, slots[1]), 0
            else:
                fit = _fit_box(th, orbit, tuple(word[s] for s in slots),
                               i % 2)
                piece, cost = fit and (*fit, slots), 1
            if piece is None:
                continue
            cuts = (-1, *picks, len(rest))
            gaps = [rest[a + 1:b] for a, b in zip(cuts, cuts[1:])]
            for fill, used in _fillings(th, word,
                                        [g for g in gaps if g] + later,
                                        budget - cost):
                yield [piece] + fill, cost + used


def span_diagrams(th: Theory, word, max_boxes: int) -> list[Diagram]:
    """Spanning diagrams from nothing to the word whose boxes touch only
    the boundary: one representative per attachment topology (arcs, and
    per box its click orbit and boundary slots, the box at rotation 0).
    In shaded families every box is fitted in the canonical shading
    class, so each diagram leaves the outer region unshaded."""
    word = tuple(word)
    results = []
    segments = [list(range(len(word)))] if word else []
    for placement, _ in _fillings(th, word, segments, max_boxes):
        boxes = []
        strands = []
        for piece in placement:
            if isinstance(piece, Strand):
                strands.append(piece)
                continue
            kind, legs, ends, slots = piece
            b = len(boxes)
            boxes.append((kind, 0))
            strands.extend(Strand(boxleg(b, leg), bnd("top", pos), lab, dir)
                           for leg, pos, (lab, dir)
                           in zip(legs, slots, ends))
        d = Diagram.make(th, [], list(word), boxes, strands)
        errors = d.validate()
        if errors:
            raise InvariantBreach(
                "invalid spanning diagram: " + "; ".join(errors))
        results.append(d)
    return results


@dataclass(frozen=True)
class GramResult:
    matrix: tuple[tuple[Cyclo, ...], ...]
    rank: int
    psd: bool
    size: int


def _positive_real(c: Cyclo) -> bool:
    if c.is_rational():
        return c.as_fraction() > 0
    z = c.approx()
    if abs(z.imag) >= 1e-9:
        raise InvariantBreach("pivot is not real")
    if abs(z.real) <= 1e-9:
        raise InvariantBreach("pivot sign numerically undecidable")
    return z.real > 0


def _rank_and_psd(matrix) -> tuple[int, bool]:
    """Rank and positive semidefiniteness of a Hermitian matrix by one
    symmetric elimination.  Each step takes the first nonzero diagonal
    entry as a pivot, whose sign decides PSD until one is negative; when
    the remaining diagonal is zero, a nonzero entry and its mirror form an
    invertible 2x2 pivot, so the matrix is not PSD.  Each pivot adds its
    size to the rank."""
    m = [list(r) for r in matrix]
    live = list(range(len(m)))
    rank, psd = 0, True
    while live:
        p = next((i for i in live if not m[i][i].is_zero()), None)
        if p is not None:
            psd = psd and _positive_real(m[p][p])
            # (row, column, entry) of the pivot block's inverse
            inv = [(p, p, m[p][p].inverse())]
        else:
            pair = next(((i, j) for i in live for j in live
                         if not m[i][j].is_zero()), None)
            if pair is None:
                break
            i, j = pair
            psd = False
            inv = [(i, j, m[j][i].inverse()), (j, i, m[i][j].inverse())]
        for a, _, _ in inv:
            live.remove(a)
        rank += len(inv)
        for k in live:
            for a, b, c in inv:
                if m[k][a].is_zero():
                    continue
                f = m[k][a] * c
                for l in live:
                    m[k][l] = m[k][l] - f * m[b][l]
    return rank, psd


def gram_matrix(w: Word, max_boxes: int) -> GramResult:
    """Gram matrix of the spanning set of Hom(1, w), its exact rank, and
    positive semidefiniteness."""
    from affa.evaluate import trace_pairing
    if Label.PLAIN in w.labels:
        raise ValueError("gram_matrix needs a concrete word")
    basis = span_diagrams(w.theory, w.labels, max_boxes)
    n = len(basis)
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        # tr(b_i* b_j), with b_i's adjoint flipped once for its whole row
        # and paired unmade
        adj = _flipped(basis[i])
        for j in range(i, n):
            val = trace_pairing(adj, basis[j])
            if i == j and val != val.conj():
                raise InvariantBreach("Gram diagonal not real")
            matrix[i][j] = val
            matrix[j][i] = val.conj()
    grid = tuple(tuple(row) for row in matrix)
    return GramResult(grid, *_rank_and_psd(grid), n)
