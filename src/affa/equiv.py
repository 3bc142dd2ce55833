"""The two source categories, their 3-cocycle data, and the functors into
the oriented-strand planar theories.

Both functors act on objects by dot |-> Down, plus |-> Up, minus |-> Down
and send each source box to a bent generator box: the lower legs of the
image generator are folded up around its right side.  Folding preserves
the counterclockwise order of the legs and the star corner, so on the
combinatorial map the translation is simply a relabeling: every box keeps
its legs and turns into the matching arrow generator, every strand keeps
its endpoints and gets the image label with the direction its new
endpoints force.  Evaluation of source-category diagrams is defined
through this image (the functors are equivalences), which only
`affa.evaluate` applies.  The size-one source categories have no strand
image: there a valid closed diagram is worth 2^p for its p plain loops,
which `affa.evaluate` finds by cancelling the one-leg boxes in pairs.

The carry 3-cocycle takes values in the powers of one m-th root of unity
zeta, so `check_cocycle` checks its identity on integer exponents mod m;
only `cocycle` builds the scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from affa.cyclotomic import Cyclo, root_power
from affa.diagram import Diagram, Morphism, Strand
from affa.theory import (
    BoxKind,
    Family,
    Label,
    ORIENTED_LABELS,
    Theory,
    boundary_flow,
)

_LABEL_MAP = {Label.DOT: Label.DOWN, Label.PLUS: Label.UP,
              Label.MINUS: Label.DOWN, Label.PLAIN: Label.PLAIN}
_KIND_MAP = {BoxKind.SCRIPT_U: BoxKind.U,
             BoxKind.SCRIPT_USTAR: BoxKind.USTAR,
             BoxKind.NCUP_MINUS: BoxKind.U,
             BoxKind.NCUP_PLUS: BoxKind.USTAR,
             BoxKind.NCAP_MINUS: BoxKind.USTAR,
             BoxKind.NCAP_PLUS: BoxKind.U}


# -- the 3-cocycle ---------------------------------------------------------

@dataclass(frozen=True)
class CocycleSpec:
    """An m-th root of unity zeta, defining the 3-cocycle on Z_m.
    `zeta_exp` is its exponent: zeta = exp(2*pi*i*zeta_exp/m)."""

    m: int
    zeta: Cyclo
    zeta_exp: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")
        x = next((x for x in range(self.m)
                  if root_power(self.m, x) == self.zeta), None)
        if x is None:
            raise ValueError("zeta must be an m-th root of unity")
        object.__setattr__(self, "zeta_exp", x)


def _carry(m: int, i: int, j: int, k: int) -> int:
    """The carry exponent i*(j + k - ((j + k) mod m))/m."""
    return i * ((j + k) - (j + k) % m) // m


def cocycle(spec: CocycleSpec, i: int, j: int, k: int) -> Cyclo:
    """zeta raised to the carry exponent of (i, j, k): the carry cocycle."""
    m = spec.m
    for x in (i, j, k):
        if not 0 <= x < m:
            raise ValueError("cocycle arguments must be residues mod m")
    return spec.zeta ** _carry(m, i, j, k)


def check_cocycle(spec: CocycleSpec) -> bool:
    """Exhaustive 3-cocycle identity over all m**4 tuples.  Every value is
    a power of zeta, so the identity is checked on carry exponents: two
    powers of zeta agree exactly when zeta_exp times their exponents'
    difference vanishes mod m."""
    m, x = spec.m, spec.zeta_exp
    c = _carry
    for g1 in range(m):
        for g2 in range(m):
            for g3 in range(m):
                for g4 in range(m):
                    lhs = c(m, (g1 + g2) % m, g3, g4) \
                        + c(m, g1, g2, (g3 + g4) % m)
                    rhs = c(m, g1, g2, g3) \
                        + c(m, g1, (g2 + g3) % m, g4) \
                        + c(m, g2, g3, g4)
                    if x * (lhs - rhs) % m:
                        return False
    return True


# -- the translation -------------------------------------------------------

def image_theory(th: Theory) -> Theory:
    """The oriented-strand theory a source category lands in."""
    if th.is_planar_algebra():
        raise ValueError("image_theory expects a source-category theory")
    m = th.m
    if m < 2:
        raise ValueError("the size-one source categories have no "
                         "strand image")
    if th.spec.conjugate_image:
        # the cyclic source with root zeta pairs with the conjugate root
        order, exp = th.root_order, (-th.root_exp) % th.root_order
    else:
        order, exp = 1, 0
    if m % 2 == 0:
        return Theory(Family.ARROW_AODD, m // 2, order, exp)
    return Theory(Family.ARROW_AEVEN, (m - 1) // 2, order, exp)


def _image_diagram(d: Diagram, tgt: Theory) -> Diagram:
    boxes = []
    for kind, rot in d.boxes:
        if rot != 0:
            raise ValueError("rotated source boxes are outside the "
                             "functor image")
        boxes.append((_KIND_MAP[kind], rot))

    def image_end(e):
        """The flow role an image endpoint requires."""
        if e[0] == "box":
            return tgt.leg(*boxes[e[1]], e[2])[1]
        lab = _LABEL_MAP[(d.bottom if e[1] == "bottom" else d.top)[e[2]]]
        return boundary_flow(lab, e[1])

    strands = []
    for s in d.strands:
        lab = _LABEL_MAP[s.label]
        if lab is Label.PLAIN:
            strands.append(Strand(s.a, s.b, lab, 0))
            continue
        if s.a[0] == "anchor":
            strands.append(Strand(s.a, s.b, lab, +1))
            continue
        # every strand acquires the orientation its image endpoints force:
        # bending the lower legs of the image box reverses their flow
        ra = image_end(s.a)
        if not ra or ra != -image_end(s.b):
            raise ValueError("diagram is not in the functor image")
        strands.append(Strand(s.a, s.b, lab, ra))
    out = Diagram.make(tgt, [_LABEL_MAP[l] for l in d.bottom],
                       [_LABEL_MAP[l] for l in d.top],
                       boxes, strands)
    errs = out.validate()
    if errs:
        raise ValueError("diagram is not in the functor image: "
                         + "; ".join(errs))
    return out


def to_image(m: Morphism) -> Morphism:
    """The functor image of a source-category morphism."""
    tgt = image_theory(m.theory)
    return Morphism(tgt, [_LABEL_MAP[l] for l in m.bottom],
                    [_LABEL_MAP[l] for l in m.top],
                    ((_image_diagram(d, tgt), c) for d, c in m.terms.items()))


# -- desk-scale verification -----------------------------------------------

def source_theory(which: str, m: int, zeta_exp: int = 0) -> Theory:
    """The source category D (which='vec') or B (which='rep') with root
    exp(2*pi*i*zeta_exp/m)."""
    fam = {"vec": Family.VEC_CYCLIC, "rep": Family.SU2_REP}.get(which)
    if fam is None:
        raise ValueError("which must be 'vec' or 'rep'")
    return Theory.with_root(fam, m, zeta_exp)


def _graded_words(th: Theory, max_len: int):
    """Every source word of at most max_len letters, shortest first and
    then in the alphabet's order, as (its label values, its net weight
    mod m, its image's grading).  Dot and plus weigh +1, minus -1; the
    image letters move the grading by `fusion.grade_steps`, mod the
    image's class group.  A size-one source has no strand image, and
    every word grades 0 there."""
    from affa.fusion import grade_steps
    m = th.m
    letters = [l for l in th.spec.alphabet if l is not Label.PLAIN]
    if m < 2:
        steps, order = [(0, 0)] * len(letters), 1
    else:
        tgt = image_theory(th)
        even, odd = grade_steps(tgt)
        steps = [(even[_LABEL_MAP[l]], odd[_LABEL_MAP[l]]) for l in letters]
        order = tgt.grading()[1]
    moves = [(l.value, ORIENTED_LABELS.get(l, 1), step)
             for l, step in zip(letters, steps)]
    words = [((), 0, 0)]
    yield words[0]
    for pos in range(max_len):
        parity = pos % 2
        words = [(w + (v,), (weight + dw) % m, (grade + step[parity]) % order)
                 for w, weight, grade in words for v, dw, step in moves]
        yield from words


def check_functor(which: str, m: int, zeta_exp: int = 0) -> dict:
    """Relation preservation, hom-dimension match, and nontriviality.
    dim Hom(unit, word) is one in the source when the word's net weight
    vanishes mod m, and in the target when its image grades as the empty
    word; zero otherwise."""
    from affa.evaluate import defining_relations, inner_product, morphism_eq
    th = source_theory(which, m, zeta_exp)
    report: dict = {"which": which, "m": m, "zeta_exp": zeta_exp % m,
                    "relations": [], "hom_dims": [], "nontrivial": False}
    for name, lhs, rhs in defining_relations(th):
        report["relations"].append({"name": name, "ok": morphism_eq(lhs, rhs)})
    hom_dims = report["hom_dims"]
    for word, weight, grade in _graded_words(th, 2 * m):
        src_dim = 1 if weight == 0 else 0
        tgt_dim = 1 if grade == 0 else 0
        hom_dims.append({"word": list(word), "source": src_dim,
                         "target": tgt_dim, "ok": src_dim == tgt_dim})
    gen_kind = (BoxKind.SCRIPT_U if which == "vec" else BoxKind.NCUP_MINUS)
    gen = Morphism.generator(th, gen_kind)
    report["nontrivial"] = inner_product(gen, gen) == Cyclo.one()
    report["ok"] = (all(r["ok"] for r in report["relations"])
                    and all(h["ok"] for h in report["hom_dims"])
                    and report["nontrivial"])
    return report
