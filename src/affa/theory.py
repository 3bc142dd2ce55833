"""Presentations: families, strand alphabets, box signatures, click behavior.

Each family's presentation is one frozen FamilySpec in `SPECS`: its
strand alphabet, box signatures and click table, off which the root's
order bound and the groups its regions and simple objects are graded by
are read.  A Theory pins down one presentation: the family, the size
parameter n (or m for the source categories), and the chosen root of
unity given as (order, exponent).  Everything
downstream (diagram validity, rewriting scalars, region labeling groups,
gradings) reads the family's spec through the functions here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd
from typing import Callable, Mapping

from affa import wire
from affa.cyclotomic import Cyclo, root_power


class Family(enum.Enum):
    SHADED_AODD = "ShadedAodd"
    ARROW_AODD = "UnshadedArrowAodd"
    ARROW_AEVEN = "UnshadedArrowAeven"
    COLOR_AODD = "UnshadedColorAodd"
    SHADED_AINF = "ShadedAInf"
    ARROW_AINF = "UnshadedArrowAInf"
    COLOR_AINF = "UnshadedColorAInf"
    VEC_CYCLIC = "VecCyclicSource"
    SU2_REP = "SUTwoRepSource"
    # Members are singletons compared by identity, so the identity hash
    # (in C) agrees with ==; Enum's own hashes the name in Python.
    __hash__ = object.__hash__


class Label(enum.Enum):
    RED = "Red"
    BLUE = "Blue"
    UP = "Up"
    DOWN = "Down"
    PLAIN = "Plain"
    DOT = "Dot"
    PLUS = "Plus"
    MINUS = "Minus"
    __hash__ = object.__hash__  # as Family's


class BoxKind(enum.Enum):
    U = "U"
    USTAR = "Ustar"
    V = "V"
    VSTAR = "Vstar"
    SCRIPT_U = "ScriptU"
    SCRIPT_USTAR = "ScriptUstar"
    NCAP_PLUS = "NCap+"
    NCAP_MINUS = "NCap-"
    NCUP_PLUS = "NCup+"
    NCUP_MINUS = "NCup-"
    __hash__ = object.__hash__  # as Family's


# Labels carrying an orientation, with their "upward flow" sign.
ORIENTED_LABELS = {Label.UP: +1, Label.DOWN: -1, Label.PLUS: +1, Label.MINUS: -1}

# The flow role of a strand end: the flow starts (SRC) or ends (SNK) there.
SRC, SNK = +1, -1


class InvariantBreach(AssertionError):
    """An internal invariant of the engine failed.  Raised explicitly, so
    the checks also run under `python -O`."""


Signature = tuple[tuple[Label, ...], tuple[Label, ...]]


@dataclass(frozen=True)
class FamilySpec:
    """One family's presentation and the facts read off it.

    Stated: `alphabet`; `plain`, the pair (P1, Q1) a plain strand splits
    into; `shaded`; `r_strand`, the colour whose crossing multiplies a
    region label by the reflection r (the other colour gives b);
    `conjugate_image`, a source whose functor image takes the conjugate
    root; `boxes`, each kind's (bottom, top) signature as a function of
    n (an adjoint pair has swapped signatures); `click`, the kind one
    notch of the Fourier transform turns a kind into and its root
    exponent.  Read off: `category`, "infinite" without boxes, "finite"
    when they click, else "source" (evaluated through its functor
    image); `oriented`, a label carries an orientation; `group`, None
    for a source, else "cyclic" when oriented and "dihedral" when not;
    `clicks`, `click` both ways; `orbits`, the kinds by click orbit.
    The root's order bound, and so the count of presentations, follows
    from the click table (`Theory.root_bound`).
    """

    alphabet: tuple[Label, ...]
    plain: tuple[Label, Label]
    shaded: bool = False
    r_strand: Label | None = None
    conjugate_image: bool = False
    boxes: Mapping[BoxKind, Callable[[int], Signature]] = \
        field(default_factory=dict)
    click: Mapping[BoxKind, tuple[BoxKind, int]] = field(default_factory=dict)
    category: str = field(init=False)
    oriented: bool = field(init=False)
    group: str | None = field(init=False)
    kinds: tuple[BoxKind, ...] = field(init=False)
    clicks: Mapping[tuple[BoxKind, int], tuple[BoxKind, int]] = \
        field(init=False)
    orbits: tuple[tuple[BoxKind, ...], ...] = field(init=False)

    def __post_init__(self):
        clicks = {}
        for kind, (new, exp) in self.click.items():
            clicks[kind, +1] = (new, exp)
            clicks[new, -1] = (kind, -exp)
        # orbits keyed by their least kind name, in that order
        groups: dict[str, list[BoxKind]] = {}
        for kind in self.boxes:
            if kind not in self.click:
                continue
            orbit = [kind]
            while (nxt := self.click[orbit[-1]][0]) is not kind:
                orbit.append(nxt)
            groups.setdefault(min(k.value for k in orbit), []).append(kind)
        category = ("infinite" if not self.boxes
                    else "finite" if self.click else "source")
        oriented = any(lab in ORIENTED_LABELS for lab in self.alphabet)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "oriented", oriented)
        object.__setattr__(self, "group", None if category == "source"
                           else "cyclic" if oriented else "dihedral")
        object.__setattr__(self, "kinds", tuple(self.boxes))
        object.__setattr__(self, "clicks", clicks)
        object.__setattr__(self, "orbits",
                           tuple(tuple(g) for _, g in sorted(groups.items())))


def _alt(first: Label, second: Label, k: int) -> tuple[Label, ...]:
    return tuple(first if i % 2 == 0 else second for i in range(k))


def _checker_box(n: int) -> Signature:
    return _alt(Label.BLUE, Label.RED, n), _alt(Label.RED, Label.BLUE, n)


def _arrow_box(extra: int) -> Callable[[int], Signature]:
    return lambda n: ((Label.UP,) * (n + extra), (Label.DOWN,) * n)


def _top(label: Label) -> Callable[[int], Signature]:
    return lambda n: ((), (label,) * n)


def _flip(sig: Callable[[int], Signature]) -> Callable[[int], Signature]:
    return lambda n: sig(n)[::-1]


_CHECKER = (Label.RED, Label.BLUE, Label.PLAIN)
_ARROW = (Label.UP, Label.DOWN, Label.PLAIN)
_U, _US, _V, _VS = BoxKind.U, BoxKind.USTAR, BoxKind.V, BoxKind.VSTAR

SPECS: dict[Family, FamilySpec] = {
    Family.SHADED_AODD: FamilySpec(
        _CHECKER, (Label.RED, Label.BLUE), shaded=True, r_strand=Label.RED,
        boxes={_U: _checker_box, _US: _flip(_checker_box),
               _V: _checker_box, _VS: _flip(_checker_box)},
        click={_U: (_VS, 1), _VS: (_U, 0), _US: (_V, 0), _V: (_US, 1)}),
    Family.COLOR_AODD: FamilySpec(
        _CHECKER, (Label.RED, Label.BLUE), r_strand=Label.BLUE,
        boxes={_V: _checker_box, _VS: _flip(_checker_box)},
        click={_V: (_VS, 1), _VS: (_V, 0)}),
    Family.ARROW_AODD: FamilySpec(
        _ARROW, (Label.UP, Label.DOWN),
        boxes={_U: _arrow_box(0), _US: _flip(_arrow_box(0))},
        click={_U: (_U, 1), _US: (_US, 1)}),
    Family.ARROW_AEVEN: FamilySpec(
        _ARROW, (Label.UP, Label.DOWN),
        boxes={_U: _arrow_box(1), _US: _flip(_arrow_box(1))},
        click={_U: (_U, 1), _US: (_US, 1)}),
    Family.SHADED_AINF: FamilySpec(
        _CHECKER, (Label.RED, Label.BLUE), shaded=True, r_strand=Label.RED),
    Family.ARROW_AINF: FamilySpec(_ARROW, (Label.UP, Label.DOWN)),
    Family.COLOR_AINF: FamilySpec(
        _CHECKER, (Label.RED, Label.BLUE), r_strand=Label.BLUE),
    Family.VEC_CYCLIC: FamilySpec(
        (Label.DOT,), (Label.DOT, Label.DOT), conjugate_image=True,
        boxes={BoxKind.SCRIPT_U: _top(Label.DOT),
               BoxKind.SCRIPT_USTAR: _flip(_top(Label.DOT))}),
    Family.SU2_REP: FamilySpec(
        (Label.PLUS, Label.MINUS, Label.PLAIN), (Label.PLUS, Label.MINUS),
        boxes={BoxKind.NCAP_PLUS: _flip(_top(Label.PLUS)),
               BoxKind.NCAP_MINUS: _flip(_top(Label.MINUS)),
               BoxKind.NCUP_PLUS: _top(Label.PLUS),
               BoxKind.NCUP_MINUS: _top(Label.MINUS)}),
}


# The largest size parameter n read from a JSON theory or the command
# line: a box has about 2n legs, so a larger n is refused from the number.
MAX_WIRE_N = 1000


def checked_n(n) -> int:
    """n, an integer read from outside, if it is at most MAX_WIRE_N."""
    if wire.integer(n, "theory n") > MAX_WIRE_N:
        raise ValueError(f"theory n {n} exceeds {MAX_WIRE_N}")
    return n


@dataclass(frozen=True)
class Theory:
    family: Family
    n: int | None = None
    root_order: int = 1
    root_exp: int = 0

    def __post_init__(self):
        fam = self.family
        if self.spec.category == "infinite":
            if self.n is not None:
                raise ValueError(f"{fam.value} takes no size parameter")
            if (self.root_order, self.root_exp) != (1, 0):
                raise ValueError(f"{fam.value} carries no root of unity")
            return
        if self.n is None or self.n < 1:
            raise ValueError(f"{fam.value} needs a positive size parameter")
        if self.root_order < 1:
            raise ValueError("root order must be positive")
        cap = self.root_bound()
        if cap % self.root_order != 0:
            raise ValueError(
                f"root order {self.root_order} must divide {cap} for {fam.value}")
        if not (0 <= self.root_exp < self.root_order):
            raise ValueError("root exponent must be reduced mod the order")

    @staticmethod
    def with_root(family: Family, n: int, k: int) -> "Theory":
        """The theory whose root is the k-th power of a primitive root of
        the family's full order, in lowest terms."""
        cap = Theory(family, n).root_bound()
        k %= cap
        g = gcd(k, cap)
        return Theory(family, n, cap // g, k // g)

    @property
    def spec(self) -> FamilySpec:
        return SPECS[self.family]

    @cached_property
    def _boxes(self) -> dict[BoxKind, tuple[Signature, tuple[Label, ...]]]:
        """Per box kind: the signature and the ccw cyclic signature."""
        out = {}
        for kind, sig in self.spec.boxes.items():
            bot, top = sig(self.n)
            out[kind] = ((bot, top), bot + top[::-1])
        return out

    @cached_property
    def leg_table(self) -> dict[BoxKind, tuple[tuple[Label, int], ...]]:
        """Per box kind, per leg in ccw cyclic order: the object the leg
        presents and its flow (SRC out of the box, SNK into it, 0 when
        unoriented).  A strand meets a bottom leg from below, as it meets
        a top boundary point, and a top leg from above."""
        table = {}
        for kind, ((bot, _), cyc) in self._boxes.items():
            table[kind] = tuple(
                (lab, boundary_flow(lab, "top" if c < len(bot) else "bottom"))
                for c, lab in enumerate(cyc))
        return table

    def leg(self, kind: BoxKind, rot: int, leg: int) -> tuple[Label, int]:
        """The leg table's entry for physical leg `leg` of a box at
        rotation offset `rot`."""
        legs = self.leg_table[kind]
        return legs[(leg - rot) % len(legs)]

    def root_bound(self) -> int:
        """N = n, 2n, 2n+1 or m: a full turn of the first box kind is the
        identity, so root**N = 1 with N its click exponent sum, or its leg
        count when boxes do not click.  Also the labeling group's rotation
        order."""
        return _root_bound(self.family, self.n)

    @property
    def m(self) -> int:
        """Alias for the source-category size parameter."""
        if self.spec.category != "source":
            raise ValueError("m is only defined for source categories")
        return self.n

    def root(self) -> Cyclo:
        """The chosen root of unity (sigma / omega / tau / zeta)."""
        return root_power(self.root_order, self.root_exp)

    def root_pow(self, k: int) -> Cyclo:
        """The chosen root raised to k.  A power equal to one is the
        order-1 one, so rational sums stay in Q instead of Q(zeta)."""
        e = k * self.root_exp % self.root_order
        return root_power(self.root_order, e) if e else Cyclo.one()

    def is_oriented(self) -> bool:
        return self.spec.oriented

    def is_shaded(self) -> bool:
        return self.spec.shaded

    def is_planar_algebra(self) -> bool:
        """True for the theories the evaluator works in directly."""
        return self.spec.category != "source"

    # -- the van-Kampen labeling group and the grading ------------------
    def labeling_group(self) -> tuple[bool, int]:
        """(dihedral?, rotation order; 0 means the infinite group) of the
        region-labeling group."""
        if self.spec.group is None:
            raise ValueError(
                f"{self.family.value} has no strand-group region labeling")
        order = self.root_bound() if self.n is not None else 0
        return self.spec.group == "dihedral", order

    def grading(self) -> tuple[bool, int]:
        """(grades by parity pairs, order of the simple-class group: the
        generator's leg count; 0 means the infinite cyclic group)."""
        if self.spec.group is None:
            raise ValueError(f"{self.family.value} has no strand grading")
        order = leg_count(self, self.spec.kinds[0]) if self.n else 0
        return self.spec.group == "dihedral", order

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        out: dict = {"family": self.family.value}
        if self.n is not None:
            out["n"] = self.n
        if self.spec.category != "infinite":
            out["root"] = {"order": self.root_order, "exp": self.root_exp}
        return out

    @staticmethod
    def from_json(obj: dict) -> "Theory":
        """The theory a JSON object names, one instance per presentation
        (`_interned`), so its box tables are built once however many
        terms name it."""
        if not isinstance(obj, dict) or "family" not in obj:
            raise ValueError("malformed theory: missing family")
        n, root = obj.get("n"), obj.get("root", {"order": 1, "exp": 0})
        if not isinstance(root, dict):
            raise ValueError("malformed theory: root must be an object")
        family = Family(obj["family"])
        return _interned(family, None if n is None else checked_n(n),
                         wire.integer(root.get("order", 1), "root order"),
                         wire.integer(root.get("exp", 0), "root exp"))


# The fields are checked JSON ints (never bools, whose hash equals an
# int's) before they key the cache; a refused theory raises, which
# lru_cache does not store, so it is refused on every read.
_interned = lru_cache(maxsize=1024)(Theory)


@lru_cache(maxsize=1024)
def _root_bound(family: Family, n: int) -> int:
    """`Theory.root_bound`, read off the click table once per (family, n)."""
    spec = SPECS[family]
    if not spec.kinds:
        raise ValueError(f"{family.value} has no root bound")
    kind = spec.kinds[0]
    bot, top = spec.boxes[kind](n)
    legs = len(bot) + len(top)
    if not spec.click:
        return legs
    total = 0
    for _ in range(legs):
        kind, exp = spec.click[kind]
        total += exp
    return total


def rooted_theories(max_n: int) -> list[Theory]:
    """Every finite-family theory with n <= max_n, once per legal root."""
    return [Theory.with_root(fam, n, k)
            for n in range(1, max_n + 1)
            for fam, spec in SPECS.items() if spec.category == "finite"
            for k in range(Theory(fam, n).root_bound())]


def alphabet(theory: Theory) -> frozenset[Label]:
    return frozenset(theory.spec.alphabet)


def plain_expansion(theory: Theory) -> tuple[Label, Label]:
    """The two labeled variants a Plain strand decomposes into."""
    return theory.spec.plain


def boundary_flow(label: Label, side: str) -> int:
    """The flow role a label demands at a bottom or top boundary point:
    an upward label leaves the bottom and arrives at the top; 0 when
    unoriented."""
    sign = ORIENTED_LABELS.get(label)
    if sign is None:
        return 0
    return SRC if (sign > 0) == (side == "bottom") else SNK


def boundary_object(theory: Theory, side: str, role: int) -> Label:
    """The strand generator whose flow at a `side` boundary point is
    `role`."""
    up, down = theory.spec.plain
    return up if boundary_flow(up, side) == role else down


def box_kinds(theory: Theory) -> tuple[BoxKind, ...]:
    return theory.spec.kinds


def _box(theory: Theory, kind: BoxKind):
    try:
        return theory._boxes[kind]
    except KeyError:
        raise ValueError(f"{kind.value} is not a box of "
                         f"{theory.family.value}") from None


def box_signature(theory: Theory, kind: BoxKind) -> Signature:
    """(bottom labels, top labels) at rotation offset 0."""
    return _box(theory, kind)[0]


def leg_count(theory: Theory, kind: BoxKind) -> int:
    return len(_box(theory, kind)[1])


_ADJOINT = {BoxKind.U: BoxKind.USTAR, BoxKind.V: BoxKind.VSTAR,
            BoxKind.SCRIPT_U: BoxKind.SCRIPT_USTAR,
            BoxKind.NCAP_PLUS: BoxKind.NCUP_PLUS,
            BoxKind.NCAP_MINUS: BoxKind.NCUP_MINUS}
_ADJOINT.update({v: k for k, v in _ADJOINT.items()})


def kind_adjoint(kind: BoxKind) -> BoxKind:
    return _ADJOINT[kind]


_DUAL = {Label.UP: Label.DOWN, Label.DOWN: Label.UP,
         Label.PLUS: Label.MINUS, Label.MINUS: Label.PLUS}


def dual_label(label: Label) -> Label:
    """The label seen at the far end of a bent strand."""
    return _DUAL.get(label, label)


def star_parity(kind: BoxKind) -> int:
    """Required checkerboard parity of the star-corner region (shaded only)."""
    return 0 if kind in (BoxKind.U, BoxKind.USTAR) else 1


def click_rewrite(theory: Theory, kind: BoxKind, direction: int) -> tuple[BoxKind, Cyclo]:
    """One application of the Fourier transform F (direction=+1) or its
    inverse (direction=-1) to a generator box: (new kind, scalar cost)."""
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    try:
        new, exp = theory.spec.clicks[kind, direction]
    except KeyError:
        raise ValueError(f"{kind.value} boxes have no click relation in "
                         f"{theory.family.value}") from None
    return new, root_power(theory.root_order, exp * theory.root_exp)
