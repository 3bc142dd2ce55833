"""Expected values, computed without the evaluator, the labeling, the
Gram code or the classifier, and the verdicts that compare outputs to them.

Every verdict is one of OK, FAILED (the known fault of the labeling
invariant on phase draws, counted but not fatal) or WRONG (the run is
not correct).  Scalars are built as integer multiples of a power of the
theory's root with `Cyclo`, only as a container for exact comparison.
"""

from __future__ import annotations

from affa.cyclotomic import Cyclo, root_power
from affa.theory import Family, Label, Theory, click_rewrite

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Families whose simple objects are graded letter by letter (arrow) or by
# alternating parity (checkerboard), with the order of the grading group.
_ARROW = (Family.ARROW_AODD, Family.ARROW_AEVEN)
_CHECKER = (Family.SHADED_AODD, Family.COLOR_AODD)


def scalar(theory: Theory, times: int, root_exp: int = 0) -> Cyclo:
    """times * root**root_exp in the theory's cyclotomic field."""
    r = root_power(theory.root_order, theory.root_exp * root_exp)
    return r * Cyclo.from_fraction(times)


def free_plain_loops(diagram) -> int:
    """Free loops carrying the plain label: each one doubles the value."""
    return sum(1 for s in diagram.strands
               if s.a[0] == "anchor" and s.label is Label.PLAIN)


def phase_expectation(theory: Theory, kind, clicks: int):
    """(kind reached, value of tr(h* F^c g)) from the presentation's
    click table: the product of the c one-notch costs."""
    value = Cyclo.one()
    for _ in range(clicks):
        kind, cost = click_rewrite(theory, kind, +1)
        value = value * cost
    return kind, value


# The known fault of `labeling.invariant` on phase draws tr(h* F^c g):
# in the arrow families, and in the colour family at even c, it returns
# the conjugate of the value; in the colour family at odd c, neither the
# value nor its conjugate.
CONJUGATE, NEITHER = "conjugate", "neither"


def phase_fault(theory: Theory, clicks: int) -> str | None:
    """The form the known fault takes on a phase draw of this theory
    with this many clicks, or None where the invariant must agree."""
    if theory.family in _ARROW:
        return CONJUGATE
    if theory.family is Family.COLOR_AODD:
        return NEITHER if clicks % 2 else CONJUGATE
    return None


def oracle_verdict(expected: Cyclo, evaluated: Cyclo,
                   invariant: Cyclo, fault: str | None = None) -> str:
    """The evaluator must give the expected value, and the invariant must
    agree, except where it shows the known fault in the form `fault`
    (from phase_fault); any other disagreement is WRONG."""
    if evaluated != expected:
        return WRONG
    if invariant == expected:
        return OK
    if fault == CONJUGATE and invariant == expected.conj():
        return FAILED
    if fault == NEITHER and invariant != expected.conj():
        return FAILED
    return WRONG


def grading_class(theory: Theory, word) -> int:
    """The class of a strand word in the cyclic group of simple objects,
    from the fusion rules: an arrow word counts Down as +1 and Up as -1
    modulo 2n (A odd) or 2n+1 (A even); a checkerboard word counts Blue
    as +1 and Red as -1 with the sign flipped at odd positions, modulo
    2n."""
    n = theory.n
    if theory.family in _ARROW:
        order = 2 * n if theory.family is Family.ARROW_AODD else 2 * n + 1
        total = sum(+1 if l is Label.DOWN else -1 for l in word)
    elif theory.family in _CHECKER:
        order = 2 * n
        total = sum((+1 if l is Label.BLUE else -1) * (-1) ** pos
                    for pos, l in enumerate(word))
    else:
        raise ValueError(f"no grading for {theory.family.value}")
    return total % order


def expected_hom_dim(theory: Theory, word) -> int:
    """dim Hom(1, word): one exactly when the word grades trivially."""
    return 1 if grading_class(theory, word) == 0 else 0


def gram_verdict(theory: Theory, word, rank: int, psd: bool) -> str:
    return OK if psd and rank == expected_hom_dim(theory, word) else WRONG


def carry_exponent(m: int, i: int, j: int, k: int) -> int:
    """The exponent of zeta in the carry cocycle omega(i, j, k)."""
    return i * ((j + k) - (j + k) % m) // m


def cocycle_identity_holds(m: int, zeta_exp: int, exponent=carry_exponent
                           ) -> bool:
    """The 3-cocycle identity for zeta**exponent, checked on exponents
    modulo m (zeta = exp(2 pi i zeta_exp / m) has order dividing m)."""
    def w(a, b, c):
        return zeta_exp * exponent(m, a, b, c)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    lhs = w((a + b) % m, c, d) + w(a, b, (c + d) % m)
                    rhs = w(a, b, c) + w(a, (b + c) % m, d) + w(b, c, d)
                    if (lhs - rhs) % m:
                        return False
    return True


def expected_class_count(family: str, n: int | None) -> int:
    """The classification: n / 3n / 2n+1 presentations up to isomorphism
    at size n, and 1 and 2 for the infinite families."""
    if family == "shaded-a-odd":
        return n
    if family == "unshaded-a-odd":
        return 3 * n
    if family == "a-even":
        return 2 * n + 1
    return {"shaded-a-inf": 1, "unshaded-a-inf": 2}[family]


def truth_verdict(value: bool) -> str:
    """For the relation, functor and cocycle reports: all must hold."""
    return OK if value is True else WRONG


def batch_verdicts(rows: list[dict], expected: list[str]) -> list[str]:
    """One verdict per input line: the row must carry its index, the
    expected value's canonical text and a step count, and no error."""
    out = []
    for i, want in enumerate(expected):
        row = rows[i] if i < len(rows) else {}
        good = (row.get("index") == i and "error" not in row
                and row.get("value") == want
                and isinstance(row.get("steps"), int))
        out.append(OK if good else WRONG)
    if len(rows) != len(expected):
        out[-1] = WRONG
    return out
