import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affa.cyclotomic import Cyclo
from affa.diagram import Morphism
from affa.evaluate import (
    CLICK_DIR,
    _click_to,
    defining_relations,
    eval_closed,
    eval_with_steps,
    inner_product,
    morphism_eq,
    strand_projection,
    unit_empty,
)
from affa.labeling import invariant
from affa.testgen import random_closed
from affa.theory import (BoxKind, Family, Label, Theory, box_kinds,
                         click_rewrite, leg_count, rooted_theories)


SH2 = Theory(Family.SHADED_AODD, 2, 2, 1)
AR1 = Theory(Family.ARROW_AODD, 1, 2, 1)
AR2 = Theory(Family.ARROW_AODD, 2, 4, 1)
AE1 = Theory(Family.ARROW_AEVEN, 1, 3, 1)
CO3 = Theory(Family.COLOR_AODD, 3, 3, 1)


def all_rooted(n_max):
    out = []
    for fam in (Family.SHADED_AODD, Family.COLOR_AODD,
                Family.ARROW_AODD, Family.ARROW_AEVEN):
        for n in range(1, n_max + 1):
            cap = Theory(fam, n).root_bound()
            from math import gcd
            for k in range(cap):
                g = gcd(k, cap) if k else cap
                out.append(Theory(fam, n, cap // g, k // g))
    out += [Theory(Family.SHADED_AINF), Theory(Family.ARROW_AINF),
            Theory(Family.COLOR_AINF)]
    return out


def test_plain_loop_is_two():
    m = Morphism.loop(AR1, Label.PLAIN)
    assert eval_closed(m) == Cyclo.from_fraction(2)


def test_colored_loops_are_one():
    assert eval_closed(Morphism.loop(SH2, Label.RED)) == Cyclo.one()
    assert eval_closed(Morphism.loop(SH2, Label.BLUE)) == Cyclo.one()
    assert eval_closed(Morphism.loop(AR2, Label.UP)) == Cyclo.one()


@pytest.mark.parametrize("c", [0, 1, 2, 3, 5])
def test_plain_loops_give_powers_of_two(c):
    m = Morphism.identity(SH2, [])
    for _ in range(c):
        m = m.tensor(Morphism.loop(SH2, Label.PLAIN))
    assert eval_closed(m) == Cyclo.from_fraction(2 ** c)


@pytest.mark.parametrize("th,kind", [
    (AR1, BoxKind.U), (AR2, BoxKind.USTAR), (AE1, BoxKind.U),
    (SH2, BoxKind.V), (CO3, BoxKind.VSTAR)])
def test_generator_is_unit_norm(th, kind):
    g = Morphism.generator(th, kind)
    assert inner_product(g, g) == Cyclo.one()


@pytest.mark.parametrize("th", [AR1, AR2, AE1, SH2, CO3])
def test_click_eigenvalue_is_the_root(th):
    from affa.theory import click_rewrite
    kind = BoxKind.U if BoxKind.U in box_kinds(th) else BoxKind.V
    g = Morphism.generator(th, kind)
    target, _ = click_rewrite(th, kind, +1)
    h = Morphism.generator(th, target)
    assert inner_product(h, g.click(1)) == th.root()


@pytest.mark.parametrize("th", rooted_theories(3),
                         ids=lambda t: f"{t.family.value}-n{t.n}-"
                                       f"e{t.root_exp}o{t.root_order}")
def test_click_walk_exponent_matches_click_costs(th):
    for kind in box_kinds(th):
        k = leg_count(th, kind)
        for notches in range(k):
            boxes = [(kind, 0)]
            exp, steps = _click_to(th, boxes, 0, notches, 0)
            want, cost = kind, Cyclo.one()
            for _ in range(notches):
                want, c = click_rewrite(th, want, CLICK_DIR)
                cost = cost * c
            assert (steps, boxes[0]) == (notches, (want, notches))
            assert th.root_pow(exp) == cost


def test_clicks_that_cancel_give_the_rational_one():
    # tr(h* F^3 g) for the U box at n = 2 and root -1 collects clicks whose
    # exponents cancel; its value is the order-1 one, as for a click-free
    # term, so rational sums of such terms stay in Q
    th = Theory(Family.SHADED_AODD, 2, 2, 1)
    h = BoxKind.U
    for _ in range(3):
        h, _ = click_rewrite(th, h, +1)
    m = Morphism.generator(th, h).adjoint().compose(
        Morphism.generator(th, BoxKind.U).click(3)).trace_close("right")
    value, steps = eval_with_steps(m)
    assert steps > 0 and value == Cyclo.one() and value.order == 1


@pytest.mark.parametrize("th", all_rooted(2),
                         ids=lambda t: f"{t.family.value}-n{t.n}-"
                                       f"e{t.root_exp}o{t.root_order}")
def test_defining_relations_hold(th):
    for name, lhs, rhs in defining_relations(th):
        assert morphism_eq(lhs, rhs), name


@pytest.mark.parametrize("which,m,e", [("vec", 1, 0), ("vec", 2, 1),
                                       ("vec", 3, 1), ("rep", 2, 0),
                                       ("rep", 3, 0)])
def test_source_relations_hold(which, m, e):
    from affa.equiv import source_theory
    th = source_theory(which, m, e)
    for name, lhs, rhs in defining_relations(th):
        assert morphism_eq(lhs, rhs), name


@pytest.mark.parametrize("th", [SH2, AR2, AE1, CO3])
def test_evaluator_matches_labeling_invariant(th):
    for seed in range(120):
        m = Morphism.from_diagram(random_closed(th, 5, 2, seed))
        assert eval_closed(m) == invariant(m)


def test_evaluation_is_multiplicative_under_tensor():
    for seed in range(30):
        a = Morphism.from_diagram(random_closed(SH2, 4, 1, seed))
        b = Morphism.from_diagram(random_closed(SH2, 4, 1, seed + 1000))
        assert eval_closed(a.tensor(b)) == eval_closed(a) * eval_closed(b)


def test_adjoint_conjugates_the_value():
    for seed in range(30):
        m = Morphism.from_diagram(random_closed(AR2, 5, 1, seed))
        assert eval_closed(m.adjoint()) == eval_closed(m).conj()


def test_left_and_right_closure_agree():
    # sphericality: both trace closures of an endomorphism coincide
    for th in (SH2, AR2):
        kind = box_kinds(th)[0]
        g = Morphism.generator(th, kind)
        f = g.adjoint().compose(g)
        assert eval_closed(f.trace_close("left")) \
            == eval_closed(f.trace_close("right"))


def test_scaled_sum_evaluates_linearly():
    loop = Morphism.loop(AR1, Label.DOWN)
    m = loop.scale(Cyclo.from_fraction(3)) + loop
    assert eval_closed(m) == Cyclo.from_fraction(4)


def test_unit_empty_and_strand_projection():
    assert eval_closed(unit_empty(SH2)) == Cyclo.one()
    p = strand_projection(SH2, Label.RED)
    assert morphism_eq(p.compose(p), p)


def test_open_morphism_is_rejected():
    with pytest.raises(ValueError):
        eval_closed(Morphism.identity(SH2, [Label.RED]))
    with pytest.raises(ValueError):
        inner_product(Morphism.identity(SH2, [Label.RED]),
                      Morphism.identity(SH2, [Label.BLUE]))


def test_morphism_eq_needs_common_boundary():
    with pytest.raises(ValueError):
        morphism_eq(Morphism.identity(SH2, [Label.RED]),
                    Morphism.identity(AR2, [Label.UP]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_closed_arrow_value_is_zero_or_power_of_two_times_root(seed):
    # every closed diagram evaluates to 2^loops times a root of unity
    m = Morphism.from_diagram(random_closed(AR2, 4, 2, seed))
    val = eval_closed(m)
    order = AR2.root_order
    ok = val.is_zero() or any(
        val == Cyclo.from_fraction(2 ** c) * AR2.root() ** k
        for c in range(8) for k in range(order))
    assert ok


def test_step_count_reported():
    m = Morphism.loop(SH2, Label.PLAIN)
    val, steps = eval_with_steps(m)
    assert val == Cyclo.from_fraction(2)
    assert steps >= 1


def test_box_whose_strands_all_return_to_it_is_a_breach():
    # no box has two adjacent legs one strand may join, so this diagram is
    # invalid, and no valid one reaches the branch
    from affa.diagram import Diagram, Strand, boxleg
    from affa.theory import InvariantBreach, leg_count
    assert leg_count(AR2, BoxKind.U) == 4
    d = Diagram(AR2, (), (), ((BoxKind.U, 0),), 0, (
        Strand(boxleg(0, 0), boxleg(0, 1), Label.UP, +1),
        Strand(boxleg(0, 2), boxleg(0, 3), Label.UP, +1)))
    assert d.validate()
    with pytest.raises(InvariantBreach, match="all return to it"):
        eval_with_steps(Morphism.from_diagram(d))


def test_invariant_checks_run_under_python_O():
    # with kind_adjoint patched to the identity the evaluator pairs U with
    # U*, and must say so even when `python -O` strips plain asserts
    import affa
    script = (
        "import sys\n"
        "import affa.evaluate as ev\n"
        "from affa.diagram import Morphism\n"
        "from affa.theory import BoxKind, Family, InvariantBreach, Theory\n"
        "ev.kind_adjoint = lambda kind: kind\n"
        "u = Morphism.generator(Theory(Family.ARROW_AODD, 2, 4, 1),"
        " BoxKind.U)\n"
        "try:\n"
        "    ev.inner_product(u, u)\n"
        "except InvariantBreach as exc:\n"
        "    print(sys.flags.optimize, exc)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(affa.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 evaluation paired two non-adjoint boxes\n"


def _eval_counting_saddle_moves():
    """eval_with_steps, also returning how many saddle moves it made: the
    times the line of `_eval_term` that reconnects two strands across a
    box pair runs, counted by a trace on that function alone."""
    import affa.evaluate
    import inspect
    code = affa.evaluate._eval_term.__code__
    lines, first = inspect.getsourcelines(code)
    (line,) = [first + i for i, text in enumerate(lines)
               if "conn[xa], conn[xb] = xb, xa" in text]

    def evaluate(m):
        moves = 0

        def count(frame, event, arg):
            nonlocal moves
            moves += event == "line" and frame.f_lineno == line
            return count

        old = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     count if frame.f_code is code else None)
        try:
            return eval_with_steps(m), moves
        finally:
            sys.settrace(old)
    return evaluate


def test_saddle_moves_agree_with_the_invariant():
    # tr(w* w) pairs each box with its own mirror, so the evaluator never
    # reconnects strands there; tr(g* f) with f != g does.  f and g run
    # over the nonzero products of two generators, each clicked 0-3 times.
    # Words with one boundary fall in two checkerboard classes, and a
    # closure across classes is the zero term (None), so only pairs
    # within one class are closed.
    from affa.diagram import _flipped, _glue, _made, _trace_diagram
    evaluate = _eval_counting_saddle_moves()
    u0, u1 = (Morphism.generator(SH2, BoxKind.U, r) for r in (0, 1))
    m = u1.tensor(u1).click(3).adjoint().compose(u0.tensor(u0)).trace_close()
    assert evaluate(m) == ((Cyclo.one(), 9), 1)
    assert invariant(m) == Cyclo.one()
    gens = [Morphism.generator(SH2, kind, r)
            for kind in box_kinds(SH2) for r in range(4)]
    classes: dict = {}
    for a in gens:
        for b in gens:
            if a.tensor(b).is_zero():
                continue
            for c in range(4):
                (w,) = a.tensor(b).click(c).terms
                group = classes.setdefault((w.bottom, w.top), [])
                for cls in group:
                    if _glue(_made(_flipped(cls[0])), w) is not None:
                        cls.append(w)
                        break
                else:
                    group.append([w])
    closures: dict = {}
    for cls in (cls for group in classes.values() for cls in group):
        for g in cls:
            g_star = _made(_flipped(g))
            for f in cls:
                d = _trace_diagram(_glue(g_star, f))
                closures[d] = closures.get(d, 0) + 1
    reached = 0
    for d, times in closures.items():
        m = Morphism.from_diagram(d)
        (value, _), moves = evaluate(m)
        if moves:
            reached += times
            assert value == invariant(m), d
    assert reached == 6144


def _generators_by_boundary(th):
    """Every generator at every rotation, grouped by its boundary words."""
    groups: dict = {}
    for kind in box_kinds(th):
        for rot in range(leg_count(th, kind)):
            g = Morphism.generator(th, kind, rot)
            groups.setdefault((g.bottom, g.top), []).append(g)
    return list(groups.values())


def test_inner_product_equals_the_made_closure():
    # inner_product reduces each term pair as written; the made closed
    # morphism, with its terms merged and its plain loops expanded, must
    # give the same value
    from affa.cyclotomic import root_power
    from affa.diagram import _close_pair, _join, _stack, _trace_pairs

    def check(f, g):
        got = inner_product(f, g)
        assert got == eval_closed(f.adjoint().compose(g).trace_close()), \
            (f, g)
        return got

    relations = 0
    for th in rooted_theories(3) + [Theory(Family.SHADED_AINF),
                                    Theory(Family.ARROW_AINF),
                                    Theory(Family.COLOR_AINF)]:
        for _, lhs, rhs in defining_relations(th):
            d = lhs - rhs
            check(d, d)
            check(lhs, rhs)
            relations += 1
    assert relations == 558
    # the source categories through their functor image (size one by its
    # 2^p rule): the made closure is evaluated only after it is closed
    from affa.equiv import source_theory
    relations = 0
    for which in ("vec", "rep"):
        for m in range(1, 5):
            for e in range(m):
                th = source_theory(which, m, e)
                for _, lhs, rhs in defining_relations(th):
                    d = lhs - rhs
                    check(d, d)
                    check(lhs, rhs)
                    relations += 1
    assert relations == 160
    # sums of generators sharing a boundary, with root-of-unity weights
    sums = 0
    for th in (SH2, AR2, AE1, CO3):
        for group in _generators_by_boundary(th):
            f = g = Morphism.zero(th, group[0].bottom, group[0].top)
            for i, gen in enumerate(group):
                f = f + gen.scale(root_power(4, i))
                g = g + gen.scale(root_power(3, i + 1))
            if len(f.terms) > 1:
                check(f, g)
                check(f, f)
                sums += 1
    assert sums == 8
    # U and V at rotation 0 share a boundary in SH2, but no checkerboard
    # shading fits their closure: the walk agrees, the shading drops it
    u = Morphism.generator(SH2, BoxKind.U)
    v = Morphism.generator(SH2, BoxKind.V)
    assert (u.bottom, u.top) == (v.bottom, v.top)
    (a,), (b,) = u.adjoint().terms, v.terms
    strands, pairs = _stack(a, b)
    assert _join(SH2, (), (), b.boxes + a.boxes, strands,
                 pairs + _trace_pairs(len(b.bottom)))
    assert _close_pair(a, b) is None
    assert check(u, v).is_zero()
    assert not check(u + v, u + v).is_zero()
    # p plain strands beside a box close into p plain loops: 2^p
    for th, kind in ((SH2, BoxKind.U), (AR2, BoxKind.U), (CO3, BoxKind.V)):
        gen = Morphism.generator(th, kind)
        for p in range(4):
            plain = Morphism.identity(th, [Label.PLAIN] * p)
            f = gen.tensor(plain)
            (a,), (b,) = f.adjoint().terms, f.terms
            assert _close_pair(a, b)[1] == p
            assert check(f, f) == Cyclo.from_fraction(2 ** p)


def test_the_half_loop_pairing_equals_the_full_sum():
    # tr(d* d) of the same object pairs each unordered term pair once and
    # adds the mirror pair as a conjugate; a copy of d is a distinct
    # object, so its pairing walks every ordered term pair
    from affa.equiv import source_theory
    theories = rooted_theories(3) + [Theory(Family.SHADED_AINF),
                                     Theory(Family.ARROW_AINF),
                                     Theory(Family.COLOR_AINF)]
    theories += [source_theory(which, m, e) for which in ("vec", "rep")
                 for m in range(1, 5) for e in range(m)]
    relations = multi = 0
    for th in theories:
        for _, lhs, rhs in defining_relations(th):
            d = lhs - rhs
            copy = Morphism(d.theory, d.bottom, d.top, d.terms.items())
            assert copy is not d and copy == d
            assert inner_product(d, d) == inner_product(d, copy)
            relations += 1
            multi += len(d.terms) > 1
    assert (relations, multi) == (718, 640)
