"""End-to-end acceptance gate: nine criteria, exact arithmetic, zero
tolerance.  Each test prints a single PASS/FAIL line for its criterion."""

import itertools
from fractions import Fraction
from math import gcd

from affa.cyclotomic import Cyclo
from affa.diagram import Morphism
from affa.theory import Family, Label, Theory


FINITE_FAMILIES = (Family.SHADED_AODD, Family.COLOR_AODD,
                   Family.ARROW_AODD, Family.ARROW_AEVEN)
INFINITE = (Theory(Family.SHADED_AINF), Theory(Family.ARROW_AINF),
            Theory(Family.COLOR_AINF))


def rooted_theories(n_max):
    for fam in FINITE_FAMILIES:
        for n in range(1, n_max + 1):
            cap = Theory(fam, n).root_bound()
            for k in range(cap):
                g = gcd(k, cap) if k else cap
                yield Theory(fam, n, cap // g, k // g)


def _report(num, ok):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def test_criterion_1_relation_suites():
    from affa.equiv import source_theory
    from affa.evaluate import defining_relations, morphism_eq
    ok = True
    theories = list(rooted_theories(4)) + list(INFINITE)
    for m in range(1, 5):
        for e in range(m):
            theories.append(source_theory("vec", m, e))
            theories.append(source_theory("rep", m, e))
    for th in theories:
        for name, lhs, rhs in defining_relations(th):
            if not morphism_eq(lhs, rhs):
                ok = False
    _report(1, ok)


def test_criterion_2_oracle_equivalence():
    from affa.evaluate import eval_closed
    from affa.labeling import invariant
    from affa.testgen import random_closed
    ok = True
    for th in rooted_theories(4):
        for seed in range(1000):
            m = Morphism.from_diagram(random_closed(th, 6, 2, seed))
            if eval_closed(m) != invariant(m):
                ok = False
    _report(2, ok)


def test_criterion_3_loop_counting():
    from affa.evaluate import eval_closed
    ok = True
    th = Theory(Family.SHADED_AODD, 2, 2, 1)
    for c in range(11):
        m = Morphism.identity(th, [])
        for _ in range(c):
            m = m.tensor(Morphism.loop(th, Label.PLAIN))
        if eval_closed(m) != Cyclo.from_fraction(2 ** c):
            ok = False
    _report(3, ok)


def _letters(th):
    return ((Label.UP, Label.DOWN) if th.is_oriented()
            else (Label.RED, Label.BLUE))


def _gram_survey():
    """Gram results for all word pairs of total length <= 8, keyed by the
    concatenated word; shared between criteria 4 and 8."""
    from affa.fusion import Word, gram_matrix, hom_dim
    results = []
    for fam in FINITE_FAMILIES:
        for n in range(1, 5):
            cap = Theory(fam, n).root_bound()
            th = Theory(fam, n, cap, 1) if cap > 1 else Theory(fam, n, 1, 0)
            a, b = _letters(th)
            cache = {}
            for l1 in range(0, 9):
                for w1 in itertools.product((a, b), repeat=l1):
                    for l2 in range(0, 9 - l1):
                        for w2 in itertools.product((a, b), repeat=l2):
                            word1, word2 = Word(th, w1), Word(th, w2)
                            combined = w1 + word2.dual().labels
                            if combined not in cache:
                                cache[combined] = gram_matrix(
                                    Word(th, combined), len(combined) // 2)
                            results.append((th, hom_dim(word1, word2),
                                            cache[combined]))
    return results


def test_criteria_4_and_8_hom_dims_and_positivity():
    from affa.fusion import Word, hom_dim
    dims_ok = psd_ok = True
    for th, dim, res in _gram_survey():
        if res.rank != dim:
            dims_ok = False
        if not res.psd:
            psd_ok = False
    th = Theory(Family.ARROW_AODD, 2, 1, 0)  # m = 4
    empty = Word(th, ())
    for k in range(13):
        want = 1 if k % 4 == 0 else 0
        if hom_dim(Word(th, (Label.DOWN,) * k), empty) != want:
            dims_ok = False
    _report(4, dims_ok)
    _report(8, psd_ok)


def test_criterion_5_principal_graphs():
    from affa.fusion import principal_graph
    ok = True
    for fam in FINITE_FAMILIES:
        for n in range(1, 6):
            th = Theory(fam, n, 1, 0)
            g = principal_graph(th)
            count = 2 * n + 1 if fam is Family.ARROW_AEVEN else 2 * n
            if len(g.vertices) != count:
                ok = False
            if any(t != Fraction(1) for t in g.traces):
                ok = False
            for v in range(len(g.vertices)):
                # 2 tr(P) = sum of neighbour traces, with multiplicity
                if sum(m for i, j, m in g.edges if v in (i, j)) != 2:
                    ok = False
    _report(5, ok)


def test_criterion_6_classification_counts():
    from affa.classify import click_eigenvalue, count_classes, \
        enumerate_presentations
    ok = True
    for n in range(1, 6):
        if count_classes("shaded-a-odd", n) != n:
            ok = False
        if count_classes("unshaded-a-odd", n) != 3 * n:
            ok = False
        if count_classes("a-even", n) != 2 * n + 1:
            ok = False
    if count_classes("unshaded-a-inf") != 2:
        ok = False
    if count_classes("shaded-a-inf") != 1:
        ok = False
    for family in ("shaded-a-odd", "unshaded-a-odd", "a-even"):
        for n in range(1, 6):
            for th in enumerate_presentations(family, n):
                if click_eigenvalue(th) != th.root():
                    ok = False
    _report(6, ok)


def test_criterion_7_equivalence_functors():
    from affa.cyclotomic import root_power
    from affa.equiv import CocycleSpec, check_cocycle, check_functor
    ok = True
    for m in range(1, 7):
        for e in range(m):
            if not check_functor("vec", m, e)["ok"]:
                ok = False
            if not check_functor("rep", m, e)["ok"]:
                ok = False
    for m in range(1, 9):
        for e in range(m):
            if not check_cocycle(CocycleSpec(m, root_power(m, e))):
                ok = False
    _report(7, ok)


def test_criterion_9_termination_measure():
    from affa.evaluate import eval_closed
    from affa.testgen import random_closed
    from affa.theory import InvariantBreach
    # the evaluator checks at every rewrite that (#boxes, #loops) strictly
    # drops and raises InvariantBreach (also under python -O) if not;
    # rerunning a mixed battery exercises those checks across the
    # criteria-1..3 style workloads
    ok = True
    try:
        for th in rooted_theories(2):
            for seed in range(50):
                eval_closed(Morphism.from_diagram(
                    random_closed(th, 6, 2, seed)))
    except InvariantBreach:
        ok = False
    _report(9, ok)
