"""Tests of the benchmark itself: every checker rejects a perturbed value,
the comparison classes results as documented, and each workload runs.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import compare
import workloads
from affa.fusion import Word, hom_dim
from affa.theory import BoxKind, Family, Label, Theory

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SPEC = compare.load_benchmark()

ARROW = Theory(Family.ARROW_AODD, 2, 4, 1)
SHADED = Theory(Family.SHADED_AODD, 2, 2, 1)


# -- checkers -----------------------------------------------------------

def test_oracle_verdict_rejects_a_wrong_scalar():
    want = checks.scalar(ARROW, 2, 1)
    wrong = checks.scalar(ARROW, 2, 2)
    for fault in (None, checks.CONJUGATE, checks.NEITHER):
        assert checks.oracle_verdict(want, want, want, fault) == checks.OK
        assert checks.oracle_verdict(want, wrong, want, fault) \
            == checks.WRONG
    # the invariant may disagree only in the form of the known fault
    assert checks.oracle_verdict(want, want, wrong) == checks.WRONG
    assert checks.oracle_verdict(want, want, want.conj()) == checks.WRONG
    assert checks.oracle_verdict(want, want, want.conj(),
                                 checks.CONJUGATE) == checks.FAILED
    assert checks.oracle_verdict(want, want, wrong, checks.CONJUGATE) \
        == checks.WRONG
    assert checks.oracle_verdict(want, want, wrong, checks.NEITHER) \
        == checks.FAILED
    assert checks.oracle_verdict(want, want, want.conj(),
                                 checks.NEITHER) == checks.WRONG


def test_phase_fault_by_family_and_clicks():
    assert checks.phase_fault(ARROW, 2) == checks.CONJUGATE
    assert checks.phase_fault(Theory(Family.ARROW_AEVEN, 1, 3, 1), 1) \
        == checks.CONJUGATE
    colour = Theory(Family.COLOR_AODD, 2, 2, 1)
    assert checks.phase_fault(colour, 1) == checks.NEITHER
    assert checks.phase_fault(colour, 2) == checks.CONJUGATE
    assert checks.phase_fault(SHADED, 1) is None


def test_phase_expectation_is_the_click_table():
    kind, value = checks.phase_expectation(ARROW, BoxKind.U, 1)
    assert kind is BoxKind.U and value == checks.scalar(ARROW, 1, 1)
    kind, value = checks.phase_expectation(SHADED, BoxKind.U, 2)
    assert kind is BoxKind.U and value == checks.scalar(SHADED, 1, 1)


@pytest.mark.parametrize("th", workloads.full_order_theories(3),
                         ids=lambda th: f"{th.family.value}-{th.n}")
def test_independent_grading_matches_the_program(th):
    letters = (Label.UP, Label.DOWN) if th.is_oriented() \
        else (Label.RED, Label.BLUE)
    for length in range(7):
        for w in itertools.product(letters, repeat=length):
            assert checks.expected_hom_dim(th, w) == \
                hom_dim(Word(th, ()), Word(th, w))


def test_gram_verdict_rejects_a_wrong_rank_or_no_psd():
    word = (Label.RED, Label.RED)
    assert checks.expected_hom_dim(SHADED, word) == 1
    assert checks.gram_verdict(SHADED, word, 1, True) == checks.OK
    assert checks.gram_verdict(SHADED, word, 0, True) == checks.WRONG
    assert checks.gram_verdict(SHADED, word, 2, True) == checks.WRONG
    assert checks.gram_verdict(SHADED, word, 1, False) == checks.WRONG


def test_cocycle_identity_rejects_a_perturbed_cocycle():
    for m in range(1, 6):
        for e in range(m):
            assert checks.cocycle_identity_holds(m, e)

    def bumped(m, i, j, k):
        return checks.carry_exponent(m, i, j, k) + ((i, j, k) == (1, 1, 1))
    assert not checks.cocycle_identity_holds(3, 1, bumped)
    op = workloads.Equivalence._cocycle_op(3, 1)
    assert op.check(True) == [checks.OK]
    assert op.check(False) == [checks.WRONG]


def test_count_and_eigenvalue_checks_reject_wrong_values():
    assert [checks.expected_class_count(f, 2) for f in
            ("shaded-a-odd", "unshaded-a-odd", "a-even")] == [2, 6, 5]
    op = workloads.Equivalence._count_op("unshaded-a-odd", 2)
    assert op.check(6) == [checks.OK]
    assert op.check(5) == [checks.WRONG]
    op = workloads.Equivalence._eigen_op(ARROW)
    assert op.check(ARROW.root()) == [checks.OK]
    assert op.check(ARROW.root().conj()) == [checks.WRONG]


def test_truth_verdict_needs_true():
    assert checks.truth_verdict(True) == checks.OK
    assert checks.truth_verdict(False) == checks.WRONG
    op = workloads.Equivalence._functor_op("vec", 2, 1)
    assert op.check({"ok": False}) == [checks.WRONG]


def test_batch_verdicts_reject_wrong_missing_and_error_rows():
    want = ["2", "z4"]
    good = [{"index": 0, "value": "2", "steps": 3},
            {"index": 1, "value": "z4", "steps": 1}]
    assert checks.batch_verdicts(good, want) == [checks.OK, checks.OK]
    wrong = [good[0], dict(good[1], value="-1*z4")]
    assert checks.batch_verdicts(wrong, want) == [checks.OK, checks.WRONG]
    error = [good[0], {"index": 1, "error": "bad"}]
    assert checks.batch_verdicts(error, want)[1] == checks.WRONG
    assert checks.batch_verdicts(good[:1], want)[1] == checks.WRONG


def test_oracle_phase_draws_do_not_depend_on_the_seed():
    """The failed share must be the same in every run: the phase draws,
    where the invariant's fault shows, are the same for every seed, and
    exactly 172 of the 356 show it."""
    def phase_verdicts(seed):
        ops = workloads.Oracle(seed, "unused").ops[:356]
        return [v for op in ops for v in op.check(op.run())]
    first = phase_verdicts(0)
    assert first == phase_verdicts(5)
    assert checks.WRONG not in first
    assert first.count(checks.FAILED) == 172
    assert len(workloads.Oracle(0, "unused").ops) == \
        len(workloads.Oracle(5, "unused").ops)


def test_traced_counts_repeat_exactly():
    from tracer import Tracer
    ops = workloads.Oracle(0, "unused").ops
    ops = ops[:12] + ops[-12:]

    def counts():
        tracer = Tracer()
        tracer.install()
        try:
            verdicts = [v for op in ops for v in op.check(op.run())]
        finally:
            tracer.uninstall()
        assert checks.WRONG not in verdicts
        return {k: v for k, v in tracer.metrics().items()
                if not k.endswith(".self_s")}
    first = counts()
    assert first["evaluate.steps"] > 0
    assert first["evaluate.eval_closed.calls"] == len(ops)
    assert first["labeling.invariant.calls"] == len(ops)
    assert first["testgen.random_closed.calls"] == 12
    assert first["fusion.gram_matrix.calls"] == 0
    assert first == counts()


def test_batch_times_every_line_and_pauses_between(tmp_path):
    from affa import cli
    eval_one = cli._eval_one
    op = workloads.Batch(1, str(tmp_path)).ops[0]
    pauses = []
    op.pause = lambda: pauses.append(None)
    out = op.run()
    assert cli._eval_one is eval_one
    assert len(op.item_times()) == op.items == len(pauses) == 301
    assert all(t > 0 for t in op.item_times())
    assert set(op.check(out)) == {checks.OK}


# -- comparison ---------------------------------------------------------

def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(parent, [120.0, 121.0, 119.0, 120.5, 119.5],
                           1.0, True, 0.1) == "better"
    assert compare.verdict(parent, [80.0, 81.0, 79.0, 80.5, 79.5],
                           0.0, True, 0.1) == "worse"
    assert compare.verdict(parent, [98.0, 99.0, 97.0, 98.5, 97.5],
                           0.0, True, 0.1) == "within bound"
    noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
    assert compare.verdict(noisy, parent, 0.4, True, 0.1) == "unresolved"


# -- the runs -------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    run = _run(ROOT, "--workload", workload, "--seed", "3",
               "--seconds", "0.1", "--trace", "0")
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload != "oracle":
        assert result["failed"] == 0


def test_traced_run_reports_every_layer_metric():
    run = _run(ROOT, "--workload", "batch", "--seed", "3",
               "--seconds", "0.1", "--trace", "1")
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in result["metrics"].items())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "traces",
                                                  "work", "__pycache__"))
    run = _run(tmp_path, "--workload", "oracle", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert run.returncode != 0
    assert run.stdout.strip() == ""
