"""The four workloads, each a fixed list of operations per run.

A workload is built once from the seed (its set-up): `ops` is the list of
operations the run repeats, round after round, so every round attempts
the same operations on the same inputs and fails the same ones.  An
operation is `Op(items, run, check)`: `run()` is the timed call into
`affa`, `check(output)` returns one verdict per item and runs outside the
timing.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from math import gcd
from typing import Callable

import checks
from affa import classify, cli, equiv, evaluate, fusion, labeling, testgen
from affa.cyclotomic import Cyclo, root_power
from affa.diagram import Morphism
from affa.theory import BoxKind, Family, Label, Theory, box_kinds, leg_count

FINITE = (Family.SHADED_AODD, Family.COLOR_AODD, Family.ARROW_AODD,
          Family.ARROW_AEVEN)
INFINITE = (Theory(Family.SHADED_AINF), Theory(Family.ARROW_AINF),
            Theory(Family.COLOR_AINF))


@dataclass
class Op:
    items: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # the seconds each item took in the last run(), where run() handles
    # several items and times them one by one
    item_times: Callable[[], list[float]] | None = None
    # called between the items of such a run, outside their timing: the
    # runner sets it to sample the machine's speed
    pause: Callable[[], None] | None = None


def rooted_theories(n_max: int) -> list[Theory]:
    """Every finite presentation with n <= n_max, one per root."""
    out = []
    for fam in FINITE:
        for n in range(1, n_max + 1):
            cap = Theory(fam, n).root_bound()
            for k in range(cap):
                g = gcd(k, cap) if k else cap
                out.append(Theory(fam, n, cap // g, k // g))
    return out


def full_order_theories(n_max: int) -> list[Theory]:
    """One presentation per finite family and n, with a full-order root."""
    out = []
    for fam in FINITE:
        for n in range(1, n_max + 1):
            cap = Theory(fam, n).root_bound()
            out.append(Theory(fam, n, cap, 1) if cap > 1
                       else Theory(fam, n, 1, 0))
    return out


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _with_plain_loops(m: Morphism, p: int) -> Morphism:
    for _ in range(p):
        m = m.tensor(Morphism.loop(m.theory, Label.PLAIN))
    return m


def phase_pair(th: Theory, kind: BoxKind, clicks: int) -> Morphism:
    """tr(h* F^c g): g clicked c times, closed against the generator h
    that the click table sends it to."""
    h_kind, _ = checks.phase_expectation(th, kind, clicks)
    g = Morphism.generator(th, kind)
    h = Morphism.generator(th, h_kind)
    return h.adjoint().compose(g.click(clicks)).trace_close("right")


# -- oracle -----------------------------------------------------------------

class Oracle:
    """Closed diagrams evaluated by the rewriting evaluator and by the
    region-labeling invariant.

    The operations: every single-generator phase pair tr(h* F^c g) over the
    rooted theories with n <= 3, 0 < c < legs, tensored with (index mod 3)
    plain loops -- a fixed list, the same for every seed, on which the
    invariant's known fault shows -- and DRAWS seeded tr(w* w) draws from
    `testgen.random_closed` per theory."""

    name = "oracle"
    DRAWS = 17
    N_MAX = 3

    def __init__(self, seed: int, workdir: str):
        theories = rooted_theories(self.N_MAX)
        self.ops = []
        for th in theories:
            for kind in box_kinds(th):
                for c in range(1, leg_count(th, kind)):
                    p = len(self.ops) % 3
                    _, cost = checks.phase_expectation(th, kind, c)
                    want = cost * checks.scalar(th, 2 ** p)
                    self.ops.append(self._phase_op(th, kind, c, p, want))
        rng = _rng(self.name, seed)
        for th in theories:
            for _ in range(self.DRAWS):
                self.ops.append(self._draw_op(th, rng.randrange(2 ** 31)))

    @staticmethod
    def _phase_op(th, kind, c, p, want) -> Op:
        def run():
            m = _with_plain_loops(phase_pair(th, kind, c), p)
            return evaluate.eval_closed(m), labeling.invariant(m)

        fault = checks.phase_fault(th, c)

        def check(out):
            return [checks.oracle_verdict(want, out[0], out[1], fault)]
        return Op(1, run, check)

    @staticmethod
    def _draw_op(th, draw_seed) -> Op:
        def run():
            d = testgen.random_closed(th, max_boxes=6, max_loops=2,
                                      seed=draw_seed)
            m = Morphism.from_diagram(d)
            return d, evaluate.eval_closed(m), labeling.invariant(m)

        def check(out):
            d, ev, inv = out
            want = checks.scalar(th, 2 ** checks.free_plain_loops(d))
            return [checks.oracle_verdict(want, ev, inv)]
        return Op(1, run, check)


# -- gram -------------------------------------------------------------------

class Gram:
    """Gram matrices of the spanning sets of Hom(1, w) for strand words w,
    with exact rank and positivity, in each finite family at n <= 4 with a
    full-order root: every word of length <= 5, and every word of length 6
    where n >= 3.  The list is fixed; the seed sets the order in which it
    runs."""

    name = "gram"
    N_MAX = 4

    def __init__(self, seed: int, workdir: str):
        self.ops = []
        for th in full_order_theories(self.N_MAX):
            letters = (Label.UP, Label.DOWN) if th.is_oriented() \
                else (Label.RED, Label.BLUE)
            longest = 6 if th.n >= 3 else 5
            self.ops += [self._op(th, w) for L in range(longest + 1)
                         for w in itertools.product(letters, repeat=L)]
        _rng(self.name, seed).shuffle(self.ops)

    @staticmethod
    def _op(th, word) -> Op:
        def run():
            return fusion.gram_matrix(fusion.Word(th, word), len(word) // 2)

        def check(res):
            return [checks.gram_verdict(th, word, res.rank, res.psd)]
        return Op(1, run, check)


# -- equivalence ------------------------------------------------------------

class Equivalence:
    """The paper's headline checks: every defining relation of the rooted
    theories with n <= 4, the infinite theories and the source categories
    with m <= 4; the vec and rep functor checks and the carry 3-cocycle
    for m <= 5; the class counts for n <= 4 and the click eigenvalue of
    every presentation with n <= 3.  The list is fixed; the seed sets the
    order in which it runs."""

    name = "equivalence"

    def __init__(self, seed: int, workdir: str):
        theories = (rooted_theories(4) + list(INFINITE)
                    + [equiv.source_theory(which, m, e) for m in range(1, 5)
                       for e in range(m) for which in ("vec", "rep")])
        ops = [self._relation_op(lhs, rhs) for th in theories
               for _, lhs, rhs in evaluate.defining_relations(th)]
        for m in range(1, 6):
            for e in range(m):
                ops.append(self._functor_op("vec", m, e))
                ops.append(self._functor_op("rep", m, e))
                ops.append(self._cocycle_op(m, e))
        for n in range(1, 5):
            for family in ("shaded-a-odd", "unshaded-a-odd", "a-even"):
                ops.append(self._count_op(family, n))
        for family in ("shaded-a-inf", "unshaded-a-inf"):
            ops.append(self._count_op(family, None))
        for n in range(1, 4):
            for family in ("shaded-a-odd", "unshaded-a-odd", "a-even"):
                for th in classify.enumerate_presentations(family, n):
                    ops.append(self._eigen_op(th))
        _rng(self.name, seed).shuffle(ops)
        self.ops = ops

    @staticmethod
    def _relation_op(lhs, rhs) -> Op:
        return Op(1, lambda: evaluate.morphism_eq(lhs, rhs),
                  lambda ok: [checks.truth_verdict(ok)])

    @staticmethod
    def _functor_op(which, m, e) -> Op:
        return Op(1, lambda: equiv.check_functor(which, m, e),
                  lambda report: [checks.truth_verdict(report["ok"])])

    @staticmethod
    def _cocycle_op(m, e) -> Op:
        def check(holds):
            want = checks.cocycle_identity_holds(m, e)
            return [checks.truth_verdict(want and holds is want)]
        spec = equiv.CocycleSpec(m, root_power(m, e))
        return Op(1, lambda: equiv.check_cocycle(spec), check)

    @staticmethod
    def _count_op(family, n) -> Op:
        want = checks.expected_class_count(family, n)
        return Op(1, lambda: classify.count_classes(family, n),
                  lambda got: [checks.OK if got == want else checks.WRONG])

    @staticmethod
    def _eigen_op(th) -> Op:
        want = checks.scalar(th, 1, 1)
        return Op(1, lambda: classify.click_eigenvalue(th),
                  lambda got: [checks.OK if got == want else checks.WRONG])


# -- batch ------------------------------------------------------------------

class Batch:
    """`affa eval --batch` through `affa.cli.run`, in process, on
    JSON-lines files of FILE_LINES lines written at set-up: the size of
    the generated batches the engine is run on (300 to 400 lines).

    The lines are drawn once, from CONTENT_SEED, the same for every seed.
    Their kinds and plain-loop counts follow the fixed PATTERN, repeated
    REPEATS times: a random_closed draw with p free plain loops ("loops",
    p), a linear combination of two such draws ("combo"), a phase pair
    with p loops ("phase"), and a vec or rep source closure tr(u* u)
    ("source").  Four more lines each hold HEAVY_LOOPS free plain loops
    alone, one per finite family at n = 2.  The seed shuffles all lines
    together and so sets which file holds each and in what order.
    Drawing the lines from the seed made a round's work differ by up to
    6 % between seeds (`theory.box_signature` calls over five seeds),
    mostly in the lines of 2^5 and 2^6 terms, whose cost scales with
    their random number of boxes.

    One operation is one batch call, and its items are its lines.  Each
    line is also timed inside the call, around `cli._eval_one` (parse and
    evaluate), so that the latency figures are per line.

    The pool gets one thread: under the interpreter lock a second thread
    adds no throughput, and its hand-offs made the time of a run depend
    on the load on the other CPU."""

    name = "batch"
    PATTERN = (("loops", 0), ("phase", 1), ("loops", 2), ("source", 0),
               ("combo", 1), ("loops", 4), ("phase", 1), ("loops", 1),
               ("source", 0), ("combo", 2), ("loops", 3), ("loops", 5),
               ("phase", 1), ("source", 0), ("combo", 0), ("loops", 6))
    REPEATS = 75
    HEAVY_LOOPS = 10
    CONTENT_SEED = 0
    FILE_LINES = 301

    def __init__(self, seed: int, workdir: str):
        os.environ["AFFA_THREADS"] = "1"
        rng = _rng(self.name, self.CONTENT_SEED)
        self.rooted = rooted_theories(3)
        lines = [self._line(rng, kind, p)
                 for kind, p in self.PATTERN * self.REPEATS]
        lines += [self._loops_only(th) for th in full_order_theories(2)
                  if th.n == 2]
        _rng(self.name, seed).shuffle(lines)
        os.makedirs(workdir, exist_ok=True)
        self.ops = []
        for f in range(0, len(lines), self.FILE_LINES):
            chunk = lines[f:f + self.FILE_LINES]
            path = os.path.join(workdir, f"batch-{f}.jsonl")
            with open(path, "w") as fh:
                fh.write("".join(text + "\n" for text, _ in chunk))
            self.ops.append(self._op(path, path + ".out",
                                     [want for _, want in chunk]))

    def _loops_only(self, th: Theory) -> tuple[str, str]:
        m = _with_plain_loops(evaluate.unit_empty(th), self.HEAVY_LOOPS)
        return (json.dumps(json.loads(m.serialize())),
                repr(checks.scalar(th, 2 ** self.HEAVY_LOOPS)))

    @staticmethod
    def _draw(rng, th: Theory, p: int):
        d = testgen.random_closed(th, max_boxes=4, max_loops=0,
                                  seed=rng.randrange(2 ** 31))
        m = _with_plain_loops(Morphism.from_diagram(d), p)
        return m, checks.scalar(th, 2 ** (p + checks.free_plain_loops(d)))

    def _line(self, rng, kind: str, p: int) -> tuple[str, str]:
        th = rng.choice(self.rooted)
        if kind == "loops":
            m, want = self._draw(rng, th, p)
        elif kind == "combo":
            m1, v1 = self._draw(rng, th, p)
            m2, v2 = self._draw(rng, th, 1)
            a = rng.randint(-3, 3) or 1
            c = checks.scalar(th, 1, rng.randrange(th.root_order))
            m = m1.scale(a) + m2.scale(c)
            want = v1 * Cyclo.from_fraction(a) + c * v2
        elif kind == "phase":
            g = rng.choice(box_kinds(th))
            c = rng.randrange(1, leg_count(th, g))
            _, cost = checks.phase_expectation(th, g, c)
            m = _with_plain_loops(phase_pair(th, g, c), p)
            want = cost * checks.scalar(th, 2 ** p)
        else:
            which = rng.choice(("vec", "rep"))
            msize = rng.randint(2, 6)
            th = equiv.source_theory(which, msize, rng.randrange(msize))
            gen = BoxKind.SCRIPT_U if which == "vec" else BoxKind.NCUP_MINUS
            u = Morphism.generator(th, gen)
            m = u.adjoint().compose(u)
            want = Cyclo.one()
        text = json.dumps(json.loads(m.serialize()))
        return text, repr(want)

    @staticmethod
    def _op(path, out, want) -> Op:
        times: list[float] = []

        def run():
            times.clear()
            eval_one = cli._eval_one
            cli._eval_one = _timing(eval_one, times, op.pause)
            try:
                return cli.run(["eval", "--batch", path, "--out", out])
            finally:
                cli._eval_one = eval_one

        def check(code):
            with open(out) as fh:
                rows = [json.loads(ln) for ln in fh if ln.strip()]
            verdicts = checks.batch_verdicts(rows, want)
            return verdicts if code == 0 else [checks.WRONG] * len(want)
        op = Op(len(want), run, check, lambda: times)
        return op


def _timing(fn, times: list[float], pause=None):
    """fn, appending the duration of each call to times, and calling
    pause() after each call."""
    clock = time.perf_counter

    def timed(*args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            times.append(clock() - t0)
            if pause is not None:
                pause()
    return timed

WORKLOADS = {w.name: w for w in (Oracle, Gram, Equivalence, Batch)}

