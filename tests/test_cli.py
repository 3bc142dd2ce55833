import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from affa.cli import run
from affa.diagram import Morphism
from affa.theory import BoxKind, Family, Label, Theory


AR1 = Theory(Family.ARROW_AODD, 1, 2, 1)
SH2 = Theory(Family.SHADED_AODD, 2, 2, 1)


@pytest.fixture
def bubble(tmp_path):
    path = tmp_path / "bubble.json"
    path.write_bytes(Morphism.loop(AR1, Label.DOWN).serialize())
    return str(path)


def test_eval_bubble(bubble, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(["eval", "--in", bubble, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == "1"
    assert doc["steps"] >= 1


def test_eval_malformed_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert run(["eval", "--in", str(path)]) == 1


def test_eval_missing_file():
    assert run(["eval", "--in", "/nonexistent/morphism.json"]) == 1


def test_unknown_flag_is_an_input_error():
    assert run(["eval", "--frobnicate"]) == 1


GOOD_LINE = json.loads(Morphism.loop(AR1, Label.PLAIN).serialize())
U1 = Morphism.generator(AR1, BoxKind.U)
# tr(u* u): box 0 is U at rotation 0, and strand 0 ends on leg 1 of box 1
BOXED_LINE = json.loads(U1.adjoint().compose(U1).trace_close().serialize())


def _bad_line(edit, line=GOOD_LINE) -> str:
    """`line` after `edit`, with every "BIG" written as the JSON number
    1e400 (which parses to an infinite float)."""
    doc = json.loads(json.dumps(line))
    edit(doc)
    return json.dumps(doc).replace('"BIG"', "1e400")


def _term(**fields):
    return lambda doc: doc["terms"][0].update(fields)


def _anchor_end(doc):
    doc["terms"][0]["strands"][0]["a"]["anchor"] = "BIG"


def _same_slot_loop(doc):
    doc["terms"][0]["strands"][0]["b"]["side"] = 0


def _loop_on_anchor_3(doc):
    for end in doc["terms"][0]["strands"][0].values():
        if isinstance(end, dict):
            end["anchor"] = 3


def _two_loops_on_one_anchor(doc):
    term = doc["terms"][0]
    term["strands"] *= 2
    del term["anchors"]


def _bottom_an_object(doc):
    for obj in (doc, doc["terms"][0]):
        obj["bottom"] = {}


def _strand_end(end, **fields):
    return lambda doc: doc["terms"][0]["strands"][0][end].update(fields)


def _strand(**fields):
    return lambda doc: doc["terms"][0]["strands"][0].update(fields)


def _box_u_renamed_v(doc):
    for box in doc["terms"][0]["boxes"]:
        if box["kind"] == "U":
            box["kind"] = "V"


RED_LOOP = json.loads(
    Morphism.loop(Theory(Family.COLOR_AODD, 1), Label.RED).serialize())
UP_IDENTITY = json.loads(Morphism.identity(
    Theory(Family.ARROW_AODD, 2, 4, 1), [Label.UP]).serialize())
U2 = Morphism.generator(SH2, BoxKind.U)
SHADED_BOXED_LINE = json.loads(
    U2.adjoint().compose(U2).trace_close().serialize())

# (id, line, message): well-formed lines that each break one strand or
# shading rule of `Diagram.validate`, and a fragment of the message the
# error row must carry
RULE_BREAKS = [
    ("loop-label-not-in-alphabet", _bad_line(_strand(label="Dot")),
     "not in alphabet"),
    ("plain-loop-directed", _bad_line(_strand(dir=1)),
     "plain strand cannot carry a direction"),
    ("plain-strand-on-box-legs",
     _bad_line(_strand(label="Plain", dir=0), BOXED_LINE),
     "cannot end on a box leg"),
    ("oriented-strand-undirected", _bad_line(_strand(dir=0), BOXED_LINE),
     "oriented strand needs a direction"),
    ("red-loop-directed", _bad_line(_strand(dir=1), RED_LOOP),
     "cannot be directed"),
    ("plain-strand-at-up-points",
     _bad_line(_strand(label="Plain", dir=0), UP_IDENTITY),
     "plain strand at a labeled boundary point"),
    ("box-u-renamed-v", _bad_line(_box_u_renamed_v, SHADED_BOXED_LINE),
     "inconsistent checkerboard shading"),
]


@pytest.mark.parametrize("bad,message", [(line, "") for line in [
    "{bad",
    json.dumps(dict(GOOD_LINE, terms=5)),
    _bad_line(_term(coeff={"order": 0, "coeffs": ["1"]})),
    json.dumps(dict(GOOD_LINE, theory=dict(GOOD_LINE["theory"], root=5))),
    _bad_line(_term(anchors=[1])),
    _bad_line(_term(anchors=None)),
    _bad_line(_anchor_end),
    _bad_line(_term(coeff={"order": 1, "coeffs": ["BIG"]})),
    _bad_line(_term(coeff={"order": "BIG", "coeffs": ["1"]})),
    _bad_line(lambda doc: doc["theory"].update(root={"order": "BIG"})),
    _bad_line(_term(strands=[], anchors=-3)),
    _bad_line(_term(strands=[], anchors=10**12)),
    _bad_line(lambda doc: doc["theory"].update(n=True)),
    _bad_line(_term(anchors=5)),
    _bad_line(_term(anchors=0)),
    _bad_line(_term(coeff={"order": 7, "coeffs": ["0", "1"]})),
    _bad_line(_same_slot_loop),
    _bad_line(_two_loops_on_one_anchor),
    json.dumps(dict(GOOD_LINE, bottom=5)),
    json.dumps(dict(GOOD_LINE, top=5)),
    _bad_line(_term(coeff={"order": 1, "coeffs": ["1/0"]})),
    _bad_line(_term(coeff={"order": 1, "coeffs": "12"})),
    _bad_line(_bottom_an_object),
    _bad_line(_term(coeff={"order": 1.5, "coeffs": ["1"]})),
    _bad_line(_term(coeff={"order": True, "coeffs": ["1"]})),
    _bad_line(_term(coeff={"order": 1, "coeffs": [True]})),
    _bad_line(lambda doc: doc["terms"][0]["boxes"][0].update(rot=1.5),
              BOXED_LINE),
    _bad_line(_strand_end("b", box=True), BOXED_LINE),
    _bad_line(_strand_end("a", k=1)),
    _bad_line(_loop_on_anchor_3),
    _bad_line(lambda doc: doc["theory"].update(n=10**9)),
]] + [("[" * 100000, "bad JSON: nested too deeply")]
    + [(line, message) for _, line, message in RULE_BREAKS],
    ids=["bad-json", "terms-not-a-list", "coeff-order-zero",
        "theory-root-not-an-object", "anchors-a-list", "anchors-null",
        "endpoint-anchor-overflows", "coeff-overflows",
        "coeff-order-overflows", "theory-root-order-overflows",
        "anchors-negative", "anchors-beyond-strands", "theory-n-boolean",
        "anchors-more-than-loops", "anchors-fewer-than-loops",
        "coeff-order-outside-root-field", "loop-on-one-slot",
        "two-loops-on-one-anchor", "bottom-not-a-list", "top-not-a-list",
        "coeff-divides-by-zero", "coeffs-a-string", "bottom-an-object",
        "coeff-order-a-float", "coeff-order-a-boolean", "coeff-a-boolean",
        "box-rot-a-float", "endpoint-box-a-boolean", "endpoint-extra-key",
        "loop-on-a-non-canonical-anchor", "theory-n-overflows",
        "bad-json-nested-too-deep", *(name for name, _, _ in RULE_BREAKS)])
def test_eval_batch_ordered_and_reports_errors(tmp_path, bad, message):
    # every bad line is refused before it is built: a theory of size n
    # builds a box of about 2n legs, so n = 10**9 would take gigabytes
    good = json.dumps(GOOD_LINE)
    lines = [good, bad, good]
    src = tmp_path / "batch.jsonl"
    src.write_text("\n".join(lines))
    out = tmp_path / "batch.out"
    start = time.perf_counter()
    assert run(["eval", "--batch", str(src), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert [r["index"] for r in rows] == [0, 1, 2]
    assert rows[0]["value"] == "2" and rows[2]["value"] == "2"
    assert message in rows[1]["error"]


def test_boundary_object_is_not_read_as_a_word():
    # the identity on [Up] with both boundaries written as objects: read
    # by its keys, {"Up": 7} would be the word [Up]
    th = Theory(Family.ARROW_AODD, 2, 4, 1)
    doc = json.loads(Morphism.identity(th, [Label.UP]).serialize())
    for obj in (doc, doc["terms"][0]):
        obj["bottom"] = obj["top"] = {"Up": 7}
    with pytest.raises(ValueError, match="bottom must be a list"):
        Morphism.parse(json.dumps(doc))


WRONG_TYPES = [None, True, 1.5, "x", {}, {"k": 1}, [None]]


def _field_paths(node, path=()):
    """The path of every field below `node`: object keys, list indices."""
    if isinstance(node, dict):
        fields = node.items()
    elif isinstance(node, list):
        fields = enumerate(node)
    else:
        return
    for key, value in fields:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


def _kind(path):
    return tuple("*" if isinstance(key, int) else key for key in path)


def test_wrongly_typed_fields_give_an_error_or_the_same_value():
    # the first field of each kind (its path with list indices left out)
    # in the first recorded batch line that has one, set to each wrongly
    # typed value, gives an error row or the unmutated value, never
    # another value
    from affa.cli import _eval_one
    docs = [json.loads(ln) for name in ("batch.jsonl", "batch-loops.jsonl")
            for ln in (DATA / name).read_text().splitlines()]
    first = {}
    for i, doc in enumerate(docs):
        for path in _field_paths(doc):
            first.setdefault(_kind(path), (i, path))
    assert len(first) == 66
    for i, path in first.values():
        want = _eval_one(json.dumps(docs[i]))["value"]
        for value in WRONG_TYPES:
            doc = json.loads(json.dumps(docs[i]))
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                got = _eval_one(json.dumps(doc))["value"]
            except ValueError:
                continue
            assert got == want, (i, path, value)


def test_huge_scalar_order_is_refused_before_it_is_built(tmp_path):
    # a scalar of order k is stored as k coefficients, so an order far
    # beyond the theory's root field must be refused from the number alone
    line = _bad_line(_term(coeff={"order": 10**8, "coeffs": ["1"]}))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="does not divide"):
        Morphism.parse(line)
    assert time.perf_counter() - start < 1.0
    src = tmp_path / "batch.jsonl"
    src.write_text(line)
    out = tmp_path / "batch.out"
    assert run(["eval", "--batch", str(src), "--out", str(out)]) == 1
    (row,) = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert "does not divide" in row["error"]


def test_coefficient_exponent_is_refused_before_it_is_built():
    # Fraction("1e5000000") builds the power of ten, which takes seconds
    line = _bad_line(_term(coeff={"order": 1, "coeffs": ["1e5000000"]}))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="p or p/q"):
        Morphism.parse(line)
    assert time.perf_counter() - start < 1.0


def test_dangling_anchor_endpoint_is_named(tmp_path):
    strand = {"a": {"bnd": "bottom", "i": 0}, "b": {"anchor": 0, "side": 0},
              "label": "Plain", "dir": 0}
    src = tmp_path / "batch.jsonl"
    src.write_text(_bad_line(_term(strands=[strand])))
    out = tmp_path / "batch.out"
    assert run(["eval", "--batch", str(src), "--out", str(out)]) == 1
    (row,) = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert "anchor 0 side 0" in row["error"]


def test_invariant_breach_on_one_batch_line_keeps_the_others(
        tmp_path, monkeypatch):
    import affa.evaluate
    from affa.testgen import random_closed
    from affa.theory import InvariantBreach
    real = affa.evaluate._eval_term

    def breach_on_boxes(d):
        if d.boxes:
            raise InvariantBreach("planted")
        return real(d)

    monkeypatch.setattr(affa.evaluate, "_eval_term", breach_on_boxes)
    good = json.dumps(GOOD_LINE)
    boxed = Morphism.from_diagram(random_closed(SH2, 6, 0, 0))
    src = tmp_path / "batch.jsonl"
    src.write_text("\n".join([good, boxed.serialize().decode()
                              .replace("\n", ""), good]))
    out = tmp_path / "batch.out"
    assert run(["eval", "--batch", str(src), "--out", str(out)]) == 3
    rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert [r["index"] for r in rows] == [0, 1, 2]
    assert rows[0]["value"] == "2" and rows[2]["value"] == "2"
    assert rows[1]["error"] == "internal invariant breach: planted"


def test_label_of_zero_morphism_is_an_input_error(tmp_path):
    src = tmp_path / "zero.json"
    src.write_bytes(Morphism.zero(AR1, [], []).serialize())
    assert run(["label", "--in", str(src)]) == 1


def test_label_emits_regions(tmp_path):
    from affa.testgen import random_closed
    m = Morphism.from_diagram(random_closed(SH2, 6, 0, 0))
    src = tmp_path / "closed.json"
    src.write_bytes(m.serialize())
    out = tmp_path / "label.json"
    assert run(["label", "--in", str(src), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"faces", "labels", "ell", "value"}
    assert doc["faces"] == len(doc["labels"])


def test_relcheck_passes(tmp_path):
    out = tmp_path / "rel.json"
    assert run(["relcheck", "--family", "ShadedAodd", "--n", "2",
                "--root-exp", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] and all(r["ok"] for r in doc["relations"])


def test_homdim(tmp_path):
    out = tmp_path / "hd.json"
    assert run(["homdim", "--family", "UnshadedArrowAodd", "--n", "2",
                "--w1", "Down,Down", "--w2", "Down,Down",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["hom_dim"] == 1


def test_huge_n_on_the_command_line_is_refused_before_it_is_built():
    # a theory of size n builds a box of about 2n legs
    start = time.perf_counter()
    assert run(["homdim", "--family", "ShadedAodd",
                "--n", "1000000000"]) == 1
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ["classify", "--family", "shaded-a-odd", "--n", "1000000000"],
    ["functor-check", "--which", "rep", "--m", "1000000000"],
], ids=["classify", "functor-check"])
def test_huge_classify_n_and_functor_m_are_refused_before_they_are_built(
        argv):
    # both build a signature of about 2n legs from the number
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0


def test_graph_json_and_dot(tmp_path):
    out = tmp_path / "g.json"
    assert run(["graph", "--family", "UnshadedArrowAeven", "--n", "1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 3
    assert doc["dot"].startswith("graph principal {")
    dot = tmp_path / "g.dot"
    assert run(["graph", "--family", "UnshadedArrowAeven", "--n", "1",
                "--format", "dot", "--out", str(dot)]) == 0
    assert dot.read_text() == doc["dot"]


def test_graph_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        assert run(["graph", "--family", "ShadedAodd", "--n", "3",
                    "--root-exp", "1", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bratteli(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bratteli", "--family", "UnshadedArrowAodd", "--n", "1",
                "--rows", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dims"][0] == 1 and len(doc["dims"]) == 4


@pytest.mark.parametrize("argv", [
    ["bratteli", "--family", "UnshadedArrowAodd", "--n", "1", "--rows", "-1"],
    ["gram", "--family", "UnshadedArrowAodd", "--n", "1", "--word", "Down,Up",
     "--max-boxes", "-1"],
    ["graph", "--family", "UnshadedArrowAInf", "--radius", "-3"],
    ["selftest", "--draws", "-5"],
], ids=["rows", "max-boxes", "radius", "draws"])
def test_negative_counts_are_refused(argv, tmp_path, capsys):
    # an input error (exit 1) that names the flag, and no output
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert f"argument {argv[-2]}: {argv[-1]} is negative" \
        in capsys.readouterr().err
    assert not out.exists()


def test_radius_is_refused_for_a_finite_family(tmp_path, capsys):
    # a finite family's graph is the whole cycle, so a cutoff there is an
    # input error, not a flag that is silently ignored
    out = tmp_path / "out"
    assert run(["graph", "--family", "ShadedAodd", "--n", "3", "--radius",
                "1", "--out", str(out)]) == 1
    assert "infinite families only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["relcheck", "--family", "ShadedAInf", "--n", "3", "--root-exp", "2"],
     "--n applies to finite families only"),
    (["relcheck", "--family", "ShadedAInf", "--root-exp", "2"],
     "--root-exp applies to finite families only"),
    (["homdim", "--family", "UnshadedArrowAInf", "--n", "7", "--w1", "Up",
      "--w2", "Up"], "--n applies to finite families only"),
    (["graph", "--family", "ShadedAInf", "--n", "4", "--radius", "1"],
     "--n applies to finite families only"),
    (["classify", "--family", "shaded-a-inf", "--n", "5"],
     "infinite families take no size parameter n"),
    (["relcheck", "--theory", "theory.json", "--family", "ShadedAodd"],
     "--theory cannot be combined with --family"),
    (["homdim", "--theory", "theory.json", "--n", "3"],
     "--theory cannot be combined with --n"),
    (["gram", "--theory", "theory.json", "--root-exp", "1"],
     "--theory cannot be combined with --root-exp"),
    (["eval", "--in", "theory.json", "--batch", "theory.json"],
     "--in cannot be combined with --batch"),
    (["eval", "--in", "theory.json", "--batch", ""],
     "--in cannot be combined with --batch"),
], ids=["relcheck-n", "relcheck-root-exp", "homdim-n", "graph-n",
        "classify-n", "theory-family", "theory-n", "theory-root-exp",
        "eval-in-batch", "eval-in-empty-batch"])
def test_a_flag_that_would_be_ignored_is_refused(argv, message, tmp_path,
                                                 monkeypatch, capsys):
    # an infinite family has no size or root to choose, a theory file
    # names the whole theory and a batch file replaces --in: an input error
    # (exit 1) naming the flag, and no output, not a flag that is silently
    # ignored
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theory.json").write_text(
        json.dumps(Theory(Family.SHADED_AODD, 1).to_json()))
    assert run(argv + ["--out", "out"]) == 1
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bratteli_rows_are_bounded(tmp_path, capsys):
    # the output grows about as rows**3, so rows past the bound named in
    # --help are an input error
    from affa.cli import MAX_BRATTELI_ROWS
    out = tmp_path / "out"
    argv = ["bratteli", "--family", "UnshadedArrowAInf", "--out", str(out),
            "--rows"]
    assert run(argv + [str(MAX_BRATTELI_ROWS + 1)]) == 1
    assert capsys.readouterr().err == \
        f"error: --rows {MAX_BRATTELI_ROWS + 1} exceeds {MAX_BRATTELI_ROWS}\n"
    assert not out.exists()
    assert run(argv + [str(MAX_BRATTELI_ROWS)]) == 0
    assert len(json.loads(out.read_text())["dims"]) == MAX_BRATTELI_ROWS + 1
    with pytest.raises(SystemExit):
        run(["bratteli", "--help"])
    assert f"(at most {MAX_BRATTELI_ROWS})" in capsys.readouterr().out


def test_functor_check_m_is_bounded(tmp_path, capsys):
    # the report lists all 2**(2m+1) - 1 words of a rep source, so sizes
    # past the bound named in --help are an input error
    from affa.cli import MAX_FUNCTOR_M
    out = tmp_path / "out"
    argv = ["functor-check", "--which", "rep", "--out", str(out), "--m"]
    assert run(argv + [str(MAX_FUNCTOR_M + 1)]) == 1
    assert capsys.readouterr().err == \
        f"error: --m {MAX_FUNCTOR_M + 1} exceeds {MAX_FUNCTOR_M}\n"
    assert not out.exists()
    with pytest.raises(SystemExit):
        run(["functor-check", "--help"])
    assert f"(at most {MAX_FUNCTOR_M})" in capsys.readouterr().out


def test_gram(tmp_path):
    out = tmp_path / "gram.json"
    assert run(["gram", "--family", "UnshadedArrowAodd", "--n", "1",
                "--word", "Down,Up", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["psd"] and doc["rank"] == 1


def test_functor_check(tmp_path):
    out = tmp_path / "fc.json"
    assert run(["functor-check", "--which", "vec", "--m", "3",
                "--zeta-exp", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]


def test_classify_counts(tmp_path):
    out = tmp_path / "cls.json"
    assert run(["classify", "--family", "unshaded-a-odd", "--n", "2",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 6
    assert len({row["class"] for row in doc["table"]}) == 6


def test_classify_bad_family_is_input_error():
    assert run(["classify", "--family", "nope", "--n", "2"]) == 1


def test_selftest_smoke(tmp_path):
    out = tmp_path / "st.json"
    assert run(["selftest", "--draws", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] and doc["relations_checked"] > 0


# -- golden output -----------------------------------------------------------

DATA = Path(__file__).parent / "data" / "cli"

class Golden(NamedTuple):
    name: str  # the expected-output file, <name>.out
    argv: list[str]
    code: int = 0  # the exit code, compared exactly


# Input files are read from DATA.  The expected outputs were recorded once
# and pin every subcommand's output byte for byte: values, steps, matrix
# row order, region labels, and the error rows of a batch.
GOLDEN = [Golden(*g) for g in [
    ("eval-phase-pair", ["eval", "--in", "phase_pair.json"]),
    ("eval-batch", ["eval", "--batch", "batch.jsonl"]),
    ("eval-batch-loops", ["eval", "--batch", "batch-loops.jsonl"]),
    ("label-shaded", ["label", "--in", "shaded_draw.json"]),
    ("label-arrow", ["label", "--in", "arrow_draw.json"]),
    ("relcheck-shaded", ["relcheck", "--family", "ShadedAodd", "--n", "2",
                         "--root-exp", "1"]),
    ("relcheck-arrow-even", ["relcheck", "--family", "UnshadedArrowAeven",
                             "--n", "1", "--root-exp", "2"]),
    ("homdim", ["homdim", "--family", "UnshadedColorAodd", "--n", "2",
                "--w1", "Red,Blue", "--w2", "Blue,Red"]),
    ("graph-shaded", ["graph", "--family", "ShadedAodd", "--n", "3",
                      "--root-exp", "1"]),
    ("graph-arrow-inf-dot", ["graph", "--family", "UnshadedArrowAInf",
                             "--radius", "2", "--format", "dot"]),
    ("bratteli-color", ["bratteli", "--family", "UnshadedColorAodd",
                        "--n", "2", "--rows", "3"]),
    ("bratteli-arrow-dot", ["bratteli", "--family", "UnshadedArrowAeven",
                            "--n", "1", "--rows", "3", "--format", "dot"]),
    ("gram-shaded", ["gram", "--family", "ShadedAodd", "--n", "1",
                     "--word", "Red,Red,Red,Red,Blue,Blue"]),
    ("gram-shaded-root", ["gram", "--family", "ShadedAodd", "--n", "2",
                          "--root-exp", "1",
                          "--word", "Red,Blue,Red,Blue,Red,Red"]),
    ("gram-color", ["gram", "--family", "UnshadedColorAodd", "--n", "1",
                    "--word", "Red,Red,Red,Red,Red,Blue"]),
    ("gram-color-root", ["gram", "--family", "UnshadedColorAodd", "--n", "2",
                         "--root-exp", "1",
                         "--word", "Blue,Red,Blue,Red,Blue,Blue"]),
    ("gram-arrow-odd", ["gram", "--family", "UnshadedArrowAodd", "--n", "1",
                        "--root-exp", "1",
                        "--word", "Up,Up,Up,Up,Down,Down"]),
    ("gram-arrow-even", ["gram", "--family", "UnshadedArrowAeven", "--n", "1",
                         "--root-exp", "1",
                         "--word", "Up,Up,Up,Down,Down,Down"]),
    ("functor-check-vec", ["functor-check", "--which", "vec", "--m", "3",
                           "--zeta-exp", "1"]),
    ("functor-check-rep", ["functor-check", "--which", "rep", "--m", "2"]),
    ("classify", ["classify", "--family", "unshaded-a-odd", "--n", "2"]),
    ("selftest", ["selftest", "--draws", "1"]),
    ("eval-batch-errors", ["eval", "--batch", "batch-errors.jsonl"], 1),
]]


@pytest.mark.parametrize("name,argv,code", GOLDEN,
                         ids=[g.name for g in GOLDEN])
def test_output_is_byte_identical_to_recorded(name, argv, code, tmp_path,
                                              monkeypatch):
    monkeypatch.chdir(DATA)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (DATA / f"{name}.out").read_bytes()


def _theory_file_argv(argv, path: Path) -> list[str]:
    """argv with its --family, --n and --root-exp replaced by
    --theory path, the file holding the theory those flags name."""
    flags = {"--root-exp": "0"}
    rest = []
    args = iter(argv)
    for arg in args:
        if arg in ("--family", "--n", "--root-exp"):
            flags[arg] = next(args)
        else:
            rest.append(arg)
    th = Theory.with_root(Family(flags["--family"]), int(flags["--n"]),
                          int(flags["--root-exp"]))
    path.write_text(json.dumps(th.to_json()))
    return rest + ["--theory", str(path)]


@pytest.mark.parametrize("name", ["relcheck-shaded", "homdim",
                                  "bratteli-arrow-dot", "gram-shaded-root"])
def test_theory_file_gives_the_same_bytes_as_the_flags(name, tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(DATA)
    argv = _theory_file_argv({g.name: g.argv for g in GOLDEN}[name],
                             tmp_path / "theory.json")
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.out").read_bytes()


def test_theory_file_with_a_huge_n_is_refused(tmp_path):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps({"family": "ShadedAodd", "n": 10**9,
                                "root": {"order": 1, "exp": 0}}))
    start = time.perf_counter()
    assert run(["homdim", "--theory", str(path)]) == 1
    assert time.perf_counter() - start < 1.0


def test_a_file_nested_too_deeply_is_an_input_error(tmp_path, capsys):
    # the parser's RecursionError, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    for argv in (["eval", "--in", str(path)],
                 ["homdim", "--theory", str(path)]):
        assert run(argv) == 1
        assert capsys.readouterr().err == \
            "error: bad JSON: nested too deeply\n"


@pytest.mark.parametrize("module", ["affa", "affa.cli"])
def test_python_m_runs_the_command_line(module):
    # `python -m affa` and `python -m affa.cli` are the `affa` script: an
    # n over the bound is an input error, exit 1, not a silent exit 0
    import affa
    env = dict(os.environ,
               PYTHONPATH=str(Path(affa.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", module, "classify", "--family",
         "shaded-a-odd", "--n", "1000000000"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out
    assert out.stderr == "error: theory n 1000000000 exceeds 1000\n"


def test_golden_script_runs_every_golden():
    # tests/cli_goldens.py, which CI runs through the installed `affa` and
    # under `python -O -m affa`, diffs every GOLDEN entry and fails on any
    import affa
    env = dict(os.environ,
               PYTHONPATH=str(Path(affa.__file__).resolve().parents[1]))
    script = Path(__file__).parent / "cli_goldens.py"
    ok = subprocess.run([sys.executable, str(script), sys.executable, "-m",
                         "affa"], env=env, capture_output=True, text=True,
                        timeout=600)
    assert ok.returncode == 0, ok
    assert ok.stdout == f"{len(GOLDEN)} of {len(GOLDEN)} goldens match\n"
    bad = subprocess.run([sys.executable, str(script), "echo"], env=env,
                         capture_output=True, text=True, timeout=600)
    assert bad.returncode == 1
    assert bad.stdout.endswith(f"0 of {len(GOLDEN)} goldens match\n")
