"""Command-line front end.

Subcommands: eval, label, relcheck, homdim, graph, bratteli, gram,
functor-check, classify, selftest.  Morphisms are read from JSON files;
results are written as JSON (DOT for the graph subcommands with
--format dot) to stdout or --out.  Exit codes: 0 success, 1 input or
validation error, 2 check failure, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys

from affa.diagram import Morphism
from affa.theory import (
    SPECS, Family, Label, Theory, checked_n, rooted_theories)


# The output of `bratteli` grows about as rows**3: 2.1 MB at 100 rows
# for UnshadedArrowAInf.
MAX_BRATTELI_ROWS = 100

# `functor-check` lists all 2**(2m+1) - 1 words of a `rep` source: at
# m = 8 its report is 34 MB and takes 1.8 s on a 2-vCPU machine.
MAX_FUNCTOR_M = 8


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 1)."""

    def error(self, message):
        raise ValueError(message)


def _count(text: str) -> int:
    """A count flag's value (rows, radius, boxes, draws): an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return n


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc) -> None:
    _emit(args, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _theory_from_args(args) -> Theory:
    """The theory a file or the family flags name; a flag that the other
    flags leave without a meaning is an input error."""
    flags = {"--family": args.family, "--n": args.n,
             "--root-exp": args.root_exp}
    if args.theory:
        if given := [flag for flag, v in flags.items() if v is not None]:
            raise ValueError(f"--theory cannot be combined with {given[0]}")
        with open(args.theory) as fh:
            return Theory.from_json(json.load(fh))
    if not args.family:
        raise ValueError("give --theory FILE or --family (with --n)")
    fam = Family(args.family)
    if SPECS[fam].category == "infinite":
        for flag in ("--n", "--root-exp"):
            if flags[flag] is not None:
                raise ValueError(f"{flag} applies to finite families only")
        return Theory(fam)
    if args.n is None:
        raise ValueError(f"{fam.value} needs --n")
    return Theory.with_root(fam, checked_n(args.n), args.root_exp or 0)


def _read_morphism(path: str) -> Morphism:
    with open(path) as fh:
        return Morphism.parse(fh.read())


def _word_from_arg(text: str) -> list[Label]:
    if not text:
        return []
    return [Label(part.strip()) for part in text.split(",")]


# -- subcommand handlers -----------------------------------------------------

def _cmd_eval(args) -> int:
    from affa.evaluate import eval_with_steps
    if args.batch:
        return _eval_batch(args)
    if not getattr(args, "infile", None):
        raise ValueError("eval needs --in FILE (or --batch FILE)")
    value, steps = eval_with_steps(_read_morphism(args.infile))
    _emit_json(args, {"value": repr(value), "steps": steps})
    return 0


def _eval_one(line: str):
    from affa.evaluate import eval_with_steps
    value, steps = eval_with_steps(Morphism.parse(line))
    return {"value": repr(value), "steps": steps}


def _eval_batch(args) -> int:
    with (sys.stdin if args.batch == "-" else open(args.batch)) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    failed = breached = False
    rows = []
    for i, line in enumerate(lines):
        row = {"index": i}
        try:
            row.update(_eval_one(line))
        except AssertionError as exc:
            row["error"] = f"internal invariant breach: {exc}"
            breached = True
        except (ValueError, KeyError) as exc:
            row["error"] = str(exc)
            failed = True
        rows.append(row)
    out = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    _emit(args, out)
    return 3 if breached else 1 if failed else 0


def _cmd_label(args) -> int:
    from affa.labeling import invariant, term_exponent
    m = _read_morphism(args.infile)
    value = invariant(m)
    expanded = sorted(m.expand_plain().terms, key=repr)
    if not expanded:
        raise ValueError("label needs a nonzero morphism")
    d = expanded[0]
    if d.boxes:
        lab, ell = term_exponent(d)
        labels = {str(f): g.word() for f, g in sorted(lab.labels.items())}
        faces = len(lab.faces)
    else:
        faces = max(len(d.faces()), 1)
        labels = {str(f): "" for f in range(faces)}
        ell = 0
    _emit_json(args, {"faces": faces, "labels": labels, "ell": ell,
                      "value": repr(value)})
    return 0


def _cmd_relcheck(args) -> int:
    from affa.evaluate import defining_relations, morphism_eq
    th = _theory_from_args(args)
    table = [{"name": name, "ok": morphism_eq(lhs, rhs)}
             for name, lhs, rhs in defining_relations(th)]
    _emit_json(args, {"theory": th.to_json(), "relations": table,
                      "ok": all(r["ok"] for r in table)})
    return 0 if all(r["ok"] for r in table) else 2


def _cmd_homdim(args) -> int:
    from affa.fusion import Word, hom_dim
    th = _theory_from_args(args)
    w1 = Word(th, tuple(_word_from_arg(args.w1)))
    w2 = Word(th, tuple(_word_from_arg(args.w2)))
    _emit_json(args, {"w1": args.w1, "w2": args.w2,
                      "hom_dim": hom_dim(w1, w2)})
    return 0


def _graph_dot(g) -> str:
    lines = ["graph principal {"]
    for i, (name, tr) in enumerate(zip(g.vertices, g.traces)):
        lines.append(f'  v{i} [label="{name} (tr {tr})"];')
    for i, j, mult in g.edges:
        suffix = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  v{i} -- v{j}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_graph(args) -> int:
    from affa.fusion import principal_graph
    th = _theory_from_args(args)
    g = principal_graph(th, radius=args.radius)
    if args.format == "dot":
        _emit(args, _graph_dot(g))
        return 0
    _emit_json(args, {
        "vertices": [{"word": w, "trace": str(t)}
                     for w, t in zip(g.vertices, g.traces)],
        "edges": [list(e) for e in g.edges],
        "dot": _graph_dot(g)})
    return 0


def _bratteli_dot(b) -> str:
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for r, row in enumerate(b["rows"]):
        for i, cell in enumerate(row):
            lines.append(
                f'  r{r}v{i} [label="{cell["word"]} x{cell["mult"]}"];')
    for r, edges in enumerate(b["edges"]):
        for i, j, mult in edges:
            suffix = f' [label="{mult}"]' if mult > 1 else ""
            lines.append(f"  r{r}v{i} -> r{r + 1}v{j}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_bratteli(args) -> int:
    from affa.fusion import bratteli
    th = _theory_from_args(args)
    if args.rows > MAX_BRATTELI_ROWS:
        raise ValueError(f"--rows {args.rows} exceeds {MAX_BRATTELI_ROWS}")
    b = bratteli(th, args.rows)
    if args.format == "dot":
        _emit(args, _bratteli_dot(b))
        return 0
    doc = {"rows": b["rows"],
           "edges": [[list(e) for e in row] for row in b["edges"]],
           "dims": b["dims"], "dot": _bratteli_dot(b)}
    _emit_json(args, doc)
    return 0


def _cmd_gram(args) -> int:
    from affa.fusion import Word, gram_matrix
    th = _theory_from_args(args)
    letters = tuple(_word_from_arg(args.word))
    boxes = args.max_boxes if args.max_boxes is not None else len(letters) // 2
    res = gram_matrix(Word(th, letters), boxes)
    _emit_json(args, {"word": args.word, "size": res.size, "rank": res.rank,
                      "psd": res.psd,
                      "matrix": [[repr(c) for c in row]
                                 for row in res.matrix]})
    return 0 if res.psd else 2


def _cmd_functor_check(args) -> int:
    from affa.equiv import check_functor
    if args.m > MAX_FUNCTOR_M:
        raise ValueError(f"--m {args.m} exceeds {MAX_FUNCTOR_M}")
    report = check_functor(args.which, args.m, args.zeta_exp)
    _emit_json(args, report)
    return 0 if report["ok"] else 2


def _cmd_classify(args) -> int:
    from affa.classify import classify_presentations
    rows = classify_presentations(
        args.family, None if args.n is None else checked_n(args.n))
    table = [{"theory": th.to_json(),
              "eigenvalue": None if eig is None else repr(eig),
              "class": cls} for th, eig, cls in rows]
    _emit_json(args, {"table": table,
                      "count": len({cls for _, _, cls in rows})})
    return 0


def _selftest_theories():
    yield from rooted_theories(3)
    for fam, spec in SPECS.items():
        if spec.category == "infinite":
            yield Theory(fam)


def _cmd_selftest(args) -> int:
    from affa.evaluate import defining_relations, eval_closed, morphism_eq
    from affa.labeling import invariant
    from affa.testgen import random_closed
    failures = []
    checked_rel = checked_oracle = 0
    for th in _selftest_theories():
        for name, lhs, rhs in defining_relations(th):
            checked_rel += 1
            if not morphism_eq(lhs, rhs):
                failures.append({"theory": th.to_json(), "check": name})
        if th.n is None:
            continue
        for i in range(args.draws):
            d = random_closed(th, max_boxes=6, max_loops=2,
                              seed=args.seed + i)
            m = Morphism.from_diagram(d)
            checked_oracle += 1
            if eval_closed(m) != invariant(m):
                failures.append({"theory": th.to_json(),
                                 "check": f"oracle seed {args.seed + i}"})
    _emit_json(args, {"relations_checked": checked_rel,
                      "oracle_checked": checked_oracle,
                      "failures": failures, "ok": not failures})
    return 0 if not failures else 2


# -- argument wiring ---------------------------------------------------------

def _add_theory_flags(p: _Parser) -> None:
    p.add_argument("--theory", help="path to a theory JSON file")
    p.add_argument("--family", help="theory family name")
    p.add_argument("--n", type=int,
                   help="size parameter (finite families only)")
    p.add_argument("--root-exp", type=int,
                   help="root exponent out of the family's full order "
                        "(finite families only; default 0)")


def _build_parser() -> _Parser:
    top = _Parser(prog="affa", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a closed morphism")
    p.add_argument("--in", dest="infile")
    p.add_argument("--batch", help="JSON-lines morphism file ('-' = stdin)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("label", help="region labeling of a closed morphism")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_label)

    p = sub.add_parser("relcheck", help="run a theory's relation suite")
    _add_theory_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_relcheck)

    p = sub.add_parser("homdim", help="hom-space dimension of two words")
    _add_theory_flags(p)
    p.add_argument("--w1", default="", help="comma-separated labels")
    p.add_argument("--w2", default="", help="comma-separated labels")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_homdim)

    p = sub.add_parser("graph", help="principal graph")
    _add_theory_flags(p)
    p.add_argument("--radius", type=_count,
                   help="cutoff (infinite families only)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("bratteli", help="Bratteli diagram rows")
    _add_theory_flags(p)
    p.add_argument("--rows", type=_count, required=True,
                   help=f"last row (at most {MAX_BRATTELI_ROWS})")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bratteli)

    p = sub.add_parser("gram", help="Gram matrix of a word's spanning set")
    _add_theory_flags(p)
    p.add_argument("--word", default="", help="comma-separated labels")
    p.add_argument("--max-boxes", type=_count)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gram)

    p = sub.add_parser("functor-check",
                       help="verify a source-category functor")
    p.add_argument("--which", choices=("vec", "rep"), required=True)
    p.add_argument("--m", type=int, required=True,
                   help=f"source size (at most {MAX_FUNCTOR_M})")
    p.add_argument("--zeta-exp", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_functor_check)

    p = sub.add_parser("classify", help="classify a family's presentations")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("selftest", help="relation and oracle suites, n <= 3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=_count, default=40,
                   help="random closed diagrams per finite theory")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_selftest)
    return top


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except AssertionError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
