"""Command-line front end.

Commands:
  analyze   full invariant report for a polytope file
  examples  run the built-in example registry and assert expected values
  corpus    random polytopes + theorem audit battery
  idp       integer decomposition check with scriptable exit codes
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .corpus import render_corpus_text, run_corpus
from .errors import CastelpolyError, PolytopeFileError, UnknownExample
from .geometry import DEFAULT_BUDGET, build_polytope
from .registry import REGISTRY_KEYS, run_example
from .report import build_report, failed_checks, render_text


def read_polytope_file(path: str) -> tuple[str, list[tuple[int, ...]]]:
    """Read a polytope document: JSON {"name", "vertices"} or plain text with
    one whitespace-separated integer vertex per line."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise PolytopeFileError(f"{path}: {e}") from e
    default_name = p.stem
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise PolytopeFileError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
        if not isinstance(doc, dict):
            raise PolytopeFileError(f"{path}: top-level value must be an object")
        verts = doc.get("vertices")
        if not isinstance(verts, list) or not verts:
            raise PolytopeFileError(f"{path}: field 'vertices' must be a nonempty list")
        out = []
        for i, row in enumerate(verts):
            if not isinstance(row, list) or not all(type(x) is int for x in row):
                raise PolytopeFileError(
                    f"{path}: vertices[{i}] must be a list of integers, got {row!r}"
                )
            out.append(tuple(row))
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise PolytopeFileError(f"{path}: field 'name' must be a string")
        return name or default_name, out
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            out.append(tuple(int(tok) for tok in stripped.split()))
        except ValueError:
            raise PolytopeFileError(
                f"{path}: line {lineno}: expected whitespace-separated integers, got {line!r}"
            ) from None
    if not out:
        raise PolytopeFileError(f"{path}: no vertices found")
    return default_name, out


def _cmd_analyze(args) -> int:
    name, verts = read_polytope_file(args.file)
    p = build_polytope(verts, args.budget)
    report = build_report(p, name=name, kmax=args.kmax)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_text(report))
    return 1 if failed_checks(report) else 0


def _cmd_examples(args) -> int:
    if args.a is not None and args.name not in (None, "family-a"):
        print(f"error: --a applies to family-a only, not {args.name}", file=sys.stderr)
        return 1
    names = [args.name] if args.name else list(REGISTRY_KEYS)
    all_ok = True
    for name in names:
        checks = run_example(name, a=args.a if name == "family-a" else None)
        for _, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  [{name}] {detail}")
            all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_corpus(args) -> int:
    summary = run_corpus(
        dim=args.dim,
        coord_bound=args.coord_bound,
        count=args.count,
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
    )
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(render_corpus_text(summary))
    return 0 if summary["total_failures"] == 0 else 1


def _cmd_idp(args) -> int:
    from .classification import idp_check

    name, verts = read_polytope_file(args.file)
    p = build_polytope(verts, args.budget)
    verdict = idp_check(p, kmax=args.kmax)
    if verdict.witness is None:
        print(f"{name}: {verdict.status} (k <= {verdict.kmax_checked})")
        return 0
    k, point = verdict.witness
    print(
        f"{name}: counterexample at k={k}: {tuple(point)} is in {k}P "
        f"but is not a sum of {k} lattice points of P"
    )
    return 2


def _add_budget(sub):
    sub.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max fibers (lines through the box of kP) and max points collected "
        "per dilate scan (default %(default)s)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="castelpoly",
        description="Exact lattice-polytope invariants and the Castelnuovo property.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for a polytope file")
    pa.add_argument("file")
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.add_argument("--kmax", type=int, default=None, help="override the IDP check depth")
    _add_budget(pa)
    pa.set_defaults(func=_cmd_analyze)

    pe = sub.add_parser("examples", help="run the built-in example registry")
    pe.add_argument("name", nargs="?", help=f"one of: {', '.join(REGISTRY_KEYS)}")
    pe.add_argument("--a", type=int, default=None, help="parameter for family-a")
    pe.set_defaults(func=_cmd_examples)

    pc = sub.add_parser("corpus", help="random polytopes + theorem audits")
    pc.add_argument("--dim", type=int, required=True)
    pc.add_argument("--coord-bound", type=int, default=3)
    pc.add_argument("--count", type=int, required=True)
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    _add_budget(pc)
    pc.set_defaults(func=_cmd_corpus)

    pi = sub.add_parser("idp", help="integer decomposition property check")
    pi.add_argument("file")
    pi.add_argument("--kmax", type=int, default=None)
    _add_budget(pi)
    pi.set_defaults(func=_cmd_idp)

    args = parser.parse_args(argv)
    # checked here, not by argparse: its exit 2 means a counterexample to `idp`
    for option in ("budget", "kmax", "dim", "coord_bound", "count", "jobs", "a"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            flag = "--" + option.replace("_", "-")
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`castelpoly analyze f.json | head -3`);
        # point it at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PolytopeFileError, UnknownExample) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CastelpolyError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
