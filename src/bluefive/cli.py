"""Command line front end.

Commands:
  verify lemma <id> | verify all     run verification scripts
  oracle <instance.json>             cross-check both searches against brute force
  export-cnf <id> --out DIR          write DIMACS CNF + varmap per stage
  render <target> --svg PATH         draw a figure or pattern patch
  coloring validate <A|B>            validate a periodic pattern

Exit codes: 0 full success, 1 verification failure, 2 usage or I/O error.
Reports can additionally be written as JSON with --json PATH.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

from .configuration import emit_clauses, instance_from_json
from .figures import FIGURE_IDS
from .geometry import check_patch_radius
from .lemmata import (Options, RunResult, SCRIPT_ORDER, build_stages, check_certificate_dir,
                      verify_all, write_certificates)
from .render import render
from .solver import (CertificateError, brute_force, export_dimacs, replay_unsat_trace,
                     solve)
from .tilings import PATTERNS, distance5_invariance, validate_pattern

RENDER_TARGETS = tuple(FIGURE_IDS) + ("patternA", "patternB")


def _dump_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    pathlib.Path(path).write_text(text)


def _radius(text: str) -> int:
    """A --radius value; its hex patch is bounded before any node is built."""
    try:
        return check_patch_radius(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _options(args) -> Options:
    return Options(
        patch_radius=args.radius,
        emit_certificates=args.certs is not None,
        stretch=getattr(args, "stretch", False),
    )


def _print_run(run: RunResult, out=None) -> None:
    out = out if out is not None else sys.stdout
    for sid, report in run.reports.items():
        print(f"[{report.status.upper():7s}] {sid} "
              f"({len(report.obligations)} obligations, "
              f"{report.elapsed_ms:.0f} ms)", file=out)
        for res in report.obligations:
            mark = "ok " if res.status == "pass" else "FAIL"
            print(f"    {mark} {res.oid}: {res.statement}", file=out)
            if res.status != "pass":
                for failure in res.detail.get("failures", ()):
                    print(f"         {failure}", file=out)
        if report.reason:
            print(f"    reason: {report.reason}", file=out)
        if report.stretch is not None:
            s = report.stretch
            print(f"    stretch: {s['central_restrictions']} central "
                  f"restriction(s), exhausted={s['exhausted']}, "
                  f"match={s['all_match_canonical']}", file=out)
    print(f"obligations: {run.obligation_count}, "
          f"total {run.elapsed_ms:.0f} ms", file=out)


def cmd_verify(args) -> int:
    options = _options(args)
    if args.certs:
        check_certificate_dir(args.certs)  # refuse a bad DIR before the run, not after
    if args.what == "all":
        if args.lemma_id is not None:
            print("'verify all' takes no lemma id", file=sys.stderr)
            return 2
        run = verify_all(options)
    elif args.what == "lemma":
        if args.lemma_id not in SCRIPT_ORDER:
            print(f"unknown lemma id {args.lemma_id!r}; known: "
                  f"{', '.join(SCRIPT_ORDER)}", file=sys.stderr)
            return 2
        run = verify_all(options, only=[args.lemma_id])
    else:
        print("usage: bluefive verify all | bluefive verify lemma <id>",
              file=sys.stderr)
        return 2
    _print_run(run)
    if args.json:
        _dump_json(args.json, run.to_json())
    if args.certs:
        write_certificates(run, args.certs)
    return 0 if run.ok else 1


def cmd_oracle(args) -> int:
    try:
        data = json.loads(pathlib.Path(args.instance).read_text())
        cfg, fixed, rules = instance_from_json(data)
        problem = emit_clauses(cfg, rules, fixed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load instance: {exc}", file=sys.stderr)
        return 2
    # the file grants its derived rules; nothing here proves them
    hypotheses = rules.hypotheses()
    learned = solve(problem)
    traced = solve(problem, record_trace=True)
    slow = brute_force(problem)
    replays = None
    if traced.kind == "unsat":
        try:
            replays = replay_unsat_trace(problem.clauses, traced.trace)
        except CertificateError:
            replays = False
    agree = (learned.kind == traced.kind == slow.kind and learned.model == traced.model
             and replays is not False)
    replay_note = "" if replays is None else f" (trace {'replays' if replays else 'FAILS'})"
    print(f"solve: {learned.kind}   traced solve: {traced.kind}{replay_note}   "
          f"brute force: {slow.kind}   {'AGREE' if agree else 'MISMATCH'}")
    print(f"unproved hypotheses: {', '.join(hypotheses) or 'none'}")
    if args.json:
        _dump_json(args.json, {"solve": learned.kind, "traced_solve": traced.kind,
                               "trace_replays": replays, "brute_force": slow.kind,
                               "agree": agree, "unproved_hypotheses": hypotheses,
                               "variables": problem.var_count,
                               "clauses": len(problem.clauses)})
    return 0 if agree else 1


def cmd_export_cnf(args) -> int:
    if args.lemma not in SCRIPT_ORDER:
        print(f"unknown lemma id {args.lemma!r}", file=sys.stderr)
        return 2
    stages, _ = build_stages(args.lemma, Options(patch_radius=args.radius))
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for sid, stage in stages.items():
        cnf, varmap = export_dimacs(stage.base_problem())
        (outdir / f"{args.lemma}_{sid}.cnf").write_text(cnf)
        (outdir / f"{args.lemma}_{sid}.varmap").write_text(varmap)
        print(f"wrote {outdir / (args.lemma + '_' + sid)}.cnf (+varmap)")
    return 0


def cmd_render(args) -> int:
    if args.target not in RENDER_TARGETS:
        print(f"unknown render target {args.target!r}; known: "
              f"{', '.join(RENDER_TARGETS)}", file=sys.stderr)
        return 2
    svg = render(args.target, radius=args.radius)
    pathlib.Path(args.svg).write_text(svg)
    print(f"wrote {args.svg}")
    return 0


def cmd_coloring(args) -> int:
    coloring = PATTERNS[args.pattern]
    report = validate_pattern(coloring, args.radius)
    invariant = distance5_invariance(coloring)
    ok = report.ok and invariant
    print(f"pattern {args.pattern}: red unit pairs = {report.red_unit_pairs}, "
          f"blue five-chains = {report.blue_chains}, "
          f"distance-5 invariant = {invariant} -> "
          f"{'VALID' if ok else 'INVALID'}")
    if args.json:
        payload = report.to_json()
        payload["distance5_invariant"] = invariant
        _dump_json(args.json, payload)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bluefive",
        description="exact checker for the red/blue unit-distance colouring argument")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification scripts")
    p_verify.add_argument("what", help="'all' or 'lemma'")
    p_verify.add_argument("lemma_id", nargs="?",
                          help=f"lemma id: {', '.join(SCRIPT_ORDER)}")
    p_verify.add_argument("--radius", type=_radius, default=7,
                          help="hex patch radius for the colouring scripts")
    p_verify.add_argument("--json", help="write the full report as JSON")
    p_verify.add_argument("--certs", metavar="DIR",
                          help="emit replayable certificates into DIR")
    p_verify.add_argument("--stretch", action="store_true",
                          help="also run the uniqueness enumeration mode")
    p_verify.set_defaults(fn=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="cross-check an instance file")
    p_oracle.add_argument("instance", help="instance JSON path")
    p_oracle.add_argument("--json", help="write the comparison as JSON")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_cnf = sub.add_parser("export-cnf", help="export DIMACS CNF per stage")
    p_cnf.add_argument("lemma")
    p_cnf.add_argument("--out", required=True)
    p_cnf.add_argument("--radius", type=_radius, default=7)
    p_cnf.set_defaults(fn=cmd_export_cnf)

    p_render = sub.add_parser("render", help="render a figure or pattern to SVG")
    p_render.add_argument("target", help=", ".join(RENDER_TARGETS))
    p_render.add_argument("--svg", required=True)
    p_render.add_argument("--radius", type=_radius, default=5)
    p_render.set_defaults(fn=cmd_render)

    p_col = sub.add_parser("coloring", help="periodic colouring checks")
    col_sub = p_col.add_subparsers(dest="subcommand", required=True)
    p_val = col_sub.add_parser("validate")
    p_val.add_argument("pattern", choices=("A", "B"))
    p_val.add_argument("--radius", type=_radius, default=12)
    p_val.add_argument("--json")
    p_val.set_defaults(fn=cmd_coloring)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
