"""Single executable exposing every subcommand, file parsing, and report
emission.

Exit codes, by the outcome the report spells: 0 for proven, certified:
True, complete: True, no_such_configuration and a fitted candidate; 1
for undecided, evaluation_failure, inconclusive, certified: False,
complete: False and candidate: none; 2 for input errors (malformed
input, arguments out of range, and paths that cannot be read or written:
any OSError), 3 for internal errors (any other exception, reported on
one stderr line).  An input error prints `error: <message>`; only a
computation that failed, an IntervalError or NoProgress, names its class
as `error: <Class>: <message>`.  Each subcommand is one handler,
`handler(args, read) -> (body, decided)`; `dispatch` times it, writes
every report (a header of schema, subcommand, version, input digests,
config echo and wall time, then the body) and exits 0 if decided,
else 1.  The config echo is every parsed setting that is given and is
not a path the run reads or writes, in declaration order, one
`config: NAME VALUE` line each.  Handlers read files only through `read`
(UTF-8, a byte-order mark dropped), which digests their bytes, so every
file read is digested.  `wall_time_s` spans the handler: reading
inputs, computing (`lp-certify --solve`'s solve too) and writing
certificate, class or child files, not argument parsing or the report.
Reports are written even on exit 1 and re-parse under `parse_report`;
apart from `wall_time_s` they are byte-identical across reruns with the
same inputs, flags and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import time
from pathlib import Path
from typing import Sequence

from . import __version__
from . import assembly as asm
from . import expr as ex
from . import geom
from . import graphgen as gg
from . import interval as iv
from . import lp as lpmod
from . import records as rec
from .errors import NoProgress, ParseError, RigorError
from .prover import (ProofStatus, ProofTask, ProverConfig, prove_negative)
from .taylor import Box

__all__ = ["main", "dispatch", "parse_report", "parse_task_file"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read(path: Path, digests: list[tuple[str, str]]) -> str:
    """A file's text, a UTF-8 byte-order mark dropped; digests its bytes."""
    data = path.read_bytes()
    digests.append((path.name, hashlib.sha256(data).hexdigest()))
    return data.decode("utf-8-sig")


def _echo(value) -> str:
    return " ".join(value) if isinstance(value, list) else str(value)   # str is repr on floats


def _report(args, digests: Sequence[tuple[str, str]], body: Sequence[tuple[str, str]],
            wall: float) -> None:
    """Write the report to --report, if given, and to stdout."""
    config = [(key, _echo(val)) for key, val in vars(args).items()
              if key not in ("command", "handler") and val is not None
              and not isinstance(val, Path)]
    lines = ["rigorkit-report v1", f"subcommand: {args.command}",
             f"toolkit_version: {__version__}",
             *(f"input_digest: {name} {digest}" for name, digest in digests),
             *(f"config: {key} {val}" for key, val in config),
             f"wall_time_s: {wall!r}", "---",
             *(f"{key}: {val}" for key, val in body)]
    text = "\n".join(lines) + "\n"
    if args.report:
        args.report.write_text(text)
    sys.stdout.write(text)


def parse_report(text: str) -> tuple[dict, list[tuple[str, str]]]:
    """Re-parse an emitted report into (header dict, body entries)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("rigorkit-report"):
        raise ParseError("missing report schema header")
    header: dict = {"schema": lines[0], "input_digest": [], "config": []}
    body: list[tuple[str, str]] = []
    in_body = False
    for ln in lines[1:]:
        if ln == "---":
            in_body = True
            continue
        if not ln.strip():
            continue
        key, _, val = ln.partition(": ")
        if in_body:
            body.append((key, val))
        elif key in ("input_digest", "config"):
            header[key].append(val)
        else:
            header[key] = val
    return header, body


# ---------------------------------------------------------------------------
# Task files (.ineq)
# ---------------------------------------------------------------------------

def _variable(token: str) -> int:
    if not token.startswith("x") or not token[1:].isdecimal():
        raise ValueError(f"expected a variable xI, got {token!r}")
    return rec.index(token[1:])


_TASK_FIELDS = {"arity": (rec.index,), "expr": rec.TEXT,
                "domain": (_variable, rec.interval), "margin": (rec.decimal,)}


def parse_task_file(text: str) -> ProofTask:
    """Arity declaration, expression text, per-variable domain interval
    literals, optional margin."""
    records = rec.read_records(text, _TASK_FIELDS)
    last = {r.keyword: r for r in records}
    domains = {r.values[0]: r for r in records if r.keyword == "domain"}
    if "arity" not in last or "expr" not in last:
        raise ParseError("task file needs 'arity' and 'expr'")
    arity = last["arity"].values[0]
    for i, r in domains.items():
        if i >= arity:
            raise r.error(f"x{i} out of range for arity {arity}")
        if not r.values[1].is_finite:
            raise r.error(f"x{i}: domain must be finite")
    if len(domains) != arity:
        raise ParseError("task file must give a domain for every variable")
    expr = last["expr"]
    e = rec.convert(expr.line, lambda t: ex.parse(t, arity), expr.values[0])
    margin = last["margin"].values[0] if "margin" in last else 0.0
    if margin < 0.0:
        raise last["margin"].error("margin must be >= 0")
    return ProofTask(e, Box(domains[i].values[1] for i in range(arity)), margin)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cells_rows(label: str, cells) -> list[tuple[str, str]]:
    return [(label, " ".join(iv.format_interval_literal(d) for d in cell))
            for cell in cells]


def _cmd_prove(args, read):
    task = parse_task_file(read(args.task))
    cfg = ProverConfig(max_cells=args.max_cells, max_depth=args.max_depth,
                       min_width=args.min_width)
    report = prove_negative(task, cfg)
    body = [
        ("status", report.status.value),
        ("cells_processed", str(report.cells_processed)),
        ("max_depth_reached", str(report.max_depth_reached)),
        ("best_upper_bound_seen", repr(report.best_upper_bound_seen)),
        ("cells_certified_by_germ", str(report.cells_certified_by_germ)),
        ("cells_certified_by_taylor", str(report.cells_certified_by_taylor)),
        *_cells_rows("undecided_cell", report.undecided_cells),
        *_cells_rows("failed_cell", report.failed_cells),
    ]
    return body, report.status is ProofStatus.PROVEN


def _cmd_lp_certify(args, read):
    problem = lpmod.problem_from_text(read(args.problem))
    if args.solve:
        try:
            _, (y, z), _ = lpmod.solve_approx(problem)
        except NoProgress:
            if not args.dual:
                raise
            y, z = lpmod.dual_from_text(read(args.dual))
    elif args.dual:
        y, z = lpmod.dual_from_text(read(args.dual))
    else:
        raise ParseError("need --dual FILE or --solve")
    cert = lpmod.certify_upper_bound(problem, y, z)
    return [
        ("bound", repr(cert.bound)),
        ("delta_bound", repr(cert.delta_bound)),
        ("residual_max_norm", repr(max((d.mag for d in cert.residual), default=0.0))),
        ("inputs_digest", cert.inputs_digest),
        ("dual_clamped", str(cert.clamped)),
    ], True


def _cmd_fit(args, read):
    problem = asm.problem_from_text(read(args.problem))
    bound = iv.decimal_to_nearest_float(args.bound)
    guess = tuple(iv.decimal_to_nearest_float(tok) for tok in args.guess.split())
    cert = asm.fit_dual(problem, guess, bound, args.seed, args.test_points)
    if cert is None:
        return [("candidate", "none")], False
    if args.certificate:
        args.certificate.write_text(asm.certificate_to_text(problem, cert))
    return [
        ("candidate", "written" if args.certificate else "found"),
        ("M", repr(cert.m_bound)),
        ("t0", repr(cert.t0)),
        ("retained_rows", " ".join(map(str, cert.retained_rows))),
    ], True


def _cmd_verify(args, read):
    problem = asm.problem_from_text(read(args.problem))
    cert = asm.certificate_from_text(problem, read(args.certificate))
    outcome = asm.verify_duality(problem, cert, ProverConfig(max_cells=args.max_cells))
    body = [("certified", str(outcome.certified))]
    if not outcome.certified:
        body.append(("reason", outcome.reason))
        if outcome.domain_id:
            body.append(("domain", outcome.domain_id))
    return body, outcome.certified


def _cmd_branch(args, read):
    problem = asm.problem_from_text(read(args.problem))
    children = asm.branch(problem, args.domain, args.slot)
    body = []
    for suffix, child in zip((".lo.asm", ".hi.asm"), children):
        path = f"{args.out_prefix}{suffix}"
        Path(path).write_text(asm.problem_to_text(child))
        body.append(("child", path))
    return body, True


def _cmd_graphs(args, read):
    cfg = gg.GeneratorConfig(n_max=args.max_vertices, max_states=args.max_states,
                             prune=gg.compile_prune_spec(args.prune))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)   # an unusable --out fails first
    result = gg.generate(cfg)
    body = [("complete", str(result.complete)),
            ("classes", str(len(result.terminals))),
            ("states_explored", str(result.states_explored))]
    for i, term in enumerate(result.terminals):
        body.append(("class", term.canonical))
        if args.out:
            fname = args.out / f"graph_{i:04d}.txt"
            fname.write_text(_terminal_file(term))
            body.append(("class_file", str(fname)))
    return body, result.complete


def _terminal_file(term: gg.TerminalRecord) -> str:
    g = term.graph
    lines = [f"vertices {g.n_vertices}"]
    for u, nbrs in enumerate(g.rot):
        lines.append(f"rot {u} " + " ".join(map(str, nbrs)))
    for f in g.faces():
        lines.append("face " + " ".join(f"{a}-{b}" for a, b in f))
    lines.append(f"canonical {term.canonical}")
    path_parts = [str(term.path[0])]
    for step in term.path[1:]:
        path_parts.append(
            "keep=" + ",".join(map(str, step.keep))
            + ";new=" + ",".join(map(str, step.news)))
    lines.append("derivation " + " ".join(path_parts))
    return "\n".join(lines) + "\n"


def _geom_result(res: geom.CheckResult):
    """The body and verdict of every geom mode."""
    body = [("verdict", res.verdict.value)]
    if res.reason:
        body.append(("reason", res.reason))
    if res.witness is not None:
        body.append(("witness", iv.format_interval_literal(res.witness)))
    if res.sweep_cells is not None:
        body.append(("sweep_cells", str(res.sweep_cells)))
    return body, res.refuted


def _cmd_simplex(args, read):
    *edges, r = map(iv.parse_interval_literal, (*args.edges, args.r))
    return _geom_result(geom.check_simplex_interior_point(edges, r))


def _cmd_segment(args, read):
    return _geom_result(geom.check_segment_through_triangle(
        *(iv.parse_interval_literal(r) for r in (args.r1, args.r2, args.r3))))


def _cmd_linked(args, read):
    return _geom_result(geom.check_linked_line(
        geom.parse_distance_spec(read(args.spec))))


def _cmd_plan_dump(args, read):
    if args.task and args.arity is None:
        task = parse_task_file(read(args.task))
        e, arity = task.expr, len(task.domain)
    elif args.expr is not None and args.arity is not None:
        e, arity = ex.parse(args.expr, args.arity), args.arity
    else:
        raise ParseError("plan-dump takes --task alone, or --expr with --arity")
    return [("instruction", line) for line in ex.Evaluator(e, arity).plan_lines()], True


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads '-' or '-.' then a digit, or '-inf' as a whole word, as a
    value (-1e-3, -0.5..3, -inf..3), not an option: no rigorkit option
    looks like one.  Subparsers take this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf\b)")


def _decimal(text: str) -> float:
    """An option's numeral through the exact decimal reader.  argparse turns
    only TypeError, ValueError and ArgumentTypeError into a usage error."""
    try:
        return iv.decimal_to_nearest_float(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rigorkit",
        description="rigorous numerics toolkit: interval inequality proofs, "
                    "certified LP/duality bounds, plane-graph enumeration, "
                    "geometric nonexistence checks")
    parser.add_argument("--seed", type=rec.integer, default=0)
    parser.add_argument("--report", type=Path, default=None,
                        help="write the structured report here as well as stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    budget = ProverConfig()

    p = sub.add_parser("prove", help="prove f < -margin on a box")
    p.set_defaults(handler=_cmd_prove)
    p.add_argument("--task", type=Path, required=True)
    p.add_argument("--max-cells", type=rec.integer, default=budget.max_cells)
    p.add_argument("--max-depth", type=rec.integer, default=budget.max_depth)
    p.add_argument("--min-width", type=_decimal, default=budget.min_width)

    p = sub.add_parser("lp-certify", help="rigorous LP upper bound from a dual")
    p.set_defaults(handler=_cmd_lp_certify)
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--dual", type=Path)
    p.add_argument("--solve", action="store_true",
                   help="obtain duals from the built-in approximate solver")

    modes = sub.add_parser("assemble", help="fit/verify/branch duality certificates"
                           ).add_subparsers(dest="mode", required=True)
    p = modes.add_parser("fit", help="fit a candidate certificate")
    p.set_defaults(handler=_cmd_fit)
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--bound", required=True,
                   help="decimal M, parsed through the exact reader")
    p.add_argument("--guess", required=True,
                   help="whitespace-separated x* vector (global variable order)")
    p.add_argument("--test-points", type=rec.integer, default=16)
    p.add_argument("--certificate", type=Path, help="write the fitted certificate here")
    p = modes.add_parser("verify", help="verify a certificate rigorously")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--certificate", type=Path, required=True)
    p.add_argument("--max-cells", type=rec.integer, default=budget.max_cells)
    p = modes.add_parser("branch", help="bisect one domain box component")
    p.set_defaults(handler=_cmd_branch)
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--slot", type=rec.integer, required=True)
    p.add_argument("--out-prefix", type=Path, required=True)

    p = sub.add_parser("graphs", help="enumerate decorated sphere graphs")
    p.set_defaults(handler=_cmd_graphs)
    p.add_argument("--max-vertices", type=rec.integer, required=True)
    p.add_argument("--prune", type=str, default="")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--max-states", type=rec.integer, default=500000,
                   help="popped states before stopping; each expansion builds all children first")

    modes = sub.add_parser("geom", help="geometric nonexistence checks"
                           ).add_subparsers(dest="mode", required=True)
    p = modes.add_parser("simplex", help="capped simplex, point far from every vertex")
    p.set_defaults(handler=_cmd_simplex)
    p.add_argument("--edges", nargs=6, required=True)
    p.add_argument("--r", required=True)
    p = modes.add_parser("segment", help="segment through a triangle")
    p.set_defaults(handler=_cmd_segment)
    for name in ("--r1", "--r2", "--r3"):
        p.add_argument(name, required=True)
    p = modes.add_parser("linked", help="line linking a triangle, from a .dspec file")
    p.set_defaults(handler=_cmd_linked)
    p.add_argument("--spec", type=Path, required=True)

    p = sub.add_parser("plan-dump", help="dump a compiled evaluation plan")
    p.set_defaults(handler=_cmd_plan_dump)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--task", type=Path)
    source.add_argument("--expr")
    p.add_argument("--arity", type=rec.integer)

    return parser


_PARSER = _build_parser()


def dispatch(argv: Sequence[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    digests: list[tuple[str, str]] = []
    try:
        t0 = time.perf_counter()
        body, decided = args.handler(args, lambda path: _read(path, digests))
        _report(args, digests, body, time.perf_counter() - t0)
        return EXIT_OK if decided else EXIT_NEGATIVE
    except (ParseError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except RigorError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
