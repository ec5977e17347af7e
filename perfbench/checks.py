"""Output checks for benchmark jobs.

`check(job, code, stdout)` returns (problem, decided, summary):

* problem: None when the output is correct, else a one-line reason;
* decided: the job ended with a decisive verdict (proven, certified bound,
  candidate written, certified, no_such_configuration, complete);
* summary: the job's verdict in a short stable form, for the verdict digest.

Reports are parsed here rather than with rigorkit's own parser, so a
broken report writer cannot also break the check that reads it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from gen import evaluate

# A certified LP bound must dominate c.x at the reference primal point up to
# the reference solver's own feasibility tolerance, and must not be looser
# than this share of the optimum either.
LP_BELOW_TOL = 1e-7
LP_ABOVE_TOL = 1e-3


def parse_body(stdout: str) -> dict:
    """Body entries of a rigorkit report; repeated keys collect in lists."""
    body: dict = {}
    in_body = False
    for line in stdout.splitlines():
        if line == "---":
            in_body = True
            continue
        if in_body and ": " in line:
            key, _, val = line.partition(": ")
            body.setdefault(key, []).append(val)
    return {k: v[0] if len(v) == 1 else v for k, v in body.items()}


def check(job: dict, code, stdout: str):
    spec = job["check"]
    kind = spec["kind"]
    if code not in (0, 1, 2):
        return f"exit code {code!r} outside 0/1/2", False, f"exit={code}"
    body = parse_body(stdout)
    try:
        return _CHECKS[kind](spec, code, body)
    except (KeyError, ValueError, TypeError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})", False, f"exit={code}"


def _prove(spec, code, body):
    status = body["status"]
    summary = f"{status} cells={body['cells_processed']}"
    proven = status == "proven"
    if proven != (code == 0):
        return f"status {status} with exit code {code}", False, summary
    if proven and spec["planted"]:
        return "planted false task came back proven", True, summary
    if proven:
        values = evaluate(spec["expr"], spec["points"])
        limit = -spec["margin"]
        if not np.all(values < limit):
            worst = float(np.max(values))
            return f"proven, but f = {worst!r} >= {limit!r} at a sample point", True, summary
    return None, proven, summary


def _lp(spec, code, body):
    if code != 0:
        return f"exit code {code}", False, f"exit={code}"
    bound = float(body["bound"])
    ref = spec["reference"]
    scale = 1.0 + abs(ref)
    summary = f"bound={bound!r}"
    if not math.isfinite(bound) or bound < ref - LP_BELOW_TOL * scale:
        return f"bound {bound!r} below c.x = {ref!r} at the reference optimum", True, summary
    if bound > ref + LP_ABOVE_TOL * scale:
        return f"bound {bound!r} looser than {LP_ABOVE_TOL} of optimum {ref!r}", True, summary
    return None, True, summary


def _fit(spec, code, body):
    written = body.get("candidate") == "written"
    if written != (code == 0):
        return f"candidate {body.get('candidate')!r} with exit code {code}", False, "fit"
    cert = spec["certificate"]
    if written and cert and not Path(cert).is_file():
        return "candidate reported but no certificate file", False, "fit"
    return None, written, f"candidate={body.get('candidate')}"


def _verify(spec, code, body):
    certified = body.get("certified") == "True"
    summary = f"certified={certified}"
    if certified != (code == 0):
        return f"certified={certified} with exit code {code}", False, summary
    opt, bound = spec["optimum"], spec["bound"]
    if certified and opt is not None and bound < opt - 1e-9 * (1 + abs(opt)):
        return f"certified M = {bound!r} below the optimum {opt!r}", True, summary
    if spec.get("expect") and not certified:
        return f"expected certified, got: {body.get('reason')}", False, summary
    return None, certified, summary


def _geom(spec, code, body):
    verdict = body["verdict"]
    refuted = verdict == "no_such_configuration"
    if refuted != (code == 0):
        return f"verdict {verdict} with exit code {code}", False, verdict
    if refuted != spec["refuted"]:
        want = "no_such_configuration" if spec["refuted"] else "inconclusive"
        return f"verdict {verdict}, expected {want}", refuted, verdict
    return None, refuted, verdict


def _graphs(spec, code, body):
    complete = body["complete"] == "True"
    classes = int(body["classes"])
    summary = f"complete={complete} classes={classes} states={body['states_explored']}"
    if not complete or code != 0:
        return f"complete={complete}, exit code {code}", complete, summary
    if classes != spec["classes"]:
        return f"{classes} classes, expected {spec['classes']}", True, summary
    return None, True, summary


_CHECKS = {"prove": _prove, "lp": _lp, "fit": _fit, "verify": _verify,
           "geom": _geom, "graphs": _graphs}
