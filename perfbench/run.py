"""rigorkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload prove|certify|graphs --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Jobs go one after another through `rigorkit.cli.dispatch`, in this
process, with one closed-loop client and no threads: the next job starts
when the previous one returns.  Every job's output is checked
(checks.py); a failing job is counted and named, never dropped.

--trace 0 repeats the workload's fixed job set for about --seconds and
prints the end-to-end metrics.  --trace 1 runs the job set once untraced
and once traced (trace.py), replays recorded interval operands with
tracing off, and prints the per-layer metrics.  Either way the last line
of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

Generated inputs, spans, and per-run records go to .bench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBLEMS = ROOT / "problems"
sys.path.insert(0, str(HERE))

WORKLOADS = ("prove", "certify", "graphs")
# Modules a fresh process imports before its first job: the CLI, plus the
# solver that `lp-certify --solve` and `assemble fit` load lazily.
SETUP_IMPORTS = {
    "prove": "import rigorkit.cli",
    "certify": "import rigorkit.cli, numpy; from scipy.optimize import linprog",
    "graphs": "import rigorkit.cli",
}
SETUP_SAMPLES = 7
REPLAY_REPEATS = 7


def _fail_early(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

def reference_loop(n: int = 10000) -> int:
    """Fixed pure-Python work (float, big-integer and tuple operations, as
    in the interval kernels), about 10 ms.  Timed around jobs, it tracks the
    machine's speed, which drifts by tens of percent on a shared host."""
    acc = 0
    for i in range(n):
        x = (i * 0.618033988749895) % 1.0
        num, den = x.as_integer_ratio()
        acc += (num * 3) // den + len((x, i))
    return acc


REFERENCE_EVERY_S = 0.25


def run_pass(cli, jobs: list[dict], tracer=None) -> dict:
    """Run every job once, in order, and return per-job results with the
    pass's job time.  Output checks happen afterwards, outside the timed
    region.  `cli.dispatch` is looked up per job, so a traced pass goes
    through the tracer's wrapper.

    Untraced, the reference loop is timed before a job whenever 0.25 s of
    job time has passed since the last timing, and once at the end; a
    timing is the median of one loop per 0.25 s of job time since the last
    one (at most 9).  "timings" lists (index of the next job, seconds)."""
    results = []
    clock = time.perf_counter
    timings, since = [], REFERENCE_EVERY_S

    def time_reference(index):
        samples = []
        for _ in range(min(9, max(1, int(since / REFERENCE_EVERY_S)))):
            t0 = clock()
            reference_loop()
            samples.append(clock() - t0)
        timings.append((index, statistics.median(samples)))

    for index, job in enumerate(jobs):
        if tracer is None and since >= REFERENCE_EVERY_S:
            time_reference(index)
            since = 0.0
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job["name"]
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.dispatch(job["argv"])
        except Exception as exc:  # the job failed; the run goes on
            code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        since += elapsed
        results.append({"code": code, "stdout": out.getvalue(), "seconds": elapsed})
    if tracer is None:
        time_reference(len(jobs))
    else:
        tracer.job = None
    return {"wall": sum(r["seconds"] for r in results), "results": results,
            "timings": timings}


def relative_latencies(runs: list[dict]) -> list[list[float]]:
    """Each job's latency over the machine's speed around it: the median of
    the two reference timings before and the two after the job, across
    pass boundaries."""
    size = len(runs[0]["results"])
    marks, values = [], []
    for p, run in enumerate(runs):
        for index, seconds in run["timings"]:
            marks.append(p * size + index)
            values.append(seconds)
    out = []
    for p, run in enumerate(runs):
        rel = []
        for i, r in enumerate(run["results"]):
            cut = bisect.bisect_right(marks, p * size + i)
            rel.append(r["seconds"] / statistics.median(values[max(0, cut - 2):cut + 2]))
        out.append(rel)
    return out


def check_pass(checks, jobs: list[dict], run: dict) -> dict:
    failures, decided, lines = [], 0, []
    for job, res in zip(jobs, run["results"]):
        problem, ok_verdict, summary = checks.check(job, res["code"], res["stdout"])
        if problem is not None:
            failures.append(f"{job['name']}: {problem}")
        decided += bool(ok_verdict) and problem is None
        lines.append(f"{job['name']} {summary}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"failures": failures, "decided": decided, "digest": digest}


def report_counts(checks, jobs: list[dict], run: dict) -> dict:
    """Deterministic counts read from the job reports themselves."""
    cells = states = classes = 0
    for job, res in zip(jobs, run["results"]):
        body = checks.parse_body(res["stdout"])
        if job["check"]["kind"] == "prove" and "cells_processed" in body:
            cells += int(body["cells_processed"])
        if job["check"]["kind"] == "graphs" and "states_explored" in body:
            states += int(body["states_explored"])
            classes += int(body["classes"])
    return {"report_cells": cells, "states_explored": states, "classes": classes}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: always a latency that was observed."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# End-to-end measurements
# ---------------------------------------------------------------------------

def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter importing what the
    workload's first job needs.  The first, unrecorded run writes the
    bytecode caches that every later CLI invocation finds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_IMPORTS[workload]]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def untraced(args, cli, checks, jobs: list[dict]):
    setup_s = measure_setup(args.workload)
    deadline = time.perf_counter() + args.seconds
    runs = []
    while True:
        start = time.perf_counter()
        runs.append(run_pass(cli, jobs))
        now = time.perf_counter()
        if now + (now - start) > deadline:  # one more pass would overrun
            break
    checked = [check_pass(checks, jobs, run) for run in runs]
    attempted = len(jobs) * len(runs)
    failed = sum(len(c["failures"]) for c in checked)
    decided = sum(c["decided"] for c in checked)
    # A job's latency is its median over the passes; percentiles are taken
    # over jobs.
    job_ms = [statistics.median(r["seconds"] * 1e3 for r in per_pass)
              for per_pass in zip(*(run["results"] for run in runs))]
    relative = relative_latencies(runs)
    job_rel = [statistics.median(per_pass) for per_pass in zip(*relative)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_rel": (statistics.mean(sum(rel) for rel in relative), "ref"),
        "job_rel_p50": (percentile(job_rel, 50), "ref"),
        "job_rel_p90": (percentile(job_rel, 90), "ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "decided_ratio": (decided / attempted, "ratio"),
    }
    # Raw times: printed and recorded, but not gated (see README.md).
    raw = {"wall_s": statistics.mean(run["wall"] for run in runs),
           "job_ms_p50": percentile(job_ms, 50),
           "job_ms_p90": percentile(job_ms, 90)}
    info = {**raw, "passes": len(runs), "pass_wall_s": [run["wall"] for run in runs]}
    return {"checked": checked, "metrics": metrics, "info": info,
            "problems": [], "record": None}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def replay_kernels(tracer) -> dict:
    """ns per call of each interval kernel on the operands it saw while
    traced, timed in a tight loop with tracing off (median of repeats)."""
    from rigorkit import interval

    out = {}
    for op, samples in tracer.operands.items():
        fn = getattr(interval, op)
        if not samples:
            out[op] = 0.0
            continue
        times = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter_ns()
            for a in samples:
                fn(*a)
            times.append((time.perf_counter_ns() - t0) / len(samples))
        out[op] = statistics.median(times)
    return out


def probe_jobs(outdir: Path) -> list[dict]:
    """Small fixed job set that reaches every layer.  Per-layer numbers of
    a layer the workload itself never calls are taken from a traced run of
    these jobs, so every workload reports every layer."""
    import gen

    outdir.mkdir(parents=True, exist_ok=True)
    lp_text, _ = gen.lp_problem(random.Random("probe"), 15, with_eq=False)
    (outdir / "probe.lp").write_text(lp_text)
    (outdir / "probe.ineq").write_text(
        "arity 2\nexpr sqrt(1 + x0*x0) + atan(x1, 2 + x0*x0) / 3 - 2\n"
        "domain x0 0..1\ndomain x1 -1..1\nmargin 0.01\n")
    cert = outdir / "probe_toy.cert"
    toy = PROBLEMS / "toy_duality.asm"
    argvs = [
        ["prove", "--task", str(outdir / "probe.ineq")],
        ["lp-certify", "--problem", str(outdir / "probe.lp"), "--solve"],
        ["assemble", "fit", "--problem", str(toy), "--bound", "1.0", "--guess", "1.0",
         "--certificate", str(cert)],
        ["assemble", "verify", "--problem", str(toy), "--certificate", str(cert)],
        ["geom", "segment", "--r1", "1", "--r2", "1", "--r3", "2"],
        ["geom", "simplex", "--edges", *["2.8284"] * 6, "--r", "2"],
        ["geom", "linked", "--spec", str(PROBLEMS / "linked_line_refuted.dspec")],
        ["graphs", "--max-vertices", "5"],
    ]
    return [{"name": f"probe{i}", "argv": argv} for i, argv in enumerate(argvs)]


def layer_metrics(tr, kernel_ns: dict) -> dict:
    """Per-layer metrics from one tracer."""
    c = tr.counters
    cells = c["prover.reduce_calls"]
    prove_s = tr.total_s("prover.prove_negative") + tr.total_s("prover.prove_nonpositive")
    nonzeros = c["lp.nonzeros"]
    certify_us = tr.total_s("lp.certify_upper_bound") * 1e6
    gen_s = tr.total_s("graphgen.generate")
    m = {}
    for op, label in (("add", "add"), ("sub", "sub"), ("mul", "mul"), ("div", "div"),
                      ("pow_int", "pow_int"), ("sqrt_interval", "sqrt"),
                      ("atan_interval", "atan")):
        m[f"interval.calls.{label}"] = (tr.calls(f"interval.{op}"), "count")
    m["interval.self_s"] = (tr.layer_self_s("interval"), "s")
    for op, label in (("add", "add"), ("mul", "mul"), ("div", "div"),
                      ("sqrt_interval", "sqrt"), ("atan_interval", "atan")):
        m[f"interval.{label}_ns"] = (kernel_ns[op], "ns")
    m.update({
        "expr.compile_calls": (tr.calls("expr.compile"), "count"),
        "expr.compile_ms": (tr.mean_us("expr.compile") / 1e3, "ms"),
        "expr.germ_calls": (tr.calls("expr.germ"), "count"),
        "expr.germ_us": (tr.mean_us("expr.germ"), "us"),
        "expr.hessian_entry_calls": (tr.calls("expr.hessian_entry"), "count"),
        "expr.hessian_entry_us": (tr.mean_us("expr.hessian_entry"), "us"),
        "expr.value_us": (tr.mean_us("expr.value"), "us"),
        "expr.self_s": (tr.layer_self_s("expr"), "s"),
        "taylor.bound_calls": (tr.calls("taylor.taylor_upper_bound"), "count"),
        "taylor.bound_us": (tr.mean_us("taylor.taylor_upper_bound"), "us"),
        "taylor.partial_signs_us": (tr.mean_us("taylor.partial_signs"), "us"),
        "taylor.self_s": (tr.layer_self_s("taylor"), "s"),
        "prover.cells": (cells, "count"),
        "prover.cells_per_s": (cells / prove_s if prove_s else 0.0, "1/s"),
        "prover.collapse_ratio": (c["prover.collapsed"] / cells if cells else 0.0, "ratio"),
        "prover.undecided_cells": (c["prover.undecided_cells"], "count"),
        "prover.max_depth": (c["prover.max_depth"], "count"),
        "prover.self_s": (tr.layer_self_s("prover"), "s"),
        "lp.nonzeros": (nonzeros, "count"),
        "lp.certify_us_per_nonzero": (certify_us / nonzeros if nonzeros else 0.0, "us"),
        "lp.nonzeros_per_s": (nonzeros / certify_us * 1e6 if certify_us else 0.0, "1/s"),
        "lp.solve_ms": (tr.mean_us("lp.solve_approx") / 1e3, "ms"),
        "lp.self_s": (tr.layer_self_s("lp"), "s"),
        "assembly.fit_ms": (tr.mean_us("assembly.fit_dual") / 1e3, "ms"),
        "assembly.verify_ms": (tr.mean_us("assembly.verify_duality") / 1e3, "ms"),
        "assembly.certified_ratio": (c["assembly.certified"] / c["assembly.verified"]
                                     if c["assembly.verified"] else 0.0, "ratio"),
        "assembly.self_s": (tr.layer_self_s("assembly"), "s"),
        "graphgen.states": (c["graphgen.states"], "count"),
        "graphgen.states_per_s": (c["graphgen.states"] / gen_s if gen_s else 0.0, "1/s"),
        "graphgen.canonical_form_calls": (tr.calls("graphgen.canonical_form"), "count"),
        "graphgen.canonical_form_us": (tr.mean_us("graphgen.canonical_form"), "us"),
        "graphgen.refine_us": (tr.mean_us("graphgen.refinements_with_steps"), "us"),
        "graphgen.self_s": (tr.layer_self_s("graphgen"), "s"),
        "geom.check_us.simplex": (tr.mean_us("geom.check_simplex_interior_point"), "us"),
        "geom.check_us.segment": (tr.mean_us("geom.check_segment_through_triangle"), "us"),
        "geom.check_us.linked": (tr.mean_us("geom.check_linked_line"), "us"),
        "geom.refuted_ratio": (c["geom.refuted"] / c["geom.checks"]
                               if c["geom.checks"] else 0.0, "ratio"),
        "cli.dispatch_self_ms": (tr.self_s("cli.dispatch") / tr.calls("cli.dispatch") * 1e3
                                 if tr.calls("cli.dispatch") else 0.0, "ms"),
    })
    return m


def traced(args, cli, checks, jobs: list[dict], workdir: Path):
    from trace import LAYERS, Tracer

    plain = run_pass(cli, jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced_run = run_pass(cli, jobs, tracer)
    finally:
        tracer.uninstall()
    kernel_ns = replay_kernels(tracer)

    checked = [check_pass(checks, jobs, run) for run in (plain, traced_run)]
    problems = []
    counts = report_counts(checks, jobs, traced_run)
    c = tracer.counters
    # Coverage: the trace must see the work the reports say was done.
    if c["prover.reduce_calls"] != c["prover.report_cells"]:
        problems.append(f"trace coverage: {c['prover.reduce_calls']} traced cells, "
                        f"reports say {c['prover.report_cells']}")
    if args.workload == "prove" and counts["report_cells"] != c["prover.report_cells"]:
        problems.append(f"trace coverage: CLI reports give {counts['report_cells']} cells, "
                        f"prover reports {c['prover.report_cells']}")
    if c["graphgen.states"] != counts["states_explored"]:
        problems.append(f"trace coverage: {c['graphgen.states']} traced states, "
                        f"reports say {counts['states_explored']}")
    reached = {layer for layer in LAYERS
               if any(name.startswith(layer + ".") and st[0]
                      for name, st in tracer.stats.items())}
    expected = {"prove": {"interval", "expr", "taylor", "prover", "cli"},
                "certify": set(LAYERS) - {"graphgen"},
                "graphs": {"graphgen", "cli"}}[args.workload]
    if expected - reached:
        problems.append(f"trace coverage: no calls seen in {sorted(expected - reached)}")

    metrics = layer_metrics(tracer, kernel_ns)
    probed = sorted(set(LAYERS) - reached)
    if probed:
        from scipy.optimize import linprog  # noqa: F401  (as in certify: not timed)

        probe = Tracer()
        probe.install()
        try:
            run_pass(cli, probe_jobs(workdir / "probe"), probe)
        finally:
            probe.uninstall()
        from_probe = layer_metrics(probe, replay_kernels(probe))
        for name in metrics:
            if name.split(".")[0] in probed:
                metrics[name] = from_probe[name]
    metrics["trace.overhead_ratio"] = (traced_run["wall"] / plain["wall"], "ratio")

    tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    record = {
        "prover.cells": c["prover.reduce_calls"],
        "graphgen.states": c["graphgen.states"],
        "classes": counts["classes"],
        "graphgen.canonical_form_calls": tracer.calls("graphgen.canonical_form"),
        "lp.nonzeros": c["lp.nonzeros"],
        **{name: metrics[name][0] for name in metrics if name.startswith("interval.calls.")},
        "verdict_digest": checked[1]["digest"],
    }
    info = {"untraced_wall_s": plain["wall"], "traced_wall_s": traced_run["wall"],
            "spans": len(tracer.spans), "layers_from_probe": probed}
    return {"checked": checked, "metrics": metrics, "info": info,
            "problems": problems, "record": record}


# ---------------------------------------------------------------------------
# Context and records
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def context(args) -> dict:
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "machine": platform.machine(), "commit": git_commit(),
    }


def compare_record(path: Path, record: dict) -> bool | None:
    """Do the deterministic counts repeat those of the previous run with
    the same workload and seed?  None when there is no previous run."""
    previous = None
    if path.is_file():
        with contextlib.suppress(ValueError):
            previous = json.loads(path.read_text())
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return None if previous is None else previous == record


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rigorkit" / "cli.py").is_file() or not PROBLEMS.is_dir():
        _fail_early(f"no rigorkit source tree at {ROOT}")
    sys.path.insert(0, str(SRC))
    try:
        import rigorkit.cli as cli
    except ImportError as exc:
        _fail_early(f"cannot import rigorkit: {exc}")
    import checks
    import gen

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    make = {"prove": gen.prove_jobs, "certify": gen.certify_jobs,
            "graphs": gen.graphs_jobs}[args.workload]
    t0 = time.perf_counter()
    jobs = make(args.seed, workdir, PROBLEMS)
    gen_s = time.perf_counter() - t0
    if args.workload == "certify":
        # Load the solver now: a fresh process pays this in setup_s.
        from scipy.optimize import linprog  # noqa: F401

    outcome = (traced(args, cli, checks, jobs, workdir) if args.trace
               else untraced(args, cli, checks, jobs))
    checked, metrics, info = outcome["checked"], outcome["metrics"], outcome["info"]
    problems, record = outcome["problems"], outcome["record"]
    attempted = len(jobs) * len(checked)
    failures = [f for c in checked for f in c["failures"]]
    digests = {c["digest"] for c in checked}
    if len(digests) != 1:
        problems.append("verdicts differ between passes of the same inputs")

    ctx = context(args)
    info.update(jobs_per_pass=len(jobs), generate_s=gen_s,
                fail_ratio=len(failures) / attempted,
                decided_ratio=sum(c["decided"] for c in checked) / attempted,
                verdict_digest=sorted(digests)[0],
                verdicts_repeat_within_run=len(digests) == 1)
    if record is not None:
        info["counts"] = record
        info["counts_repeat_previous_run"] = compare_record(
            OUT / f"counts-{args.workload}-{args.seed}.json", record)
    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": ctx, "info": info, "failures": failures,
                    "problems": problems, "result": result}, indent=1) + "\n")

    print(f"context: {json.dumps(ctx)}")
    print(f"info: {json.dumps(info)}")
    for line in failures:
        print(f"FAILED {line}")
    for line in problems:
        print(f"PROBLEM {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
