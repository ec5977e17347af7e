"""Every benchmark job's report body, pinned as a digest.

The jobs are the benchmark's own (`perfbench/gen.py`, read here and never
written) at seeds 1 and 2, for the prove, certify and graphs workloads.
Each runs through `cli.dispatch` in job order, as the benchmark runs it.
Its digest covers the exit code, stdout without the `wall_time_s` line
and stderr, with the job directory and the shipped `problems/` directory
replaced by placeholders.  A body that depends on the installed LP
solver (`lp-certify --solve`, `assemble fit`, and `assemble verify` of a
certificate that a fit wrote) is digested by its exit code and verdict
line only.

A change that moves a body on purpose rewrites the file with

    PYTHONPATH=src python tests/test_bodies.py

and names the moved jobs, and why they moved, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path

from rigorkit import cli

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "data" / "bodies.json"
SEEDS = (1, 2)
WORKLOADS = ("prove", "certify", "graphs")
# the report keys that carry a verdict
VERDICTS = ("status", "certified", "candidate", "complete", "verdict")


def load_gen() -> types.ModuleType:
    """perfbench/gen.py as a module, with no bytecode written beside it."""
    path = ROOT / "perfbench" / "gen.py"
    gen = types.ModuleType("perfbench_gen")
    gen.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), gen.__dict__)
    return gen


def certificate(argv: list[str]) -> str:
    return argv[argv.index("--certificate") + 1]


def solver_dependent(argv: list[str], fitted: set[str]) -> bool:
    """Whether the job's body depends on the LP solver, given the
    certificates that fits write."""
    command = argv[2:4]  # after --seed N
    return (command[0] == "lp-certify" and "--solve" in argv
            or command == ["assemble", "fit"]
            or command == ["assemble", "verify"] and certificate(argv) in fitted)


def body_digests(workdir: Path) -> dict[str, str]:
    """Digest of every job's body, by "seed/workload/job"."""
    gen = load_gen()
    digests = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            jobdir = workdir / f"seed{seed}-{workload}"
            jobdir.mkdir(parents=True)
            jobs = getattr(gen, f"{workload}_jobs")(seed, jobdir, ROOT / "problems")
            fitted = {certificate(job["argv"]) for job in jobs
                      if job["argv"][2:4] == ["assemble", "fit"]}
            for job in jobs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.dispatch(job["argv"])
                lines = out.getvalue().splitlines()
                if solver_dependent(job["argv"], fitted):
                    kept = [line for line in lines if line.split(":", 1)[0] in VERDICTS]
                    text = "\n".join(kept)
                else:
                    kept = [line for line in lines if not line.startswith("wall_time_s:")]
                    text = "\n".join(kept) + "\n--- stderr\n" + err.getvalue()
                    for place, name in ((jobdir, "<jobs>"), (ROOT / "problems", "<problems>")):
                        text = text.replace(str(place), name)
                blob = f"exit {code}\n{text}".encode()
                digests[f"{seed}/{workload}/{job['name']}"] = hashlib.sha256(blob).hexdigest()[:16]
    return digests


def test_every_benchmark_body_matches_its_pin(tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    current = body_digests(tmp_path)
    moved = sorted(k for k in pinned.keys() & current.keys() if pinned[k] != current[k])
    assert not moved, f"{len(moved)} bodies moved: {', '.join(moved)}"
    assert current.keys() == pinned.keys(), (
        f"jobs not pinned: {sorted(current.keys() - pinned.keys())}; "
        f"pinned jobs gone: {sorted(pinned.keys() - current.keys())}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = body_digests(Path(tmp))
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {PINNED.relative_to(ROOT)}", file=sys.stderr)
