"""End-to-end benchmark of the layout engine, timed from outside it.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload oreo-tpch --seed 1 --seconds 40 --trace 0

``--workload`` is one of the workloads listed in ``BENCHMARK.json``:

* ``oreo-tpch`` — OREO deciding and reorganizing synchronously while one
  caller issues ``LayoutEngine.query`` one query at a time;
* ``serve-mixed`` — ``repro serve`` in its own process, driven over HTTP
  by an open-loop client mixing queries, ingests and consolidations.

Inputs are made from ``--seed``; the amount of work is set by
``--seconds`` (it is the duration of the open loop, and sets how many
independent query streams the closed loop serves, one per 15 s).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same inputs untraced and then traced, and reports the per-layer metrics
(self time per layer span, counts, and the tracing overhead).

Every query's answer is checked (see the workload modules).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with the machine fingerprint, the seed, why the
workload was chosen, and sample counts.  The exit code is 0 when every
check passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for stores and per-code-version counts, inside the checkout
STATE_DIR = ROOT / ".e2ebench"


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _give_up(f"no program source at {SRC}/repro; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _give_up(f"imported repro from {repro.__file__}, not from {SRC}")


def _give_up(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _workloads() -> dict[str, str]:
    """Workload name -> why, from BENCHMARK.json (the single list)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["why"] for entry in spec["workloads"]}


def _code_digest() -> str:
    """Digest of the program and benchmark sources: 'the same code'."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_repeat(outcome, workload: str, seed: int, scale: str) -> str:
    """Compare deterministic counts with an earlier traced run of the same
    code and seed; the first such run records them."""
    record = STATE_DIR / "counts" / f"{workload}-{seed}-{scale}-{_code_digest()}.json"
    current = outcome.deterministic
    if record.exists():
        previous = json.loads(record.read_text())
        for name, value in current.items():
            outcome.check(
                previous.get(name) == value,
                f"{name} = {value} but an earlier traced run of this code and seed had "
                f"{previous.get(name)}: hidden nondeterminism",
            )
        return f"compared with {record.name}"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(current, sort_keys=True) + "\n")
    return f"recorded {record.name}"


def _untraced_reference(args: argparse.Namespace) -> dict:
    """Run the untraced benchmark of the same seed in a fresh process.

    Its notes give the traced run the numbers to compare with: the time
    the untraced pass took (for the tracing overhead) and the counts the
    engine reported (tracing must not change them).  A fresh process
    starts from the same state as the traced one: the library keeps
    process-wide state (a layout-id counter) that a second pass in the
    same process would see advanced.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale,
    ]
    completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        _give_up(f"the untraced reference run failed (exit {completed.returncode})")
    notes = next(line for line in lines if line.startswith("notes "))
    return json.loads(notes[len("notes "):])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: the smoke test's sizes"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import common
    import workload_oreo
    import workload_serve

    runners = {
        "oreo-tpch": workload_oreo.run_oreo_tpch,
        "serve-mixed": workload_serve.run_serve_mixed,
    }
    whys = _workloads()
    if args.workload not in whys or args.workload not in runners:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")

    reference = _untraced_reference(args) if args.trace else None
    STATE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR))
    try:
        outcome = runners[args.workload](workdir, args.seed, args.seconds, reference, args.scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.deterministic is not None:
        outcome.notes["repeat_check"] = _check_repeat(
            outcome, args.workload, args.seed, args.scale
        )

    correct = not outcome.errors
    context = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "fingerprint": common.fingerprint(),
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name:<28} {value:>14.6g} {unit}")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    outcome.report_only["failed_frac"] = (failed_frac, "ratio")
    for name, (value, unit) in outcome.report_only.items():
        print(f"metric {name:<28} {value:>14.6g} {unit} (report only)")
    # Self time per span over the traced wall; spans on parallel threads
    # (the shard fan-out) can add up to more than 1.
    for name, share in sorted(outcome.notes.pop("shares", {}).items()):
        print(f"share  {name:<28} {share:>14.4f}")
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    for error in outcome.errors:
        print(f"MISMATCH {error}")
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
