#!/usr/bin/env python3
"""castelpoly benchmark: one workload per process, end to end or per layer.

    python3 bench/run.py --workload corpus-audit --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see BENCHMARK.json). Every output is checked; at the default
seed each is also compared with the digest stored in ``reference.json``. The
last line of standard output is the JSON result; the line before it records
the sample count, failures by class and the machine. The exit code is 0 only
when every output was correct.

    python3 bench/run.py --record-reference

recomputes ``reference.json``: the corpus size schedules and the output
digests of the default-seed input sequences.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPS = 3
# p90 needs at least ten samples beyond it
MIN_OPS = 100


def _import_workloads():
    """Import the benchmark module (and with it castelpoly and numpy) from
    this checkout; returns the module and the import time."""
    if not (ROOT / "src" / "castelpoly" / "__init__.py").is_file():
        sys.exit(f"no castelpoly sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def record_reference(wl) -> None:
    ref = {
        "seed": wl.DEFAULT_SEED,
        "sizes": {name: wl.reference_sizes(name) for name in wl.CORPUS_STRATA},
        "digests": {},
    }
    wl.REFERENCE.write_text(json.dumps(ref))  # make_inputs reads the sizes
    for name in wl.WORKLOADS:
        digests = []
        for inp in wl.make_inputs(name, wl.DEFAULT_SEED):
            output = wl.run_op(name, inp.points)
            problem = wl.check_output(name, inp, output) or wl.refusal(name, output)
            if problem:
                sys.exit(f"{name} {inp.label}: {problem}; not recording")
            digests.append(wl.digest(output))
        ref["digests"][name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    wl.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl, import_s = _import_workloads()
    if args.record_reference:
        record_reference(wl)
        return 0
    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")

    expected = None
    if args.seed == wl.DEFAULT_SEED:
        expected = wl.load_reference()["digests"][args.workload]

    inputs, setup_s = wl.set_up(args.workload, args.seed, SETUP_REPS)
    if args.trace:
        tally, metrics = wl.measure_traced(args.workload, inputs, args.seconds, 0, expected)
        samples = tally.attempted
    else:
        tally, latencies = wl.measure(args.workload, inputs, args.seconds, MIN_OPS, expected)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = wl.end_to_end_metrics(tally, latencies, import_s + setup_s, peak_rss_mb)
        samples = len(latencies)

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "samples": samples,
        "failures_by_class": dict(tally.errors),
        "digests_checked": tally.checked_digests,
        "problems": tally.problems[:10],
        "machine": machine(args.seed),
    }
    print(json.dumps(details, sort_keys=True))
    correct = tally.wrong == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
