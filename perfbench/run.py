"""End-to-end benchmark of the CAD detector.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline-exact --seed 1 \\
        --seconds 12 --trace 0

Runs one workload (see ``perfbench/README.md``) on inputs generated
from ``--seed``, checks the program's outputs, prints notes prefixed
with ``#`` and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. Exits non-zero, without a result
line, when the program cannot be run or a workload breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Hard stop for one run, below the 180 s a run may take.
RUN_DEADLINE_S = 170

sys.path.insert(0, str(HERE))

from measure import environment, pin_blas_threads  # noqa: E402

WORKLOAD_NAMES = ("offline-exact", "stream-approx", "serve-exact",
                  "cluster-sharded")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class RunDeadline(BaseException):
    """Raised by SIGALRM; a BaseException so that per-operation
    failure accounting (which catches Exception) cannot swallow it."""


def _deadline(signum, frame):
    raise RunDeadline(f"run exceeded {RUN_DEADLINE_S}s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # One BLAS thread per process: the busiest workload runs two
    # compute processes, which matches the two CPUs this was tuned on.
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        outcome = workloads.WORKLOADS[args.workload](workloads.Context(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            out=out,
        ))
    except (Exception, RunDeadline):  # noqa: BLE001 - report, fail the run
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        workloads.cleanup(out)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {name:34s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
