#!/usr/bin/env python3
"""Run one workload of the repository's end-to-end benchmark.

    python3 e2ebench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Prints every metric as ``name value unit``, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the program's layer boundaries and reports per-layer self times
and exact work counts instead.  Times are scaled to a nominal host
speed (:mod:`e2ebench.hostspeed`).  The program is imported from the
``src/`` directory beside this one; without it the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="sweep, serve, taint or analyze")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work to measure, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench import bench, hostspeed, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    run = bench.measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    if args.trace:
        units, metrics = dict(bench.PER_LAYER), run.per_layer()
        for layer, seconds in sorted(run.setup_layers.items()):
            print(f"setup.{layer}_ms {seconds * 1e3:.3f} ms (set-up, all repeats)")
    else:
        units, metrics = dict(bench.END_TO_END), run.end_to_end()
    print(f"workload {run.workload} seed {run.seed} traced {int(run.traced)}")
    print(f"host reference {run.reference_ms:.4g} ms; times are scaled to the "
          f"nominal {hostspeed.REFERENCE_S * 1e3:g} ms")
    print(f"operations {len(run.op_times)} reads {len(run.read_times)} "
          f"failed {run.failed} failed_op_share {run.failed_op_share:.6g}")
    for error in run.errors[:10]:
        print(f"error: {error}")
    if run.exact is not None and not args.trace:
        for name, value in run.exact.items():
            print(f"exact.{name} {value}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
