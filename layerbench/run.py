"""Layered benchmark of the video-chat liveness verifier.

Run from the root of a checkout::

    python3 layerbench/run.py --workload offline-sessions --seed 1 --seconds 25 --trace 0

Workloads: ``offline-sessions``, ``service-open-loop``, ``batch-verify``
(see ``BENCHMARK.json`` and ``layerbench/README.md``).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer breakdown.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, prefixed with ``#``, are diagnostics.  The process runs in one
thread with BLAS pinned to one thread, starts no child process, and
exits non-zero without a result if it leaves anything behind.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("offline-sessions", "service-open-loop", "batch-verify")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("layerbench: --seconds must be positive", file=sys.stderr)
        return 2
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "layerbench: the program's source (src/repro) is not here; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    from lbench import runner, stats

    shm_before = stats.shm_segments()
    drift_before = stats.reference_kernel_ms()
    with warnings.catch_warnings():
        # Small-bank tenants warn by design (the LOF neighbour clamp).
        warnings.simplefilter("ignore")
        result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    drift_after = stats.reference_kernel_ms()

    diagnostics = result.pop("diagnostics")
    problems = result.pop("problems")
    print(
        f"# layerbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print(
        f"# reference_kernel_ms before={drift_before:.3f} after={drift_after:.3f} "
        "(host-drift diagnostic, not a metric)"
    )
    print("# " + json.dumps(diagnostics, sort_keys=True))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"#   {name:34s} {shown:>12s} {metric['unit']}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    leftovers = stats.hygiene_problems(shm_before)
    if leftovers:
        for leftover in leftovers:
            print(f"layerbench: {leftover}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
