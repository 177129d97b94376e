"""One benchmark process: set a workload up, warm it up, then time its ops.

``run.py`` starts this in a fresh interpreter and reads the single JSON
line it prints.  In ``setup`` mode the process stops after the warm-up op
and reports only its set-up time; in ``measure`` mode it times as many
whole ops as fit in ``--seconds``, at least the workload's ``min_ops``.
With ``--trace 1`` it alternates traced and untraced ops, so the two
rates give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def cpu_s() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(workload, k, tracer, digest) -> dict:
    """Op ``k``: inputs and checks untimed, the bevkit calls timed."""
    inp = workload.inputs(k)
    tracer.op_id = k
    c0, t0 = cpu_s(), time.perf_counter()
    try:
        out = workload.op(inp)
    except Exception as exc:  # a failed op is counted, not fatal
        return {"k": k, "wall_s": time.perf_counter() - t0, "cpu_s": cpu_s() - c0, "items": 0,
                "problems": [f"{type(exc).__name__}: {exc}"], "digest": None, "counters": {}}
    wall, cpu = time.perf_counter() - t0, cpu_s() - c0
    try:
        problems = workload.check(k, inp, out)
    except Exception as exc:  # a check that cannot run is a failed check
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    counters = workload.counters(inp, out, tracer.self_ms_by_op().get(k, {})) if tracer.enabled else {}
    return {"k": k, "wall_s": wall, "cpu_s": cpu, "items": workload.items(inp, out), "problems": problems,
            "digest": digest(workload.digest_parts(inp, out)), "counters": counters}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() just before this process began")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    import numpy as np
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS, cli_launch, digest, startup_samples

    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, args.scale, tracer, args.workdir)
    warm = run_op(workload, 0, tracer, digest)
    result = {"setup_s": time.monotonic() - args.t0, "warmup": {"digest": warm["digest"], "problems": warm["problems"]}}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # as many whole ops as fit in --seconds, at least the workload's minimum
    # and, when traced, one traced and one untraced
    min_ops = max(workload.min_ops, 2 if args.trace else 1)
    ops = []
    start = time.monotonic()
    for k in range(1, sys.maxsize):
        tracer.enabled = bool(args.trace) and k % 2 == 1
        ops.append(dict(run_op(workload, k, tracer, digest), traced=tracer.enabled))
        elapsed = time.monotonic() - start
        if k >= min_ops and elapsed * (k + 1) / k > args.seconds:
            break
    if args.trace:
        tracer.enabled = True
        startup_samples(tracer)
        tracer.write(args.spans_out)
        result["self_ms"] = {str(op): by_name for op, by_name in tracer.self_ms_by_op().items()}

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    result.update(
        ops=ops,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        peak_rss_of="largest CLI child" if workload.rss_of_children else "worker",
        env={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cli_launch": cli_launch(),
            "pythonpath": os.environ.get("PYTHONPATH", ""),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
