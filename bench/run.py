"""bevkit benchmark: seeded paper-scale workloads, end-to-end or traced.

    python3 bench/run.py --workload bev_frames --seed 1 --seconds 10 --trace 0

Run from anywhere; it benchmarks the ``src/bevkit`` next to this
directory, never an installed copy, and exits 2 when that is missing.
Each process it starts is a fresh interpreter with that ``src`` on
``PYTHONPATH`` and BLAS threads capped at ``nproc``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: it sets the
workload up three times (two set-up-only processes, then the measuring
one) for the median ``setup_s``, then times as many whole ops as fit in
``--seconds`` (at least the workload's minimum).
``--trace 1`` prints the per-layer metrics from spans recorded around the
calls into each bevkit module, plus the tracing overhead; its spans go to
``.bench_out/``.  Layers a workload never calls read 0.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every op's outputs
are checked, and a failed check counts as a failed op.  A determinism
digest over the warm-up op and the first timed op is printed; it must be
the same in the three set-up processes and in every run of the same
source with the same seed (kept in ``.bench_out/digests.json``).  A digest
that differs from the one a different source gave is reported, not failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import median_by_name

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_ONLY_PROCESSES = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# every run ends within 180 s; a worker gets what is left of this
RUN_DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    return env


def run_worker(args, mode, workdir, env, deadline, spans_out=None) -> dict:
    """Start one worker in its own session, wait for it, return its JSON line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale, "--mode", mode,
           "--t0", repr(t0), "--workdir", str(workdir)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker did not finish before the run deadline") from None
    finally:
        # a step the worker started may outlive it; end the whole session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 of the bevkit and benchmark sources: what a digest depends on."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def check_ledger(key: str, src: str, value: str) -> tuple[bool, str]:
    """Record this digest; compare it with earlier runs of the same key."""
    path = OUT_DIR / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    seen = ledger.setdefault(key, {})
    before = seen.get(src)
    if before is not None and before != value:
        return False, f"NOT DETERMINISTIC: this source gave {before} before"
    others = sorted({d for s, d in seen.items() if s != src and d != value})
    seen[src] = value
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    if others:
        return True, f"changed: other sources gave {', '.join(others)} (reported, not failed)"
    return True, "same as earlier runs" if before or len(seen) > 1 else "first run of this seed"


def end_to_end(setups, res) -> tuple[dict, list[str]]:
    ops = res["ops"]
    walls = [op["wall_s"] for op in ops]
    items = sum(op["items"] for op in ops)
    failed = sum(bool(op["problems"]) for op in ops)
    n = len(ops)
    values = {
        "items_per_s": (items / sum(walls), f"{items} items over {n} ops"),
        "op_ms_p50": (statistics.median(walls) * 1e3, f"median of {n} ops"),
        "cpu_ms_per_item": (sum(op["cpu_s"] for op in ops) * 1e3 / max(items, 1),
                            f"{items} items, worker and its children"),
        "peak_rss_mb": (res["peak_rss_mb"], res["peak_rss_of"]),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh processes"),
        "ok_ratio": ((n - failed) / n, f"{n - failed} of {n} ops passed their checks"),
    }
    return values, [f"error_rate {failed / n:.4g} ({failed} failed of {n} attempted)"]


def per_layer(res) -> tuple[dict, list[str]]:
    traced = {str(op["k"]) for op in res["ops"] if op["traced"]}
    by_op = {op: by_name for op, by_name in res["self_ms"].items() if op in traced or op.startswith("startup-")}
    values = {f"{name}.ms": (ms, f"self time, median of {n}") for name, (ms, n) in median_by_name(by_op).items()}
    counters: dict = {}
    for op in res["ops"]:
        for name, value in op["counters"].items():
            counters.setdefault(name, []).append(value)
    values.update({name: (statistics.median(v), f"median of {len(v)} traced ops") for name, v in counters.items()})

    def rate(flag):
        ops = [op for op in res["ops"] if op["traced"] == flag]
        return sum(op["items"] for op in ops) / sum(op["wall_s"] for op in ops)

    on, off = rate(True), rate(False)
    return values, [f"tracing overhead: items_per_s {off:.6g} untraced, {on:.6g} traced "
                    f"({(off - on) / off:+.2%} of untraced)"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to time ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="tiny runs the same code at a toy size, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "bevkit" / "__init__.py").is_file():
        print(f"bench: error: no bevkit sources at {ROOT / 'src' / 'bevkit'}", file=sys.stderr)
        return 2
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    spans_out = OUT_DIR / f"spans-{args.workload}-{args.scale}-seed{args.seed}.jsonl"
    try:
        runs = [] if args.trace else [run_worker(args, "setup", workdir, env, deadline)
                                      for _ in range(SETUP_ONLY_PROCESSES)]
        res = run_worker(args, "measure", workdir, env, deadline, spans_out if args.trace else None)
    except (RuntimeError, ValueError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs.append(res)

    src = source_digest()
    problems = [p for r in runs for p in r["warmup"]["problems"]]
    warm_digests = {r["warmup"]["digest"] for r in runs}
    if len(warm_digests) != 1:
        problems.append(f"warm-up digests differ between fresh processes: {sorted(map(str, warm_digests))}")
    first = res["ops"][0]["digest"]
    run_digest = hashlib.sha256(f"{res['warmup']['digest']} {first}".encode()).hexdigest()
    same, note = check_ledger(f"{args.workload}/{args.scale}/seed{args.seed}", src, run_digest)
    if not same:
        problems.append(note)

    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"scale={args.scale}")
    env_doc = dict(machine(), seed=args.seed, source_sha256=src, **res["env"],
                   blas_threads={v: env[v] for v in BLAS_THREAD_VARS})
    print(f"bench: env {json.dumps(env_doc, sort_keys=True)}")
    print(f"bench: digest {run_digest} (warm-up op and op 1) {note}")
    if args.trace:
        values, notes = per_layer(res)
        declared = spec["per_layer"]
        notes.append(f"spans written to {spans_out.relative_to(ROOT)}")
    else:
        values, notes = end_to_end([r["setup_s"] for r in runs], res)
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        value, how = values.get(m["name"], (0.0, "not run by this workload"))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<36} {value:>14.6g} {m['unit']:<8} {how}")
    for note in notes:
        print(f"bench: {note}")
    for op in res["ops"]:
        for problem in op["problems"]:
            problems.append(f"op {op['k']}: {problem}")
    for problem in problems:
        print(f"bench: FAILED {problem}")
    attempted = len(res["ops"])
    failed = sum(bool(op["problems"]) for op in res["ops"])
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
