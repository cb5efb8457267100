"""Benchmark driver for eulerapprox.

    python3 perfbench/run.py --workload approx-steer --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the repository root.  Set-up (import, prime-sieve warm-up, problem
construction) is timed in this process and in a few fresh child processes;
the reported set-up time is their median.  The workload's operations then run
as a cycle, repeated while another cycle still fits in ``--seconds`` (at least
once).  Each operation's time is its median over the cycles.  Every operation's
output is checked, and its digest must agree across cycles and with earlier
runs of the same code and seed.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
each untraced cycle is followed by a traced one, and the per-layer metrics
come from the spans of the traced cycles.  The last line of standard output
is one JSON object; the full run record, spans included, is written under
``perfbench/results/``.
"""

import time

T0 = time.perf_counter()  # set-up clock: starts before numpy and the library load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 170


def run_cycle(ops: list, cycle: int, rec) -> tuple[list[dict], list]:
    """Run every operation once, traced when ``rec`` (an active recorder) is given.

    Returns the per-op records and (op span id, stages) of each refine that succeeded.
    """
    records, refines = [], []
    for i, op in enumerate(ops):
        if rec:
            rec.op = f"{cycle}:{i}"
        with rec.span(f"op.{op.kind}") if rec else contextlib.nullcontext() as sp:
            t, c = time.perf_counter(), time.process_time()
            try:
                out, exc = op.run(), None
            except workloads.LIBRARY_FAILURES as e:
                out, exc = None, e
            seconds, cpu_seconds = time.perf_counter() - t, time.process_time() - c
            if sp is not None and exc is not None:
                sp.error = type(exc).__name__
        if rec:
            rec.active = False  # checks are not part of the traced work
        if exc is None:
            fails, quality, digest, summary = op.check(out)
            if sp is not None and op.kind == "refine":
                refines.append((sp.id, out))
        else:
            fails, quality, summary = [], workloads.failure_error(op, exc), {}
            digest = workloads.digest_of(type(exc).__name__, str(exc))
        if rec:
            rec.active = True
        records.append({"op": i, "kind": op.kind, "inputs": op.inputs, "seconds": seconds,
                        "cpu_seconds": cpu_seconds,
                        "error_type": None if exc is None else type(exc).__name__,
                        "error": None if exc is None else str(exc), "checks_failed": fails,
                        "quality": quality, "digest": digest, "result": summary})
    return records, refines


def source_digest() -> str:
    """Digest of the library and benchmark sources: the code version without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True)):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads() -> dict:
    """Thread settings in the environment and OpenBLAS's own count (left at its default)."""
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return {"env": env, "openblas": int(fn())}
    return {"env": env, "openblas": None}


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "git_commit": git_commit(),
            "source_digest": source_digest(), "seed": seed}


def child_setup_times(args) -> list[float]:
    times = []
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                              args.workload, "--seed", str(args.seed), "--setup-only"],
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def check_digests(cycles: list[list[dict]], path: str, source: str) -> None:
    """Digests must agree across cycles and with an earlier run of the same code and seed."""
    first = [r["digest"] for r in cycles[0]]
    for cyc in cycles[1:]:
        for r, d in zip(cyc, first):
            if r["digest"] != d:
                r["checks_failed"].append("digest differs from the first cycle")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier["source_digest"] == source and earlier["digests"] != first:
            for r, d in zip(cycles[0], earlier["digests"]):
                if r["digest"] != d:
                    r["checks_failed"].append("digest differs from an earlier run")
    with open(path, "w") as fh:
        json.dump({"source_digest": source, "digests": first}, fh)


def is_failed(r: dict) -> bool:
    return r["error_type"] is not None or bool(r["checks_failed"])


def end_to_end(plain: list[list[dict]], setup_samples: list[float]) -> dict:
    # Each operation's median over the cycles damps bursts of interference
    # from other tenants of the machine.
    cycle_s = sum(statistics.median(c[i]["seconds"] for c in plain) for i in range(len(plain[0])))
    attempted = sum(len(c) for c in plain)
    solved = sum(not is_failed(r) for c in plain for r in c)
    quality = [r["quality"] for r in plain[0] if r["quality"] is not None]
    return {
        "s_per_solution": (cycle_s * len(plain) / solved if solved else math.inf, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "solved_share": (solved / attempted, "fraction"),
        "surveyed_error": (statistics.fmean(quality), "1"),
    }


def run_workload(args) -> int:
    rec = spans.Recorder() if args.trace else None
    missing = []
    if rec:
        missing = rec.install()
        rec.active = True
    ops = workloads.build_ops(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if rec:
        rec.active = False
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + ([] if rec else child_setup_times(args))

    plain, traced, refines = [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        plain.append(run_cycle(ops, len(plain), None)[0])
        if rec:
            rec.active = True
            records, refs = run_cycle(ops, len(traced), rec)
            rec.active = False
            traced.append(records)
            refines += refs
        now = time.perf_counter()
        if now - start + (now - lap) > args.seconds:  # stop before a lap that would not fit
            break
    if rec:
        rec.uninstall()

    env = environment(args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    check_digests(plain + traced, os.path.join(RESULTS, f"digests-{tag}.json"),
                  env["source_digest"])
    if rec:
        plain_s = statistics.fmean(sum(r["seconds"] for r in c) for c in plain)
        traced_s = statistics.fmean(sum(r["seconds"] for r in c) for c in traced)
        mc = 2 * sum(op.inputs["samples"] for op in ops if op.kind == "torus")
        metrics = spans.layer_metrics(rec.spans, len(traced), traced_s, traced_s - plain_s,
                                      refines, mc)
    else:
        metrics = end_to_end(plain, setup_samples)

    every = [r for c in plain + traced for r in c]
    failed = [r for r in every if is_failed(r)]
    correct = not any(r["checks_failed"] for r in every)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "setup_samples": setup_samples, "missing_patches": missing,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "cycles": plain, "traced_cycles": traced,
              "spans": rec.dump() if rec else []}
    with open(os.path.join(RESULTS, f"run-{tag}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:28s} {value:16.6g} {unit}")
    for r in failed:
        print(f"failed op {r['op']} ({r['kind']} {json.dumps(r['inputs'])}): "
              f"{r['error_type'] or 'check'}: {r['error'] or '; '.join(r['checks_failed'])}")
    print(json.dumps({"correct": correct, "attempted": len(every), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update({f"{workload}:{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up only and print it (the set-up repeats use this)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
