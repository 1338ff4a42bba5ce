"""Run one benchmark workload as a closed loop and print its metrics.

    python3 bench/run.py --workload long-chain --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``smk`` is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same instances are replayed stage
by stage under spans and the per-layer metrics are printed instead, and the
spans are written to ``bench/results/``. Earlier stdout lines starting with
``#`` record the machine, the peak memory after set-up, the host reference
kernel and the fastest instance.
"""

import time

PROCESS_START = time.perf_counter()  # before the other imports: setup_s covers them

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
KERNEL_REPEATS = 5
# what a run imports, timed in a fresh interpreter; argv[1:] go on sys.path
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import sys; sys.path[:0] = sys.argv[1:]; "
    "import argparse, gc, json, platform, resource, shutil, statistics, subprocess, "
    "traceback, numpy, scipy, workloads, spans; print(time.perf_counter() - start)"
)

# per-layer metric -> span whose per-instance self time it is
SPAN_METRICS = {
    "io.load_moment_vector_s": "io.load_moment_vector",
    "core.sparse_exponents_s": "core.sparse_exponents",
    "core.clique_subvector_s": "core.clique_subvector",
    "relax.build_relaxation_s": "relax.build_relaxation",
    "relax.emit_sdpa_s": "relax.emit_sdpa",
    "relax.ingest_solution_s": "relax.ingest_solution",
    "relax.solve_sdp_bundled_s": "relax.solve_sdp_bundled",
    "rip.check_rip_s": "rip.check_rip",
    "certify.certify_s": "certify.certify",
    "matrices.moment_matrix_s": "matrices.moment_matrix",
    "extract.extract_atoms_s": "extract.extract_atoms",
    "assemble.assemble_s": "assemble.assemble",
    "assemble.maximal_support_set_s": "assemble.maximal_support_set",
    "assemble.verify_global_s": "assemble.verify_global",
    "altmeasure.enumerate_extreme_measures_s": "altmeasure.enumerate_extreme_measures",
}
COUNT_METRICS = {
    "io.json_mb": "MB",
    "relax.sdpa_mb": "MB",
    "relax.admm_iterations": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine_record(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def reference_kernel(np) -> list[float]:
    """Seconds for a fixed pure-numpy kernel (symmetric eigendecompositions),
    repeated; it shows how fast the host ran, not how fast smk is."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((120, 120))
    a = a + a.T
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.eigh(a)
        times.append(time.perf_counter() - start)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def admm_ms_per_iter(times: dict, counts: dict) -> float:
    """Milliseconds per ADMM iteration in one instance. A probe that stopped
    the solver early also timed a one-iteration call, whose time (set-up and
    one iteration) is taken off; a full solve's set-up is a few ms of it."""
    total, iters = times["relax.solve_sdp_bundled"], counts["relax.admm_iterations"]
    first = times.get("relax.solve_sdp_bundled.first")
    if first is None:
        return 1e3 * total / iters
    return 1e3 * (total - first) / (iters - 1)


def per_layer_metrics(tr, kernel_times) -> dict:
    """Per-instance medians of span self times and counts, and the ratios
    built from them."""
    table = tr.self_times()
    out = {
        name: metric(median_or_none(row[span] for row in table.values() if span in row), "s")
        for name, span in SPAN_METRICS.items()
    }
    for name, unit in COUNT_METRICS.items():
        out[name] = metric(
            median_or_none(row[name] for row in tr.counts.values() if name in row), unit
        )
    out["relax.admm_ms_per_iter"] = metric(median_or_none(
        admm_ms_per_iter(table[i], row)
        for i, row in tr.counts.items() if "relax.admm_iterations" in row
    ), "ms")
    out["altmeasure.lp_s_per_solve"] = metric(median_or_none(
        table[i]["altmeasure.enumerate_extreme_measures"] / row["altmeasure.lp_solves"]
        for i, row in tr.counts.items() if "altmeasure.lp_solves" in row
    ), "s")
    out["host.ref_kernel_s"] = metric(statistics.median(kernel_times), "s")
    return out


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import what a run imports."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(BENCH)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def use_checkout() -> bool:
    """Pin BLAS to one thread and put the checkout's ``src`` and this
    directory on the import path; False if there are no sources to import."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    if not (ROOT / "src" / "smk" / "__init__.py").is_file():
        print(f"no smk sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    return True


def attempt(work, inst, tr) -> tuple[float, list[str]]:
    """Run one instance and check it: (seconds, problems). A crash is a
    problem like any wrong output, so the run goes on and counts it."""
    start = time.perf_counter()
    try:
        if tr is None:
            out = work.run(inst)
        else:
            with tr.span("instance"):
                out = work.run(inst, tr)
        elapsed = time.perf_counter() - start
        return elapsed, work.check(inst, out)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, [f"{type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout():
        return 2
    import numpy as np
    import scipy

    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]
    print("# machine " + json.dumps(machine_record(np, scipy)), flush=True)

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set up several times: this process's imports and two fresh
        # interpreters' give the import time, three builds the input time
        import_samples = [import_s] + [
            fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)
        ]
        build_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            instances = work.make(args.seed, workdir)
            build_s.append(time.perf_counter() - start)
        setup_s = statistics.median(import_samples) + statistics.median(build_s)

        print(f"# peak_rss_mb after set-up {peak_rss_mb():.1f}", flush=True)

        tr = Tracer(workdir) if args.trace else None
        kernel_times = reference_kernel(np)
        attempt(work, instances[0], tr)  # warm-up, untimed and uncounted
        if tr is not None:
            tr.clear()

        times, attempted, failed = [], 0, 0
        loop_start = time.perf_counter()
        while True:
            for inst in instances:  # whole passes only
                gc.collect()
                if tr is not None:
                    tr.instance = attempted
                elapsed, problems = attempt(work, inst, tr)
                attempted += 1
                times.append(elapsed)
                if problems:
                    failed += 1
                    print(f"# instance {attempted - 1} failed: {'; '.join(problems)}",
                          file=sys.stderr)
            if time.perf_counter() - loop_start >= args.seconds:
                break
        kernel_times += reference_kernel(np)
        print(f"# host.ref_kernel_s {statistics.median(kernel_times):.6f} "
              f"instances {attempted}", flush=True)

        if tr is None:
            # the fastest instance spreads between runs by more than any bound
            # this benchmark may set (see README), so it is printed, not gated
            print(f"# instance_s.min {min(times):.6f} s", flush=True)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "instances_per_s": metric(len(times) / sum(times), "1/s"),
                "instance_s.p50": metric(statistics.median(times), "s"),
                "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            }
        else:
            metrics = per_layer_metrics(tr, kernel_times)
            probes = tr.durations("probe")
            traced_p50 = statistics.median(
                d - probes.get(i, 0.0) for i, d in tr.durations("instance").items()
            )
            print(f"# traced instance_s.p50 {traced_p50:.6f}", flush=True)
            tr.write(
                BENCH / "results" / f"trace-{args.workload}-{args.seed}.json",
                {"workload": args.workload, "seed": args.seed,
                 "traced_instance_s.p50": traced_p50},
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
