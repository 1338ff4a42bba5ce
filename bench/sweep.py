"""Reference figure: the long-chain stages against the clique count m.

    python3 bench/sweep.py

For each m in ``LADDER``, one long-chain instance from seed ``SEED`` (two
seeded atoms, width-3 cliques overlapping in one variable, omega = 2) is
replayed stage by stage under spans, twice; the faster self time of each
stage is printed, with its ratio per clique to the smallest m. A stage whose
per-clique cost grows with m scales worse than linearly. The bundled-solver probe is left out: its dense
normal matrix needs (12 m)^2 doubles. The result is also written to
``bench/results/sweep.json``.
"""

import json
import os
import shutil
import sys

import run

STAGES = (
    "core.sparse_exponents", "io.load_moment_vector", "relax.build_relaxation",
    "relax.emit_sdpa", "relax.ingest_solution", "certify.certify",
    "core.clique_subvector", "matrices.moment_matrix", "extract.extract_atoms",
    "assemble.assemble", "assemble.verify_global", "altmeasure.enumerate_extreme_measures",
)
LADDER = (25, 50, 100, 200, 400)
SEED = 0


def main() -> int:
    if not run.use_checkout():
        return 2
    import workloads
    from spans import Tracer

    workdir = run.BENCH / ".work" / f"sweep-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rows = {}
    try:
        for m in LADDER:
            work = workloads.LongChain(m)
            work.solver_probe_iters = 0
            inst = work.make(SEED, workdir)[0]
            best = {}
            for _ in range(2):
                tr = Tracer(workdir)
                _, problems = run.attempt(work, inst, tr)
                if problems:
                    print(f"m={m}: {problems}", file=sys.stderr)
                    return 1
                for name, seconds in tr.self_times()[-1].items():
                    best[name] = min(seconds, best.get(name, float("inf")))
            best["io.json_mb"] = inst.json_bytes / 1e6
            rows[m] = best
            print(f"m={m} done", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    base = min(rows)
    print("| stage | " + " | ".join(f"m={m}" for m in rows) + f" | per-clique ratio {max(rows)}/{base} |")
    print("|---|" + "---|" * (len(rows) + 1))
    for stage in STAGES + ("io.json_mb",):
        cells = [f"{rows[m].get(stage, 0.0):.4g}" for m in rows]
        ratio = (rows[max(rows)][stage] / max(rows)) / (rows[base][stage] / base)
        unit = "MB" if stage.endswith("_mb") else "s"
        print(f"| {stage} ({unit}) | " + " | ".join(cells) + f" | {ratio:.2f} |")
    out = run.BENCH / "results" / "sweep.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({str(m): r for m, r in rows.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
