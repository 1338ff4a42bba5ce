"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs one instance of each workload through the program, confirms its
checks pass, then feeds deliberately wrong outputs through the same
attempt-and-count path the benchmark loop uses. Exits 0 only if the correct
outputs pass and every wrong one is counted as a failed operation.
"""

import copy
import os
import shutil
import sys

import run


class Fixed:
    """A workload whose program output is replaced by a given one."""

    def __init__(self, work, out):
        self.work, self.out = work, out

    def run(self, inst, tr=None):
        return self.out

    def check(self, inst, out):
        return self.work.check(inst, out)


def corrupt(out: dict, **changes) -> dict:
    bad = copy.deepcopy(out)
    for key, change in changes.items():
        bad[key] = change(bad[key])
    return bad


def perturb(array, index, delta):
    array = array.copy()
    array[index] += delta
    return array


def wrong_outputs(name, inst, out):
    """(label, wrong output) pairs for one workload."""
    if name == "long-chain":
        free = out["num_vars"] - 1
        return [
            ("perturbed atom", corrupt(out, atoms=lambda a: perturb(a, (0, 7), 1e-4))),
            ("wrong weights", corrupt(out, weights=lambda w: w[::-1].copy())),
            ("wrong SDPA variable count",
             corrupt(out, sdpa=lambda t: t.replace(f"{free}\n", f"{free + 1}\n", 1))),
            ("wrong relaxation size", corrupt(out, num_vars=lambda v: v + 1)),
            ("wrong bound", corrupt(out, bound=lambda b: b + 1e-6)),
        ]
    if name == "admm-chain":
        return [
            ("perturbed minimizer", corrupt(out, atoms=lambda a: perturb(a, (0, 3), 1e-3))),
            ("bound above the optimum", corrupt(out, bound=lambda b: 1e-3)),
            ("not converged", corrupt(out, converged=lambda c: False)),
        ]
    import checks

    # a representing measure that is not extreme: the product weights
    # reproduce the moments but use all 2^n atoms
    product = inst.weights[checks.nearest(out["support"], inst.grid)[0]]
    return [
        ("perturbed atom", corrupt(out, atoms=lambda a: perturb(a, (5, 2), 1e-4))),
        ("wrong weights", corrupt(out, weights=lambda w: perturb(w, 0, 1e-4))),
        ("extreme weights with too large a support",
         corrupt(out, extreme=lambda e: e + [product])),
        ("negative extreme weight",
         corrupt(out, extreme=lambda e: [perturb(e[0], 0, -1e-3)])),
        ("support missing a point", corrupt(out, support=lambda s: s[1:])),
    ]


def main() -> int:
    if not run.use_checkout():
        return 2
    import workloads

    workdir = run.BENCH / ".work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name, work in workloads.WORKLOADS.items():
            inst = work.make(0, workdir)[-1]
            out = work.run(inst)
            _, problems = run.attempt(Fixed(work, out), inst, None)
            print(f"{name}: program output {'passes' if not problems else problems}")
            ok &= not problems
            for label, bad in wrong_outputs(name, inst, out):
                _, problems = run.attempt(Fixed(work, bad), inst, None)
                verdict = "counted as failed" if problems else "NOT CAUGHT"
                print(f"{name}: {label}: {verdict} {problems[:1]}")
                ok &= bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
