#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Runs every workload's traced run (`--trace 1`) twice with seed 3 and
once with seed 4, and checks that

* the two runs of seed 3 print the same fingerprint and the same exact
  counters (the `exact` lines),
* seed 4 prints a different fingerprint,
* every run passes its own checks, including traced == untraced.

Fingerprints are only compared within one build: changes that reorder
float sums legitimately move them between commits.

Usage, from the repository root:

    python3 crates/bench/ledger/selfcheck.py

Exits 1 if any check fails.
"""

import json
import subprocess
import sys

SEED = 3
OTHER_SEED = 4
WORKLOADS = ("train", "unlearn-stream", "serve-journaled")


def traced_run(command, workload, seed):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    fingerprint = next((l.split()[-1] for l in lines
                        if l.startswith("fingerprint ")), None)
    exact = dict(l.split(" = ", 1) for l in lines if l.startswith("exact "))
    return proc.returncode, fingerprint, exact


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        command = json.load(f)["command"]

    problems = []
    for workload in WORKLOADS:
        (code_a, fp_a, exact_a), (code_b, fp_b, exact_b), \
            (code_c, fp_c, _) = [traced_run(command, workload, s)
                                 for s in (SEED, SEED, OTHER_SEED)]
        for seed, code in ((SEED, code_a), (SEED, code_b),
                           (OTHER_SEED, code_c)):
            if code != 0:
                problems.append(f"{workload} seed {seed}: exit {code}")
        if fp_a is None or fp_a != fp_b:
            problems.append(f"{workload}: fingerprint {fp_a} then {fp_b} "
                            f"for seed {SEED}")
        if fp_a == fp_c:
            problems.append(f"{workload}: seeds {SEED} and {OTHER_SEED} "
                            f"share fingerprint {fp_a}")
        for name in sorted(set(exact_a) | set(exact_b)):
            if exact_a.get(name) != exact_b.get(name):
                problems.append(f"{workload}: {name} {exact_a.get(name)} "
                                f"then {exact_b.get(name)}")
        print(f"{workload}: fingerprints {fp_a} {fp_b} {fp_c}; exact "
              + ", ".join(f"{k.split()[-1]}={v}" for k, v in
                          sorted(exact_a.items())), flush=True)
    for p in problems:
        print(f"FAILED {p}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
