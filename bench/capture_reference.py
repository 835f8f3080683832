#!/usr/bin/env python3
"""Write bench/reference.json: the key outputs of every workload invocation
for seeds 0-9, from one pass of the program in this checkout.

    python3 bench/capture_reference.py

Run it only at a commit whose outputs are the ones later commits must keep;
bench/run.py compares against the file to 1e-12 absolute.
"""

import json
import tempfile

import run

SEEDS = range(10)


def main():
    cli, _ = run.import_program()
    out = {"atol": run.REF_ATOL, "seeds": list(SEEDS), "workloads": {}}
    for name, workload in run.WORKLOADS.items():
        per_seed = out["workloads"][name] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix=".bench_out-",
                                             dir=run.ROOT) as tmp:
                checker = run.Checker(cli, tmp)
                run.run_pass(checker, run.parse_invocations(
                    cli, workload.invocations(seed)))
            per_seed[str(seed)] = checker.outputs
            print(f"{name} seed {seed}: {checker.failed} of "
                  f"{checker.attempted} failed {checker.problems}")
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
