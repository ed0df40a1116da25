"""Record the seed-invariant summaries the correctness gate compares against.

    python3 perfbench/expected.py

Runs every workload once at seed 0 and writes expected.json with
the summary of each call whose result relabelling cannot change (leaf
counts, determinant rows, Laplacian and geometric coefficients, torsion
homology values, and cycle mesh determinants).  The self-test checks that
other seeds reproduce them.
Re-run only when cellmesh's reports change shape, and review the diff.
"""

import json
import os
import shutil
import sys
import tempfile

import run

SEED = 0  # any seed gives the same summaries


def record(workload, seed):
    import workloads
    inputs = workloads.generate(workload, seed)
    workdir = tempfile.mkdtemp(prefix="expected-", dir=run.workroot())
    try:
        calls = workloads.build_calls(workload, inputs, {}, workloads.PROCESSES, workdir)
        env = {}
        out = {}
        for call in calls:
            result = call.fn(env)
            if call.kind:
                out[call.key] = workloads.summarize(call.kind, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main():
    run.import_cellmesh()
    import workloads
    doc = {w: record(w, SEED) for w in workloads.WORKLOADS}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.EXPECTED_PATH)}: "
          f"{sum(len(v) for v in doc.values())} summaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
