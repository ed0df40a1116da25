"""Ungated per-case sweep: every (corpus complex, verifier, dim), serial and pooled.

    python3 perfbench/sweep.py [--out FILE]

Times verify_theorem1, verify_theorem2, verify_kirchhoff_lyons and
verify_geometric_theorems on every bundled corpus complex (as shipped, not
relabelled) for d = 1..dim, serially and at 2 workers, and prints one JSON
document: the machine record, and per case the wall and CPU seconds
(this process plus reaped pool workers), the certificate total and whether
the report passed.  Cases are sorted by serial wall time, slowest first.
It gates nothing; it is the record behind the per-case cost table.
"""

import argparse
import json
import sys
import time

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="also write the JSON document to this file")
    args = p.parse_args(argv)
    run.import_cellmesh()
    import workloads
    from cellmesh import corpus, spectra

    record = run.machine_record()
    counts = (1, workloads.PROCESSES)
    cases = {}
    for processes in counts:
        for name, build in corpus.BUILDERS.items():
            x = build()
            for d in range(1, x.dimension + 1):
                for theorem, fn_name in workloads.VERIFIERS.items():
                    c0, t0 = run.cpu_seconds(), time.perf_counter()
                    report = getattr(spectra, fn_name)(x, d, processes=processes)
                    wall = time.perf_counter() - t0
                    cpu = run.cpu_seconds() - c0
                    case = cases.setdefault(f"{theorem}:{name}:d{d}", {
                        "theorem": theorem, "complex": name, "dim": d,
                        "certificates": workloads.certificates(report)})
                    case[f"p{processes}"] = {"wall_s": wall, "cpu_s": cpu,
                                             "pass": report.passed}
                    print(f"p={processes} {theorem:9s} {name:12s} d={d} "
                          f"{wall:8.2f} s", file=sys.stderr, flush=True)
    rows = sorted(cases.values(), key=lambda c: -c["p1"]["wall_s"])
    record["calibration_end_s"] = run.calibrate()
    doc = {"machine": record, "cases": rows,
           "total_wall_s": {f"p{n}": sum(c[f"p{n}"]["wall_s"] for c in rows)
                            for n in counts}}
    text = json.dumps(doc, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
