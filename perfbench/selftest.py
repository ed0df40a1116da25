"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py          # seconds: smoke plans on k4, theta, moore_z2
    python3 perfbench/selftest.py --full   # also the full-size seed invariants (minutes)

The smoke runs each workload's code on tiny complexes and shows that:
  * every call passes the gate, with the seed-invariant summaries recorded
    at one seed reproduced exactly at two other seeds (relabelling keeps
    the invariants);
  * the gate counts an exception as one failed call and a wrong expected
    value as one failed call for each call checked against it, and the
    pass still completes;
  * the oracles reject a wrong count, polynomial or weighted Laplacian;
  * the tracer's counts repeat exactly and uninstalling restores cellmesh.
--full checks the invariants the paper's corpus fixes, at two seeds:
358,884 trent and kirchhoff certificates on delta5skel2 at d = 2 with the
trent k = 0 row 46656 = 6^6, 26,703 trent and boundary certificates on rp2
at d = 1, and rf(rp2) = 1/4.
Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import shutil
import sys
import tempfile
from fractions import Fraction

import run

FAILURES = []
WORKDIR = [None]  # scratch directory for the CLI's input files


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def smoke_expected(workload, seed):
    """Seed-invariant summaries of a smoke plan at one seed."""
    import workloads
    inputs = workloads.generate(workload, seed, workloads.SMOKE[workload])
    env = {}
    out = {}
    for call in workloads.build_calls(workload, inputs, {}, 2, WORKDIR[0]):
        result = call.fn(env)
        if call.kind:
            out[call.key] = workloads.summarize(call.kind, result)
    return {workload: out}


def smoke(workload):
    import workloads
    expected = smoke_expected(workload, 1)
    expect(bool(expected[workload]), f"{workload}: smoke plan records summaries")
    for seed in (2, 3):
        inputs = workloads.generate(workload, seed, workloads.SMOKE[workload])
        calls = workloads.build_calls(workload, inputs, expected, 2, WORKDIR[0])
        result = run.run_pass(calls)
        expect(result.failed == 0 and result.attempted == len(calls),
               f"{workload} seed {seed}: {result.attempted} calls, "
               f"{result.failed} failed {result.problems[:2]}")

    # a wrong expected value fails every call checked against it
    key = sorted(expected[workload])[0]
    wrong = {workload: dict(expected[workload])}
    wrong[workload][key] = dict(wrong[workload][key], pass_="tampered")
    inputs = workloads.generate(workload, 2, workloads.SMOKE[workload])
    calls = workloads.build_calls(workload, inputs, wrong, 2, WORKDIR[0])
    users = sum(call.key == key for call in calls)
    result = run.run_pass(calls)
    expect(users >= 1 and result.failed == users and result.attempted == len(calls)
           and all("tampered" in p for p in result.problems),
           f"{workload}: wrong expected value for {key} counted as {users} failure(s)")

    # an exception inside a call is a failed call, and later calls still run
    def boom(env):
        raise AssertionError("injected mismatch")
    calls = workloads.build_calls(workload, inputs, expected, 2, WORKDIR[0])
    calls.insert(len(calls) // 2 + 1,
                 workloads.Call("injected", "spectra", boom, lambda r: []))
    result = run.run_pass(calls)
    expect(result.failed == 1 and result.attempted == len(calls),
           f"{workload}: raised AssertionError counted as 1 failure, run completed")


def oracle_checks():
    """The seed-dependent checks reject a wrong value."""
    import workloads
    inputs = workloads.generate("leaf-d1", 4, workloads.SMOKE["leaf-d1"])
    calls = workloads.build_calls("leaf-d1", inputs, {}, 1)
    env = {}
    for call in calls:
        result = call.fn(env)
        if call.label.startswith("boundary:bouquet"):
            expect(call.check(result) == [], f"{call.label}: oracle accepts the report")
            result.rows[-1]["certificates"] += 1
            expect(call.check(result) != [], f"{call.label}: oracle rejects a wrong count")
    from cellmesh import complexes, intmat, spectra
    doc = workloads.generate("dense", 4, workloads.SMOKE["dense"])["docs"]["theta"]
    weights = {c["id"]: Fraction(i + 2, 3) for i, c in enumerate(
        c for d in range(doc["dimension"] + 1) for c in doc["cells"][str(d)])}
    lap = spectra.weighted_laplacian(complexes.parse_complex(json.dumps(doc)), 1, weights)
    check = workloads._weighted_laplacian_check("laplacian", doc, 1, weights)
    result = (lap.matrix, intmat.char_poly_rational(lap.matrix))
    expect(check(result) == [], "weighted Laplacian oracle accepts cellmesh's matrix")
    lap.matrix.data[0][0] += 1
    expect(check((lap.matrix, intmat.char_poly_rational(lap.matrix))) != [],
           "weighted Laplacian oracle rejects a wrong matrix")
    m = intmat.IntMatrix.from_rows([[2, 1], [1, 3]])
    check = workloads._char_poly_check("charpoly")
    expect(check((m, intmat.char_poly(m))) == [], "char poly oracle accepts t^2-5t+5")
    expect(check((m, intmat.IntPolynomial([5, -5, 2]))) != [],
           "char poly oracle rejects a wrong polynomial")


def tracer_checks():
    import layers
    import workloads
    from cellmesh import intmat, spectra
    inputs = workloads.generate("enum-d2", 5, workloads.SMOKE["enum-d2"])
    counts = []
    for _ in range(2):
        calls = workloads.build_calls("enum-d2", inputs, {}, 1)
        tracer = layers.Tracer()
        tracer.install()
        try:
            run.run_pass(calls, tracer)
        finally:
            tracer.uninstall()
        values = tracer.metrics(0, 1.0, 1.0, 2)
        counts.append({k: v for k, v in values.items() if k.endswith(".calls")})
    expect(counts[0] == counts[1] and counts[0]["spectra.gram_state_push.calls"] > 0,
           "traced counts repeat exactly across two runs")
    expect(not hasattr(spectra.gram_state_push, "__wrapped__")
           and not hasattr(intmat.IntMatrix.mul, "__wrapped__"),
           "uninstall restores every rebound name")


def full_invariants():
    import gen
    import workloads
    from cellmesh import complexes, spectra, torsion
    for seed in (7, 8):
        base = workloads._base_docs()
        docs = {}
        for name in ("delta5skel2", "rp2"):
            doc, _ = gen.relabel(base[name], workloads._rng(seed, name))
            docs[name] = complexes.parse_complex(json.dumps(doc))
        d5, rp2 = docs["delta5skel2"], docs["rp2"]
        r = spectra.verify_theorem1(d5, 2, processes=2)
        expect(r.passed and workloads.certificates(r) == 358884
               and workloads._det_row(r) == 6 ** 6,
               f"seed {seed}: trent delta5skel2 d=2: 358,884 leaves, k=0 row 46656")
        r = spectra.verify_kirchhoff_lyons(d5, 2, processes=2)
        expect(r.passed and workloads.certificates(r) == 358884,
               f"seed {seed}: kirchhoff delta5skel2 d=2: 358,884 leaves")
        for verify, name in ((spectra.verify_theorem1, "trent"),
                             (spectra.verify_theorem2, "boundary")):
            r = verify(rp2, 1, processes=2)
            expect(r.passed and workloads.certificates(r) == 26703,
                   f"seed {seed}: {name} rp2 d=1: 26,703 leaves")
        r = torsion.verify_rf_identity(rp2)
        expect(r.passed and r.lhs == Fraction(1, 4), f"seed {seed}: rf(rp2) = 1/4")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--full", action="store_true")
    args = p.parse_args(argv)
    run.import_cellmesh()
    import workloads
    WORKDIR[0] = tempfile.mkdtemp(prefix="selftest-", dir=run.workroot())
    try:
        for workload in workloads.WORKLOADS:
            smoke(workload)
        oracle_checks()
        tracer_checks()
        if args.full:
            full_invariants()
    finally:
        shutil.rmtree(WORKDIR[0], ignore_errors=True)
    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
