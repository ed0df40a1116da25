"""cellmesh benchmark: one seeded workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload enum-d2 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is a summary with quartiles, sample counts, the machine
record and any correctness problems.

--trace 0 repeats passes over the workload's calls for about --seconds
(at least three) and reports medians.  Set-up time is the median of several
fresh interpreters that import cellmesh, generate the seeded inputs and
load the complexes.  --trace 1 runs one untraced serial pass, one traced
serial pass and one pass with the pool timed, and reports per-layer counts
and busy seconds; see layers.py.  Every call's result is checked; a failed
check or an exception counts as a failed call and the run goes on.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
MIN_PASSES = 3
MAX_PASSES = 50


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_cellmesh():
    """Import cellmesh from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "cellmesh", "__init__.py")):
        sys.exit(f"error: no cellmesh sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import cellmesh
    if os.path.dirname(os.path.dirname(os.path.abspath(cellmesh.__file__))) != SRC:
        sys.exit(f"error: imported cellmesh from {cellmesh.__file__}, not {SRC}")
    return cellmesh


# ---------------------------------------------------------------------------
# Machine record.
# ---------------------------------------------------------------------------

def calibrate():
    """Seconds for a fixed pure-Python big-integer loop."""
    t0 = time.perf_counter()
    m = 3 ** 3000 + 7
    acc = 1
    for i in range(2000):
        acc = (acc * (acc + i)) % m
    return time.perf_counter() - t0


def steal_s():
    """Seconds the hypervisor ran other guests on this machine's CPUs since boot."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def machine_record():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
        "steal_since_boot_s": steal_s(),
        "calibration_s": calibrate(),
    }


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------

def cpu_seconds():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def leaves_of(result):
    """Certificates of a report; a result without them is one checked identity."""
    rows = getattr(result, "rows", None)
    if rows is not None and any("certificates" in row for row in rows):
        return sum(row.get("certificates", 0) for row in rows)
    return 1


class PassResult:
    __slots__ = ("wall", "cpu", "leaves", "spectra_leaves", "attempted",
                 "failed", "problems")

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.leaves = self.spectra_leaves = 0
        self.attempted = self.failed = 0
        self.problems = []


def run_pass(calls, tracer=None):
    """Run every call once, timing each and checking its result."""
    out = PassResult()
    env = {}
    for call in calls:
        out.attempted += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            result = tracer.run_root(call, env) if tracer else call.fn(env)
            error = None
        except Exception as exc:  # a crashing call is a failed call, not a crashed run
            error = f"{call.label}: {type(exc).__name__}: {exc}"
        out.wall += time.perf_counter() - t0
        out.cpu += cpu_seconds() - c0
        if error is None:
            try:
                problems = call.check(result)
            except Exception as exc:
                problems = [f"{call.label}: check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            out.failed += 1
            out.problems.extend(p[:500] for p in problems)
        elif call.layer != "complexes":
            n = leaves_of(result)
            out.leaves += n
            if call.layer == "spectra":
                out.spectra_leaves += n
    return out


def peak_rss_mb():
    """High-water RSS of this process plus its largest reaped child."""
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (s + c) / 1024.0


def setup_probes(workload, seed, n):
    """Seconds from spawning a fresh interpreter to its first timed call."""
    out = []
    for _ in range(n):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def stats(values):
    values = list(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------

def timed_run(args, inputs, expected, workdir):
    import workloads
    calls = workloads.build_calls(args.workload, inputs, expected,
                                  workloads.PROCESSES, workdir)
    passes = [run_pass(calls)]
    n = max(MIN_PASSES, min(MAX_PASSES, int(args.seconds // max(passes[0].wall, 1e-9))))
    while len(passes) < n:
        passes.append(run_pass(calls))
    rss = peak_rss_mb()
    setups = setup_probes(args.workload, args.seed, SETUP_PROBES)
    walls = [p.wall for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "leaves_per_s": (statistics.median(p.leaves / p.wall for p in passes), "1/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    summary = {"wall_s": stats(walls), "cpu_s": stats(p.cpu for p in passes),
               "setup_s": stats(setups), "leaves_per_pass": passes[0].leaves,
               "calls_per_pass": len(calls)}
    return passes, metrics, summary


def trace_run(args, inputs, expected, workdir):
    import layers
    import workloads
    serial = workloads.build_calls(args.workload, inputs, expected, 1, workdir)
    untraced = run_pass(serial)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = run_pass(serial, tracer)
    finally:
        tracer.uninstall()
    pooled_calls = workloads.build_calls(args.workload, inputs, expected,
                                         workloads.PROCESSES, workdir)
    tracer.install_pool()
    try:
        pooled = run_pass(pooled_calls)
    finally:
        tracer.uninstall()
    values = tracer.metrics(traced.spectra_leaves, untraced.wall, traced.wall,
                            workloads.PROCESSES)
    units = dict(layers.metric_names())
    metrics = {name: (values[name], units[name]) for name in units}
    detail_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(detail_dir, exist_ok=True)
    detail_path = os.path.join(detail_dir, f"trace-{args.workload}-{args.seed}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.detail(), fh, indent=1, sort_keys=True)
    summary = {"untraced_serial_s": untraced.wall, "traced_serial_s": traced.wall,
               "pooled_s": pooled.wall, "detail": os.path.relpath(detail_path, ROOT)}
    return [untraced, traced, pooled], metrics, summary


def main(argv=None):
    args = parse_args(argv)
    import_cellmesh()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    inputs = workloads.generate(args.workload, args.seed)
    if args.setup_probe:
        env = {}
        for call in workloads.load_calls(inputs):
            call.fn(env)
        print(repr(time.time()))
        return 0

    expected = workloads.load_expected()
    workdir = tempfile.mkdtemp(prefix="run-", dir=workroot())
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        record = machine_record()
        run = trace_run if args.trace else timed_run
        passes, metrics, summary = run(args, inputs, expected, workdir)
        record["calibration_end_s"] = calibrate()
        record["loadavg_end"] = list(os.getloadavg())
        record["steal_during_run_s"] = steal_s() - record.pop("steal_since_boot_s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [q for p in passes for q in p.problems]
    summary.update({"workload": args.workload, "seed": args.seed,
                    "passes": len(passes), "fail_frac": failed / attempted,
                    "problems": problems[:20], "machine": record})
    print(json.dumps({"summary": summary}))
    for line in problems[:5]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def workroot():
    """The checkout's scratch directory for run files; git ignores it."""
    path = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
