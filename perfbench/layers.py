"""Per-layer tracing of cellmesh from outside the package.

Each traced public name is rebound, in every cellmesh module that holds it,
to a wrapper that counts calls and inclusive busy seconds; class methods are
rebound on the class.  Leaf-level calls run into the millions, so counts are
aggregated per (top-level call, function) instead of kept as one span each.
A wrapper records nothing unless a top-level call from the benchmark is in
progress, so the correctness checks run between calls are not counted.

Inclusive seconds count only the outermost activation of a function, so
recursion is not double counted.  Self seconds are a call's duration minus
the time of the traced calls made directly from it; they are kept for each
traced function and for each top-level call.  The traced run is serial because counters in pool workers would be
lost; the pool is measured separately by timing spectra._run_parallel alone.
"""

import importlib
import resource
import sys
import time

# (module, public name); "Class.method" rebinds a method, a bare class name
# rebinds its constructor.
TRACED = (
    ("spectra", "gram_state_push"),
    ("intmat", "invariant_factor_product"),
    ("intmat", "smith_normal_form"),
    ("intmat", "kernel_basis"),
    ("intmat", "column_hermite"),
    ("intmat", "gram_det"),
    ("intmat", "det_bareiss"),
    ("intmat", "IntMatrix.mul"),
    ("intmat", "rank"),
    ("intmat", "char_poly"),
    ("intmat", "char_poly_rational"),
    ("intmat", "principal_minor_sum"),
    ("intmat", "det_rational"),
    ("intmat", "RatMatrix.mul"),
    ("forests", "boundary_weight"),
    ("forests", "cycle_weight"),
    ("forests", "CycleWeightContext"),
    ("forests", "enumerate_forests"),
    ("homology", "integral_cycle_basis"),
    ("homology", "integral_boundary_basis"),
    ("homology", "torsion_order"),
    ("homology", "homology_covolume_squared"),
    ("homology", "relative_order"),
    ("torsion", "verify_rf_identity"),
    ("torsion", "reduced_laplacian_det"),
    ("kalai", "verify_kalai"),
    ("kalai", "build_kalai_matrix"),
    ("complexes", "load_complex"),
    ("complexes", "parse_complex"),
    ("complexes", "boundary_matrix"),
    ("cli", "run"),
)
GENERATORS = {("forests", "enumerate_forests")}  # counted per yielded item
USEFUL = {("spectra", "gram_state_push")}  # useful = result is not None


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for mod, qual in TRACED:
        names.append((f"{mod}.{qual}.calls", "count"))
        names.append((f"{mod}.{qual}.s", "s"))
    names += [
        ("spectra.gram_state_push.useful_ratio", "ratio"),
        ("spectra.self_s", "s"),
        ("spectra.leaves", "count"),
        ("spectra.pool.s", "s"),
        ("spectra.pool.util", "ratio"),
        ("cli.self_s", "s"),
        ("trace.overhead", "ratio"),
    ]
    return names


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Rebinds the TRACED names while installed and aggregates their calls."""

    def __init__(self):
        self.stack = []  # one slot per active span: seconds of its direct children
        self.current = [None]  # label of the top-level call in progress
        self.table = {}  # (top-level label, name) -> [calls, seconds, useful, self]
        self.roots = []  # (label, layer, seconds, self seconds)
        self.pool_s = 0.0
        self.pool_cpu = 0.0
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        for mod, qual in TRACED:
            module = importlib.import_module(f"cellmesh.{mod}")
            name = f"{mod}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                self._rebind_attr(getattr(module, cls_name), meth, name)
            elif isinstance(getattr(module, qual), type):
                self._rebind_attr(getattr(module, qual), "__init__", name)
            else:
                orig = getattr(module, qual)
                if (mod, qual) in GENERATORS:
                    wrapper = self._wrap_generator(orig, name)
                else:
                    wrapper = self._wrap(orig, name, (mod, qual) in USEFUL)
                self._rebind_everywhere(orig, wrapper)

    def install_pool(self):
        """Time spectra._run_parallel and the CPU of the workers it reaps."""
        orig = sys.modules["cellmesh.spectra"]._run_parallel

        def wrapper(*args, **kwargs):
            c0, t0 = _children_cpu(), time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.pool_s += time.perf_counter() - t0
                self.pool_cpu += _children_cpu() - c0
        self._rebind_everywhere(orig, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def _rebind_attr(self, owner, attr, name):
        orig = owner.__dict__[attr]
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name, False))

    def _rebind_everywhere(self, orig, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cellmesh"
                                      or modname.startswith("cellmesh.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _record(self, name):
        key = (self.current[0], name)
        rec = self.table.get(key)
        if rec is None:
            rec = self.table[key] = [0, 0.0, 0, 0.0]
        return rec

    def _wrap(self, fn, name, useful):
        stack = self.stack
        clock = time.perf_counter
        depth = [0]
        record = self._record

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            stack.append(0.0)
            depth[0] += 1
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                depth[0] -= 1
                child = stack.pop()
                stack[-1] += dur
                rec = record(name)
                rec[0] += 1
                if not depth[0]:
                    rec[1] += dur
                rec[3] += dur - child
                if useful and result is not None:
                    rec[2] += 1
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, name):
        stack = self.stack
        clock = time.perf_counter
        record = self._record

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not stack:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                stack.append(0.0)
                t0 = clock()
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                finally:
                    dur = clock() - t0
                    child = stack.pop()
                    stack[-1] += dur
                    rec = record(name)
                    rec[1] += dur
                    rec[3] += dur - child
                if done:
                    return
                rec[0] += 1
                yield item
        wrapper.__wrapped__ = fn
        return wrapper

    # -- top-level calls ---------------------------------------------------

    def run_root(self, call, env):
        """Run one benchmark call as a top-level span."""
        self.current[0] = call.label
        self.stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return call.fn(env)
        finally:
            dur = time.perf_counter() - t0
            child = self.stack.pop()
            self.roots.append((call.label, call.layer, dur, dur - child))

    # -- results -----------------------------------------------------------

    def metrics(self, leaves, untraced_s, traced_s, processes):
        totals = {}
        for (_, name), rec in self.table.items():
            t = totals.setdefault(name, [0, 0.0, 0, 0.0])
            for i, v in enumerate(rec):
                t[i] += v
        out = {}
        for mod, qual in TRACED:
            calls, secs, _, _ = totals.get(f"{mod}.{qual}", (0, 0.0, 0, 0.0))
            out[f"{mod}.{qual}.calls"] = calls
            out[f"{mod}.{qual}.s"] = secs
        pushes, _, useful, _ = totals.get("spectra.gram_state_push", (0, 0.0, 0, 0.0))
        out["spectra.gram_state_push.useful_ratio"] = useful / pushes if pushes else 0.0
        out["spectra.self_s"] = sum(s for _, layer, _, s in self.roots if layer == "spectra")
        out["spectra.leaves"] = leaves
        out["spectra.pool.s"] = self.pool_s
        out["spectra.pool.util"] = (self.pool_cpu / (processes * self.pool_s)
                                    if self.pool_s else 0.0)
        out["cli.self_s"] = totals.get("cli.run", (0, 0.0, 0, 0.0))[3]
        out["trace.overhead"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        return out

    def detail(self):
        """Per (top-level call, function) counts and seconds."""
        rows = {}
        for (label, name), (calls, secs, useful, self_s) in sorted(self.table.items()):
            entry = {"calls": calls, "s": secs, "self_s": self_s}
            if useful:
                entry["useful"] = useful
            rows.setdefault(label, {})[name] = entry
        return {"calls": rows,
                "top_level": [{"label": lb, "layer": ly, "s": s, "self_s": ss}
                              for lb, ly, s, ss in self.roots]}
