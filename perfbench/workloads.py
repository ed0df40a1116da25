"""The three benchmark workloads: seeded inputs, the calls of one pass, and
the correctness gate of every call.

A seed relabels and reorients the corpus complexes and draws the bouquets,
unimodular basis changes and weights.  cellmesh receives only the generated
complex documents.  Every call is checked: against a recorded seed-invariant
summary (expected.json) where relabelling cannot change the value, and
against the benchmark's own oracle (gen.py) where the value depends on the
seed.

Why these workloads:
  enum-d2  the same enumeration tree on delta5skel2 at d = 2 run with and
           without per-leaf Smith work (trent fast path vs kirchhoff), plus
           the second enumeration engine (geometric); the only workload that
           drives the process pool.
  leaf-d1  per-leaf two-route weight checks (theorem 2, theorem 1 slow path)
           on rp2 at d = 1, where enumeration is a small share; the bouquets
           run the same Smith/Bareiss kernels on large entries.
  dense    enumeration-free exact algebra: homology, torsion, Kalai tables,
           the CLI, and integer next to rational char polys.

Each workload takes a fixed, deterministic subset of the full corpus cases
so that a run holds at least three passes: delta5skel2 without its last
triangle for trent and kirchhoff (trent still takes the fast path: 142,036
leaves), delta5skel2 without its last three triangles for geometric, and
rp2 without the edges 1.2 and 1.3 and their faces (5,563 trent and 4,049
boundary leaves).
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import gen

WORKLOADS = ("enum-d2", "leaf-d1", "dense")
VERIFIERS = {"trent": "verify_theorem1", "boundary": "verify_theorem2",
             "kirchhoff": "verify_kirchhoff_lyons",
             "geometric": "verify_geometric_theorems"}
PROCESSES = 2  # the user default, default_processes(), on a 2-CPU machine
KALAI_KINDS = ("incidence", "laplacian", "mesh")
KALAI_MAX_N = 7
# Seeded basis changes per (complex, d) and weight draws per complex: enough
# that integer and rational char polys each take a visible share of dense.
INT_DRAWS = 8
RAT_DRAWS = 3

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


class Call:
    """One timed call into cellmesh and the check of its result.

    fn(env) runs the call; env holds the complexes loaded earlier in the
    pass.  check(result) returns a list of problems, empty when correct.
    layer names the cellmesh module the call enters.  kind is set on calls
    whose result is checked against a seed-invariant summary, recorded in
    expected.json under key.
    """

    __slots__ = ("label", "layer", "fn", "check", "kind", "key")

    def __init__(self, label, layer, fn, check, kind=None, key=None):
        self.label = label
        self.layer = layer
        self.fn = fn
        self.check = check
        self.kind = kind
        self.key = key or label


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------

def _rng(seed, purpose):
    return random.Random(f"{seed}:{purpose}")


def _base_docs():
    """Corpus documents plus the deterministic subsets the plans use."""
    from cellmesh import corpus
    docs = {name: gen.complex_doc(build()) for name, build in corpus.BUILDERS.items()}
    d5 = docs["delta5skel2"]
    for k in (1, 3):
        name = f"delta5skel2-{k}"
        docs[name] = gen.drop_cells(d5, 2, [c["id"] for c in d5["cells"]["2"][-k:]], name)
    rp2 = docs["rp2"]
    edges = {"1.2", "1.3"}
    faces = [c["id"] for c in rp2["cells"]["2"]
             if any(f in edges for f, _ in c["boundary"])]
    cut = gen.drop_cells(rp2, 2, faces, "rp2-e12e13")
    cut["cells"]["1"] = [c for c in cut["cells"]["1"] if c["id"] not in edges]
    docs["rp2-e12e13"] = cut
    return docs


# Listed rather than read from corpus.BUILDERS, so that adding a complex to
# the corpus does not change the dense workload.
CORPUS = ("k3", "k4", "theta", "p2", "delta3", "sphere2", "delta5skel2", "rp2",
          "moore_z2", "dunce")

# What each workload runs: "verify" lists (verifier, complex, d) cases,
# "dense" lists complexes, "bouquets" gives (loops, disks) of the two seeded
# bouquets, "kalai_max_n" the largest simplex.  SMOKE runs the same code on
# tiny complexes for the self-test.
PLANS = {
    "enum-d2": {"verify": [("trent", "delta5skel2-1", 2),
                           ("kirchhoff", "delta5skel2-1", 2),
                           ("geometric", "delta5skel2-3", 2)]},
    "leaf-d1": {"verify": [("boundary", "rp2-e12e13", 1), ("trent", "rp2-e12e13", 1)],
                "bouquets": (11, 7)},
    "dense": {"dense": CORPUS, "bouquets": (11, 7), "kalai_max_n": KALAI_MAX_N},
}
_TINY = ("k4", "theta", "moore_z2")
SMOKE = {
    "enum-d2": {"verify": [(kind, name, 1) for name in _TINY
                           for kind in ("trent", "kirchhoff", "geometric")]},
    "leaf-d1": {"verify": [(kind, name, 1) for name in _TINY
                           for kind in ("boundary", "trent")],
                "bouquets": (4, 2)},
    "dense": {"dense": ("k4", "theta", "moore_z2"), "bouquets": (4, 2),
              "kalai_max_n": 4},
}


def _greedy_forest(doc, d):
    """Ids of the first spanning forest at dimension d in cell order."""
    rows = gen.boundary_rows(doc, d)
    ids = [c["id"] for c in doc["cells"][str(d)]]
    picked = []
    for j in range(len(ids)):
        cols = [[row[i] for row in rows] for i in picked + [j]]
        if gen.rank(cols) > len(picked):
            picked.append(j)
    return [ids[j] for j in picked]


def generate(workload, seed, plan=None):
    """Seeded inputs of a workload: complex documents plus extra data."""
    if workload not in PLANS:
        raise ValueError(f"unknown workload {workload!r}")
    plan = PLANS[workload] if plan is None else plan
    base = _base_docs()
    inputs = {"plan": plan, "docs": {}, "v0": {},
              "degrees": {}, "unimodular": {}, "weights": {}, "kalai_weights": {}}

    def add(name):
        out, rename = gen.relabel(base[name], _rng(seed, f"relabel:{name}"))
        inputs["docs"][name] = out
        return rename

    for kind, name, d in plan.get("verify", ()):
        rename = add(name)
        if kind == "geometric":
            # the image of a fixed forest, so geometric's values are seed-invariant
            inputs["v0"][name] = sorted(rename[c] for c in _greedy_forest(base[name], d))
    if "bouquets" in plan:
        loops, disks = plan["bouquets"]
        for tag in ("a", "b"):
            name = f"bouquet-{tag}"
            doc, deg = gen.bouquet(_rng(seed, name), loops, disks, name=name)
            inputs["docs"][name] = doc
            inputs["degrees"][name] = deg
    if "dense" in plan:
        rng = _rng(seed, "dense")
        for name in plan["dense"]:
            add(name)
            doc = base[name]
            for d in range(1, doc["dimension"] + 1):
                z = len(doc["cells"][str(d)]) - gen.rank(gen.boundary_rows(doc, d))
                for i in range(INT_DRAWS if z else 0):
                    inputs["unimodular"][(name, d, i)] = gen.unimodular(rng, z)
            ids = [c["id"] for d in range(doc["dimension"] + 1)
                   for c in inputs["docs"][name]["cells"][str(d)]]
            for i in range(RAT_DRAWS):
                inputs["weights"][(name, i)] = {cid: gen.positive_weight(rng)
                                                for cid in ids}
        inputs["kalai_weights"] = {
            n: [gen.positive_weight(rng) for _ in range(n)]
            for n in range(2, plan["kalai_max_n"] + 1)}
    inputs["texts"] = {name: json.dumps(doc) for name, doc in inputs["docs"].items()}
    return inputs


def write_files(texts, workdir):
    """Write each named complex text to <workdir>/<name>.json."""
    paths = {}
    for name, text in texts.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# Summaries compared with expected.json.
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    return v


def certificates(report):
    return sum(row.get("certificates", 0) for row in report.rows)


def _det_row(report):
    return next(row for row in report.rows if row["k"] == 0)["lhs"]


def summarize(kind, result):
    """The seed-invariant part of a result, as JSON-ready data."""
    if kind in ("trent", "boundary"):
        return {"pass": result.passed,
                "certificates": [row["certificates"] for row in result.rows],
                "det": _fmt(_det_row(result))}
    if kind == "kirchhoff":
        return {"pass": result.passed,
                "rows": [[row["k"], _fmt(row["lhs"]), row["certificates"]]
                         for row in result.rows]}
    if kind == "geometric":
        return {"pass": result.passed,
                "rows": [[row["side"], row["k"], _fmt(row["lhs"]),
                          _fmt(row["rhs"]), row["certificates"]]
                         for row in result.rows]}
    if kind == "rf":
        return {"pass": result.passed, "lhs": _fmt(result.lhs),
                "rhs": _fmt(result.rhs)}
    if kind == "kalai":
        return {"pass": result.passed,
                "rows": [[row["check"], _fmt(row["lhs"]), _fmt(row["rhs"]),
                          row["pass"]] for row in result.rows]}
    if kind == "cli-covolume":
        code, doc = result
        row = doc["rows"][0] if doc else {}
        return {"exit": code, "pass": doc.get("pass") if doc else None,
                "lhs": row.get("lhs"), "rhs": row.get("rhs")}
    if kind == "cli-homology":
        code, doc = result
        return {"exit": code, "homology": doc.get("homology") if doc else None}
    if kind == "charpoly-int":
        # det(U^t M U) = det(M) for unimodular U: the squared covolume of the
        # cycle lattice, whatever the seed; det(M) = (-1)^n char_poly(0)
        matrix, poly = result
        rows = [list(row) for row in matrix.data]
        return {"size": len(rows), "symmetric": rows == gen.transpose(rows),
                "det": _fmt((-1) ** len(rows) * _coeffs(poly)[0])}
    raise ValueError(f"no summary for {kind!r}")


def _invariant(label, layer, fn, kind, expected, key=None, oracle=None):
    """A call checked against its recorded seed-invariant summary, and by
    `oracle` (result -> problems) first when given."""
    key = key or label
    want = expected.get(key)

    def check(result):
        problems = oracle(result) if oracle else []
        got = summarize(kind, result)
        if want is None:
            problems.append(f"{label}: no expected value recorded for {key}")
        elif got != want:
            problems.append(f"{label}: got {got} expected {want}")
        return problems
    return Call(label, layer, fn, check, kind, key)


def _passed(label, result):
    return [] if result.passed else [f"{label}: report pass is false"]


# ---------------------------------------------------------------------------
# The calls of one pass.
# ---------------------------------------------------------------------------

def load_calls(inputs):
    """One call per generated complex, parsing its text into env."""
    from cellmesh import complexes

    calls = []
    for name, text in inputs["texts"].items():
        counts = tuple(len(inputs["docs"][name]["cells"][str(d)])
                       for d in range(inputs["docs"][name]["dimension"] + 1))

        def fn(env, name=name, text=text):
            env[name] = complexes.parse_complex(text)
            return env[name]

        def check(x, name=name, counts=counts):
            return [] if x.counts() == counts else [f"load:{name}: cell counts {x.counts()}"]
        calls.append(Call(f"load:{name}", "complexes", fn, check))
    return calls


def _bouquet_boundary_call(name, deg, processes):
    from cellmesh import spectra
    label = f"boundary:{name}:d1"
    oracle = {}

    def fn(env):
        return spectra.verify_theorem2(env[name], 1, processes=processes)

    def check(report):
        if not oracle:
            width = len(deg[0])
            oracle["leaves"] = gen.independent_subset_count(deg, width)
            oracle["det"] = gen.det(gen.matmul(gen.transpose(deg), deg))
        problems = _passed(label, report)
        if certificates(report) != oracle["leaves"]:
            problems.append(f"{label}: {certificates(report)} certificates, "
                            f"expected {oracle['leaves']}")
        if _det_row(report) != oracle["det"]:
            problems.append(f"{label}: det {_det_row(report)} expected {oracle['det']}")
        return problems
    return Call(label, "spectra", fn, check)


def _bouquet_rf_call(name, deg):
    from cellmesh import torsion
    label = f"rf:{name}"
    oracle = {}

    def fn(env):
        return torsion.verify_rf_identity(env[name])

    def check(report):
        if not oracle:
            # H_0 = Z and H_2 = 0, so only t_1 = gcd of the maximal minors counts
            g = gen.maximal_minor_gcd(deg, len(deg[0]))
            oracle["rf"] = Fraction(1, g * g)
        want = oracle["rf"]
        problems = _passed(label, report)
        if report.lhs != want:
            problems.append(f"{label}: rf {report.lhs} expected {want}")
        return problems
    return Call(label, "torsion", fn, check)


def build_calls(workload, inputs, expected, processes=PROCESSES, workdir=None):
    """The calls of one pass, loads first.  `processes` is passed to every
    verifier that accepts it; `workdir` receives the files the CLI reads."""
    from cellmesh import complexes, spectra

    plan = inputs["plan"]
    ex = expected.get(workload, {})
    calls = load_calls(inputs)
    for kind, name, d in plan.get("verify", ()):
        if kind == "geometric":
            v0 = complexes.CellSubset(d, inputs["v0"][name])

            def fn(env, name=name, d=d, v0=v0):
                return spectra.verify_geometric_theorems(env[name], d, v0=v0,
                                                         processes=processes)
        else:
            verify = getattr(spectra, VERIFIERS[kind])

            def fn(env, name=name, d=d, verify=verify):
                return verify(env[name], d, processes=processes)
        calls.append(_invariant(f"{kind}:{name}:d{d}", "spectra", fn, kind, ex))
    if "dense" in plan:
        calls.extend(_dense_calls(inputs, ex, workdir))
    elif "bouquets" in plan:
        for bname, deg in inputs["degrees"].items():
            calls.append(_bouquet_boundary_call(bname, deg, processes))
    return calls


def _dense_calls(inputs, ex, workdir):
    from cellmesh import cli, homology, intmat, kalai, spectra, torsion

    calls = []
    corpus_names = inputs["plan"]["dense"]
    for name in corpus_names:
        calls.append(_invariant(
            f"rf:{name}", "torsion",
            lambda env, name=name: torsion.verify_rf_identity(env[name]), "rf", ex))
    for bname, deg in inputs["degrees"].items():
        calls.append(_bouquet_rf_call(bname, deg))

    paths = {} if workdir is None else write_files(
        {n: inputs["texts"][n] for n in corpus_names}, workdir)
    for name in corpus_names:
        dim = inputs["docs"][name]["dimension"]
        for d in range(dim + 1):
            argv = ["verify", paths.get(name, ""), "--theorem", "covolume",
                    "--dim", str(d)]
            calls.append(_invariant(f"cli-covolume:{name}:d{d}", "cli",
                                    lambda env, argv=argv: _cli(cli, argv),
                                    "cli-covolume", ex))
        argv = ["homology", paths.get(name, ""), "--dim", "all"]
        calls.append(_invariant(f"cli-homology:{name}", "cli",
                                lambda env, argv=argv: _cli(cli, argv),
                                "cli-homology", ex))

    for (name, d, i), u in inputs["unimodular"].items():
        label = f"charpoly-int:{name}:d{d}:{i}"

        def fn(env, name=name, d=d, u=u):
            x = env[name]
            mesh = spectra.mesh_matrix_cycles(x, d, homology.integral_cycle_basis(x, d))
            change = intmat.IntMatrix.from_rows(u)
            m = change.transpose().mul(mesh.matrix).mul(change)
            return m, intmat.char_poly(m)
        calls.append(_invariant(label, "intmat", fn, "charpoly-int", ex,
                                key=f"charpoly-int:{name}:d{d}",
                                oracle=_char_poly_check(label)))

    for (name, i), weights in inputs["weights"].items():
        doc = inputs["docs"][name]
        for d in range(1, doc["dimension"] + 1):
            label = f"charpoly-rat:{name}:d{d}:{i}"

            def fn(env, name=name, d=d, weights=weights):
                mesh = spectra.weighted_laplacian(env[name], d, weights)
                return mesh.matrix, intmat.char_poly_rational(mesh.matrix)
            calls.append(Call(label, "intmat", fn,
                              _weighted_laplacian_check(label, doc, d, weights)))

    for n, weights in inputs["kalai_weights"].items():
        for k in range(1, n):
            for kind in KALAI_KINDS:
                calls.append(_invariant(
                    f"kalai:{kind}:n{n}:k{k}", "kalai",
                    lambda env, n=n, k=k, kind=kind: kalai.verify_kalai(n, k, kind),
                    "kalai", ex))
                calls.append(_weighted_kalai_call(n, k, kind, weights))
    return calls


def _cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    text = out.getvalue()
    try:
        doc = json.loads(text) if text else None
    except json.JSONDecodeError:
        doc = None
    return code, doc


def _coeffs(poly):
    """Coefficients, constant first, of char_poly's or char_poly_rational's result."""
    from cellmesh.intmat import IntPolynomial
    return list(poly.coeffs if isinstance(poly, IntPolynomial) else poly)


def _char_poly_check(label):
    verified = []  # (matrix rows, coefficients) already checked by the oracle

    def check(result):
        matrix, poly = result
        got = ([list(row) for row in matrix.data], _coeffs(poly))
        # every pass builds the same input, so a result equal to one the
        # oracle accepted is accepted without re-evaluating the determinants
        if got in verified or gen.check_char_poly(got[1], got[0]):
            verified[:] = [got]
            return []
        return [f"{label}: characteristic polynomial disagrees with det(tI - M)"]
    return check


def _weighted_laplacian_check(label, doc, d, weights):
    """The char poly check, plus the matrix against the oracle's A W_d A^t W_{d-1}^-1."""
    char_poly = _char_poly_check(label)
    want = []

    def check(result):
        if not want:
            want.append(gen.weighted_laplacian(doc, d, weights))
        problems = char_poly(result)
        if [list(row) for row in result[0].data] != want[0]:
            problems.append(f"{label}: matrix differs from the weighted Laplacian")
        return problems
    return check


def _weighted_kalai_call(n, k, kind, weights):
    from cellmesh import kalai
    label = f"kalai-w:{kind}:n{n}:k{k}"
    oracle = {}

    def fn(env):
        return kalai.verify_kalai(n, k, kind, weights)

    def check(report):
        problems = _passed(label, report)
        problems += [f"{label}: row {row['check']} fails"
                     for row in report.rows if not row["pass"]]
        if "det" not in oracle:
            m = kalai.build_kalai_matrix(n, k, kind, weights)
            oracle["det"] = gen.det(m.data)
        got = next(row["lhs"] for row in report.rows if row["check"] == "determinant")
        if got != oracle["det"]:
            problems.append(f"{label}: determinant {got} expected {oracle['det']}")
        return problems
    return Call(label, "kalai", fn, check)


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
