"""Command-line front end.

Exit codes: 0 = success / verified, 1 = a verification found a mismatch
(valid inputs, identity failed), 2 = usage, parse, or validation error.
All potentially large integers and rationals are serialized as decimal
strings; timing fields are nulled so identical invocations produce
byte-identical standard output.

`run` builds its argparse tree once per process, on its first call, and
reuses it: building the eight-subcommand tree costs about a millisecond,
far more than parsing, so a process that calls `run` many times (the
in-process golden replays, a benchmark pass) pays it once.  The tree is
never built at import, so `import cellmesh.cli` costs only its imports
and a caller that never runs a command never pays for it.
"""

import argparse
import functools
import json
import sys

from .complexes import (CellSubset, ComplexFormatError, encode_json, encode_number,
                        load_complex, parse_weight, validate)
from .forests import (BoundaryWeightContext, CycleWeightContext, boundary_weight,
                      cycle_weight, enumerate_forests)
from .homology import (covolume_squared, homology_groups, integral_boundary_basis,
                       integral_cycle_basis)
from .intmat import char_poly_rational
from .kalai import verify_kalai
from .spectra import (combinatorial_laplacian, default_processes,
                      geometric_boundary_basis, geometric_cycle_basis,
                      mesh_matrix_boundaries, mesh_matrix_cycles, verify_covolume,
                      verify_geometric_theorems, verify_kirchhoff_lyons,
                      verify_theorem1, verify_theorem2, weighted_laplacian)
from .torsion import verify_rf_identity


def _emit(doc, mode):
    if mode == "json":
        print(json.dumps(doc, indent=2))
    else:
        _print_table(doc)


def _print_table(doc, indent=""):
    for key, val in doc.items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{indent}{key}:")
            for item in val:
                line = "  ".join(f"{k}={v}" for k, v in item.items())
                print(f"{indent}  {line}")
        elif isinstance(val, list):
            print(f"{indent}{key}: {val}")
        elif isinstance(val, dict):
            print(f"{indent}{key}:")
            _print_table(val, indent + "  ")
        else:
            print(f"{indent}{key}: {val}")


def _parse_cells(raw, dim):
    return CellSubset(dim, [c for c in raw.split(",") if c])


def cmd_validate(args):
    x = load_complex(args.file)
    problems = validate(x)
    doc = {
        "complex": x.name,
        "dimension": x.dimension,
        "cells": {str(d): x.n_cells(d) for d in range(x.dimension + 1)},
        "violations": problems,
        "pass": not problems,
    }
    _emit(doc, args.output)
    return 0 if not problems else 2


def cmd_homology(args):
    x = load_complex(args.file)
    if args.dim == "all":
        dims = range(x.dimension + 1)
    else:
        dims = [int(args.dim)]
    rows = []
    for d in dims:
        h = homology_groups(x, d)
        rows.append({"dim": d, "betti": h.betti,
                     "invariant_factors": [encode_number(f) for f in h.invariant_factors],
                     "torsion_order": encode_number(h.torsion_order)})
    _emit({"complex": x.name, "homology": rows}, args.output)
    return 0


def cmd_basis(args):
    x = load_complex(args.file)
    if args.which == "cycles":
        basis = integral_cycle_basis(x, args.dim)
    else:
        basis = integral_boundary_basis(x, args.dim)
    doc = {
        "complex": x.name,
        "dim": args.dim,
        "kind": basis.kind,
        "rank": basis.basis.cols,
        "covolume_squared": encode_number(covolume_squared(basis)),
        "columns": encode_json(basis.basis.data),
    }
    _emit(doc, args.output)
    return 0


def cmd_mesh(args):
    x = load_complex(args.file)
    d = args.dim
    geometric = args.basis.startswith("geometric:")
    if not geometric and args.basis != "canonical":
        raise ComplexFormatError(f"bad --basis value {args.basis!r}")
    cycles = args.which == "cycles"
    if geometric:
        cells = _parse_cells(args.basis.split(":", 1)[1], d if cycles else d + 1)
        g = (geometric_cycle_basis if cycles else geometric_boundary_basis)(x, d, cells)
        matrix = g.transpose().mul(g)
        provenance = f"geometric-from-forest({','.join(sorted(cells.members))})"
    elif cycles:
        matrix = mesh_matrix_cycles(x, d, integral_cycle_basis(x, d)).matrix
        provenance = "canonical integral"
    else:
        matrix = mesh_matrix_boundaries(x, d, integral_boundary_basis(x, d)).matrix
        provenance = "canonical integral"
    doc = {
        "complex": x.name,
        "dim": d,
        "which": args.which,
        "basis": provenance,
        "matrix": encode_json(matrix.data),
    }
    if args.charpoly:
        doc["charpoly"] = encode_json(char_poly_rational(matrix))
    _emit(doc, args.output)
    return 0


def cmd_laplacian(args):
    x = load_complex(args.file)
    if args.use_weights:
        mesh = weighted_laplacian(x, args.dim, x.weights)
    else:
        mesh = combinatorial_laplacian(x, args.dim)
    doc = {
        "complex": x.name,
        "dim": args.dim,
        "weighted": bool(args.use_weights),
        "matrix": encode_json(mesh.matrix.data),
    }
    if args.charpoly:
        doc["charpoly"] = encode_json(char_poly_rational(mesh.matrix))
    _emit(doc, args.output)
    return 0


_KIND_MAP = {
    "forest": ("spanning_forest", None),
    "augmented": ("k_augmented", "k"),
    "coforest": ("spanning_coforest", None),
    "reduced": ("k_reduced_coforest", "k"),
    "size": ("forest_of_size", "m"),
}


def cmd_forests(args):
    x = load_complex(args.file)
    kind, param_name = _KIND_MAP[args.kind]
    param = None
    if param_name == "k":
        param = args.k if args.k is not None else 0
    elif param_name == "m":
        if args.m is None:
            raise ComplexFormatError("--kind size requires --m")
        param = args.m
    if args.with_weights and kind == "forest_of_size":
        raise ComplexFormatError("--with-weights is undefined for --kind size")
    stream = enumerate_forests(x, args.dim, kind, param)
    if args.count_only:
        count = sum(1 for _ in stream)
        _emit({"complex": x.name, "dim": args.dim, "kind": kind,
               "param": param, "count": count}, args.output)
        return 0
    if kind in ("spanning_forest", "k_augmented"):
        weigh, lattice, context = cycle_weight, integral_cycle_basis, CycleWeightContext
    else:
        weigh, lattice, context = boundary_weight, integral_boundary_basis, BoundaryWeightContext
    basis = ctx = None
    items = []
    for cert in stream:
        item = {"cells": sorted(cert.subset.members)}
        if args.with_weights:
            if ctx is None:  # one context per command, so its caches are shared
                basis = lattice(x, args.dim)
                ctx = context(x, args.dim, basis)
            w = weigh(x, args.dim, cert.subset, basis, ctx)
            item["weight"] = encode_number(w.weight)
            item["weight_parts"] = {key: encode_number(v)
                                    for key, v in w.weight_parts.items()}
        items.append(item)
    _emit({"complex": x.name, "dim": args.dim, "kind": kind, "param": param,
           "count": len(items), "subsets": items}, args.output)
    return 0


def cmd_verify(args):
    x = load_complex(args.file)
    theorem = args.theorem
    if theorem != "rf" and args.dim is None:
        raise ComplexFormatError(f"--theorem {theorem} requires --dim")
    processes = default_processes()  # a bad CELLMESH_PROCESSES fails here
    if theorem == "trent":
        report = verify_theorem1(x, args.dim, processes=processes)
    elif theorem == "boundary":
        report = verify_theorem2(x, args.dim, processes=processes)
    elif theorem == "kirchhoff":
        report = verify_kirchhoff_lyons(x, args.dim, processes=processes)
    elif theorem == "geometric":
        v0 = _parse_cells(args.forest, args.dim) if args.forest else None
        v1 = (_parse_cells(args.coforest_dim_plus_one, args.dim + 1)
              if args.coforest_dim_plus_one else None)
        report = verify_geometric_theorems(x, args.dim, v0, v1, processes)
    elif theorem == "covolume":
        report = verify_covolume(x, args.dim)
    elif theorem == "rf":
        report = verify_rf_identity(x)
    else:  # pragma: no cover - argparse restricts choices
        raise ComplexFormatError(f"unknown theorem {theorem!r}")
    return _emit_report(report.to_json_dict(), args.output)


def cmd_kalai(args):
    weights = None
    if args.weights:
        weights = [parse_weight(tok, f"a{i}")
                   for i, tok in enumerate(args.weights.split(","), 1)]
    report = verify_kalai(args.n, args.k, args.kind, weights)
    return _emit_report(report.to_json_dict(), args.output)


def _emit_report(doc, mode):
    """Print a verification report; a failing one also names its first
    failing row, and that row's side when it has one, in one stderr line
    and exits 1."""
    _emit(doc, mode)
    if doc["pass"]:
        return 0
    if "rows" in doc:
        row = next(r for r in doc["rows"] if not r["pass"])
        side = f"side={row['side']} " if "side" in row else ""
        where = f"{doc['theorem']} d={doc['dim']}: row {side}k={row['k']}"
    else:  # the rf report: one row per skeleton dimension
        row = next(r for r in doc["skeleta"] if not r["pass"])
        where = f"rf d={row['dim']}"
    print(f"verification failed: {where} lhs != rhs", file=sys.stderr)
    return 1


@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared after it.
    parse_args fills a fresh Namespace each time, so no state carries over
    from one run to the next."""
    parser = argparse.ArgumentParser(
        prog="cellmesh",
        description="Exact mesh-matrix, Laplacian and torsion combinatorics "
                    "of finite cell complexes.")
    parser.add_argument("--output", choices=("json", "table"), default="json",
                        help="report format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a complex file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="integral homology summary")
    p.add_argument("file")
    p.add_argument("--dim", default="all")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("basis", help="canonical cycle or boundary lattice basis")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--which", choices=("cycles", "boundaries"), required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("mesh", help="mesh matrix of cycles or boundaries")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--which", choices=("cycles", "boundaries"), required=True)
    p.add_argument("--charpoly", action="store_true")
    p.add_argument("--basis", default="canonical",
                   help="canonical | geometric:<forest-cells-comma-list>")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("laplacian", help="combinatorial Laplacian on (d-1)-chains")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--charpoly", action="store_true")
    p.add_argument("--use-weights", action="store_true")
    p.set_defaults(func=cmd_laplacian)

    p = sub.add_parser("forests", help="enumerate forests / coforests")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", choices=tuple(_KIND_MAP), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--with-weights", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_forests)

    p = sub.add_parser("verify", help="verify a theorem identity")
    p.add_argument("file")
    p.add_argument("--theorem", required=True,
                   choices=("trent", "boundary", "kirchhoff", "geometric",
                            "covolume", "rf"))
    p.add_argument("--dim", type=int)
    p.add_argument("--forest", help="comma list of d-cells (geometric V0)")
    p.add_argument("--coforest-dim-plus-one", dest="coforest_dim_plus_one",
                   help="comma list of (d+1)-cells (geometric V1)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kalai", help="simplex spectrum tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("incidence", "laplacian", "mesh"),
                   required=True)
    p.add_argument("--weights", help="comma list a1,a2,...")
    p.set_defaults(func=cmd_kalai)
    return parser


def run(argv):
    """Run one command line in-process and return its exit code; the
    parser is the one build_parser made on the first run."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ComplexFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        # a verifier's cross-check failed on valid input
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
