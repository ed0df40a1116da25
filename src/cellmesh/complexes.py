"""Finite cell complexes: data model, JSON file format, validation, builders.

A complex is a name, a dimension, and per-dimension ordered lists of cells.
Cell order is file order (or construction order) and fixes every matrix
row/column indexing downstream.  Boundary coefficients are arbitrary
integers, so general CW attaching degrees (e.g. a disk glued to a loop with
degree 2) are allowed.
"""

import json
from fractions import Fraction
from itertools import combinations

from .intmat import IntMatrix


class ComplexFormatError(ValueError):
    """Raised for malformed input files and invalid complex data."""


def encode_number(v):
    """An int or Fraction as a decimal string, "p" or "p/q" in lowest terms,
    so that large values survive JSON; anything else is returned as is."""
    if isinstance(v, Fraction):
        return (str(v.numerator) if v.denominator == 1
                else f"{v.numerator}/{v.denominator}")
    if isinstance(v, int):
        return str(v)
    return v


def encode_json(value, key=None):
    """`value` with encode_number applied to every number in its lists and
    dicts, except under the keys k, dim, certificates, side and pass, whose
    values stay raw.  The one encoder of every report and of the CLI's
    matrices and polynomials."""
    if isinstance(value, dict):
        return {k: encode_json(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [encode_json(v, key) for v in value]
    if key in ("k", "dim", "certificates", "side", "pass"):
        return value
    return encode_number(value)


class Cell:
    """An oriented cell: an id plus its boundary as (face id, coefficient)."""

    __slots__ = ("id", "boundary")

    def __init__(self, cell_id, boundary=()):
        self.id = cell_id
        self.boundary = tuple((str(f), int(c)) for f, c in boundary)
        seen = set()
        for f, _ in self.boundary:
            if f in seen:
                raise ComplexFormatError(f"cell {cell_id!r}: repeated face {f!r}")
            seen.add(f)

    def __repr__(self):
        return f"Cell({self.id!r}, {list(self.boundary)})"


class CellComplex:
    """Immutable oriented cell complex."""

    def __init__(self, name, dimension, cells, weights=None, check=True):
        self.name = name
        self.dimension = int(dimension)
        if self.dimension < 0:
            raise ComplexFormatError("dimension must be nonnegative")
        self.cells = {d: tuple(cells.get(d, ())) for d in range(self.dimension + 1)}
        for d, cs in cells.items():
            if d > self.dimension and cs:
                raise ComplexFormatError(
                    f"cells of dimension {d} exceed declared dimension")
        # id -> (dimension, position in file order)
        index = {}
        for d in range(self.dimension + 1):
            for pos, cell in enumerate(self.cells[d]):
                if cell.id in index:
                    raise ComplexFormatError(f"duplicate cell id {cell.id!r}")
                index[cell.id] = (d, pos)
        self._index = index
        self.weights = dict(weights or {})
        for cid, w in self.weights.items():
            if cid not in index:
                raise ComplexFormatError(f"weight for unknown cell {cid!r}")
            if w <= 0:
                raise ComplexFormatError(f"nonpositive weight for cell {cid!r}")
        self._boundary_cache = {}
        if check:
            problems = validate(self)
            if problems:
                raise ComplexFormatError("; ".join(problems))

    def n_cells(self, d):
        return len(self.cells.get(d, ()))

    def cell_ids(self, d):
        return [c.id for c in self.cells.get(d, ())]

    def cell_index(self, cell_id):
        """(dimension, position) of a cell id."""
        try:
            return self._index[cell_id]
        except KeyError:
            raise ComplexFormatError(f"unknown cell id {cell_id!r}") from None

    def positions(self, d, ids):
        """File-order positions of the given d-cell ids, sorted."""
        out = []
        for cid in ids:
            dd, pos = self.cell_index(cid)
            if dd != d:
                raise ComplexFormatError(
                    f"cell {cid!r} has dimension {dd}, expected {d}")
            out.append(pos)
        return sorted(out)

    def counts(self):
        return tuple(self.n_cells(d) for d in range(self.dimension + 1))

    def weight_of(self, cell_id):
        return self.weights.get(cell_id, Fraction(1))

    def __repr__(self):
        return f"CellComplex({self.name!r}, counts={self.counts()})"


class CellSubset:
    """A set of cell ids living in one dimension of a host complex."""

    __slots__ = ("dimension", "members")

    def __init__(self, dimension, members):
        self.dimension = int(dimension)
        self.members = frozenset(str(m) for m in members)

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, CellSubset) and self.dimension == other.dimension
                and self.members == other.members)

    def __hash__(self):
        return hash((self.dimension, self.members))

    def __repr__(self):
        return f"CellSubset({self.dimension}, {sorted(self.members)})"


def validate(x):
    """Check every boundary reference and d d = 0; violations are data.

    Returns a list of human-readable violation strings, empty on pass.
    """
    problems = []
    for d in range(x.dimension + 1):
        for cell in x.cells[d]:
            for face, coeff in cell.boundary:
                if d == 0:
                    problems.append(f"0-cell {cell.id!r} has a boundary")
                    continue
                if face not in x._index:
                    problems.append(
                        f"cell {cell.id!r} references missing face {face!r}")
                    continue
                fd, _ = x._index[face]
                if fd != d - 1:
                    problems.append(
                        f"cell {cell.id!r} face {face!r} has dimension {fd},"
                        f" expected {d - 1}")
    if problems:
        return problems
    for d in range(2, x.dimension + 1):
        lower = boundary_matrix(x, d - 1)
        upper = boundary_matrix(x, d)
        prod = lower.mul(upper)
        if not prod.is_zero():
            for j, cell in enumerate(x.cells[d]):
                for i in range(prod.rows):
                    if prod.data[i][j]:
                        problems.append(
                            f"dd != 0 at {d}-cell {cell.id!r}: composite entry "
                            f"{prod.data[i][j]} on {x.cells[d - 2][i].id!r}")
                        break
    return problems


def boundary_matrix(x, d):
    """The matrix of the boundary map on d-chains in the cellular basis.

    Rows are (d-1)-cells, columns are d-cells, both in file order; d = 0
    yields a 0-row matrix and a dimension with no cells yields 0 columns.
    """
    if not 0 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 0..{x.dimension}")
    cached = x._boundary_cache.get(d)
    if cached is not None:
        return cached
    rows = x.n_cells(d - 1) if d >= 1 else 0
    cols = x.n_cells(d)
    data = [[0] * cols for _ in range(rows)]
    if d >= 1:
        for j, cell in enumerate(x.cells[d]):
            for face, coeff in cell.boundary:
                i = x._index[face][1]
                data[i][j] = coeff
    mat = IntMatrix(rows, cols, data)
    x._boundary_cache[d] = mat
    return mat


def boundary_matrix_above(x, d):
    """Boundary matrix of (d+1)-chains; 0 columns when d is the top dimension."""
    if d + 1 <= x.dimension:
        return boundary_matrix(x, d + 1)
    rows = x.n_cells(d)
    return IntMatrix(rows, 0, [[] for _ in range(rows)])


def skeleton(x, d):
    """All cells of dimension <= d."""
    if not 0 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 0..{x.dimension}")
    cells = {dd: x.cells[dd] for dd in range(d + 1)}
    return CellComplex(f"{x.name}|skel{d}", d, cells, check=False)


def simplex_id(vertices):
    """Canonical id of a simplex: sorted vertex numbers joined by dots."""
    return ".".join(str(v) for v in sorted(vertices))


def standard_simplex(n):
    """The full simplex on vertices 1..n with vertex-order orientations.

    Faces of each dimension are ordered lexicographically by vertex tuple,
    and the boundary of a face omits each vertex with alternating sign.
    """
    if n < 1:
        raise ComplexFormatError("standard_simplex needs n >= 1")
    cells = {}
    for d in range(n):
        lst = []
        for verts in combinations(range(1, n + 1), d + 1):
            boundary = []
            if d >= 1:
                for pos in range(len(verts)):
                    face = verts[:pos] + verts[pos + 1:]
                    boundary.append((simplex_id(face), (-1) ** pos))
            lst.append(Cell(simplex_id(verts), boundary))
        cells[d] = lst
    return CellComplex(f"simplex{n}", n - 1, cells, check=False)


# ---------------------------------------------------------------------------
# File format: UTF-8 JSON, strict keys.
# ---------------------------------------------------------------------------

_TOP_KEYS = {"name", "dimension", "cells", "weights"}
_CELL_KEYS = {"id", "boundary"}


def parse_weight(raw, cid):
    """A weight from a file or the command line, an int or a decimal string
    "p" or "p/q", as a Fraction; anything else, or a zero denominator, is a
    ComplexFormatError that names `cid`."""
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            if "/" in raw:
                p, q = raw.split("/")
                return Fraction(int(p), int(q))
            return Fraction(int(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise ComplexFormatError(f"bad weight {raw!r} for {cid!r}") from exc
    raise ComplexFormatError(f"bad weight {raw!r} for {cid!r}")


def parse_complex(text):
    """Parse and validate the documented JSON complex format.

    Cells keep file order, which defines the cellular basis ordering used by
    every matrix downstream.  Unknown keys are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexFormatError(
            f"JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ComplexFormatError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ComplexFormatError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("name", "dimension", "cells"):
        if key not in doc:
            raise ComplexFormatError(f"missing top-level key {key!r}")
    name = doc["name"]
    if not isinstance(name, str):
        raise ComplexFormatError("name must be a string")
    dimension = doc["dimension"]
    if not isinstance(dimension, int) or dimension < 0:
        raise ComplexFormatError("dimension must be a nonnegative integer")
    if not isinstance(doc["cells"], dict):
        raise ComplexFormatError("cells must be an object")
    cells = {}
    for key, arr in doc["cells"].items():
        try:
            d = int(key)
        except ValueError:
            raise ComplexFormatError(f"bad dimension key {key!r}") from None
        if not 0 <= d <= dimension:
            raise ComplexFormatError(f"dimension key {key!r} out of range")
        if not isinstance(arr, list):
            raise ComplexFormatError(f"cells[{key!r}] must be an array")
        lst = []
        for obj in arr:
            if not isinstance(obj, dict):
                raise ComplexFormatError(f"cell in dimension {d} must be an object")
            unknown = set(obj) - _CELL_KEYS
            if unknown:
                raise ComplexFormatError(
                    f"unknown cell keys {sorted(unknown)} in dimension {d}")
            if "id" not in obj or not isinstance(obj["id"], str):
                raise ComplexFormatError(f"cell in dimension {d} needs a string id")
            boundary = obj.get("boundary", [])
            if d == 0 and boundary:
                raise ComplexFormatError(f"0-cell {obj['id']!r} has a boundary")
            if not isinstance(boundary, list):
                raise ComplexFormatError(f"cell {obj['id']!r}: boundary must be array")
            pairs = []
            for item in boundary:
                if (not isinstance(item, list) or len(item) != 2
                        or not isinstance(item[0], str)
                        or not isinstance(item[1], int)):
                    raise ComplexFormatError(
                        f"cell {obj['id']!r}: boundary entries are"
                        f" [face-id, integer] pairs")
                pairs.append((item[0], item[1]))
            lst.append(Cell(obj["id"], pairs))
        cells[d] = lst
    weights = {}
    if "weights" in doc:
        if not isinstance(doc["weights"], dict):
            raise ComplexFormatError("weights must be an object")
        for cid, raw in doc["weights"].items():
            weights[cid] = parse_weight(raw, cid)
    return CellComplex(name, dimension, cells, weights=weights, check=True)


def serialize_complex(x):
    """Inverse of parse_complex, stable under round-trips."""
    doc = {"name": x.name, "dimension": x.dimension, "cells": {}}
    for d in range(x.dimension + 1):
        arr = []
        for cell in x.cells[d]:
            obj = {"id": cell.id}
            if d >= 1:
                obj["boundary"] = [[f, c] for f, c in cell.boundary]
            arr.append(obj)
        doc["cells"][str(d)] = arr
    if x.weights:
        doc["weights"] = {cid: encode_number(w) for cid, w in x.weights.items()}
    return json.dumps(doc, indent=1)


def load_complex(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())
