"""Cell complex model, file format, builders, and corpus sanity."""

import json

import pytest

from cellmesh.complexes import (Cell, CellComplex, CellSubset,
                                ComplexFormatError, boundary_matrix,
                                parse_complex, serialize_complex, skeleton,
                                standard_simplex, validate)
from cellmesh.corpus import BUILDERS, RP2_FACES, rp2_six_vertex
from conftest import subcomplex

EDGE_DOC = ('{"name":"edge","dimension":1,"cells":{"0":[{"id":"v1"},{"id":"v2"}],'
            '"1":[{"id":"e","boundary":[["v1",-1],["v2",1]]}]}}')


def test_parse_minimal_edge():
    x = parse_complex(EDGE_DOC)
    assert x.counts() == (2, 1)
    assert boundary_matrix(x, 1).data == [[-1], [1]]


def test_parse_triangle_graph(corpus):
    text = serialize_complex(corpus["k3"])
    x = parse_complex(text)
    assert x.counts() == (3, 3)


def test_parse_missing_face_names_cell():
    doc = {"name": "bad", "dimension": 2,
           "cells": {"0": [{"id": "v"}], "1": [{"id": "e", "boundary": []}],
                     "2": [{"id": "f", "boundary": [["ghost", 1]]}]}}
    with pytest.raises(ComplexFormatError, match="ghost"):
        parse_complex(json.dumps(doc))


def test_parse_rejects_unknown_keys():
    doc = json.loads(EDGE_DOC)
    doc["color"] = "blue"
    with pytest.raises(ComplexFormatError, match="unknown top-level"):
        parse_complex(json.dumps(doc))
    doc = json.loads(EDGE_DOC)
    doc["cells"]["1"][0]["orientation"] = 1
    with pytest.raises(ComplexFormatError, match="unknown cell keys"):
        parse_complex(json.dumps(doc))


def test_parse_error_reports_position():
    with pytest.raises(ComplexFormatError, match="line 1"):
        parse_complex("{not json")


def test_parse_duplicate_id():
    doc = {"name": "dup", "dimension": 0,
           "cells": {"0": [{"id": "v"}, {"id": "v"}]}}
    with pytest.raises(ComplexFormatError, match="duplicate"):
        parse_complex(json.dumps(doc))


def test_parse_rp2_counts(corpus):
    text = serialize_complex(corpus["rp2"])
    assert parse_complex(text).counts() == (6, 15, 10)


def test_weights_parsing():
    doc = json.loads(EDGE_DOC)
    doc["weights"] = {"e": "3/2", "v1": 2}
    x = parse_complex(json.dumps(doc))
    from fractions import Fraction
    assert x.weight_of("e") == Fraction(3, 2)
    assert x.weight_of("v1") == 2
    assert x.weight_of("v2") == 1
    doc["weights"] = {"e": "0"}
    with pytest.raises(ComplexFormatError, match="nonpositive"):
        parse_complex(json.dumps(doc))


def test_validate_passes_corpus(corpus):
    for name, x in corpus.items():
        assert validate(x) == [], name


def test_validate_names_broken_cell():
    cells = {
        0: [Cell("a"), Cell("b"), Cell("c")],
        1: [Cell("ab", [("a", -1), ("b", 1)]),
            Cell("bc", [("b", -1), ("c", 1)]),
            Cell("ac", [("a", -1), ("c", 1)])],
        2: [Cell("f", [("ab", 1), ("bc", 1), ("ac", 1)])],  # wrong sign on ac
    }
    x = CellComplex("broken", 2, cells, check=False)
    problems = validate(x)
    assert problems and "f" in problems[0]


def test_validate_empty_complex():
    x = CellComplex("empty", 0, {0: []}, check=False)
    assert validate(x) == []


def test_boundary_squared_zero_corpus(corpus):
    for name, x in corpus.items():
        for d in range(2, x.dimension + 1):
            prod = boundary_matrix(x, d - 1).mul(boundary_matrix(x, d))
            assert prod.is_zero(), (name, d)


def test_boundary_matrix_shapes(corpus):
    x = corpus["sphere2"]
    bd2 = boundary_matrix(x, 2)
    assert (bd2.rows, bd2.cols) == (6, 4)
    for j in range(4):
        col = [bd2.data[i][j] for i in range(6)]
        assert sorted(abs(v) for v in col if v) == [1, 1, 1]
    assert boundary_matrix(x, 0).rows == 0
    with pytest.raises(ComplexFormatError):
        boundary_matrix(x, 3)


def test_subcomplex_and_skeleton(corpus):
    x = corpus["rp2"]
    everything = CellSubset(2, x.cell_ids(2))
    assert subcomplex(x, 2, everything).counts() == skeleton(x, 2).counts()
    nothing = subcomplex(x, 2, CellSubset(2, []))
    assert nothing.counts() == (6, 15, 0)
    minus_one = subcomplex(x, 2, CellSubset(2, x.cell_ids(2)[1:]))
    assert minus_one.n_cells(2) == 9
    with pytest.raises(ComplexFormatError):
        subcomplex(x, 2, CellSubset(2, ["nope"]))


def test_standard_simplex_counts():
    assert standard_simplex(4).counts() == (4, 6, 4, 1)
    x2 = standard_simplex(2)
    assert x2.counts() == (2, 1)
    assert boundary_matrix(x2, 1).data == [[-1], [1]]
    with pytest.raises(ComplexFormatError):
        standard_simplex(0)


def test_simplex_two_skeleton_counts():
    x = skeleton(standard_simplex(6), 2)
    assert x.counts() == (6, 15, 20)


def test_skeleton_edges():
    x = standard_simplex(4)
    k4 = skeleton(x, 1)
    assert k4.counts() == (4, 6)
    assert skeleton(x, 3).counts() == x.counts()
    pt = CellComplex("pt", 0, {0: [Cell("v")]}, check=False)
    assert skeleton(pt, 0).counts() == (1,)


def test_serialization_round_trip(corpus):
    for name, x in corpus.items():
        text = serialize_complex(x)
        again = serialize_complex(parse_complex(text))
        assert text == again, name


def test_rp2_is_a_closed_surface():
    x = rp2_six_vertex()
    bd2 = boundary_matrix(x, 2)
    # every edge lies in exactly two triangles
    for i in range(15):
        assert sum(1 for j in range(10) if bd2.data[i][j]) == 2
    assert len(RP2_FACES) == 10


def test_corpus_files_match_builders(tmp_path):
    from cellmesh.corpus import write_corpus
    from cellmesh.complexes import load_complex
    write_corpus(tmp_path)
    for name, build in BUILDERS.items():
        loaded = load_complex(tmp_path / f"{name}.json")
        assert serialize_complex(loaded) == serialize_complex(build())


def test_shipped_corpus_directory():
    import os
    from cellmesh.complexes import load_complex
    base = os.path.join(os.path.dirname(__file__), "..", "corpus")
    for name, build in BUILDERS.items():
        loaded = load_complex(os.path.join(base, f"{name}.json"))
        assert serialize_complex(loaded) == serialize_complex(build())
