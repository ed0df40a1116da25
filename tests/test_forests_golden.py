"""`cellmesh forests --with-weights` against a recorded run: stdout, stderr
and exit code of every spanning forest and k-augmented forest listing (every
k from 0 to the cycle rank) and every spanning and k-reduced coforest
listing (every k in range for the rank) of the small corpus complexes and
of tests/data/bouquet_torsion.json stay byte-identical, so the weight parts
of every forest (torsion_ratio and gram_factor) and of every coforest (u,
v, f and gram_factor) are pinned.  The corpus cases have u = 1 throughout;
the bouquet, a CW complex with torsion, has coforests with u > 1 and
cokernel order > 1 at every k from 1 to 3.  The spanning and 1-augmented
forests of tests/data/rp2_plus_face.json, the corpus rp2 plus the triangle
1.2.5, are listed at d=2 only: 11 spanning forests, rp2 itself among them
with torsion ratio 2 and weight 4.

tests/data/forests_golden.json maps "complex d kind" (kind "forest",
"augmented<k>", "coforest" or "reduced<k>") to [exit code, stdout,
stderr].  Rewrite it only when an output change is intended, with
`PYTHONPATH=src python tests/test_forests_golden.py --record`.  The whole
record replays in about a second.
"""

import json
import os
import sys

from cellmesh.cli import run
from cellmesh.complexes import load_complex
from cellmesh.homology import integral_boundary_basis, integral_cycle_basis

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "..", "corpus")
RECORD = os.path.join(HERE, "data", "forests_golden.json")
NAMES = ("k3", "k4", "theta", "p2", "moore_z2", "delta3", "sphere2")
FILES = {**{name: os.path.join(CORPUS, f"{name}.json") for name in NAMES},
         "bouquet_torsion": os.path.join(HERE, "data", "bouquet_torsion.json")}
# listed only at d=2: its d=1 listings would be K6's, and large
TORSIONAL = ("rp2_plus_face 2 forest", "rp2_plus_face 2 augmented0",
             "rp2_plus_face 2 augmented1")
PATHS = {**FILES, "rp2_plus_face": os.path.join(HERE, "data", "rp2_plus_face.json")}


def _argv(case):
    name, d, kind = case.split()
    if kind in ("forest", "coforest"):
        flags = ["--kind", kind]
    else:
        base = kind.rstrip("0123456789")
        flags = ["--kind", base, "--k", kind[len(base):]]
    return ["forests", PATHS[name], "--dim", d, *flags, "--with-weights"]


def _all_cases():
    for name, path in FILES.items():
        x = load_complex(path)
        for d in range(1, x.dimension + 1):
            yield f"{name} {d} forest"
            for k in range(integral_cycle_basis(x, d).basis.cols + 1):
                yield f"{name} {d} augmented{k}"
            yield f"{name} {d} coforest"
            for k in range(1, integral_boundary_basis(x, d).basis.cols):
                yield f"{name} {d} reduced{k}"
    yield from TORSIONAL


def test_forests_match_record(capsys):
    with open(RECORD) as fh:
        record = json.load(fh)
    assert sorted(record) == sorted(_all_cases())
    for case, expected in record.items():
        code = run(_argv(case))
        captured = capsys.readouterr()
        assert [code, captured.out, captured.err] == expected, case


def _record():
    import contextlib
    import io
    record = {}
    for case in _all_cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(_argv(case))
        record[case] = [code, out.getvalue(), err.getvalue()]
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
