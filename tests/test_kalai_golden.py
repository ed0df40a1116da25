"""`cellmesh kalai` against a recorded run: stdout, stderr and exit code of
every table for n = 2..7, every k and all three kinds, without weights and
with one rational weight vector, stay byte-identical.

tests/data/kalai_golden.json maps "n k kind" (with " w" appended for the
weighted run) to [exit code, stdout, stderr].  Rewrite it only when an
output change is intended, with
`PYTHONPATH=src python tests/test_kalai_golden.py --record`.  The 126
recorded cases should stay within a budget of about 10 s of wall time on
one core (they took about 0.7 s on a 2-CPU Xeon).  The budget is not
asserted, so machine load cannot fail the test; `pytest --durations` shows
its time.
"""

import contextlib
import io
import json
import os
import sys

from cellmesh.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "data", "kalai_golden.json")
KINDS = ("incidence", "laplacian", "mesh")
# the first n entries weight the simplex on n vertices
WEIGHTS = ("1/2", "3", "2/3", "5", "7/4", "1", "4/5")


def _all_cases():
    for n in range(2, 8):
        for k in range(1, n):
            for kind in KINDS:
                yield f"{n} {k} {kind}"
                yield f"{n} {k} {kind} w"


def _argv(case):
    n, k, kind, *weighted = case.split()
    argv = ["kalai", "--n", n, "--k", k, "--kind", kind]
    return argv + ["--weights", ",".join(WEIGHTS[:int(n)])] if weighted else argv


def _invoke(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_argv(case))
    return [code, out.getvalue(), err.getvalue()]


def test_kalai_matches_record():
    with open(RECORD) as fh:
        record = json.load(fh)
    assert list(record) == list(_all_cases())
    for case, expected in record.items():
        assert _invoke(case) == expected, case


def _record():
    record = {case: _invoke(case) for case in _all_cases()}
    os.makedirs(os.path.dirname(RECORD), exist_ok=True)
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
