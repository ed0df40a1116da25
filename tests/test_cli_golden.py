"""`cellmesh verify` against a recorded run: stdout, stderr and exit code of
every bundled corpus case that took about a second or less stay byte-
identical.

tests/data/verify_golden.json maps "complex theorem d" (d is "-" for rf) to
[exit code, stdout, stderr].  Rewrite it only when an output change is
intended, with `PYTHONPATH=src python tests/test_cli_golden.py --record`:
that runs every corpus case serially and keeps the ones that finish within
RECORD_LIMIT_S.  The recorded cases should stay within a budget of about
20 s of wall time on one core (98 cases took about 1.3 s on a 2-CPU
Xeon).  Which cases fall within the limit moves with the code and the
machine, so compare the key sets after a re-record.

The recorded Kirchhoff and geometric cases whose forests are folded with
the pair leaf (stats.path "pairs", at least one pair row) are replayed a
second time at CELLMESH_PROCESSES=2 with the process pool forced, against
the same record.  That replay should stay within about 20 s too (16
cases took about 0.5 s on the same machine).  Neither budget is asserted,
so machine load cannot fail the tests; `pytest --durations` shows their
times.
"""

import json
import os
import sys
import time

from cellmesh.cli import run
from cellmesh.complexes import load_complex

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "..", "corpus")
RECORD = os.path.join(HERE, "data", "verify_golden.json")
RECORD_LIMIT_S = 1.0
THEOREMS = ("trent", "boundary", "kirchhoff", "geometric", "covolume")


def _argv(case):
    name, theorem, d = case.split()
    argv = ["verify", os.path.join(CORPUS, f"{name}.json"), "--theorem", theorem]
    return argv if d == "-" else argv + ["--dim", d]


def _all_cases():
    for fname in sorted(os.listdir(CORPUS)):
        name = fname[:-len(".json")]
        top = load_complex(os.path.join(CORPUS, fname)).dimension
        for theorem in THEOREMS:
            for d in range(0 if theorem == "covolume" else 1, top + 1):
                yield f"{name} {theorem} {d}"
        yield f"{name} rf -"


def _invoke(case, capsys):
    code = run(_argv(case))
    captured = capsys.readouterr()
    return [code, captured.out, captured.err]


def _load_record():
    with open(RECORD) as fh:
        return json.load(fh)


def _runs_pair_leaf(case, expected):
    """Whether a recorded run folds forests with spectra._pair_leaf: a
    passing Kirchhoff or geometric run whose stats.path is "pairs" and
    that has a row of pairs (every Kirchhoff row, a geometric boundaries
    row k >= 1)."""
    code, out, _ = expected
    if case.split()[1] not in ("kirchhoff", "geometric") or code != 0:
        return False
    doc = json.loads(out)
    return (doc["stats"]["path"] == "pairs"
            and any(row["k"] >= 1 for row in doc["rows"] if row.get("side") != "cycles"))


def test_verify_matches_record(capsys, monkeypatch):
    monkeypatch.setenv("CELLMESH_PROCESSES", "1")
    for case, expected in _load_record().items():
        assert _invoke(case, capsys) == expected, case


def test_pair_leaf_cases_match_record_in_the_pool(capsys, monkeypatch):
    import cellmesh.spectra as spectra
    monkeypatch.setenv("CELLMESH_PROCESSES", "2")
    monkeypatch.setattr(spectra, "_POOL_MIN_SUBSETS", 0)
    record = _load_record()
    cases = [case for case, expected in record.items() if _runs_pair_leaf(case, expected)]
    assert cases
    for case in cases:
        assert _invoke(case, capsys) == record[case], case


def _record():
    import contextlib
    import io
    os.environ["CELLMESH_PROCESSES"] = "1"
    record = {}
    for case in _all_cases():
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(_argv(case))
        elapsed = time.monotonic() - start
        print(f"{elapsed:7.3f} s  {case}", file=sys.stderr)
        if elapsed <= RECORD_LIMIT_S:
            record[case] = [code, out.getvalue(), err.getvalue()]
    os.makedirs(os.path.dirname(RECORD), exist_ok=True)
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
