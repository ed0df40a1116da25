"""`cellmesh verify` against a recorded run: stdout, stderr and exit code of
every bundled corpus case that took about a second or less stay byte-
identical.

tests/data/verify_golden.json maps "complex theorem d" (d is "-" for rf) to
[exit code, stdout, stderr].  Rewrite it only when an output change is
intended, with `PYTHONPATH=src python tests/test_cli_golden.py --record`:
that runs every corpus case serially and keeps the ones that finish within
RECORD_LIMIT_S.  The recorded cases should stay within a budget of about
20 s of wall time on one core (98 cases took about 1.3 s on a 2-CPU
Xeon).  The budget is stated, not asserted, so machine load cannot fail
the test; `pytest --durations` shows its time.
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


def test_verify_matches_record(capsys, monkeypatch):
    monkeypatch.setenv("CELLMESH_PROCESSES", "1")
    with open(RECORD) as fh:
        record = json.load(fh)
    for case, expected in record.items():
        assert _invoke(case, capsys) == expected, case


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
