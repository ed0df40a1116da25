"""The benchmark harness still runs against this source tree."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest():
    # perfbench's tracer rebinds cellmesh functions by name, so a refactor
    # that renames or drops one fails here instead of breaking --trace 1
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    # the self-test does not time the pool; --trace 1 reads this name too
    import cellmesh.spectra
    assert callable(cellmesh.spectra._run_parallel)
