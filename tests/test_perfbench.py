"""The benchmark harness still runs against this source tree."""

import importlib.util
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


def test_perfbench_pool_hook(corpus, monkeypatch):
    # the self-test does not run the pool, so time a forced-pool run here
    # through the hook --trace 1 installs
    import cellmesh.spectra as spectra
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(ROOT, "perfbench", "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    run_parallel = spectra._run_parallel
    monkeypatch.setattr(spectra, "_POOL_MIN_SUBSETS", 0)
    tracer = layers.Tracer()
    tracer.install_pool()
    try:
        assert spectra._run_parallel is not run_parallel
        report = spectra.verify_kirchhoff_lyons(corpus["rp2"], 2, processes=2)
    finally:
        tracer.uninstall()
    assert report.passed
    assert tracer.pool_s > 0
    assert spectra._run_parallel is run_parallel
