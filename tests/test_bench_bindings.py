"""The benchmark's tracer (``perfbench/tracer.py``) patches facedct functions
by module and name, and its self-test checks two ``facedct.cli`` bindings.
A rename must fail here, not only under ``perfbench/run.py --trace 1``.
The self-test itself runs here too, in a copy of the benchmark and the
source, so a change that breaks anything else the benchmark imports or
calls fails with the tests, and a benchmark running in this checkout keeps
its work directory."""

import importlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_layer_resolves_to_a_callable(tracer):
    assert tracer.LAYERS
    for layer in tracer.LAYERS:
        target = getattr(importlib.import_module(layer.module), layer.function, None)
        assert callable(target), f"{layer.module}.{layer.function}"


def test_cli_binds_the_names_the_selftest_checks():
    import facedct.cli
    import facedct.matching
    import facedct.verification

    assert facedct.cli.build_score_tensor is facedct.matching.build_score_tensor
    assert facedct.cli.eer_of is facedct.verification.eer


def test_the_benchmark_selftest_passes(tmp_path):
    # it runs every workload at a tiny shape, through the CLI, the tracer
    # and the output checks, in the .bench_work directory it then removes
    # whole; so it runs in a copy, and a benchmark running in this checkout
    # keeps its work directory
    root = PERFBENCH.parent
    skip = shutil.ignore_patterns("__pycache__", ".bench_work")
    for name in ("perfbench", "src"):
        shutil.copytree(root / name, tmp_path / name, ignore=skip)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
