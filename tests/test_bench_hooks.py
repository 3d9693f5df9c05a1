"""The benchmark's tracer wraps names inside hightrans from outside: it
imports every module in ``MODULES`` and swaps each ``SPANS`` and
``AGGREGATES`` path for a wrapper.  ``bench/test_bench.py`` exercises it,
but this suite does not collect that file, so a deleted or renamed hook
would otherwise pass here and break only the benchmark; the last test runs
that file in a separate pytest."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    """bench/tracer.py as a module, loaded without writing bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("hightrans_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_resolves_every_module_and_hook(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    modules = tracer.package_modules()
    assert [m.__name__ for m in modules] == (
        ["hightrans"] + [f"hightrans.{name}" for name in tracer.MODULES])
    hooks = tracer.SPANS + tracer.AGGREGATES
    assert len({name for name, _, _ in hooks}) == len(hooks)
    for name, module, path in hooks:
        owner, attr = tracer._resolve(module, path)
        assert callable(getattr(owner, attr, None)), name


def test_the_benchmark_tests_pass():
    """``bench/test_bench.py`` passes, run without writing bytecode or a
    pytest cache, and leaves no file behind under ``bench/``."""
    listing = sorted((ROOT / "bench").rglob("*"))
    result = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/test_bench.py"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    assert sorted((ROOT / "bench").rglob("*")) == listing
