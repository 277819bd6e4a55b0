"""The traced benchmark (`bench/run.py --trace 1`) wraps every name in
`bench/run.py::TRACE_TARGETS`. Each of them must exist once `sgforge.cli` is
imported, and uninstalling the tracer must restore every binding it replaced,
so that deleting or renaming a traced name, or deferring the import of its
module, fails here rather than in a traced run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run as bench_run  # noqa: E402
from spans import Tracer  # noqa: E402

TARGET_MODULES = sorted({module for module, *_ in bench_run.TRACE_TARGETS})


def test_cli_import_loads_every_traced_module():
    code = "import sys, sgforge.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert [m for m in TARGET_MODULES if m not in loaded] == []


def _bindings() -> dict:
    """Every attribute of every loaded sgforge module, and of every class
    those modules define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sgforge" or name.startswith("sgforge.")):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[name, f"{key}.{attr}"] = raw
    return out


def test_tracer_wraps_every_target_and_restores_every_binding():
    import sgforge.cli  # noqa: F401

    before = _bindings()
    tracer = Tracer()
    tracer.install(bench_run.TRACE_TARGETS)
    try:
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    unwrapped = [(m, a) for m, a, *_ in bench_run.TRACE_TARGETS
                 if during[m, a] is before[m, a]]
    assert unwrapped == []
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
