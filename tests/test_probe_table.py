"""Every target in the end-to-end benchmark's probe table exists.

The benchmark's traced pass wraps each ``PROBES`` callable of
``benchmarks/e2e/probes.py`` and dies if one of them is gone, so a
refactor that renames or moves a probed name must fail here first.
Each target is resolved the way ``Recorder.install`` resolves it; no
shim is installed.
"""

import importlib
import importlib.util
import pathlib

import pytest

PROBES_PY = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "e2e" / "probes.py"
)


def _probes():
    spec = importlib.util.spec_from_file_location("e2e_probes", PROBES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = _probes()


def test_the_table_is_not_empty():
    assert len(PROBES) > 20


@pytest.mark.parametrize(
    "target,kind", [(target, kind) for _layer, _name, target, kind in PROBES]
)
def test_probe_target_resolves(target, kind):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # A method is patched on its class, so it must be the class's own.
    original = owner.__dict__[attr] if path else getattr(owner, attr)
    assert callable(original), target
    assert kind in ("span", "count"), kind
