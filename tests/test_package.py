import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import urania

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(urania.__path__) if info.name != "__main__"
)


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that finds this urania."""
    env = dict(os.environ, PYTHONPATH=str(Path(urania.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"urania.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_names_are_their_modules_objects():
    for name in urania.__all__:
        obj = getattr(urania, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from urania import *", namespace)
    assert set(urania.__all__) <= namespace.keys()
    assert set(urania.__all__) <= set(dir(urania))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        urania.no_such_name
    assert not hasattr(urania, "counted_direct")


def test_import_loads_no_submodule():
    code = "import sys, urania\nprint(*[m for m in sys.modules if m.startswith('urania.')])"
    assert _fresh(code).split() == []


@pytest.mark.parametrize("name, module", [
    ("OrbitalElements", "urania.kepler"),
    ("GeocentricPosition", "urania.geocentric"),
    ("DoubleEntryTable", "urania.tables"),
])
def test_a_record_loads_no_module_that_computes_it(name, module):
    assert module not in _fresh(f"import sys, urania\nurania.{name}\nprint(*sys.modules)").split()
