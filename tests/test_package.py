import importlib
import pkgutil

import pytest

import urania

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(urania.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"urania.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
