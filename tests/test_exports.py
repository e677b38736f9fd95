import importlib
import inspect
import pkgutil
from types import ModuleType

import mexkit

MODULES = [
    importlib.import_module(f"mexkit.{info.name}")
    for info in pkgutil.iter_modules(mexkit.__path__)
    if info.name != "__main__"
]


def test_every_all_entry_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_package_exports_come_from_a_module_all():
    exported = {
        name: getattr(module, name)
        for module in MODULES
        for name in getattr(module, "__all__", ())
    }
    for name, value in vars(mexkit).items():
        if name.startswith("_") or isinstance(value, ModuleType):
            continue
        assert name in exported, f"mexkit.{name} is in no module's __all__"
        assert exported[name] is value, f"mexkit.{name} is not the object its module exports"


def test_package_exports_every_oracle_search():
    from mexkit import oracle

    searches = [name for name in oracle.__all__ if inspect.isfunction(getattr(oracle, name))]
    assert "brute_force_mex_profile" in searches
    for name in searches:
        assert getattr(mexkit, name, None) is getattr(oracle, name), name
