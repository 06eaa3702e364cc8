"""Export guard: every name a module lists in __all__ exists and star-imports."""

import importlib
import pkgutil

import pytest

import hahncalc

SUBMODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(hahncalc.__path__)
    if name != "__main__"
)


def test_package_all_resolves_and_star_imports():
    namespace = {}
    exec("from hahncalc import *", namespace)
    for name in hahncalc.__all__:
        assert getattr(hahncalc, name) is namespace[name], name


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_submodule_all_resolves_and_star_imports(module_name):
    module = importlib.import_module(f"hahncalc.{module_name}")
    exported = getattr(module, "__all__", [])
    namespace = {}
    exec(f"from hahncalc.{module_name} import *", namespace)
    for name in exported:
        assert getattr(module, name) is namespace[name], name


def test_package_exports_are_listed_in_their_modules_all():
    for module_name, names in hahncalc._EXPORTS.items():
        module = importlib.import_module(f"hahncalc.{module_name}")
        missing = sorted(set(names) - set(getattr(module, "__all__", ())))
        assert not missing, (module_name, missing)
