"""Each module's `__all__` is its public surface: every listed name exists,
and every public function or class the module defines is listed."""

import importlib
import inspect
import pkgutil

import pytest

import annulab

MODULES = [info.name for info in pkgutil.iter_modules(annulab.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"annulab.{name}")
    listed = module.__all__
    assert [n for n in listed if not hasattr(module, n)] == []
    defined = {n for n, v in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))
               and v.__module__ == module.__name__}
    assert sorted(defined - set(listed)) == []
