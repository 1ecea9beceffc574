"""A ratchet on the package's options: the number of defaulted parameters
of annulab's own functions and methods is pinned.  An option that no caller
sets carries a branch that nothing exercises; a change that needs a new one
raises KNOBS in the same change, where the diff shows it, and a change that
removes one lowers it there too, so the count cannot drift below it unseen."""

import importlib
import inspect
import pkgutil

import annulab

# the committed count; lower it when options go
KNOBS = 20


def _own_functions(module):
    """The plain functions of a module and of the classes it defines, kept
    when their code lives in the module's own file (so dataclass-generated
    methods and names imported from elsewhere drop out)."""
    found = [v for v in vars(module).values() if inspect.isfunction(v)]
    for cls in vars(module).values():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            found += [v for v in vars(cls).values() if inspect.isfunction(v)]
    return [f for f in found if f.__code__.co_filename == module.__file__]


def test_defaulted_parameters_do_not_rise():
    modules = [importlib.import_module(f"annulab.{info.name}")
               for info in pkgutil.iter_modules(annulab.__path__) if info.name != "__main__"]
    count = sum(p.default is not inspect.Parameter.empty
                for module in modules for f in _own_functions(module)
                for p in inspect.signature(f).parameters.values())
    assert count == KNOBS
