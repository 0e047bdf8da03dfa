import importlib
import inspect
import pkgutil

import lcmspectra


def test_exports_equal_union_of_module_all():
    # the package re-exports exactly what its modules declare public
    exported = {
        name
        for name, value in vars(lcmspectra).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    declared = set()
    for info in pkgutil.iter_modules(lcmspectra.__path__):
        module = importlib.import_module(f"lcmspectra.{info.name}")
        declared |= set(getattr(module, "__all__", ()))
    assert exported == declared
