import importlib
import inspect
import pkgutil

import pytest

import remcr

MODULES = ["remcr"] + [f"remcr.{info.name}" for info in pkgutil.iter_modules(remcr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_api(name):
    # every exported name resolves, and every public function or class the
    # module defines is exported
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = {
        n
        for n, v in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == name
    }
    assert sorted(defined - set(mod.__all__)) == []
