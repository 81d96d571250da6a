"""Every module's __all__ names exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import quaddyn

MODULES = [
    importlib.import_module(f"quaddyn.{info.name}")
    for info in pkgutil.iter_modules(quaddyn.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_all_lists_existing_public_definitions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"
    unlisted = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
        and name not in module.__all__
    ]
    assert not unlisted, f"{module.__name__}.__all__ omits {unlisted}"
