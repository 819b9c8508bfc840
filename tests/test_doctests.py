import doctest
import importlib
import pkgutil

import pytest

import stacksort

MODULES = ["stacksort"] + [f"stacksort.{m.name}"
                           for m in pkgutil.iter_modules(stacksort.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
