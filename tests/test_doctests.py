"""The ``>>>`` examples in the package docstrings run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import flateta

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(flateta.__path__, prefix="flateta.")
)


@pytest.mark.parametrize("name", ["flateta", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
