"""Tests for the package's public surface."""

import inspect

import lapdiff


def test_all_names_every_public_function_and_class():
    bound = {
        name
        for name, obj in vars(lapdiff).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }
    assert sorted(bound - set(lapdiff.__all__)) == []
    assert sorted(set(lapdiff.__all__) - set(vars(lapdiff))) == []
