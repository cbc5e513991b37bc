"""Tests that each module's `__all__` states its public surface, and the package re-exports them."""

import lapdiff
from lapdiff import errors, estimator, experiments, linalg, matio, matpower, network, sampling


def test_package_reexports_the_union_of_the_module_surfaces():
    declared = {}
    for module in (errors, estimator, experiments, linalg, matio, matpower, network, sampling):
        for name in module.__all__:
            # defined in the module, not imported into it
            assert getattr(module, name).__module__ == module.__name__, name
            assert name not in declared, (name, declared.get(name), module.__name__)
            declared[name] = module.__name__
    assert lapdiff.__all__ == sorted(declared)
    namespace = {}
    exec("from lapdiff import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == lapdiff.__all__
