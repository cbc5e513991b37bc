"""Tests for the package's public surface."""

import inspect
from dataclasses import fields

import lapdiff
from lapdiff import cli
from lapdiff.estimator import SolverConfig
from lapdiff.experiments import ExperimentConfig


def test_all_names_every_public_function_and_class():
    bound = {
        name
        for name, obj in vars(lapdiff).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }
    assert sorted(bound - set(lapdiff.__all__)) == []
    assert sorted(set(lapdiff.__all__) - set(vars(lapdiff))) == []


def test_every_solver_field_is_reachable():
    # lam comes from lambda_scale (or --lambda); every other solver field is a
    # settings key of the command line and a field of the sweep config
    solver = {f.name for f in fields(SolverConfig)} - {"lam"}
    assert sorted(solver - set(cli._SOLVER_KEYS)) == []
    assert sorted(solver - {f.name for f in fields(ExperimentConfig)}) == []
