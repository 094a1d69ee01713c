"""``sigtest.__all__`` lists exactly the public names ``__init__.py`` imports."""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import sigtest


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(sigtest.__file__).read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_every_name_resolves():
    for name in sigtest.__all__:
        assert getattr(sigtest, name) is not None, name


def test_all_equals_imported_names():
    assert len(sigtest.__all__) == len(set(sigtest.__all__))
    assert set(sigtest.__all__) == imported_public_names()


@pytest.mark.parametrize("module, name", [
    ("sigtest", "r_stat"),
    ("sigtest", "r_stats_batch"),
    ("sigtest", "GumbelRef"),
    ("sigtest.linmodel", "r_stat"),
    ("sigtest.linmodel", "r_stats_batch"),
    ("sigtest.significance", "GumbelRef"),
    ("sigtest.significance", "exp1_sf"),
    ("sigtest.significance", "reference_cdf"),
    ("sigtest.significance", "reference_quantile"),
    ("sigtest.glm", "gaussian_loglik"),
    ("sigtest.lasso", "KKTCoordinate"),
    ("sigtest.lasso", "solve_at"),
    ("sigtest.cli", "RunConfig"),
    ("sigtest.cli", "_COMMANDS"),
    ("sigtest", "lrt_drop"),
    ("sigtest", "gumbel_test_glm"),
    ("sigtest.glm", "lrt_drop"),
    ("sigtest.glm", "gumbel_test_glm"),
    ("sigtest.glm", "_gaussian_fit"),
    ("sigtest.glm", "_FAMILIES"),
    ("sigtest.glm", "_family"),
    ("sigtest.glm", "LrtStep"),
    ("sigtest.significance", "_gumbel_outcome"),
    ("sigtest.cli", "_glm_test_rows"),
    ("sigtest.cli", "_gaussian_test_rows"),
    ("sigtest", "logistic_fit"),
    ("sigtest", "cox_fit"),
    ("sigtest.glm", "logistic_fit"),
    ("sigtest.glm", "cox_fit"),
    ("sigtest.glm", "_fit"),
])
def test_removed_name_is_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert not hasattr(importlib.import_module(module), name)


def test_scenario_validate_is_gone():
    # A Scenario checks itself when it is built.
    assert not hasattr(sigtest.Scenario, "validate")


def test_dataset_digest_is_gone():
    # A path carries the dataset it was traced from instead of a checksum of it.
    assert not hasattr(sigtest.Dataset, "digest")
    assert "data_digest" not in {f.name for f in fields(sigtest.LassoPath)}


@pytest.mark.parametrize("function, parameter", [
    ("load_dataset", "unit_norm"),
    ("load_binary", "include_intercept"),
])
def test_removed_parameter_is_gone(function, parameter):
    fn = getattr(importlib.import_module("sigtest.dataio"), function)
    assert parameter not in inspect.signature(fn).parameters


@pytest.mark.parametrize("module, function, parameter", [
    ("sigtest.glm", "lrt_path", "family"),
    ("sigtest.glm", "lrt_drops_all", "family"),
    ("sigtest.linmodel", "standardize", "center"),
    ("sigtest.glm", "FitResult", "converged"),  # a fit that fails raises
    ("sigtest.significance", "covariance_test", "data"),  # the path carries its dataset
    ("sigtest.selection", "lasso_steps", "data"),
])
def test_removed_argument_is_gone(module, function, parameter):
    fn = getattr(importlib.import_module(module), function)
    assert parameter not in inspect.signature(fn).parameters
