"""The package's public names: each module's ``__all__`` is the only list; the version
is declared once."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import fundiv
from fundiv import closed_form, errors, injections, params, simulate, verify

MODULES = (closed_form, errors, injections, params, simulate, verify)


def test_package_exports_the_union_of_module_exports():
    names = fundiv.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}


def test_every_export_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fundiv, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_test_only_functions_are_gone():
    for name in (
        "coefficients", "value_constrained", "summary_lines", "generator_apply", "SeamError",
        "FD_MIN_STEP", "VolatilityNotPositive", "CorrelationOutOfRange", "ProfitabilityViolated",
        "DiscountTooLow", "RuinLevelNotPositive", "SolvencyLevelTooLow", "InjectionCostTooLow",
        "BracketFailure", "MonotonicityError", "EmptyInput", "GridSpec", "_CHUNK_BUDGET",
        "_steps", "_clear_of_kink", "_pasting", "_one_sided",
    ):
        assert name not in fundiv.__all__
        assert not hasattr(fundiv, name)
        assert not any(hasattr(module, name) for module in MODULES)
    # A CV that is NaN when undefined needs no flag beside it.
    assert not [f.name for f in fields(fundiv.SimSummary) if f.name.endswith("_defined")]


def test_every_raise_names_an_exported_error_or_value_error():
    # ValueError is the one builtin raised: verify's unknown mode or problem.
    allowed = {*errors.__all__, "ValueError"}
    for path in Path(fundiv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:  # a bare raise re-raises
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert isinstance(exc, ast.Name) and exc.id in allowed, (
                    f"{path.name}:{node.lineno}: raise {ast.unparse(node.exc)}"
                )


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_package_version_is_fundiv_version():
    config = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert config["project"]["version"] == fundiv.__version__
