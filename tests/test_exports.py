"""The package's public names: each module's ``__all__`` is the only list; the version
is declared once."""

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
    for name in ("coefficients", "value_constrained", "summary_lines"):
        assert name not in fundiv.__all__
        assert not hasattr(fundiv, name)
        assert not any(hasattr(module, name) for module in MODULES)


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_package_version_is_fundiv_version():
    config = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert config["project"]["version"] == fundiv.__version__
