"""Parameter container, validation order, and config-file parsing."""

import math
from dataclasses import replace

import pytest

from fundiv import (
    CorrelationOutOfRange,
    DiscountTooLow,
    InjectionCostTooLow,
    MissingParameter,
    ModelParams,
    ParameterError,
    ProfitabilityViolated,
    RuinLevelNotPositive,
    SolvencyLevelTooLow,
    VolatilityNotPositive,
    from_mapping,
    read_params_file,
    validate,
)
from helpers import P1, make_params


def test_valid_baseline_roundtrip():
    p = make_params()
    assert p.mu_A == 0.05
    assert p.alpha1 is None and p.kappa is None
    # frozen dataclass
    with pytest.raises(AttributeError):
        p.mu_A = 0.1


def test_optional_fields_accepted():
    p = make_params(alpha1=1.2, kappa=1.05)
    assert p.alpha1 == 1.2
    assert p.kappa == 1.05


# Every way to build a ModelParams runs the same checks: the config path,
# a direct constructor call, and dataclasses.replace of a valid set.
BUILDERS = {
    "from_mapping": make_params,
    "constructor": lambda **kw: ModelParams(**{**P1, **kw}),
    "replace": lambda **kw: replace(make_params(alpha1=1.2, kappa=1.05), **kw),
}


@pytest.mark.parametrize(
    "field,value,exc",
    [
        ("sigma_A", 0.0, VolatilityNotPositive),
        ("sigma_A", -0.3, VolatilityNotPositive),
        ("sigma_L", 0.0, VolatilityNotPositive),
        ("rho", 1.0, CorrelationOutOfRange),
        ("rho", -1.0, CorrelationOutOfRange),
        ("rho", 1.5, CorrelationOutOfRange),
        ("mu_A", 0.02, ProfitabilityViolated),  # equals mu_L
        ("mu_A", 0.0, ProfitabilityViolated),
        ("delta", 0.05, DiscountTooLow),  # equals mu_A
        ("delta", 0.01, DiscountTooLow),
        ("alpha0", 0.0, RuinLevelNotPositive),
        ("alpha0", -1.0, RuinLevelNotPositive),
        ("alpha1", 1.0, SolvencyLevelTooLow),  # equals alpha0
        ("alpha1", 0.5, SolvencyLevelTooLow),
        ("kappa", 1.0, InjectionCostTooLow),
        ("kappa", 0.9, InjectionCostTooLow),
    ],
)
def test_each_constraint_rejected(field, value, exc):
    for how, build in BUILDERS.items():
        with pytest.raises(exc) as details:
            build(**{field: value})
        assert type(details.value) is exc, how
        assert details.value.field == field, how
        assert details.value.value == value, how


@pytest.mark.parametrize("field", ["sigma_A", "sigma_L", "rho", "mu_A", "delta", "alpha0"])
def test_nan_rejected_everywhere(field):
    # NaN must fail the check it first reaches, never slip through a `<`.
    for how, build in BUILDERS.items():
        with pytest.raises(ParameterError) as details:
            build(**{field: math.nan})
        assert details.value.field == field, how
        assert math.isnan(details.value.value), how


def test_missing_required_field():
    raw = dict(P1)
    del raw["delta"]
    with pytest.raises(MissingParameter) as details:
        from_mapping(raw)
    assert details.value.field == "delta"


def test_unknown_field_rejected():
    with pytest.raises(ParameterError):
        from_mapping({**P1, "mu_B": 0.1})


def test_validate_returns_same_object():
    p = ModelParams(**P1)
    assert validate(p) is p


def test_read_params_file(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(
        "# baseline set\n"
        "mu_A = 0.05\n"
        "mu_L=0.02\n"
        "sigma_A = 0.3   # asset vol\n"
        "sigma_L = 0.1\n"
        "rho = 0.0\n"
        "\n"
        "delta = 0.06\n"
        "alpha0 = 1.0\n"
    )
    values = read_params_file(cfg)
    assert values == pytest.approx(P1)
    assert validate(from_mapping(values)).delta == 0.06


def test_read_params_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mu_A 0.05\n")
    with pytest.raises(ParameterError):
        read_params_file(cfg)


def test_read_params_file_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mu_A = fast\n")
    with pytest.raises(ParameterError):
        read_params_file(cfg)
