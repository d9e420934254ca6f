"""Parameter container, validation order, and config-file parsing."""

import math
import sys
from dataclasses import replace

import pytest

from fundiv import (
    MissingParameter,
    ModelParams,
    ParameterError,
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


# Each row raises a plain ParameterError naming the requirement of its
# invariant; the label (the invariant's old class name) keeps the test ids.
CONSTRAINT_ROWS = [
    ("sigma_A", 0.0, "sigma_A > 0", "VolatilityNotPositive"),
    ("sigma_A", -0.3, "sigma_A > 0", "VolatilityNotPositive"),
    ("sigma_A", -math.inf, "sigma_A > 0", "VolatilityNotPositive"),
    ("sigma_L", 0.0, "sigma_L > 0", "VolatilityNotPositive"),
    ("rho", 1.0, "-1 < rho < 1", "CorrelationOutOfRange"),
    ("rho", -1.0, "-1 < rho < 1", "CorrelationOutOfRange"),
    ("rho", 1.5, "-1 < rho < 1", "CorrelationOutOfRange"),
    ("rho", math.inf, "-1 < rho < 1", "CorrelationOutOfRange"),
    ("mu_A", 0.02, "mu_A > mu_L = 0.02", "ProfitabilityViolated"),  # equals mu_L
    ("mu_A", 0.0, "mu_A > mu_L = 0.02", "ProfitabilityViolated"),
    ("mu_A", -math.inf, "mu_A > mu_L = 0.02", "ProfitabilityViolated"),
    ("delta", 0.05, "delta > mu_A = 0.05", "DiscountTooLow"),  # equals mu_A
    ("delta", 0.01, "delta > mu_A = 0.05", "DiscountTooLow"),
    ("alpha0", 0.0, "alpha0 > 0", "RuinLevelNotPositive"),
    ("alpha0", -1.0, "alpha0 > 0", "RuinLevelNotPositive"),
    ("alpha0", 5e-324, f"alpha0 >= {sys.float_info.min!r}, a normal float", "Subnormal"),
    ("alpha0", 1e-310, f"alpha0 >= {sys.float_info.min!r}, a normal float", "Subnormal"),
    ("alpha1", 1.0, "alpha1 > alpha0 = 1.0", "SolvencyLevelTooLow"),  # equals alpha0
    ("alpha1", 0.5, "alpha1 > alpha0 = 1.0", "SolvencyLevelTooLow"),
    ("kappa", 1.0, "kappa > 1", "InjectionCostTooLow"),
    ("kappa", 0.9, "kappa > 1", "InjectionCostTooLow"),
    ("kappa", -math.inf, "kappa > 1", "InjectionCostTooLow"),
]


@pytest.mark.parametrize(
    "field,value,requirement",
    [row[:3] for row in CONSTRAINT_ROWS],
    ids=[f"{field}-{value}-{label}" for field, value, _, label in CONSTRAINT_ROWS],
)
def test_each_constraint_rejected(field, value, requirement):
    for how, build in BUILDERS.items():
        with pytest.raises(ParameterError) as details:
            build(**{field: value})
        assert type(details.value) is ParameterError, how
        assert details.value.field == field, how
        assert details.value.value == value, how
        assert details.value.requirement == requirement, how


@pytest.mark.parametrize(
    "field,value",
    [
        ("sigma_A", math.inf),
        ("sigma_L", math.inf),
        ("delta", math.inf),
        ("alpha0", math.inf),
        ("alpha1", math.inf),
        ("kappa", math.inf),
        ("mu_L", -math.inf),
    ],
)
def test_infinity_within_every_bound_rejected(field, value):
    # Each value passes its comparison, so the last check names the field.
    builders = {**BUILDERS, "replace": lambda **kw: replace(make_params(), **kw)}
    for how, build in builders.items():
        with pytest.raises(ParameterError, match=f"{field} must be finite") as details:
            build(**{field: value})
        assert type(details.value) is ParameterError, how
        assert details.value.field == field, how
        assert details.value.value == value, how


def test_negative_delta_rejected_above_a_negative_mu_A():
    # delta > mu_A holds here, so only the positivity check catches it.
    for how, build in BUILDERS.items():
        with pytest.raises(ParameterError, match="delta > 0") as details:
            build(mu_A=-0.01, mu_L=-0.02, delta=-0.005)
        assert details.value.field == "delta", how


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


def test_read_params_file_rejects_a_key_set_twice(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("alpha0 = 1.0\nmu_A = 0.05\nalpha0 = 1.5\n")
    with pytest.raises(ParameterError, match="lines 1 and 3") as info:
        read_params_file(cfg)
    assert info.value.field == "alpha0"
