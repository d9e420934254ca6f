"""Model parameters, their invariants, and the flat ``key = value`` text format.

The firm holds assets X1 and liabilities X2, each geometric Brownian motion:

    dX1 = mu_A X1 dt + sigma_A X1 dW1
    dX2 = mu_L X2 dt + sigma_L X2 dW2,      d<W1, W2> = rho dt

Dividends are discounted at ``delta``, the regulator closes the firm when the
funding ratio X1/X2 falls to ``alpha0``, an optional stricter level ``alpha1``
restricts when dividends may be paid, and ``kappa`` is the optional
proportional cost of injecting capital.

Every :class:`ModelParams` is validated when built, ``dataclasses.replace``
included.  Boundary values are rejected, not clamped: the model degenerates at
``mu_A == mu_L`` (immediate liquidation is optimal) and the value diverges as
``delta`` approaches ``mu_A``, so sweep toward a boundary explicitly.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Mapping

from .errors import MissingParameter, ParameterError

__all__ = ["ModelParams", "validate", "from_mapping", "read_params_file"]


@dataclass(frozen=True)
class ModelParams:
    """Market and control constants, all per unit time.

    ``alpha1`` and ``kappa`` are optional: ``alpha1`` only matters for the
    solvency-constrained dividend problem, ``kappa`` only when forced capital
    injections replace ruin.
    """

    mu_A: float
    mu_L: float
    sigma_A: float
    sigma_L: float
    rho: float
    delta: float
    alpha0: float
    alpha1: float | None = None
    kappa: float | None = None

    def __post_init__(self) -> None:
        validate(self)


#: Required field names, in canonical order (also the config-file key names).
REQUIRED_FIELDS = tuple(f.name for f in fields(ModelParams) if f.default is MISSING)
#: Optional field names.
OPTIONAL_FIELDS = tuple(f.name for f in fields(ModelParams) if f.default is not MISSING)


def validate(raw: ModelParams) -> ModelParams:
    """Check every model invariant, as construction does, and return the parameters unchanged.

    Raises :class:`~fundiv.errors.ParameterError` for the first violated
    invariant, naming the offending field, its value and the requirement.  NaN
    values fail the comparisons and are rejected the same way; an infinite
    value that passes them is rejected last, with the requirement that it be
    finite.
    """
    if not raw.sigma_A > 0.0:
        raise ParameterError("sigma_A", raw.sigma_A, "sigma_A > 0")
    if not raw.sigma_L > 0.0:
        raise ParameterError("sigma_L", raw.sigma_L, "sigma_L > 0")
    if not (-1.0 < raw.rho < 1.0):
        raise ParameterError("rho", raw.rho, "-1 < rho < 1")
    if not raw.mu_A > raw.mu_L:
        raise ParameterError("mu_A", raw.mu_A, f"mu_A > mu_L = {raw.mu_L!r}")
    if not raw.delta > raw.mu_A:
        raise ParameterError("delta", raw.delta, f"delta > mu_A = {raw.mu_A!r}")
    if not raw.delta > 0.0:
        raise ParameterError("delta", raw.delta, "delta > 0")
    if not raw.alpha0 > 0.0:
        raise ParameterError("alpha0", raw.alpha0, "alpha0 > 0")
    if raw.alpha0 < sys.float_info.min:  # the closed forms lose their digits at a subnormal
        raise ParameterError("alpha0", raw.alpha0, f"alpha0 >= {sys.float_info.min!r}, a normal float")
    if raw.alpha1 is not None and not raw.alpha1 > raw.alpha0:
        raise ParameterError("alpha1", raw.alpha1, f"alpha1 > alpha0 = {raw.alpha0!r}")
    if raw.kappa is not None and not raw.kappa > 1.0:
        raise ParameterError("kappa", raw.kappa, "kappa > 1")
    # Not vars(raw): giving the instance a real __dict__ halves the speed of every p.field read.
    for name in REQUIRED_FIELDS + OPTIONAL_FIELDS:
        value = getattr(raw, name)
        if value is not None and math.isinf(value):
            raise ParameterError(name, value, f"{name} must be finite")
    return raw


def require_alpha1(p: ModelParams, context: str = "the solvency-constrained problem") -> float:
    """Return ``p.alpha1`` or raise :class:`MissingParameter`."""
    if p.alpha1 is None:
        raise MissingParameter("alpha1", context)
    return p.alpha1


def require_kappa(p: ModelParams, context: str = "the capital-injection problem") -> float:
    """Return ``p.kappa`` or raise :class:`MissingParameter`."""
    if p.kappa is None:
        raise MissingParameter("kappa", context)
    return p.kappa


def from_mapping(values: Mapping[str, float]) -> ModelParams:
    """Build validated :class:`ModelParams` from a flat mapping.

    Keys must be exactly the dataclass field names.  Missing required fields
    raise :class:`MissingParameter`; unknown keys and violated invariants raise
    :class:`~fundiv.errors.ParameterError`.
    """
    known = set(REQUIRED_FIELDS) | set(OPTIONAL_FIELDS)
    for key in values:
        if key not in known:
            raise ParameterError(key, values[key], f"unknown parameter; expected one of {sorted(known)}")
    for key in REQUIRED_FIELDS:
        if key not in values:
            raise MissingParameter(key, "the model")
    kwargs = {key: float(values[key]) for key in values}
    return ModelParams(**kwargs)


def read_params_file(path: str | Path) -> dict[str, float]:
    """Parse a flat ``key = value`` parameter file.

    Blank lines and ``#`` comments are ignored.  Values must parse as decimal
    floats, and a key set on two lines is rejected; key names are not checked
    here (see :func:`from_mapping`).
    """
    out: dict[str, float] = {}
    line_of: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(
                f"{path}:{lineno}", line.strip(), "config lines must look like 'key = value'"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in line_of:
            raise ParameterError(
                key, value.strip(), f"{path} sets it on lines {line_of[key]} and {lineno}"
            )
        line_of[key] = lineno
        try:
            out[key] = float(value.strip())
        except ValueError:
            raise ParameterError(key, value.strip(), "value must be a decimal number") from None
    return out


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _render(value: object) -> str:
    """One value of a flat line: floats to 17 significant digits, flags as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return _fmt(value)
    return str(value)


def _flat_text(record: Mapping[str, object], prefix: str = "") -> str:
    """Render ``record`` in order as ``key = value`` lines, each ending in a newline.

    The inverse of :func:`read_params_file` for the numbers it writes: a float
    read back from its line is the same float.
    """
    return "".join(f"{prefix}{key} = {_render(value)}\n" for key, value in record.items())
