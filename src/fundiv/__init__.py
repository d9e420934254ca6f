"""Optimal dividend barriers on the funding ratio of correlated GBM assets
and liabilities, with closed-form value functions, verification-lemma checks,
and a deterministic Monte Carlo engine.

The package exports exactly the names in each module's ``__all__``.
"""

from . import closed_form, errors, injections, params, simulate, verify
from .closed_form import *  # noqa: F403
from .errors import *  # noqa: F403
from .injections import *  # noqa: F403
from .params import *  # noqa: F403
from .simulate import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (closed_form, errors, injections, params, simulate, verify)
    for name in module.__all__
]
