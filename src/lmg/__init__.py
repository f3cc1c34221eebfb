"""Exact solutions, preparation circuits, and VQE benchmarking for the LMG model.

The package re-exports each layer module's ``__all__``, so a public name is
declared once, in the module that defines it.
"""

from . import bethe, circuit, eigenstates, errors, model, simulator, vqe
from .bethe import *  # noqa: F403
from .circuit import *  # noqa: F403
from .eigenstates import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .simulator import *  # noqa: F403
from .vqe import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (bethe, circuit, eigenstates, errors, model, simulator, vqe)
    for name in module.__all__
)
