"""Matrix calculus for endomorphisms and automorphisms of direct products of finite groups.

The package exports the names in each module's ``__all__``.
"""
from __future__ import annotations

from .errors import *  # noqa: F403
from .groups import *  # noqa: F403
from .maps import *  # noqa: F403
from .matrices import *  # noqa: F403
from .determinant import *  # noqa: F403
from .pairs import *  # noqa: F403
from .autcompare import *  # noqa: F403
from .bench import *  # noqa: F403

__version__ = "0.1.0"
