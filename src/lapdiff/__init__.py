"""Direct estimation of sparse differences between network Laplacians.

The package estimates the difference B2 - B1 between the weighted-Laplacian
system matrices of two conservation-law networks, using only node-potential
observations from each regime. Each module's `__all__` is its public
surface, and the package re-exports those names; `lapdiff.__all__` is their
sorted union. See the module docstrings for details.
"""

from . import errors, estimator, experiments, linalg, matio, matpower, network, sampling
from .errors import *  # noqa: F403
from .estimator import *  # noqa: F403
from .experiments import *  # noqa: F403
from .linalg import *  # noqa: F403
from .matio import *  # noqa: F403
from .matpower import *  # noqa: F403
from .network import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    errors.__all__
    + estimator.__all__
    + experiments.__all__
    + linalg.__all__
    + matio.__all__
    + matpower.__all__
    + network.__all__
    + sampling.__all__
)
