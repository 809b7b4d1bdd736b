"""Design-based estimation of total treatment effects under network interference.

The package centers on the pseudoinverse estimator for low-order potential
outcome models: each unit's observed outcome is reweighted by an inner
product against the Moore-Penrose pseudoinverse of its treated-subset
design matrix.  Supporting pieces cover interference graphs, graph cluster
randomization (Bernoulli and completely randomized), exact bias and
worst-case variance bounds, bound-driven clustering selection, and a
replicated experiment harness with exhaustive-enumeration oracles.
"""

from __future__ import annotations

from . import bounds, clustering, design, errors, estimator, graph, harness, moments, outcomes
from .bounds import *
from .clustering import *
from .design import *
from .errors import *
from .estimator import *
from .graph import *
from .harness import *
from .moments import *
from .outcomes import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, graph, clustering, outcomes, design, moments, estimator, bounds, harness)
    for name in module.__all__
]
