"""Graph test-time adaptation laboratory.

A hop-aggregation GNN whose combination weights γ are adapted at test time
by descending an unsupervised prediction-informed clustering objective,
plus the synthetic-shift generators, closed-form accuracy oracle, and
experiment harness used to study it.

The public API is declared once, in each module's ``__all__``; the package
exports their union, module by module. ``adarc.adapt`` is the function
``adapt.adapt``; the module is ``sys.modules["adarc.adapt"]``.
"""

from . import adapt, csbm, graph, harness, io, losses, model, pretrain, theory, tta

__version__ = "0.2.0"

# Read the lists before the star imports rebind ``adapt`` to the function.
__all__ = ["__version__"] + [
    name
    for module in (adapt, csbm, graph, harness, io, losses, model, pretrain, theory, tta)
    for name in module.__all__
]

from .adapt import *
from .csbm import *
from .graph import *
from .harness import *
from .io import *
from .losses import *
from .model import *
from .pretrain import *
from .theory import *
from .tta import *
