"""bevkit: deterministic BEV odometry toolkit.

Submodules:

* :mod:`bevkit.geometry`: SE(3)/SE(2) pose algebra and the metric BEV grid.
* :mod:`bevkit.flow`: dense BEV flow from planar motion and its inverse.
* :mod:`bevkit.correlation`: local correlation volumes.
* :mod:`bevkit.lss`: lift-splat projection onto the BEV grid.
* :mod:`bevkit.losses`: pose, direction/rotation, and flow losses.
* :mod:`bevkit.sampler`: rotation-aware training-pair selection.
* :mod:`bevkit.evaluation`: RTE/RRE, aligned ATE, scale diagnostics.
* :mod:`bevkit.io`: trajectory/tensor/config parsing and synthesis.
* :mod:`bevkit.cli`: the ``bevkit`` command-line tool.
"""

from . import (
    correlation,
    errors,
    evaluation,
    flow,
    geometry,
    io,
    losses,
    lss,
    sampler,
)

__version__ = "0.1.0"

__all__ = [
    "correlation",
    "errors",
    "evaluation",
    "flow",
    "geometry",
    "io",
    "losses",
    "lss",
    "sampler",
    "__version__",
]
