"""bevkit: deterministic BEV odometry toolkit.

Submodules:

* :mod:`bevkit.geometry`: SE(3)/SE(2) pose algebra, trajectories and the metric BEV grid.
* :mod:`bevkit.flow`: dense BEV flow from planar motion and its inverse.
* :mod:`bevkit.correlation`: local correlation volumes.
* :mod:`bevkit.lss`: lift-splat projection onto the BEV grid.
* :mod:`bevkit.losses`: pose, direction/rotation, and flow losses.
* :mod:`bevkit.sampler`: rotation-aware training-pair selection.
* :mod:`bevkit.evaluation`: RTE/RRE, aligned ATE, scale diagnostics.
* :mod:`bevkit.text`: the number rule, row reader and JSON field checker of every text input.
* :mod:`bevkit.bvt1`: the BVT1 binary tensor container.
* :mod:`bevkit.formats`: trajectory text formats, timestamp association, pair and curve CSVs.
* :mod:`bevkit.config`: the pipeline config.
* :mod:`bevkit.synth`: synthetic drives and corrupted estimates.
* :mod:`bevkit.io`: the file-format and synthesis names of the modules above, in one place.
* :mod:`bevkit.cli`: the ``bevkit`` command-line tool.

``import bevkit`` loads none of them; ``bevkit.<name>`` imports a
submodule on first use (PEP 562), so a CLI process pays only for the
modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "bvt1",
    "config",
    "correlation",
    "errors",
    "evaluation",
    "flow",
    "formats",
    "geometry",
    "io",
    "losses",
    "lss",
    "sampler",
    "synth",
    "text",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
