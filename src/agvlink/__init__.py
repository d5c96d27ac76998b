"""Stability and outage analysis of a cloud-controlled AGV on a fading link.

The package splits along the system boundary: `control` holds the unicycle
tracking loop (reference tracks, and the error transform, control law and
plant step that the closed-loop simulator calls), `stability`
linearizes that loop with every command n samples old and searches for the
largest lag at which it stays stable, `channel` models the correlated
Rayleigh downlink (per-slot and back-to-back outage probabilities, with J0
and Marcum Q1 taken from scipy.special, and fading samplers), `analysis`
composes the two sides into the instability probability and its parameter
sweeps, and `cli` exposes everything as subcommands. The package re-exports
the public API that every module but `cli` lists in its own `__all__`.

Importing the package loads neither numpy nor scipy: each function that
computes imports numpy itself, and the channel's special functions import
scipy.special, so a process pays for them at its first computation, and
`--help`, `--version` or a refused config not at all. A command that
computes takes as long as if numpy loaded at import. The annotations that
name `np` bind it for type checkers only, so evaluating them at run time
needs it passed in: `typing.get_type_hints(obj, localns={"np": numpy})`.
"""

from ._version import __version__
from . import analysis, channel, control, exceptions, stability
from .analysis import *
from .channel import *
from .control import *
from .exceptions import *
from .stability import *

__all__ = ["__version__", *control.__all__, *stability.__all__,
           *channel.__all__, *analysis.__all__, *exceptions.__all__]
