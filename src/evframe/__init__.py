"""Turn asynchronous event-camera streams into fixed-rate image frames.

The package slices a time-ordered polarity event stream into groups
(by count, by time, or by time and number), accumulates each group
into a normalized frame with configurable polarity handling and decay,
and ships a synthetic event generator whose output is predictable in
closed form, so the whole pipeline can be tested end to end without
hardware.
"""
from . import accumulator, core, eventio, metrics, pipeline, presets, slicer, synth
from .accumulator import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .eventio import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .pipeline import *  # noqa: F401,F403
from .presets import *  # noqa: F401,F403
from .slicer import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (accumulator, core, eventio, metrics, pipeline, presets, slicer, synth)
    for name in module.__all__
)
