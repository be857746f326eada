"""Evaluation applications: toy loop, active visualization, streaming.

The names below load from their defining module on first access (PEP
562), so a toy-app run loads neither the streaming nor the memory-bound
app, nor the codecs they pull in.
"""

from .._lazy import lazy_exports

#: defining module -> the names it exports through this package.
_HOMES = {
    ".membound": ("MemWorkload", "make_membound_app"),
    ".streaming": ("QUALITY_BYTES", "StreamWorkload", "make_streaming_app"),
    ".toy": ("TOY_HOST", "make_toy_app"),
}

__getattr__ = lazy_exports(globals(), _HOMES)
__all__ = [name for names in _HOMES.values() for name in names]
