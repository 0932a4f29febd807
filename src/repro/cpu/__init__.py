"""CPU layer: trace ISA, trace containers, and the core timing model."""

from .._lazy import lazy_exports

# The trace ISA loads without the core timing model (and the
# persistence, cache and memory layers behind it): workloads and the
# heap build traces in processes that never simulate them.
_LAZY = {
    "core": ("Core",),
    "trace": ("OpType", "Trace", "TraceBuilder", "TraceOp"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _LAZY)
