"""The four persistence mechanisms compared in the paper (§5.1), the
software-transaction competitors, and the negative controls.

:data:`_SCHEMES` maps every :class:`~repro.common.types.SchemeName`
member to its class; each name is written once, on its class.
"""

from typing import Union

from ..common.types import SchemeName
from .base import OptimalScheme, PersistenceScheme
from .broken import CommitBeforeFlushScheme
from .kiln import KilnScheme
from .software import SoftwareScheme
from .swtx import HybridDramScheme, RedoLogScheme, UndoLogScheme
from .txcache_scheme import TxCacheScheme

_SCHEMES = {cls.name: cls for cls in (
    OptimalScheme, SoftwareScheme, KilnScheme, TxCacheScheme,
    UndoLogScheme, RedoLogScheme, HybridDramScheme,
    CommitBeforeFlushScheme)}


def create_scheme(
    name: Union[str, SchemeName],
    sim,
    config,
    stats,
    hierarchy,
    memory,
    tracer=None,
) -> PersistenceScheme:
    """Instantiate a persistence scheme by name, wiring its hierarchy
    and memory-system hooks (and the observability tracer, if any)."""
    from ..obs.tracer import NULL_TRACER

    cls = _SCHEMES[SchemeName.parse(name)]
    return cls(sim, config, stats, hierarchy, memory,
               tracer=tracer if tracer is not None else NULL_TRACER)


__all__ = [
    "CommitBeforeFlushScheme",
    "HybridDramScheme",
    "KilnScheme",
    "OptimalScheme",
    "PersistenceScheme",
    "RedoLogScheme",
    "SoftwareScheme",
    "TxCacheScheme",
    "UndoLogScheme",
    "create_scheme",
]
