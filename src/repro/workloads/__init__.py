"""The paper's benchmark suite (Table 3) plus two extension workloads.

:data:`WORKLOADS` names every workload; use :func:`create_workload`
to instantiate one.  Adding a workload means writing its class and
adding it to that table.
"""

import functools
import inspect
from types import MappingProxyType
from typing import Dict, Mapping, Type

from ..pheap.arena import WORD
from .base import Workload
from .btree import BTreeWorkload
from .graph import GraphWorkload
from .hashtable import HashtableWorkload
from .queue import QueueWorkload
from .rbtree import RbTreeWorkload
from .sps import SpsWorkload
from .synthetic import SyntheticWorkload

#: name → workload class
WORKLOADS: Dict[str, Type[Workload]] = {
    "btree": BTreeWorkload,
    "graph": GraphWorkload,
    "hashtable": HashtableWorkload,
    "queue": QueueWorkload,
    "rbtree": RbTreeWorkload,
    "sps": SpsWorkload,
    "synthetic": SyntheticWorkload,
}

#: the five benchmarks of the paper's Table 3, in its order
PAPER_WORKLOADS = ("graph", "rbtree", "sps", "btree", "hashtable")


def create_workload(name: str, core_id: int = 0, seed: int = 42,
                    **params) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    return cls(core_id=core_id, seed=seed, **params)


@functools.lru_cache(maxsize=None)
def workload_param_defaults(name: str) -> Mapping[str, object]:
    """The parameters workload ``name`` takes besides ``core_id`` and
    ``seed``, each with its default: its class's constructor signature,
    read once per class."""
    params = inspect.signature(WORKLOADS[name]).parameters
    return MappingProxyType({param: spec.default
                             for param, spec in params.items()
                             if param not in ("core_id", "seed")})


def workload_table() -> Dict[str, str]:
    """The rows of the paper's Table 3."""
    return {name: cls.description for name, cls in sorted(WORKLOADS.items())}


__all__ = [
    "WORD",
    "WORKLOADS",
    "PAPER_WORKLOADS",
    "BTreeWorkload",
    "GraphWorkload",
    "HashtableWorkload",
    "QueueWorkload",
    "RbTreeWorkload",
    "SpsWorkload",
    "SyntheticWorkload",
    "Workload",
    "create_workload",
    "workload_param_defaults",
    "workload_table",
]
