"""repro.litmus — persistency-model litmus engine.

Generated multi-core crash-interleaving programs, a scheme-independent
legal-persist-set oracle, and a runner that crashes every scheme at
every cycle and checks membership — the systematic validator the
ROADMAP's litmus item calls for (see docs/litmus.md).

The program/generator/oracle layers import only trace and type
primitives, so :mod:`repro.sim.crash` can build its recovery check on
the oracle without an import cycle; the simulation-facing pieces
(runner, minimizer) load lazily on first attribute access.
"""

from ..common.types import SchemeName
from .generator import (CLASSIC_SHAPES, default_suite, message_passing,
                        overlapping_tx, private_chain, random_program,
                        shared_counter, store_buffering)
from .oracle import (TxSummary, check_membership, expected_image_from_summaries,
                     legal_commit_sets, legal_images, line_candidates,
                     prefix_violations, tx_summaries)
from .program import LitmusOp, LitmusProgram, line_address

#: the negative control's scheme name, as litmus results spell it
BROKEN_COMMIT = SchemeName.BROKEN_COMMIT.value

_LAZY = {
    "run_litmus": "runner",
    "run_litmus_matrix": "runner",
    "iter_crash_states": "runner",
    "LitmusResult": "runner",
    "LitmusMatrixReport": "runner",
    "minimize_program": "minimize",
    "minimize_violation": "minimize",
    "reduction_candidates": "minimize",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


__all__ = [
    "BROKEN_COMMIT",
    "CLASSIC_SHAPES",
    "LitmusOp",
    "LitmusProgram",
    "TxSummary",
    "check_membership",
    "default_suite",
    "expected_image_from_summaries",
    "legal_commit_sets",
    "legal_images",
    "line_address",
    "line_candidates",
    "message_passing",
    "overlapping_tx",
    "prefix_violations",
    "private_chain",
    "random_program",
    "shared_counter",
    "store_buffering",
    "tx_summaries",
] + sorted(_LAZY)
