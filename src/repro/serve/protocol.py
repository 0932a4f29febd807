"""Wire protocol of the simulation service: JSON point specs.

A request is one JSON object describing one experiment point — the
same frozen point kinds the batch engine runs
(:data:`repro.sim.parallel.POINT_KINDS`)::

    {
      "kind": "experiment",            // experiment | crash | litmus
      "workload": "hashtable",
      "scheme": "txcache",
      "operations": 100,               // optional (kind default)
      "seed": 42,                      // optional
      "workload_params": {"...": 1},   // optional, scalar values
      "config": {                      // optional config block
        "preset": "small",             //   "small" (default) | "paper"
        "num_cores": 1,                //   shortcut, 1..MAX_CORES
        "overrides": {"txcache": {"size_bytes": 8192}}
      },
      "fractions": [0.1, 0.5, 0.9],    // optional, crash kind only
      "deadline_ms": 30000             // optional per-request deadline
    }

Litmus points replace ``workload`` with an inline program (the
:meth:`repro.litmus.LitmusProgram.to_dict` shape) and accept an
optional crash stride::

    {
      "kind": "litmus",
      "program": {"name": "mp", "cores": [[{"op": "tx_begin", ...}]]},
      "scheme": "txcache",
      "check_every": 1,                // optional
      "config": {...}                  // optional, as above
    }

Parsing builds the *identical* frozen point dataclass the engine
builds, so the spec key (sha256 over kind + code version + spec) — and
therefore the on-disk cache entry — is shared between the service and
every batch path: a point computed by ``repro figures`` is a warm hit
for a served request and vice versa.

``config.overrides`` is a partial nested dict in the shape of
:func:`repro.common.config.config_to_dict`; it is deep-merged onto the
chosen preset and rebuilt through the config dataclasses, each of
which rejects its own bad values at construction, so a bad knob is a
400 at the front door rather than a crashed worker.  Unknown keys
anywhere are errors, never silently dropped, and every leaf must have
its field's type (an int passes for a float) or the request is a 400
naming the leaf's dotted path.  ``num_cores`` may not exceed
:data:`MAX_CORES`, by the shortcut or by an override: a node builds the
machine a request names.  ``workload_params`` names must be parameters
of the workload's constructor (other than ``core_id`` and ``seed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..common.config import (
    MachineConfig,
    config_from_dict,
    config_to_dict,
    paper_machine_config,
    small_machine_config,
)
from ..common.types import NEGATIVE_CONTROLS, SchemeName
from ..sim.parallel import POINT_KINDS, make_params
from ..workloads import WORKLOADS, workload_param_names

#: presets a request may name in its config block
CONFIG_PRESETS = ("small", "paper")
#: the largest ``config.num_cores`` a request may name (the repository
#: itself runs at most 4 cores); a node builds whatever machine a
#: request names, and a build grows with its core count
MAX_CORES = 64

_TOP_KEYS = frozenset({
    "kind", "workload", "scheme", "operations", "seed",
    "workload_params", "config", "fractions", "deadline_ms", "program",
    "check_every",
})
_CONFIG_KEYS = frozenset({"preset", "num_cores", "overrides"})
_LITMUS_ONLY_KEYS = ("program", "check_every")
_LITMUS_REJECTED_KEYS = ("workload", "operations", "seed",
                         "workload_params", "fractions")


class ProtocolError(ValueError):
    """A request the protocol rejects (the server answers 400)."""


@dataclass(frozen=True)
class PointRequest:
    """One parsed request: the point to run plus request options."""

    point: object                      # one of the POINT_KINDS classes
    deadline: Optional[float] = None   # seconds, None = no deadline

    @property
    def key(self) -> str:
        return self.point.key


def _require_int(data: Mapping, name: str, minimum: int = 0,
                 maximum: Optional[int] = None, path: str = "") -> int:
    """``data[name]`` as an int in ``[minimum, maximum]``; errors name
    ``path`` (default: ``name``)."""
    value = data[name]
    path = path or name
    # bool is an int subclass; a spec saying "operations": true is a bug
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{path} must be an integer, got {value!r}")
    if value < minimum:
        raise ProtocolError(f"{path} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ProtocolError(f"{path} must be <= {maximum}, got {value}")
    return value


def _served_scheme(data: Mapping) -> str:
    """The request's scheme value; negative controls stay in-process."""
    try:
        scheme = SchemeName.parse(data.get("scheme"))
    except (ValueError, KeyError, AttributeError):
        scheme = None
    if scheme is None or scheme in NEGATIVE_CONTROLS:
        served = [s.value for s in SchemeName if s not in NEGATIVE_CONTROLS]
        raise ProtocolError(f"scheme must be one of {served}, "
                            f"got {data.get('scheme')!r}")
    return scheme.value


def build_config(data: Optional[Mapping]) -> MachineConfig:
    """Materialize the request's config block into a MachineConfig."""
    if data is None:
        data = {}
    if not isinstance(data, Mapping):
        raise ProtocolError(f"config must be an object, got {data!r}")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ProtocolError(
            f"config: unknown keys {unknown} "
            f"(known: {sorted(_CONFIG_KEYS)})")
    preset = data.get("preset", "small")
    if preset not in CONFIG_PRESETS:
        raise ProtocolError(
            f"config.preset must be one of {list(CONFIG_PRESETS)}, "
            f"got {preset!r}")
    # the shared preset instance, whose fingerprint is computed once
    presets = (paper_machine_config if preset == "paper"
               else small_machine_config)
    config = (presets(_require_int(data, "num_cores", minimum=1,
                                   maximum=MAX_CORES,
                                   path="config.num_cores"))
              if "num_cores" in data else presets())
    overrides = data.get("overrides")
    if overrides is not None:
        if not isinstance(overrides, Mapping):
            raise ProtocolError(
                f"config.overrides must be an object, got {overrides!r}")
        merged = _deep_merge(config_to_dict(config), overrides,
                             path="config.overrides")
        try:
            config = config_from_dict(merged)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        if config.num_cores > MAX_CORES:
            raise ProtocolError(
                f"config.overrides.num_cores must be <= {MAX_CORES}, "
                f"got {config.num_cores}")
    return config


def _deep_merge(base: Dict[str, object], overrides: Mapping,
                path: str) -> Dict[str, object]:
    """Merge a partial override tree onto a full config dict.  Keys
    absent from the base are typos: rejected, with the path named."""
    out = dict(base)
    for name, value in overrides.items():
        if name not in out:
            raise ProtocolError(
                f"{path}: unknown key {name!r} "
                f"(known: {sorted(base)})")
        if isinstance(out[name], dict):
            if not isinstance(value, Mapping):
                raise ProtocolError(
                    f"{path}.{name}: expected an object, got {value!r}")
            out[name] = _deep_merge(out[name], value, f"{path}.{name}")
        else:
            out[name] = value
    return out


def parse_request(data: object) -> PointRequest:
    """Parse one request body (already JSON-decoded) into a point.

    Raises :class:`ProtocolError` for anything malformed; the point it
    returns is validated and ready to execute.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError(f"request must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ProtocolError(f"unknown keys {unknown} "
                            f"(known: {sorted(_TOP_KEYS)})")

    kind = data.get("kind", "experiment")
    point_cls = POINT_KINDS.get(kind)
    if point_cls is None:
        raise ProtocolError(f"kind must be one of "
                            f"{sorted(POINT_KINDS)}, got {kind!r}")

    if kind == "litmus":
        return _parse_litmus_request(data, point_cls)
    for name in _LITMUS_ONLY_KEYS:
        if name in data:
            raise ProtocolError(f"{name} only applies to litmus points")

    workload = data.get("workload")
    if workload not in WORKLOADS:
        raise ProtocolError(f"workload must be one of "
                            f"{sorted(WORKLOADS)}, got {workload!r}")
    kwargs: Dict[str, object] = {
        "workload": workload,
        "scheme": _served_scheme(data),
        "config": build_config(data.get("config")),
    }
    if "operations" in data:
        kwargs["operations"] = _require_int(data, "operations", minimum=1)
    if "seed" in data:
        kwargs["seed"] = _require_int(data, "seed")

    params = data.get("workload_params")
    if params is not None:
        if not isinstance(params, Mapping):
            raise ProtocolError(
                f"workload_params must be an object, got {params!r}")
        known = workload_param_names(workload)
        for name, value in params.items():
            if name not in known:
                raise ProtocolError(
                    f"workload_params.{name}: not a parameter of "
                    f"{workload!r} (known: {sorted(known)})")
            if isinstance(value, (dict, list)):
                raise ProtocolError(
                    f"workload_params.{name} must be a scalar, "
                    f"got {value!r}")
        kwargs["workload_params"] = make_params(dict(params))

    if "fractions" in data:
        if kind != "crash":
            raise ProtocolError("fractions only applies to crash points")
        kwargs["fractions"] = data["fractions"]

    deadline = None
    if "deadline_ms" in data:
        deadline = _require_int(data, "deadline_ms", minimum=1) / 1000.0
    try:
        point = point_cls(**kwargs)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return PointRequest(point=point, deadline=deadline)


def _parse_litmus_request(data: Mapping, point_cls) -> PointRequest:
    """Litmus points carry an inline program instead of a workload.

    The program is validated here (grammar, TX bracketing, unique tx
    ids) so a malformed program is a 400 at the front door; the point
    stores its canonical JSON, giving the served run the same cache
    key an engine-built litmus sweep would use.
    """
    from ..litmus import LitmusProgram

    for name in _LITMUS_REJECTED_KEYS:
        if name in data:
            raise ProtocolError(
                f"{name} does not apply to litmus points "
                "(the program rides inline)")
    if "program" not in data:
        raise ProtocolError("kind 'litmus' requires a program object")
    try:
        program = LitmusProgram.from_dict(data["program"])
    except ValueError as exc:
        raise ProtocolError(f"program: {exc}") from exc
    scheme_value = _served_scheme(data)
    config = build_config(data.get("config"))
    if config.num_cores < program.num_cores:
        raise ProtocolError(
            f"program {program.name!r} needs {program.num_cores} cores, "
            f"config has {config.num_cores} "
            "(set config.num_cores)")
    kwargs: Dict[str, object] = {
        "program": program.canonical_json(),
        "scheme": scheme_value,
        "config": config,
    }
    if "check_every" in data:
        kwargs["check_every"] = _require_int(data, "check_every", minimum=1)
    deadline = None
    if "deadline_ms" in data:
        deadline = _require_int(data, "deadline_ms", minimum=1) / 1000.0
    return PointRequest(point=point_cls(**kwargs), deadline=deadline)
