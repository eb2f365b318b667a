"""Versioned request schema and canonicalizer for the scheduling service.

A *schedule request* is one JSON object asking the service for one
simulation: a platform (``c_j``/``p_j`` lists), a task bag (release process
plus parameters), a scheduler name and a seed.  This module turns raw
payloads into validated :class:`ScheduleRequest` values and — crucially —
into a **canonical configuration** whose content hash is the request's
identity everywhere else in the service (result cache, in-flight
coalescing, response ``key`` field).

Canonicalization guarantees that semantically equal requests collapse onto
one key:

* dict key order never matters (:func:`repro._hashing.canonical_json`);
* numeric spellings are normalised (``1`` vs ``1.0`` for a float-valued
  field, NumPy scalars, integral floats for int-valued fields); numbers are
  recognised through :mod:`numbers`, where NumPy registers its scalar
  types, so checking a request never imports NumPy;
* optional fields are filled with their defaults (``{"tasks": 100}`` is the
  same request as the fully spelt-out all-at-zero bag of 100 tasks);
* scheduler names are case-folded to the registry's canonical upper case;
* transport metadata (``id``, ``arrival``) is carried on the request but
  **excluded** from the canonical configuration, so replaying a stream with
  fresh ids still hits the cache.

Every validation failure raises
:class:`~repro.exceptions.RequestValidationError` with a message naming the
offending field; the dispatcher maps that to a structured error response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from .._hashing import canonical_json, content_hash
from ..exceptions import RequestValidationError
from ..schedulers.base import _REGISTRY as _SCHEDULERS, available_schedulers

if TYPE_CHECKING:
    import numpy as np

    from ..core.platform import Platform
    from ..core.task import TaskSet

__all__ = [
    "SCHEMA_VERSION",
    "RELEASE_PROCESSES",
    "METRICS_REQUEST_TYPE",
    "ScheduleRequest",
    "canonicalize_request",
    "build_tasks",
    "metrics_request",
    "is_control_request",
    "control_request_id",
]

#: Current (and only) request schema version.  Bump on any change to the
#: canonical configuration layout; old versions must then be either upgraded
#: or rejected explicitly, never reinterpreted silently.
SCHEMA_VERSION = 1

#: ``{process: {param: (kind, default, validator)}}`` — the release
#: processes a request may ask for and their parameters beyond ``n``.
#: ``default is None`` marks a required parameter.
RELEASE_PROCESSES: Dict[str, Dict[str, Tuple[str, Any, str]]] = {
    "all-at-zero": {},
    "uniform": {"horizon": ("float", None, "non-negative")},
    "poisson": {"rate": ("float", None, "positive")},
    "bursty": {
        "burst_size": ("int", None, "positive"),
        "gap": ("float", None, "non-negative"),
        "jitter": ("float", 0.0, "non-negative"),
    },
    "saturating": {"load_factor": ("float", 1.0, "positive")},
}

#: ``{"type": "metrics"}`` marks a *control request*: instead of scheduling
#: a simulation it asks a shard for its observability payload — shard
#: identity, uptime and the metric registry snapshot (counters, gauges,
#: streaming-histogram quantiles) assembled by
#: :meth:`repro.service.async_server.AsyncScheduleServer.metrics_payload`.
#: Control requests are a transport-level concept — the persistent asyncio
#: server answers them in stream position; the plain stdin/stdout loop has
#: no server state to report and treats them as invalid schedule requests,
#: as every transport treats any other ``type``.
METRICS_REQUEST_TYPE = "metrics"

#: Top-level request fields that are *transport metadata*: echoed in the
#: response, excluded from the canonical configuration and the cache key.
#: ``trace`` opts one request into span collection — metadata by design, so
#: asking for a trace never perturbs caching, coalescing, or shard routing.
_METADATA_FIELDS = ("id", "arrival", "trace")

_KNOWN_FIELDS = frozenset(
    ("schema_version", "platform", "tasks", "scheduler", "seed") + _METADATA_FIELDS
)

_PLATFORM_FIELDS = frozenset(("comm", "comp"))

#: ``{process: fields a tasks object may carry}``.
_TASK_FIELDS = {
    process: frozenset(spec) | {"process", "n"}
    for process, spec in RELEASE_PROCESSES.items()
}

_INF = math.inf


def _fail(message: str) -> "RequestValidationError":
    return RequestValidationError(message)


def _as_float(value: Any, where: str) -> float:
    """Coerce a JSON number into a finite float, rejecting bool/str/NaN."""
    if type(value) is float and -_INF < value < _INF:
        return value  # fast path: what json.loads yields for a finite number
    if isinstance(value, bool) or not isinstance(value, Real):
        raise _fail(f"{where} must be a number, got {type(value).__name__}")
    result = float(value)
    if not math.isfinite(result):
        raise _fail(f"{where} must be finite, got {result}")
    return result


def _as_int(value: Any, where: str) -> int:
    """Coerce a JSON number into an int, accepting integral floats (``3.0``)."""
    if type(value) is int:
        return value  # fast path: bool is a subclass, never ``type(...) is int``
    if isinstance(value, bool) or not isinstance(value, Real):
        raise _fail(f"{where} must be an integer, got {type(value).__name__}")
    if not isinstance(value, Integral):
        if not math.isfinite(value) or float(value) != int(value):
            raise _fail(f"{where} must be an integer, got {value}")
    return int(value)


def _check(value: float, rule: str, where: str) -> None:
    if rule == "positive" and value <= 0:
        raise _fail(f"{where} must be positive, got {value}")
    if rule == "non-negative" and value < 0:
        raise _fail(f"{where} must be non-negative, got {value}")


def _positive_times(values: Any, name: str) -> List[float]:
    """Parse one platform time list; every entry a finite positive number."""
    if not isinstance(values, (list, tuple)) or not values:
        raise _fail(f"'platform.{name}' must be a non-empty list of numbers")
    for value in values:
        # NaN fails the comparison and -0.0 is not above 0.0, so both fall
        # through to the checks below with their messages.
        if type(value) is not float or not 0.0 < value < _INF:
            break
    else:
        return list(values)
    # Type and finiteness errors of any entry take precedence over a
    # positivity error of an earlier one.
    parsed = [_as_float(v, f"'platform.{name}[{i}]'") for i, v in enumerate(values)]
    for index, value in enumerate(parsed):
        _check(value, "positive", f"'platform.{name}[{index}]'")
    return parsed


def _canonical_platform(raw: Any) -> Dict[str, Any]:
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise _fail(f"'platform' must be an object, got {type(raw).__name__}")
    if not _PLATFORM_FIELDS.issuperset(raw):
        raise _fail(f"'platform' has unknown field(s) {sorted(set(raw) - _PLATFORM_FIELDS)}")
    times: Dict[str, Any] = {}
    for name in ("comm", "comp"):
        if name not in raw:
            raise _fail(f"'platform' is missing required field '{name}'")
        times[name] = _positive_times(raw[name], name)
    if len(times["comm"]) != len(times["comp"]):
        raise _fail(
            "'platform.comm' and 'platform.comp' must have the same length, "
            f"got {len(times['comm'])} vs {len(times['comp'])}"
        )
    return times


def _canonical_tasks(raw: Any) -> Dict[str, Any]:
    if type(raw) is not dict:
        if isinstance(raw, Real) and not isinstance(raw, bool):
            raw = {"n": raw}  # shorthand: bare count = all-at-zero bag
        elif not isinstance(raw, Mapping):
            raise _fail(
                f"'tasks' must be an object or a task count, got {type(raw).__name__}"
            )
    process = raw.get("process", "all-at-zero")
    if process not in RELEASE_PROCESSES:
        raise _fail(
            f"'tasks.process' {process!r} is unknown; "
            f"available: {sorted(RELEASE_PROCESSES)}"
        )
    spec = RELEASE_PROCESSES[process]
    if not _TASK_FIELDS[process].issuperset(raw):
        unknown = set(raw) - _TASK_FIELDS[process]
        raise _fail(
            f"'tasks' has field(s) {sorted(unknown)} not accepted by "
            f"process {process!r}"
        )
    if "n" not in raw:
        raise _fail("'tasks' is missing required field 'n'")
    n = _as_int(raw["n"], "'tasks.n'")
    _check(n, "positive", "'tasks.n'")
    canonical: Dict[str, Any] = {"process": process, "n": n}
    for name, (kind, default, rule) in spec.items():
        where = f"'tasks.{name}'"
        if name in raw:
            value = raw[name]
            parsed = _as_int(value, where) if kind == "int" else _as_float(value, where)
        elif default is not None:
            parsed = default
        else:
            raise _fail(f"'tasks' process {process!r} requires field {name!r}")
        _check(parsed, rule, where)
        canonical[name] = parsed
    return canonical


@dataclass(frozen=True)
class ScheduleRequest:
    """One validated, canonicalized scheduling request.

    Attributes
    ----------
    config:
        The canonical configuration — the request's *identity*.  Two raw
        payloads with equal ``config`` are the same request to the cache and
        to in-flight coalescing, whatever their ids or spelling.
    request_id:
        Client-supplied correlation id, echoed verbatim in the response
        (``None`` when absent).  Not part of :attr:`config`.
    arrival:
        Optional client-side arrival timestamp (load generators attach it
        for latency bookkeeping).  Not part of :attr:`config`.
    trace:
        True when the client asked for span timings on this request's
        response (``"trace": true``).  This opt-in alone attaches the
        span breakdown, whatever server answers.  Not part of
        :attr:`config`.
    """

    config: Mapping[str, Any]
    request_id: Optional[str] = None
    arrival: Optional[float] = None
    trace: bool = False
    _key: str = field(default="", repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self._key:
            object.__setattr__(self, "_key", content_hash(dict(self.config)))

    @property
    def key(self) -> str:
        """Content hash of :attr:`config` — cache key and coalescing key."""
        return self._key

    @property
    def scheduler(self) -> str:
        """Canonical (upper-case) name of the requested scheduler."""
        return self.config["scheduler"]

    @property
    def seed(self) -> int:
        """Root seed of the request's random draws."""
        return self.config["seed"]

    @property
    def n_tasks(self) -> int:
        """Number of tasks the request simulates."""
        return self.config["tasks"]["n"]

    @property
    def n_workers(self) -> int:
        """Number of platform workers the request simulates."""
        return len(self.config["platform"]["comm"])

    @property
    def cost(self) -> int:
        """Admission-control cost estimate: ``n_tasks * n_workers``.

        The engine's event count grows with both dimensions, so their
        product is the budget unit the dispatcher sheds on.
        """
        return self.n_tasks * self.n_workers

    def platform(self) -> Platform:
        """Materialise the request's :class:`~repro.core.platform.Platform`."""
        from ..core.platform import Platform

        return Platform.from_times(
            self.config["platform"]["comm"], self.config["platform"]["comp"]
        )

    def config_json(self) -> str:
        """Canonical JSON encoding of :attr:`config`."""
        return canonical_json(dict(self.config))


def canonicalize_request(raw: Any) -> ScheduleRequest:
    """Validate a raw payload and return its :class:`ScheduleRequest`.

    ``raw`` is typically ``json.loads`` of one JSONL line.  Raises
    :class:`~repro.exceptions.RequestValidationError` on any malformed,
    missing or out-of-range field; never mutates ``raw``.
    """
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise _fail(f"request must be a JSON object, got {type(raw).__name__}")

    # Version before field inventory: a future-schema request must be told
    # "unsupported version", not blamed for fields this version lacks.
    version = _as_int(raw.get("schema_version", SCHEMA_VERSION), "'schema_version'")
    if version != SCHEMA_VERSION:
        raise _fail(
            f"unsupported schema_version {version}; this service speaks "
            f"version {SCHEMA_VERSION}"
        )

    if not _KNOWN_FIELDS.issuperset(raw):
        raise _fail(f"request has unknown field(s) {sorted(set(raw) - _KNOWN_FIELDS)}")

    request_id = raw.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise _fail(f"'id' must be a string, got {type(request_id).__name__}")
    arrival = raw.get("arrival")
    if arrival is not None:
        arrival = _as_float(arrival, "'arrival'")
        _check(arrival, "non-negative", "'arrival'")
    trace = raw.get("trace", False)
    if not isinstance(trace, bool):
        raise _fail(f"'trace' must be a boolean, got {type(trace).__name__}")

    if "platform" not in raw:
        raise _fail("request is missing required field 'platform'")
    if "tasks" not in raw:
        raise _fail("request is missing required field 'tasks'")
    if "scheduler" not in raw:
        raise _fail("request is missing required field 'scheduler'")

    scheduler = raw["scheduler"]
    if not isinstance(scheduler, str):
        raise _fail(f"'scheduler' must be a string, got {type(scheduler).__name__}")
    scheduler = scheduler.upper()
    if scheduler not in _SCHEDULERS:
        raise _fail(
            f"unknown scheduler {raw['scheduler']!r}; "
            f"available: {available_schedulers()}"
        )

    seed = _as_int(raw.get("seed", 0), "'seed'")
    _check(seed, "non-negative", "'seed'")

    config = {
        "schema_version": SCHEMA_VERSION,
        "platform": _canonical_platform(raw["platform"]),
        "tasks": _canonical_tasks(raw["tasks"]),
        "scheduler": scheduler,
        "seed": seed,
    }
    return ScheduleRequest(
        config=config, request_id=request_id, arrival=arrival, trace=trace
    )


def metrics_request(request_id: Optional[str] = None) -> Dict[str, Any]:
    """Build one metrics control-request payload (optionally correlated)."""
    payload: Dict[str, Any] = {"type": METRICS_REQUEST_TYPE}
    if request_id is not None:
        payload["id"] = request_id
    return payload


def is_control_request(payload: Any) -> bool:
    """True when ``payload`` is a ``{"type": "metrics"}`` control request.

    Checked by serving transports *before* :func:`canonicalize_request`: a
    control request never becomes a :class:`ScheduleRequest` (it has no
    canonical configuration and must not occupy a cache key).
    """
    return isinstance(payload, Mapping) and payload.get("type") == METRICS_REQUEST_TYPE


def control_request_id(payload: Any) -> Optional[str]:
    """The correlation id of a control request, if it carries one."""
    if not isinstance(payload, Mapping):
        return None
    request_id = payload.get("id")
    return request_id if isinstance(request_id, str) else None


def build_tasks(request: ScheduleRequest, rng: np.random.Generator) -> TaskSet:
    """Materialise the request's task bag from its canonical configuration.

    ``rng`` must come from the request-derived stream (see
    :func:`repro.service.executor.request_rng`) so that the resulting
    releases depend only on the request — never on the worker that builds
    them.
    """
    from ..workloads import release

    tasks = request.config["tasks"]
    process, n = tasks["process"], tasks["n"]
    if process == "all-at-zero":
        return release.all_at_zero(n)
    if process == "uniform":
        return release.uniform_releases(n, horizon=tasks["horizon"], rng=rng)
    if process == "poisson":
        return release.poisson_releases(n, rate=tasks["rate"], rng=rng)
    if process == "bursty":
        return release.bursty_releases(
            n,
            burst_size=tasks["burst_size"],
            gap=tasks["gap"],
            jitter=tasks["jitter"],
            rng=rng,
        )
    if process == "saturating":
        return release.saturating_releases(
            n, request.platform(), load_factor=tasks["load_factor"], rng=rng
        )
    raise _fail(f"unhandled release process {process!r}")  # pragma: no cover
