"""Local-history semantics: emission correctness, reception recording,
instance views, integrity, and completeness.

Knowledge is a set: what an agent knows about a protocol instance is the
union of bindings across all observations correlated to that instance's key.
Reception is unconstrained; only emissions are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Adornment, InfoProtocol, MessageSchema

Key = tuple[tuple[str, str], ...]


class IntegrityConflict(Exception):
    def __init__(self, param: str, v1: str, v2: str, key: Key = ()):
        super().__init__(f"parameter {param} bound to both {v1!r} and {v2!r} (key {dict(key)})")
        self.param = param
        self.values = (v1, v2)
        self.key = key


@dataclass(frozen=True)
class MessageInstance:
    schema: MessageSchema
    bindings: tuple[tuple[str, str], ...]  # in schema parameter order

    @classmethod
    def make(cls, schema: MessageSchema, values: dict[str, str]) -> "MessageInstance":
        missing = [p for p in schema.param_names() if p not in values]
        extra = [p for p in values if schema.param(p) is None]
        if missing or extra:
            raise ValueError(f"{schema.name}: bindings must cover exactly the schema parameters (missing {missing}, extra {extra})")
        return cls(schema, tuple((p, str(values[p])) for p in schema.param_names()))

    def binding_map(self) -> dict[str, str]:
        return dict(self.bindings)

    def key(self, protocol: InfoProtocol) -> Key:
        bindings = self.bindings
        return tuple([bindings[i] for i in protocol.key_positions(self.schema)])

    def __str__(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.bindings)
        return f"{self.schema.name}({inner})"


EMISSION = "E"
RECEPTION = "R"


@dataclass(frozen=True)
class Observation:
    kind: str  # EMISSION | RECEPTION
    instance: MessageInstance
    tick: int
    day: int | None = None  # logical day for meaning-level reasoning

    @property
    def logical_day(self) -> int:
        return self.tick if self.day is None else self.day


@dataclass(frozen=True)
class History:
    owner: str
    observations: tuple[Observation, ...] = ()

    def __hash__(self) -> int:
        # Cached outside the fields, so repr, equality and records are as
        # if it were not there.  String hashes are salted per process, so
        # a pickle leaves it out.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.owner, self.observations))
        return cached

    def __getstate__(self) -> dict:
        return {"owner": self.owner, "observations": self.observations}

    def last_tick(self) -> int:
        return self.observations[-1].tick if self.observations else 0


def apply_observation(h: History, o: Observation) -> History:
    """Append an observation.  Receptions are recorded unconditionally;
    only tick regression is rejected."""
    if o.tick <= h.last_tick():
        raise ValueError(f"tick regression: {o.tick} after {h.last_tick()}")
    if o.kind == EMISSION and o.instance.schema.sender != h.owner:
        raise ValueError(f"{h.owner} cannot emit {o.instance.schema.name} (sender is {o.instance.schema.sender})")
    if o.kind == RECEPTION and o.instance.schema.receiver != h.owner:
        raise ValueError(f"{h.owner} cannot receive {o.instance.schema.name} (receiver is {o.instance.schema.receiver})")
    return History(h.owner, h.observations + (o,))


def observe(h: History, kind: str, instance: MessageInstance, day: int | None = None) -> History:
    return apply_observation(h, Observation(kind, instance, h.last_tick() + 1, day))


def known_bindings(h: History, key: Key, protocol: InfoProtocol) -> dict[str, str]:
    """Union of bindings from all observations whose instance correlates
    with `key` (every binding of the instance's key is in `key`).  Raises
    IntegrityConflict on an inconsistent union, which signals a
    noncompliant peer."""
    query = set(key)
    known: dict[str, str] = {}
    for obs in h.observations:
        if not query.issuperset(obs.instance.key(protocol)):
            continue
        for param, value in obs.instance.bindings:
            if param in known and known[param] != value:
                raise IntegrityConflict(param, known[param], value, key)
            known[param] = value
    return known


@dataclass(frozen=True)
class EmissionError:
    code: str  # UnknownIn | IntegrityConflict | AlreadyBound | DuplicateMessage
    param: str | None
    detail: str

    def __str__(self) -> str:
        return f"{self.code}({self.param}): {self.detail}" if self.param else f"{self.code}: {self.detail}"


def check_emission(h: History, m: MessageInstance, p: InfoProtocol) -> EmissionError | None:
    """Correctness of an emission, determined from the sender's history alone.

    ok iff (a) every 'in' parameter is already known with the same binding,
    (b) no 'out' parameter is already known, and (c) the same schema has not
    already been emitted for this key.
    """
    if h.owner != m.schema.sender:
        raise ValueError(f"{h.owner} is not the sender of {m.schema.name}")
    key = m.key(p)
    try:
        known = known_bindings(h, key, p)
    except IntegrityConflict as conflict:
        return EmissionError("IntegrityConflict", conflict.param, str(conflict))
    values = m.binding_map()
    for q in m.schema.params:
        if q.adornment is Adornment.IN:
            if q.name not in known:
                return EmissionError("UnknownIn", q.name, f"'in' parameter {q.name} is not known for key {dict(key)}")
            if known[q.name] != values[q.name]:
                return EmissionError(
                    "IntegrityConflict",
                    q.name,
                    f"'in' parameter {q.name} is bound to {known[q.name]!r}, not {values[q.name]!r}",
                )
        else:
            if q.name in known:
                return EmissionError("AlreadyBound", q.name, f"'out' parameter {q.name} already bound to {known[q.name]!r}")
    for obs in h.observations:
        if obs.kind == EMISSION and obs.instance.schema.name == m.schema.name and obs.instance.key(p) == key:
            return EmissionError("DuplicateMessage", None, f"{m.schema.name} already emitted for key {dict(key)}")
    return None


@dataclass(frozen=True)
class InstanceView:
    key: Key
    bindings: tuple[tuple[str, str], ...]
    contributing: tuple[MessageInstance, ...]

    def binding_map(self) -> dict[str, str]:
        return dict(self.bindings)


def instance_views(histories: list[History], p: InfoProtocol) -> tuple[InstanceView, ...]:
    """The conceptual vector: one view per distinct key tuple, with bindings
    unioned over every agent's observations."""
    instances: dict[Key, list[MessageInstance]] = {}
    for h in histories:
        for obs in h.observations:
            key = obs.instance.key(p)
            instances.setdefault(key, [])
            if obs.instance not in instances[key]:
                instances[key].append(obs.instance)
    views = []
    for key in sorted(instances):
        bound: dict[str, str] = {}
        for mi in instances[key]:
            for param, value in mi.bindings:
                if param in bound and bound[param] != value:
                    raise IntegrityConflict(param, bound[param], value, key)
                bound[param] = value
        views.append(InstanceView(key, tuple(sorted(bound.items())), tuple(instances[key])))
    return tuple(views)


def is_complete(v: InstanceView, p: InfoProtocol) -> bool:
    bound = v.binding_map()
    return all(name in bound for name in p.public_names())
