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


@dataclass(frozen=True, init=False)
class MessageInstance:
    # The hash and the key of the protocol last asked are cached in slots
    # outside the fields, so repr, equality, `asdict` and pickles are as
    # if they were not there, and an instance has no `__dict__`.  The
    # constructor writes all four slots, so a first hash or key finds an
    # empty cache without catching a missing attribute.
    __slots__ = ("schema", "bindings", "_hash", "_key")
    schema: MessageSchema
    bindings: tuple[tuple[str, str], ...]  # in schema parameter order

    def __init__(self, schema: MessageSchema, bindings: tuple[tuple[str, str], ...]):
        _set_schema(self, schema)
        _set_bindings(self, bindings)
        _set_hash(self, None)
        _set_key(self, None)

    def __hash__(self) -> int:
        # Cached like History's: equal instances share a schema name and
        # bindings, so this agrees with equality at one tuple hash.
        cached = self._hash
        if cached is None:
            cached = hash((self.schema.name, self.bindings))
            _set_hash(self, cached)
        return cached

    def __getstate__(self) -> dict:
        return {"schema": self.schema, "bindings": self.bindings}

    def __setstate__(self, state: dict) -> None:
        MessageInstance.__init__(self, state["schema"], state["bindings"])

    @classmethod
    def make(cls, schema: MessageSchema, values: dict[str, str]) -> "MessageInstance":
        names = schema.param_names()
        if values.keys() != schema.param_name_set:
            missing = [p for p in names if p not in values]
            extra = [p for p in values if p not in schema.param_name_set]
            raise ValueError(f"{schema.name}: bindings must cover exactly the schema parameters (missing {missing}, extra {extra})")
        return cls(schema, tuple([(p, str(values[p])) for p in names]))

    def binding_map(self) -> dict[str, str]:
        return dict(self.bindings)

    def key(self, protocol: InfoProtocol) -> Key:
        cached = self._key
        if cached is not None and cached[0] is protocol:
            return cached[1]
        bindings = self.bindings
        key = tuple([bindings[i] for i in protocol.key_positions(self.schema)])
        _set_key(self, (protocol, key))
        return key

    def __str__(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.bindings)
        return f"{self.schema.name}({inner})"


# The slots' own setters: the dataclass is frozen, so its `__setattr__`
# refuses every name.
_set_schema, _set_bindings, _set_hash, _set_key = (MessageInstance.__dict__[name].__set__ for name in MessageInstance.__slots__)


EMISSION = "E"
RECEPTION = "R"


@dataclass(frozen=True, slots=True)
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
        # a pickle leaves it out.  Each observation is hashed on its kind,
        # schema name, bindings, tick and day, not through the generated
        # hashes of every nested dataclass down to each parameter's Enum.
        cached = self.__dict__.get("_hash")
        if cached is None:
            observations = tuple((o.kind, o.instance.schema.name, o.instance.bindings, o.tick, o.day) for o in self.observations)
            cached = self.__dict__["_hash"] = hash((self.owner, observations))
        return cached

    def __getstate__(self) -> dict:
        return {"owner": self.owner, "observations": self.observations}

    def last_tick(self) -> int:
        return self.observations[-1].tick if self.observations else 0


def apply_observation(h: History, o: Observation) -> History:
    """Append an observation.  Receptions are recorded unconditionally;
    only tick regression is rejected."""
    check_observation(h.owner, h.last_tick(), o)
    return History(h.owner, h.observations + (o,))


def check_observation(owner: str, last_tick: int, o: Observation) -> None:
    """Raise ValueError unless `o` may follow an observation at `last_tick`
    in `owner`'s history: its tick is later, and `owner` is the sender of
    what it emits and the receiver of what it receives."""
    if o.tick <= last_tick:
        raise ValueError(f"tick regression: {o.tick} after {last_tick}")
    if o.kind == EMISSION and o.instance.schema.sender != owner:
        raise ValueError(f"{owner} cannot emit {o.instance.schema.name} (sender is {o.instance.schema.sender})")
    if o.kind == RECEPTION and o.instance.schema.receiver != owner:
        raise ValueError(f"{owner} cannot receive {o.instance.schema.name} (receiver is {o.instance.schema.receiver})")


def observe(h: History, kind: str, instance: MessageInstance, day: int | None = None) -> History:
    return apply_observation(h, Observation(kind, instance, h.last_tick() + 1, day))


def known_bindings(h: History, key: Key, protocol: InfoProtocol) -> dict[str, str]:
    """Union of bindings from all observations whose instance correlates
    with `key` (every binding of the instance's key is in `key`).  Raises
    IntegrityConflict on an inconsistent union, which signals a
    noncompliant peer."""
    return Knowledge(h, protocol).bindings(key)


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
    return Knowledge(h, p).check_emission(m)


class Knowledge:
    """What one history knows under one protocol: each observation's
    instance and key (`instances`, `keys`), the (schema name, key) of
    every emission (`emitted`), the distinct keys of the observations of
    the protocol's own schemas, in order of first observation
    (`observed`), and the known bindings for a key, built once, when first
    asked for.  `Knowledge(h, protocol)` reads a history in one pass;
    `known_bindings` and `check_emission` read a fresh one, and a caller
    with many questions about one history builds one and asks it each of
    them.  `after` grows a knowledge by one observation without reading a
    history: a caller that walks histories step by step keeps one per
    step."""

    __slots__ = ("owner", "protocol", "instances", "keys", "emitted", "observed", "_bindings")

    def __init__(self, h: History, protocol: InfoProtocol):
        self.owner = h.owner
        self.protocol = protocol
        self.instances: tuple[MessageInstance, ...] = tuple(obs.instance for obs in h.observations)
        self.keys: tuple[Key, ...] = tuple(mi.key(protocol) for mi in self.instances)
        self.emitted: frozenset[tuple[str, Key]] = frozenset(
            (obs.instance.schema.name, key) for obs, key in zip(h.observations, self.keys) if obs.kind == EMISSION
        )
        names = protocol.message_names
        self.observed: tuple[Key, ...] = tuple(dict.fromkeys(key for mi, key in zip(self.instances, self.keys) if mi.schema.name in names))
        self._bindings: dict[Key, dict[str, str] | IntegrityConflict] = {}

    def after(self, kind: str, instance: MessageInstance) -> "Knowledge":
        """This knowledge plus one observation of `instance` as `kind`.
        Each union of known bindings built so far for a key that contains
        the instance's key takes the instance's bindings, or becomes a
        conflict, as `union_bindings` would read them last; every other
        union is shared, and a union not built yet is built when first
        asked for."""
        protocol = self.protocol
        key = instance.key(protocol)
        new = Knowledge.__new__(Knowledge)
        new.owner, new.protocol = self.owner, protocol
        new.instances = (*self.instances, instance)
        new.keys = (*self.keys, key)
        new.emitted = self.emitted | {(instance.schema.name, key)} if kind == EMISSION else self.emitted
        observed = self.observed
        new.observed = observed if key in observed or instance.schema.name not in protocol.message_names else (*observed, key)
        new._bindings = {
            query: _extended(query, known, instance) if all(pair in query for pair in key) else known
            for query, known in self._bindings.items()
        }
        return new

    def bindings(self, key: Key) -> dict[str, str]:
        """`known_bindings` for `key`.  The dict is shared by every call
        for this key, and by the knowledge `after` grows from this one
        while the new observation leaves it as it is, so callers must not
        change it."""
        known = self.union(key)
        if isinstance(known, IntegrityConflict):
            raise known.with_traceback(None)
        return known

    def union(self, key: Key) -> dict[str, str] | IntegrityConflict:
        """`bindings` for `key`, or the conflict it would raise, returned:
        a caller that only skips a conflicted key raises nothing, and a
        knowledge kept for long keeps no traceback."""
        known = self._bindings.get(key)
        if known is None:
            known = self._bindings[key] = self._read(key)
        return known

    def _read(self, key: Key) -> dict[str, str] | IntegrityConflict:
        query = set(key)
        instances = [mi for mi, mi_key in zip(self.instances, self.keys) if query.issuperset(mi_key)]
        try:
            return union_bindings(key, instances)
        except IntegrityConflict as conflict:
            return conflict.with_traceback(None)

    def check_emission(self, m: MessageInstance) -> EmissionError | None:
        """`check_emission` for `m` on the history this knowledge is of."""
        if self.owner != m.schema.sender:
            raise ValueError(f"{self.owner} is not the sender of {m.schema.name}")
        key = m.key(self.protocol)
        known = self.union(key)
        if isinstance(known, IntegrityConflict):
            return EmissionError("IntegrityConflict", known.param, str(known))
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
        if (m.schema.name, key) in self.emitted:
            return EmissionError("DuplicateMessage", None, f"{m.schema.name} already emitted for key {dict(key)}")
        return None


def _extended(key: Key, known: dict[str, str] | IntegrityConflict, instance: MessageInstance) -> dict[str, str] | IntegrityConflict:
    """The union `known` for `key` with the instance's bindings read after
    it: a new dict when they add a binding, `known` itself when they add
    none, and the conflict at the first parameter they bind to a second
    value."""
    if isinstance(known, IntegrityConflict):
        return known
    added = None
    for param, value in instance.bindings:
        bound = known.get(param)
        if bound is None:
            if added is None:
                added = dict(known)
            added[param] = value
        elif bound != value:
            return IntegrityConflict(param, bound, value, key)
    return known if added is None else added


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
    # each key's distinct instances in first-seen order (dicts as ordered sets)
    instances: dict[Key, dict[MessageInstance, None]] = {}
    for h in histories:
        for obs in h.observations:
            mi = obs.instance
            instances.setdefault(mi.key(p), {})[mi] = None
    views = []
    for key in sorted(instances):
        bound = union_bindings(key, instances[key])
        views.append(InstanceView(key, tuple(sorted(bound.items())), tuple(instances[key])))
    return tuple(views)


def union_bindings(key: Key, instances) -> dict[str, str]:
    """The union of the instances' bindings, read in order.  Raises
    IntegrityConflict at the first parameter bound to a second value:
    the integrity rule of the conceptual vector."""
    bound: dict[str, str] = {}
    for mi in instances:
        for param, value in mi.bindings:
            if bound.setdefault(param, value) != value:
                raise IntegrityConflict(param, bound[param], value, key)
    return bound


def is_complete(v: InstanceView, p: InfoProtocol) -> bool:
    bound = v.binding_map()
    return all(name in bound for name in p.public_names())
