"""A BSPL agent's emissions, found by one enabling test per (sent schema,
candidate key) (`netsim.BsplAgent._payloads` over `_ScriptPlan.emissions`),
against the loop that test replaced, kept here as the oracle: it builds
every candidate instance and asks `Knowledge.check_emission` about each.
The enabling test reads knowledge records grown one observation at a time
(`Knowledge.after`), as the exploration grows them; the oracle reads each
history whole (`Knowledge(h, protocol)`).  Both must give the same tuple,
in the same order, on every local state the pinned explorations reach, and
on generated histories and script rows over the protocols of
`test_knowledge.py` and `MIX` below.  Every knowledge set that an
exploration numbers must moreover have records whose unions and emitted
pairs equal those read from scratch from the set's observations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from generators import bspl_chain
from protolab.bspl.core import Adornment, InfoProtocol, MessageSchema, parse_bspl
from protolab.bspl.enactment import EMISSION, RECEPTION, IntegrityConflict, Key, Knowledge, MessageInstance
from protolab.cli import _auto_rows
from protolab.netsim import BsplAgent, InstanceScript
from test_knowledge import LAB, OTHER, VALUES, history, msg
from test_netsim import PINNED_COUNTS, PINNED_EXPLORATIONS, PRICING_X4, recorded_orbits, recorded_walk, simulate_agents

# LAB's Step has a key that mixes 'in' and 'out'.  MIX's Step has the key
# (ID, sub), sub being a key of Step alone, and both 'in'.  Open's key
# (ID, sub, x) gives Step a candidate key, but Open is not correlated with
# that key.  Fill binds sub outside its key, so what is known for Step's
# key may give sub another value than the key does.
MIX = parse_bspl(
    """protocol Mix {
  roles A, B
  parameters out ID key, out sub, out x, out y
  A -> B: Open[out ID, out sub key, out x key]
  A -> B: Fill[in ID, out sub]
  B -> A: Step[in ID, in sub key, out y]
}"""
)


# ---------------------------------------------------------------------------
# oracle: the generate-and-check loop, as netsim had it


@dataclass(frozen=True)
class OracleSend:
    schema: MessageSchema
    key_params: tuple[str, ...]
    row_keys: tuple[Key, ...]


class OraclePlan:
    def __init__(self, script: InstanceScript, role: str):
        p = script.protocol
        self.protocol = p
        self.rows = script.row_maps()
        self.names = frozenset(m.name for m in p.messages)
        self.sends = tuple(self._send(schema) for schema in p.messages if schema.sender == role)
        self._rows_by_key: dict[Key, dict[str, str] | None] = {}

    def _send(self, schema: MessageSchema) -> OracleSend:
        key_params = self.protocol.message_keys(schema)
        row_keys: tuple[Key, ...] = ()
        if all(schema.param(k) and schema.param(k).adornment.value == "out" for k in key_params):
            row_keys = tuple(
                tuple((k, row[k]) for k in key_params) for row in self.rows if all(k in row for k in key_params)
            )
        return OracleSend(schema, key_params, row_keys)

    def observed_keys(self, h, knowledge: Knowledge) -> list[dict[str, str]]:
        observations = h.observations
        keys = dict.fromkeys(k for obs, k in zip(observations, knowledge.keys) if obs.instance.schema.name in self.names)
        return [dict(k) for k in keys]

    def row_for(self, key: Key) -> dict[str, str] | None:
        if key not in self._rows_by_key:
            self._rows_by_key[key] = next((row for row in self.rows if all(row.get(k) == v for k, v in key)), None)
        return self._rows_by_key[key]


def oracle_payloads(role: str, scripts: list[InstanceScript], h) -> tuple[MessageInstance, ...]:
    out = []
    for plan in (OraclePlan(script, role) for script in scripts):
        knowledge = Knowledge(h, plan.protocol)
        observed = plan.observed_keys(h, knowledge)
        for sent in plan.sends:
            for key in candidate_keys(observed, sent):
                mi = instantiate(knowledge, plan, sent, key)
                if mi is not None and knowledge.check_emission(mi) is None:
                    out.append(mi)
    out.sort(key=lambda mi: (mi.schema.name, mi.bindings))
    return tuple(out)


def candidate_keys(observed: list[dict[str, str]], sent: OracleSend) -> list[Key]:
    key_params = sent.key_params
    keys = dict.fromkeys(tuple((k, known[k]) for k in key_params) for known in observed if all(k in known for k in key_params))
    keys.update(dict.fromkeys(sent.row_keys))
    return list(keys)


def instantiate(knowledge: Knowledge, plan: OraclePlan, sent: OracleSend, key: Key) -> MessageInstance | None:
    try:
        known = knowledge.bindings(key)
    except IntegrityConflict:
        return None
    row = plan.row_for(key)
    key_map = dict(key)
    bindings = []
    for q in sent.schema.params:
        if q.name in key_map:
            value = key_map[q.name]
        elif q.adornment is Adornment.IN:
            if q.name not in known:
                return None
            value = known[q.name]
        else:
            if row is None or q.name not in row:
                return None
            value = row[q.name]
        bindings.append((q.name, value))
    return MessageInstance(sent.schema, tuple(bindings))


def payloads(role: str, scripts: list[InstanceScript], h) -> tuple[MessageInstance, ...]:
    """The enabling test's answer, from an agent with nothing memoized, on
    knowledge grown as the walk grows it: from the initial history's, one
    observation at a time (`Knowledge.after`), a repeated one skipped as
    set numbering skips it, with the answer asked for at every step so
    that each step extends the unions the one before it built."""
    agent = BsplAgent(role, scripts)
    knowledge = agent.knowledge(agent.initial())
    seen = set()
    for o in h.observations:
        agent._payloads(knowledge)
        if (o.kind, o.instance) not in seen:
            seen.add((o.kind, o.instance))
            knowledge = tuple(known.after(o.kind, o.instance) for known in knowledge)
    return agent._payloads(knowledge)


# ---------------------------------------------------------------------------
# every local state of the pinned explorations


@pytest.mark.parametrize(
    "name,instances,policy",
    [c[:3] for c in PINNED_EXPLORATIONS],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS],
)
def test_every_local_state_of_a_pinned_exploration_emits_what_the_oracle_does(name, instances, policy):
    # every history the walk numbers, built from its origin, whether or
    # not the walk read it
    space = recorded_orbits(name, instances, policy).space
    counts = []
    for steps in space.local:
        histories = [steps.history(k) for k in range(len(steps.origins))]
        assert len(set(histories)) == len(histories)
        counts.append((steps.role, len(histories)))
        scripts = steps.agent.scripts
        for h in histories:
            assert payloads(steps.role, scripts, h) == oracle_payloads(steps.role, scripts, h)
    assert tuple(counts) == PINNED_COUNTS[(name, instances, policy)][0]


# ---------------------------------------------------------------------------
# every numbered knowledge set of an exploration: its records, grown one
# observation at a time, against unions read from scratch


def chain_agents(length, instances):
    protocol = parse_bspl(bspl_chain(f"Chain{length}", length))
    scripts = [InstanceScript.make(protocol, _auto_rows(protocol, instances))]
    return [BsplAgent(role, scripts) for role in protocol.roles]


# (the agents, as a function that makes them, and the policy) per exploration
KNOWLEDGE_WALKS = {
    **{f"{name}-x{n}-{policy}": (partial(simulate_agents, name, n), policy) for name, n, policy, *_ in PINNED_EXPLORATIONS + [PRICING_X4]},
    **{
        f"chain{length}-x{n}-{policy}": (partial(chain_agents, length, n), policy)
        for length, n in ((8, 1), (16, 1), (32, 1), (3, 2), (4, 2))
        for policy in ("fifo", "unordered")
    },
    "pricing+catalog-x2-fifo": (partial(simulate_agents, "pricing", 2, "catalog"), "fifo"),
}

CONFLICT = "conflict"


def scratch_union(key: Key, observed, protocol: InfoProtocol):
    """The bindings of the observed instances whose key is within `key`,
    or CONFLICT where one parameter has two values."""
    values: dict[str, set[str]] = {}
    for _, mi in observed:
        if set(mi.key(protocol)) <= set(key):
            for param, value in mi.bindings:
                values.setdefault(param, set()).add(value)
    if any(len(vs) > 1 for vs in values.values()):
        return CONFLICT
    return {param: value for param, (value,) in values.items()}


def record_union(knowledge: Knowledge, key: Key):
    try:
        return knowledge.bindings(key)
    except IntegrityConflict:
        return CONFLICT


@pytest.mark.parametrize("walk", sorted(KNOWLEDGE_WALKS))
def test_every_knowledge_record_equals_its_set_read_from_scratch(walk):
    agents, policy = KNOWLEDGE_WALKS[walk]
    _, orbits = recorded_walk(agents(), policy)
    values = orbits.space.payloads.values
    for steps in orbits.space.local:
        scripts, plans = steps.agent.scripts, steps.agent._plans
        first = {}  # a history number per knowledge set
        for k, s in enumerate(steps.set_of):
            first.setdefault(s, k)
        assert sorted(first) == list(range(len(steps.set_origins)))
        for s, pairs in enumerate(steps._sets.values):
            observed = [(EMISSION if emitted else RECEPTION, values[p]) for emitted, p in pairs]
            records = steps.knowledge(s)
            for plan, known in zip(plans, records):
                protocol = plan.protocol
                names = {m.name for m in protocol.messages}
                keys = {mi.key(protocol) for _, mi in observed if mi.schema.name in names}
                assert len(known.observed) == len(keys) and set(known.observed) == keys
                assert known.emitted == {(mi.schema.name, mi.key(protocol)) for kind, mi in observed if kind == EMISSION}
                # every union grown so far, then every candidate key's
                for key in list(known._bindings):
                    assert record_union(known, key) == scratch_union(key, observed, protocol)
                for sent in plan.sends:
                    candidates = {tuple((q, dict(key)[q]) for q in sent.key_params) for key in keys if {q for q, _ in key} >= set(sent.key_params)}
                    for key in sorted(candidates | set(sent.row_keys)):
                        assert record_union(known, key) == scratch_union(key, observed, protocol)
            emitted = steps.agent._payloads(records)
            assert emitted == oracle_payloads(steps.role, scripts, steps.history(first[s]))
            if s in steps._offered:
                assert tuple(values[p] for p in steps._offered[s]) == emitted


# ---------------------------------------------------------------------------
# generated histories and rows


def param_names(protocol: InfoProtocol) -> list[str]:
    return sorted({q.name for m in protocol.messages for q in m.params})


def rows(protocol: InfoProtocol):
    """Up to three script rows, each binding some of the protocol's names."""
    return st.lists(st.dictionaries(st.sampled_from(param_names(protocol)), st.sampled_from(VALUES)), max_size=3)


def instances(schemas):
    return st.sampled_from(schemas).flatmap(
        lambda schema: st.tuples(*(st.sampled_from(VALUES) for _ in schema.params)).map(
            lambda values: MessageInstance(schema, tuple(zip(schema.param_names(), values)))
        )
    )


@st.composite
def cases(draw):
    """A role of LAB or MIX, one or two scripts of that protocol (two may
    offer the same instance) and perhaps one of OTHER, whose Open shares a
    name with theirs; and a history of that role over the schemas of its
    protocol and of OTHER: correlated, conflicting, repeated and foreign
    observations."""
    protocol = draw(st.sampled_from((LAB, MIX)))
    role = draw(st.sampled_from(protocol.roles))
    scripts = [InstanceScript.make(protocol, draw(rows(protocol))) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        scripts.append(InstanceScript.make(OTHER, draw(rows(OTHER))))
    kinds = st.sampled_from((EMISSION, RECEPTION))
    observed = draw(st.lists(st.tuples(kinds, instances(protocol.messages + OTHER.messages)), max_size=7))
    return role, scripts, history(role, *observed)


def lab(*rows):
    return [InstanceScript.make(LAB, list(rows))]


def mix(*rows):
    return [InstanceScript.make(MIX, list(rows))]


ROW = {"ID": "1", "x": "1", "y": "1", "z": "1", "w": "1"}
# (role, scripts, history, the schemas it emits) for the cases that random
# histories seldom reach
EXPLICIT = {
    # Open from the row; nothing else is enabled before it
    "fresh": ("A", lab(ROW), history("A"), ["Open"]),
    # a row lacking Open's 'out' value x offers nothing
    "row lacks an out value": ("A", lab({"ID": "1"}), history("A"), []),
    # Ack was emitted for ID 1: not again; Open not again either
    "duplicate": (
        "A",
        lab(ROW),
        history("A", (EMISSION, msg("Open", ID="1", x="1")), (EMISSION, msg("Ack", ID="1", x="1"))),
        [],
    ),
    # the same Ack received, not emitted: Ack is enabled
    "received, not emitted": (
        "A",
        lab(ROW),
        history("A", (EMISSION, msg("Open", ID="1", x="1")), (RECEPTION, msg("Ack", ID="1", x="1"))),
        ["Ack"],
    ),
    # Note has no key under LAB, so its x=2 meets Open's x=1 for ID 1
    "conflict": (
        "A",
        lab(ROW),
        history("A", (EMISSION, msg("Open", ID="1", x="1")), (RECEPTION, msg("Note", OTHER, x="2"))),
        [],
    ),
    # B may close (in ID, in x, out w) once Open is received; Step's key
    # (ID, sub) is never observed, so Step has no candidate
    "in from a reception": ("B", lab(ROW), history("B", (RECEPTION, msg("Open", ID="1", x="1"))), ["Close"]),
    # OTHER's Open shares LAB's name, so its key counts as observed
    "foreign schema": ("B", lab(ROW), history("B", (RECEPTION, msg("Open", OTHER, qID="2", ID="1", x="1"))), ["Close"]),
    # Step's 'in' key parameter sub: known as 1 through Fill, as the key says
    "in key parameter known as the key says": (
        "B",
        mix({"ID": "1", "sub": "1", "x": "1", "y": "1"}),
        history("B", (RECEPTION, msg("Open", MIX, ID="1", sub="1", x="1")), (RECEPTION, msg("Fill", MIX, ID="1", sub="1"))),
        ["Step"],
    ),
    # ... and known as 2, while the key (from Open's) says 1
    "in key parameter known otherwise": (
        "B",
        mix({"ID": "1", "sub": "1", "x": "1", "y": "1"}),
        history("B", (RECEPTION, msg("Open", MIX, ID="1", sub="1", x="1")), (RECEPTION, msg("Fill", MIX, ID="1", sub="2"))),
        [],
    ),
    # two scripts offering the same row offer the same Open twice
    "two scripts": ("A", lab(ROW) + lab(ROW), history("A"), ["Open", "Open"]),
}

FIXED = {"deadline": None, "database": None, "derandomize": True}  # same cases every run, no files written


@settings(max_examples=400, **FIXED)
@given(cases())
def test_the_enabling_test_equals_the_oracle_on_generated_histories(case):
    role, scripts, h = case
    assert payloads(role, scripts, h) == oracle_payloads(role, scripts, h)


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_explicit_cases_emit_their_schemas(name):
    role, scripts, h, names = EXPLICIT[name]
    assert [mi.schema.name for mi in oracle_payloads(role, scripts, h)] == names
    assert payloads(role, scripts, h) == oracle_payloads(role, scripts, h)
