"""The channel selector reads the network, against the arrival queues it
replaced.

`runtime.Composer` lets a role under the blocking channel selector
receive straight from the network, on the channels its behavior expects.
The composer it replaced moved every message into a per-peer arrival
queue of its receiver first, by a silent move, and the selector read the
queues; it is kept below verbatim as the oracle.  On generated
expressions under the `scribble` preset with FIFO, unordered and
synchronous delivery, every verdict the oracle decides must come out as
the same record bytes, witnesses included.  The one-way chain pins the
state counts the arrival dimension cost.
"""

import json
import pathlib
import random
from math import comb

import pytest

import protolab.realizability as realizability
from generators import random_cfp, random_scribble, random_shuffle_expr
from protolab.cfp.projection import SEND, LocalExpr, accepting, local_steps
from protolab.cfp.scribble_parser import parse_scribble
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import eliminate_shuffle, expand
from protolab.graph import Numbering, explore
from protolab.netsim import Delivery, Reception, dequeue, enqueue
from protolab.realizability import (
    CommConfig,
    Doctrine,
    Interpretation,
    Outcome,
    Reason,
    _project_all,
    check_realizability,
    language_preset,
)
from protolab.runtime import CompositionGraph, Event, State, Violation, _put, compose

FIXTURES = pathlib.Path(realizability.__file__).parent / "fixtures"
DELIVERIES = (Delivery.FIFO_PAIRWISE, Delivery.UNORDERED, Delivery.SYNCHRONOUS)
SELECTOR = [language_preset("scribble").with_(delivery=d) for d in DELIVERIES]


# ---------------------------------------------------------------------------
# the oracle: the composer with arrival queues, and its compose


class ArrivalComposer:
    """The composite moves of a set of behaviors under one network policy.

    Remainders and networks are numbered in tables of the distinct ones
    met, so a state hashes and compares as a few small integers.  Each
    agent's steps depend only on its own remainder, and deliveries only on
    the network, so both are computed once per number."""

    def __init__(self, behaviors: dict[str, LocalExpr], delivery: Delivery, reception: Reception):
        self.roles = tuple(sorted(behaviors))
        self.delivery = delivery
        self.reception = reception
        self._index = {role: i for i, role in enumerate(self.roles)}
        self._number = Numbering()  # remainders and networks
        self._items = self._number.values
        self._steps: dict[int, tuple] = {}
        self._deliveries: dict[int, list[tuple]] = {}
        self._sent: dict[tuple, int] = {}
        self._empty = self._number(())
        self.initial: State = (tuple(self._number(behaviors[r]) for r in self.roles), self._empty, tuple(() for _ in self.roles))

    def _local(self, n: int) -> tuple:
        """(sends as (peer, occurrence, name, remainder), receptions as
        remainders by (peer, name), silent commits, accepting, expected
        peers) of remainder `n`, from one walk of its first steps."""
        local = self._steps.get(n)
        if local is None:
            e = self._items[n]
            sends, receptions, commits = [], {}, []
            for a, rest in local_steps(e):
                r = self._number(rest)
                if a is None:
                    if r not in commits:
                        commits.append(r)
                elif a.direction == SEND:
                    sends.append((a.peer, a.occ or 0, a.name, r))
                else:
                    rests = receptions.setdefault((a.peer, a.name), [])
                    if r not in rests:
                        rests.append(r)
            local = self._steps[n] = (sends, receptions, commits, accepting(e), sorted({peer for peer, _ in receptions}))
        return local

    def _send(self, net: int, channel: tuple[str, str], payload: tuple[int, str]) -> int:
        key = (net, channel, payload)
        after = self._sent.get(key)
        if after is None:
            after = self._sent[key] = self._number(enqueue(self._items[net], channel, payload))
        return after

    def _delivered(self, net: int) -> list[tuple]:
        """Deliverable payloads of network `net` as (sender, receiver,
        occurrence, name, network after)."""
        out = self._deliveries.get(net)
        if out is None:
            queues = self._items[net]
            out = self._deliveries[net] = [
                (sender, receiver, occ, name, self._number(dequeue(queues, (sender, receiver), i)))
                for (sender, receiver), queue in queues
                for i, (occ, name) in enumerate(queue[:1] if self.delivery is Delivery.FIFO_PAIRWISE else queue)
            ]
        return out

    def completed(self, state: State) -> bool:
        locals_, net, pending = state
        return net == self._empty and not any(pending) and all(self._local(l)[3] for l in locals_)

    def moves(self, state: State) -> tuple[list[Event | None], list[State], list[Violation]]:
        """Every move from `state` as parallel lists of events (None for a
        silent move) and next states, and the violations a delivery would
        cause there."""
        locals_, net, pending = state
        events, nexts = [], []
        violations: list[Violation] = []
        deliveries = self._delivered(net)
        if not (self.delivery is Delivery.SYNCHRONOUS and deliveries):
            for i, role in enumerate(self.roles):
                sends, _, commits, _, _ = self._local(locals_[i])
                for peer, occ, name, rest in sends:
                    after = self._send(net, (role, peer), (occ, name))
                    events.append(("E", occ, role, peer, name))
                    nexts.append((_put(locals_, i, rest), after, pending))
                for rest in commits:
                    events.append(None)
                    nexts.append((_put(locals_, i, rest), net, pending))
        for sender, receiver, occ, name, after in deliveries:
            i = self._index[receiver]
            event = ("R", occ, sender, receiver, name)
            if self.reception is Reception.ANYTIME:
                alternatives = self._local(locals_[i])[1].get((sender, name), ())
                if not alternatives:
                    violations.append(
                        ("reception-order", f"{receiver} cannot accept {name} from {sender} at this point", event)
                    )
                for rest in alternatives:
                    events.append(event)
                    nexts.append((_put(locals_, i, rest), after, pending))
            else:
                # deliver into the per-peer arrival queue; observation happens
                # only when the behavior reads that channel
                events.append(None)
                nexts.append((locals_, after, _put(pending, i, enqueue(pending[i], sender, (occ, name)))))
        if self.reception is Reception.BLOCKING_SELECTOR:
            for i, role in enumerate(self.roles):
                row = dict(pending[i])
                _, receptions, _, _, peers = self._local(locals_[i])
                for peer in peers:
                    if peer not in row:
                        continue
                    occ, name = row[peer][0]
                    event = ("R", occ, peer, role, name)
                    alternatives = receptions.get((peer, name), ())
                    if not alternatives:
                        violations.append(
                            ("selector-type", f"{role} expected a different message on the channel from {peer}, found {name}", event)
                        )
                    new_pending = _put(pending, i, dequeue(pending[i], peer, 0))
                    for rest in alternatives:
                        events.append(event)
                        nexts.append((_put(locals_, i, rest), net, new_pending))
        return events, nexts, violations


def arrival_compose(
    behaviors: dict[str, LocalExpr],
    delivery: Delivery,
    reception: Reception,
    state_cap: int = 250_000,
) -> CompositionGraph:
    """Explore the composed local behaviors over the network policy, each
    distinct composite state once: `graph.explore` over `Composer.moves`."""
    composer = ArrivalComposer(behaviors, delivery, reception)
    violations: list[list[Violation]] = []

    def successors(state: State) -> tuple[list, list]:
        events, nexts, found = composer.moves(state)
        violations.append(found)
        return events, nexts

    graph = explore(composer.initial, successors, state_cap)
    final = [composer.completed(state) for state, _ in zip(graph.states, graph.labels)]
    return CompositionGraph(**vars(graph), violations=violations, final=final)


# ---------------------------------------------------------------------------
# inputs


def one_way(n):
    return parse_trace(" ; ".join(f"A -> B : M{i}" for i in range(n)))


def generated(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        yield random_cfp(rng, 2) if kind == 0 else random_shuffle_expr(rng) if kind == 1 else random_scribble(rng).body


def fixtures():
    for f in sorted(FIXTURES.glob("*.trace")) + sorted(FIXTURES.glob("*.scr")):
        yield parse_scribble(f.read_text()) if f.suffix == ".scr" else parse_trace(f.read_text())


def pairs():
    for k in (2, 3):
        yield parse_trace(" | ".join(f"(A{i} -> B{i} : Req{i} ; B{i} -> A{i} : Rep{i})" for i in range(1, k + 1)))
        yield parse_trace(" | ".join(f"(A -> B : Req{i} ; B -> A : Rep{i})" for i in range(1, k + 1)))


# messages waiting on a channel their receiver does not expect yet: B
# reads one sender's channel before the other's, and the senders race
WAITING = [
    "A -> B : x ; C -> B : y",
    "C -> B : y ; A -> B : x ; A -> B : z",
    "(A -> B : x ; A -> B : y) ; (C -> B : z \\/ C -> B : w)",
    "(A -> B : x \\/ A -> B : y) ; A -> B : x",
]


def compare(monkeypatch, inputs, configs, state_cap=20_000):
    """For each input under each configuration, the oracle's record and the
    composer's are the same bytes wherever the oracle decides.  Returns
    the oracle's decided verdicts with their delivery."""
    decided = []
    for e in inputs:
        for cfg in configs:
            with monkeypatch.context() as m:
                m.setattr(realizability, "compose", arrival_compose)
                verdict = check_realizability(e, cfg, state_cap=state_cap)
            if any("state cap" in note for note in verdict.notes):
                continue
            record = check_realizability(e, cfg, state_cap=state_cap).to_record("p", cfg)
            assert json.dumps(record, sort_keys=True) == json.dumps(verdict.to_record("p", cfg), sort_keys=True), (e, cfg)
            decided.append((cfg.delivery, verdict))
    return decided


def found(verdict, prefix):
    return any(note.startswith(prefix) for note in verdict.notes)


# ---------------------------------------------------------------------------
# the selector against the arrival queues


def test_scribble_verdicts_equal_the_arrival_queues(monkeypatch):
    decided = compare(monkeypatch, generated(7, 300), SELECTOR)
    assert len(decided) >= 880
    for delivery in DELIVERIES:
        verdicts = [v for d, v in decided if d is delivery]
        assert any(found(v, "selector-type") for v in verdicts), delivery
        assert any(v.outcome is Outcome.REALIZABLE for v in verdicts), delivery


def test_fixtures_pairs_and_waiting_messages_equal_the_arrival_queues(monkeypatch):
    inputs = [*fixtures(), *pairs(), *map(parse_trace, WAITING), one_way(6)]
    assert len(compare(monkeypatch, inputs, SELECTOR)) == 3 * len(inputs)


def test_mixed_choices_under_the_selector_equal_the_arrival_queues(monkeypatch):
    """The scribble projection merges away the mixed choices whose silent
    commitments strand a role; the trace projections keep them, so under
    the selector they reach deadlocks as well as selector violations."""
    configs = [CommConfig(d, Reception.BLOCKING_SELECTOR, Interpretation.RR, doctrine) for doctrine in (Doctrine.TRACE_F, Doctrine.TRACE_C) for d in DELIVERIES]
    decided = compare(monkeypatch, generated(11, 45), configs)
    assert len(decided) >= 260
    for delivery in DELIVERIES:
        verdicts = [v for d, v in decided if d is delivery]
        assert any(found(v, "a reachable state has no") for v in verdicts), delivery
        assert any(found(v, "selector-type") for v in verdicts), delivery


def test_a_message_on_an_unexpected_channel_waits():
    # B reads C's channel first; A's message waits in the network, and
    # under synchronous delivery C's send does not wait for it: A may send
    # first, an extra trace but no deadlock
    e = parse_trace("C -> B : y ; A -> B : x")
    for cfg in SELECTOR:
        verdict = check_realizability(e, cfg)
        assert (verdict.reasons, verdict.notes) == ((Reason.TRACE_MISMATCH,), ("the composition produces 1 extra trace(s), e.g. x . y",))
        graph = compose(_project_all(eliminate_shuffle(expand(e, 2)), cfg), cfg.delivery, cfg.reception)
        assert not graph.deadlocks and not any(graph.violations), cfg.delivery


# ---------------------------------------------------------------------------
# the one-way chain


def composition_states(e, cfg, composer=compose):
    working = eliminate_shuffle(expand(e, 2))
    return len(composer(_project_all(working, cfg), cfg.delivery, cfg.reception).states)


@pytest.mark.parametrize("n", [20, 80])
def test_a_one_way_chain_has_one_state_per_pair_of_positions(n):
    # the receiver trails the sender: C(n+2, 2) states; the arrival queues
    # added the position of the read, C(n+3, 3)
    assert composition_states(one_way(n), SELECTOR[0]) == comb(n + 2, 2)
    if n == 20:
        assert composition_states(one_way(n), SELECTOR[0], arrival_compose) == comb(n + 3, 3)


def test_a_350_message_one_way_chain_is_realizable():
    assert check_realizability(one_way(350), SELECTOR[0]).outcome is Outcome.REALIZABLE
