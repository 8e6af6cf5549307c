"""Flat guarded state machines with bind/unbind actions over a shared store,
stepped synchronously against a single global event sequence.

Guards are conjunctions of bound(x)/unbound(x).  Bind values are literals or
references to the triggering message's arguments (`arg.<param>`).  Stepping
treats bind as an overwrite; value conflicts are the business of the
separate integrity check, which flags any rebinding of a currently-bound
variable to a different value.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lexer import TokenStream
from .diagnostics import ParseError


@dataclass(frozen=True)
class HapnEvent:
    sender: str
    receiver: str
    name: str
    args: tuple[tuple[str, str], ...] = ()

    @classmethod
    def make(cls, sender: str, receiver: str, name: str, **args: str) -> "HapnEvent":
        return cls(sender, receiver, name, tuple(sorted((k, str(v)) for k, v in args.items())))

    def arg_map(self) -> dict[str, str]:
        return dict(self.args)


@dataclass(frozen=True)
class Guard:
    # conjunction of (variable, must_be_bound) literals; empty means true
    literals: tuple[tuple[str, bool], ...] = ()

    def holds(self, store: dict[str, str]) -> bool:
        return all((var in store) == positive for var, positive in self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return "true"
        return " and ".join(f"{'bound' if pos else 'unbound'}({v})" for v, pos in self.literals)


@dataclass(frozen=True)
class Action:
    kind: str  # "bind" | "unbind"
    var: str
    value: str | None = None  # literal, or "arg.<param>" reference; None for unbind

    def __str__(self) -> str:
        if self.kind == "unbind":
            return f"unbind({self.var})"
        value = self.value if self.value and self.value.startswith("arg.") else f'"{self.value}"'
        return f"bind({self.var}, {value})"


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    label: tuple[str, str, str] | None  # (sender, receiver, name); None for epsilon
    message_params: tuple[str, ...] = ()
    guard: Guard = Guard()
    actions: tuple[Action, ...] = ()


@dataclass(frozen=True)
class HapnMachine:
    name: str
    states: tuple[str, ...]
    initial: str
    finals: tuple[str, ...]
    variables: tuple[str, ...]
    transitions: tuple[Transition, ...]


@dataclass(frozen=True)
class HapnConfigState:
    state: str
    store: tuple[tuple[str, str], ...] = ()

    def store_map(self) -> dict[str, str]:
        return dict(self.store)


class NoTransition(Exception):
    pass


def _apply_actions(store: dict[str, str], actions: tuple[Action, ...], event: HapnEvent | None) -> tuple[dict[str, str], tuple]:
    """The store after the actions, and each bind that gave a bound
    variable a different value."""
    out = dict(store)
    conflicts = []
    for action in actions:
        if action.kind == "unbind":
            out.pop(action.var, None)
            continue
        value = _resolve(action.value, event)
        if out.get(action.var, value) != value:
            conflicts.append(BindConflict(action.var, out[action.var], value, event.name if event else None))
        out[action.var] = value
    return out, tuple(conflicts)


def _resolve(value: str | None, event: HapnEvent | None) -> str:
    if value is None:
        raise ValueError("bind without a value")
    if value.startswith("arg."):
        if event is None:
            raise ValueError("arg reference on a message-less transition")
        param = value[4:]
        args = event.arg_map()
        if param not in args:
            raise ValueError(f"event {event.name} has no argument {param!r}")
        return args[param]
    return value


def step_hapn(c: HapnConfigState, m: HapnMachine, ev: HapnEvent | None) -> tuple[HapnConfigState, ...]:
    """All successor configurations for a message event (or epsilon when
    ev is None), with guards evaluated against the shared store and actions
    applied atomically."""
    out = tuple(s for s, _ in _steps(m, c, ev))
    if not out:
        raise NoTransition(f"no transition from {c.state} on {ev.name if ev else 'epsilon'}")
    return out


def runs(m: HapnMachine, enactment: list[HapnEvent]) -> list[HapnConfigState]:
    """The configurations that some run over the synchronous event
    sequence ends in, epsilon steps interleaved, in discovery order."""
    return [config for config, _ in _walk(m, enactment, lambda tag, conflicts: ())]


def _walk(m: HapnMachine, enactment: list[HapnEvent], extend) -> list[tuple[HapnConfigState, tuple]]:
    """The distinct (configuration, tag) pairs that some run over the
    enactment ends in, epsilon steps interleaved, in discovery order (each
    epsilon closure depth first).  A run starts with the tag (), and each
    step makes it extend(tag, the step's bind conflicts).

    An item whose configuration an ancestor in the same closure already
    had, with a proper prefix of its tag, is dropped: it went round an
    epsilon cycle that only added conflicts, so skipping the cycle reaches
    every continuation it has with fewer, and it lies on no fewest-conflict
    run.  Without this, a cycle that rebinds a variable grows the tag on
    every lap and the closure never ends."""
    items = [(HapnConfigState(m.initial), ())]
    for ev in (None, *enactment):
        if ev is not None:
            items = [(s, extend(tag, conflicts)) for c, tag in items for s, conflicts in _steps(m, c, ev)]
        parent = dict.fromkeys(items)  # item -> the item it was first reached from in this closure
        stack = list(parent)
        while stack:
            item = stack.pop()
            for s, conflicts in _steps(m, item[0], None):
                reached = (s, extend(item[1], conflicts))
                if reached not in parent and not _laps(parent, item, reached):
                    parent[reached] = item
                    stack.append(reached)
        items = list(parent)
    return items


def _laps(parent: dict, item, reached) -> bool:
    """Whether `item` or one of its ancestors has `reached`'s configuration
    with a shorter tag (tags only grow along a run, so a shorter one is a
    proper prefix)."""
    while item is not None:
        if item[0] == reached[0] and len(item[1]) < len(reached[1]):
            return True
        item = parent[item]
    return False


def accepts(m: HapnMachine, enactment: list[HapnEvent]) -> bool:
    """True iff some run over the sequence ends in a final state."""
    return any(config.state in m.finals for config in runs(m, enactment))


def conforms(m: HapnMachine, enactment: list[HapnEvent]) -> bool:
    """True iff some run consumes the whole sequence (no final-state demand)."""
    return bool(runs(m, enactment))


@dataclass(frozen=True)
class BindConflict:
    variable: str
    old: str
    new: str
    event: str | None

    def __str__(self) -> str:
        return f"variable {self.variable} rebound from {self.old!r} to {self.new!r} by {self.event or 'epsilon'}"


def hapn_integrity_check(m: HapnMachine, enactment: list[HapnEvent]) -> BindConflict | None:
    """Report a conflict iff every run that consumes the enactment rebinds a
    currently-bound variable to a different value somewhere; unbinding first
    makes rebinding legal.  The conflict reported is the first of the run
    with the fewest conflicts, the first such run in discovery order."""
    completed = [conflicts for _, conflicts in _walk(m, enactment, lambda tag, conflicts: tag + conflicts)]
    if not completed:
        raise NoTransition("no run consumes the enactment")
    first = min(completed, key=len)
    return first[0] if first else None


def _steps(m: HapnMachine, c: HapnConfigState, ev: HapnEvent | None):
    """(successor configuration, bind conflicts) for every transition
    enabled from `c` on `ev` (or epsilon when ev is None), in declaration
    order."""
    store = c.store_map()
    for t in m.transitions:
        if t.source != c.state:
            continue
        if ev is None and t.label is not None:
            continue
        if ev is not None and t.label != (ev.sender, ev.receiver, ev.name):
            continue
        if not t.guard.holds(store):
            continue
        after, conflicts = _apply_actions(store, t.actions, ev)
        yield HapnConfigState(t.target, tuple(sorted(after.items()))), conflicts


# ---------------------------------------------------------------------------
# text format


def parse_hapn(text: str) -> HapnMachine:
    ts = TokenStream(text)
    name = "machine"
    states: list[str] = []
    initial: str | None = None
    finals: list[str] = []
    variables: list[str] = []
    transitions: list[Transition] = []
    transition_at: list[int] = []  # the index of each transition's source token
    while not ts.done():
        at = ts.index
        keyword = ts.expect_kind("id")
        if keyword == "machine":
            name = ts.expect_kind("id")
        elif keyword == "var":
            while True:
                variables.append(ts.expect_kind("id"))
                if not ts.maybe(","):
                    break
        elif keyword == "state":
            sname = ts.expect_kind("id")
            if sname in states:
                raise ts.error(f"duplicate state {sname!r}", at)
            states.append(sname)
            while ts.at("initial") or ts.at("final"):
                if ts.next() == "initial":
                    if initial is not None:
                        raise ts.error("two initial states", at)
                    initial = sname
                else:
                    finals.append(sname)
        elif keyword == "trans":
            transition_at.append(ts.index)
            transitions.append(_parse_transition(ts))
        else:
            raise ts.error(f"unexpected keyword {keyword!r}", at)
        ts.maybe(";")
    if initial is None:
        raise ParseError("no initial state", 1, 1)
    for t, at in zip(transitions, transition_at):
        # `source -> target`: the target is two tokens after the source
        for s, s_at in ((t.source, at), (t.target, at + 2)):
            if s not in states:
                raise ts.error(f"transition uses undeclared state {s!r}", s_at)
    return HapnMachine(name, tuple(states), initial, tuple(finals), tuple(variables), tuple(transitions))


def _parse_transition(ts: TokenStream) -> Transition:
    source = ts.expect_kind("id")
    ts.expect("->")
    target = ts.expect_kind("id")
    label = None
    params: tuple[str, ...] = ()
    if ts.at("on"):
        ts.next()
        sender = ts.expect_kind("id")
        ts.expect("->")
        receiver = ts.expect_kind("id")
        ts.expect(":")
        mname = ts.expect_kind("id")
        plist: list[str] = []
        ts.expect("(")
        while not ts.at(")"):
            plist.append(ts.expect_kind("id"))
            if not ts.at(")"):
                ts.expect(",")
        ts.expect(")")
        label = (sender, receiver, mname)
        params = tuple(plist)
    guard = Guard()
    if ts.at("when"):
        ts.next()
        guard = _parse_guard(ts)
    actions: list[Action] = []
    if ts.at("do"):
        ts.next()
        while True:
            actions.append(_parse_action(ts))
            if not ts.maybe(","):
                break
    return Transition(source, target, label, params, guard, tuple(actions))


def _parse_guard(ts: TokenStream) -> Guard:
    literals: list[tuple[str, bool]] = []
    while True:
        literal = ts.expect_kind("id")
        if literal == "true":
            pass
        elif literal in ("bound", "unbound"):
            ts.expect("(")
            var = ts.expect_kind("id")
            ts.expect(")")
            literals.append((var, literal == "bound"))
        else:
            raise ts.error(f"expected guard literal, found {literal!r}", ts.index - 1)
        if ts.at("and"):
            ts.next()
            continue
        break
    return Guard(tuple(literals))


def _parse_action(ts: TokenStream) -> Action:
    verb = ts.expect_kind("id")
    if verb == "unbind":
        ts.expect("(")
        var = ts.expect_kind("id")
        ts.expect(")")
        return Action("unbind", var)
    if verb != "bind":
        raise ts.error(f"expected bind or unbind, found {verb!r}", ts.index - 1)
    ts.expect("(")
    var = ts.expect_kind("id")
    ts.expect(",")
    if ts.at_kind("string"):
        value = ts.next().strip('"')
    else:
        value = ts.expect_kind("id")
        if value == "arg":
            ts.expect(".")
            value = "arg." + ts.expect_kind("id")
    ts.expect(")")
    return Action("bind", var, value)


def print_hapn(m: HapnMachine) -> str:
    lines = [f"machine {m.name}"]
    if m.variables:
        lines.append("var " + ", ".join(m.variables))
    for s in m.states:
        marks = ""
        if s == m.initial:
            marks += " initial"
        if s in m.finals:
            marks += " final"
        lines.append(f"state {s}{marks}")
    for t in m.transitions:
        text = f"trans {t.source} -> {t.target}"
        if t.label:
            sender, receiver, mname = t.label
            text += f" on {sender} -> {receiver} : {mname}({', '.join(t.message_params)})"
        if t.guard.literals:
            text += f" when {t.guard}"
        if t.actions:
            text += " do " + ", ".join(str(a) for a in t.actions)
        lines.append(text)
    return "\n".join(lines) + "\n"
