"""Random generators for round-trip and property suites.

Everything is driven by an explicit random.Random so failures reproduce
from the seed printed by the calling test.
"""

from __future__ import annotations

import random

from protolab.bspl.core import Adornment, InfoProtocol, MessageSchema, ParamDecl
from protolab.cfp.ast import Atom, CfpExpr, Choice, Epsilon, Rec, Seq, Shuffle, Var
from protolab.cfp.scribble_parser import ScribbleProtocol
from protolab.commitments import CommitmentSpec, Window
from protolab.hapn import Action, Guard, HapnMachine, Transition

ROLES = ("A", "B", "C", "D")
MESSAGES = ("m0", "m1", "m2", "m3", "m4", "m5")
PARAMS = ("ID", "item", "price", "note", "tag")
TYPES = ("String", "Int", "Bool")


def random_protocol(rng: random.Random) -> InfoProtocol:
    roles = tuple(rng.sample(ROLES, rng.randint(2, 3)))
    pool = rng.sample(PARAMS, rng.randint(2, 4))
    public = []
    for i, name in enumerate(pool):
        public.append(ParamDecl(name, Adornment.OUT if rng.random() < 0.7 else Adornment.IN, is_key=(i == 0)))
    messages = []
    for i in range(rng.randint(1, 5)):
        sender, receiver = rng.sample(roles, 2)
        count = rng.randint(1, len(pool))
        params = tuple(
            ParamDecl(name, rng.choice((Adornment.IN, Adornment.OUT)), is_key=(name == pool[0]))
            for name in rng.sample(pool, count)
        )
        messages.append(MessageSchema(sender, receiver, f"Msg{i}", params))
    return InfoProtocol(f"P{rng.randint(0, 999)}", roles, tuple(public), tuple(messages))


def bspl_chain(name: str, length: int, roles: tuple[str, str] = ("A", "B")) -> str:
    """BSPL source of one causal chain of `length` messages between two
    roles, each message 'in' the value the one before it made 'out', so
    each instance enacts strictly in order, the sender alternating."""
    lines = [
        f"protocol {name} {{",
        f"  roles {roles[0]}, {roles[1]}",
        "  parameters " + ", ".join(["out ID key", *(f"out p{i}" for i in range(1, length + 1))]),
    ]
    for i in range(1, length + 1):
        sender, receiver = roles if i % 2 else roles[::-1]
        ins = "out ID" if i == 1 else f"in ID, in p{i - 1}"
        lines.append(f"  {sender} -> {receiver}: M{i}[{ins}, out p{i}]")
    return "\n".join([*lines, "}"]) + "\n"


def random_cfp(
    rng: random.Random,
    depth: int = 3,
    allow_shuffle: bool = True,
    allow_choice: bool = True,
    allow_rec: bool = True,
    bound_vars: tuple[str, ...] = (),
) -> CfpExpr:
    if depth <= 0:
        return _random_atom(rng)
    kinds = ["atom", "seq", "seq"]
    if allow_choice:
        kinds.append("choice")
    if allow_shuffle:
        kinds.append("shuffle")
    if allow_rec:
        kinds.append("rec")
    kind = rng.choice(kinds)
    if kind == "atom":
        return _random_atom(rng)
    if kind == "seq":
        return Seq(
            random_cfp(rng, depth - 1, allow_shuffle, allow_choice, allow_rec, bound_vars),
            random_cfp(rng, depth - 1, allow_shuffle, allow_choice, allow_rec, bound_vars),
        )
    if kind == "choice":
        branches = []
        for _ in range(rng.randint(2, 3)):
            branch = random_cfp(rng, depth - 1, allow_shuffle, allow_choice, allow_rec, bound_vars)
            if branch not in branches:
                branches.append(branch)
        if len(branches) < 2:
            branches.append(_random_atom(rng))
        if len(set(branches)) < 2:
            return branches[0]
        return Choice(tuple(branches))
    if kind == "shuffle":
        return Shuffle(
            random_cfp(rng, depth - 1, allow_shuffle, allow_choice, allow_rec, bound_vars),
            random_cfp(rng, depth - 1, allow_shuffle, allow_choice, allow_rec, bound_vars),
        )
    var = f"V{rng.randint(0, 99)}"
    body = random_cfp(rng, depth - 1, allow_shuffle, allow_choice, allow_rec, bound_vars + (var,))
    if rng.random() < 0.6:
        body = Seq(body, Var(var))
    return Rec(var, body)


def _random_atom(rng: random.Random) -> Atom:
    sender, receiver = rng.sample(ROLES[:3], 2)
    payload = ()
    if rng.random() < 0.3:
        payload = tuple((rng.choice(PARAMS), rng.choice(TYPES) if rng.random() < 0.5 else None) for _ in range(rng.randint(1, 2)))
    return Atom(sender, receiver, rng.choice(MESSAGES), payload)


def random_shuffle_expr(rng: random.Random) -> CfpExpr:
    """Recursion-free expression with at most three shuffle operands and a
    small atom count, for trace-set preservation checks."""
    atoms = [
        _random_atom(rng)
        for _ in range(rng.randint(2, 4))
    ]
    pieces: list[CfpExpr] = []
    index = 0
    for atom in atoms:
        if pieces and rng.random() < 0.4:
            pieces[-1] = Seq(pieces[-1], atom)
        else:
            pieces.append(atom)
        index += 1
    expr = pieces[0]
    shuffles = 0
    for piece in pieces[1:]:
        if shuffles < 2 and rng.random() < 0.7:
            expr = Shuffle(expr, piece)
            shuffles += 1
        elif rng.random() < 0.5:
            expr = Seq(expr, piece)
        else:
            expr = Choice((expr, piece)) if expr != piece else Seq(expr, piece)
    return expr


def random_scribble(rng: random.Random) -> ScribbleProtocol:
    """Statement sequences fold rightward, with a trailing self-call inside
    the fold, matching the session parser's normalization."""
    roles = tuple(rng.sample(ROLES, rng.randint(2, 3)))
    declared: dict[str, str] = {}
    items = _random_scribble_items(rng, roles, declared, depth=2)
    recursive = rng.random() < 0.4
    if recursive:
        items.append(Var("_self"))
    body = _fold_statements(items)
    if recursive:
        body = Rec("_self", body)
    name = f"Proto{rng.randint(0, 999)}"
    return ScribbleProtocol(name, roles, body)


def _fold_statements(items: list[CfpExpr]) -> CfpExpr:
    expr: CfpExpr = Epsilon()
    for item in reversed(items):
        expr = item if isinstance(expr, Epsilon) else Seq(item, expr)
    return expr


def _random_scribble_items(rng, roles, declared, depth) -> list[CfpExpr]:
    items: list[CfpExpr] = []
    for _ in range(rng.randint(1, 3)):
        if depth > 0 and rng.random() < 0.3:
            decider = rng.choice(roles)
            branches = []
            for _ in range(2):
                first = _scribble_transfer(rng, roles, declared, sender=decider)
                branches.append(_fold_statements([first] + _random_scribble_items(rng, roles, declared, depth - 1)))
            if branches[0] == branches[1]:
                items.append(branches[0])
            else:
                items.append(Choice(tuple(branches), decider))
        else:
            items.append(_scribble_transfer(rng, roles, declared))
    return items


_SCRIBBLE_COUNTER = [0]


def _scribble_transfer(rng, roles, declared, sender=None) -> Atom:
    if sender is None:
        sender, receiver = rng.sample(roles, 2)
    else:
        receiver = rng.choice([r for r in roles if r != sender])
    payload = []
    for _ in range(rng.randint(0, 2)):
        if declared and rng.random() < 0.3:
            name = rng.choice(sorted(declared))
            payload.append((name, declared[name]))
        elif rng.random() < 0.5:
            name = f"p{rng.randint(0, 50)}"
            ptype = rng.choice(TYPES)
            declared[name] = ptype
            payload.append((name, ptype))
        else:
            payload.append((None, rng.choice(TYPES)))
    _SCRIBBLE_COUNTER[0] += 1
    return Atom(sender, receiver, f"Msg{_SCRIBBLE_COUNTER[0]}", tuple(payload))


def random_hapn(rng: random.Random) -> HapnMachine:
    states = tuple(f"s{i}" for i in range(rng.randint(2, 4)))
    variables = tuple(rng.sample(PARAMS, rng.randint(0, 2)))
    transitions = []
    for _ in range(rng.randint(1, 5)):
        source, target = rng.choice(states), rng.choice(states)
        label = None
        params: tuple[str, ...] = ()
        if rng.random() < 0.8:
            sender, receiver = rng.sample(ROLES[:3], 2)
            label = (sender, receiver, rng.choice(MESSAGES))
            params = tuple(rng.sample(PARAMS, rng.randint(0, 2)))
        literals = tuple((v, rng.random() < 0.5) for v in rng.sample(variables, rng.randint(0, len(variables))))
        actions = []
        for var in rng.sample(variables, rng.randint(0, len(variables))):
            if rng.random() < 0.3:
                actions.append(Action("unbind", var))
            elif params and rng.random() < 0.5:
                actions.append(Action("bind", var, f"arg.{rng.choice(params)}"))
            else:
                actions.append(Action("bind", var, rng.choice(("T", "F", "v1"))))
        transitions.append(Transition(source, target, label, params, Guard(literals), tuple(actions)))
    finals = tuple(sorted(set(rng.sample(states, rng.randint(1, len(states))))))
    return HapnMachine(f"M{rng.randint(0, 99)}", states, states[0], finals, variables, tuple(transitions))


def random_cupid(rng: random.Random) -> CommitmentSpec:
    events = rng.sample(MESSAGES, 3)

    def window():
        if rng.random() < 0.3:
            return Window()
        lo_ref, lo_off = (None, None)
        if rng.random() < 0.4:
            lo_ref, lo_off = (rng.choice(events), rng.randint(-3, 3)) if rng.random() < 0.6 else (None, rng.randint(0, 5))
        hi_ref, hi_off = (rng.choice(events), rng.randint(0, 5)) if rng.random() < 0.8 else (None, rng.randint(3, 9))
        return Window(lo_ref, lo_off, hi_ref, hi_off)

    debtor, creditor = rng.sample(ROLES, 2)
    return CommitmentSpec(
        f"C{rng.randint(0, 99)}",
        debtor,
        creditor,
        events[0],
        events[1],
        window(),
        events[2],
        window(),
    )
