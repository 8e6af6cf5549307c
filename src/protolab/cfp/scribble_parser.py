"""Parser for the session-calculus subset (.scr files).

Supports one `global protocol` per source with message transfer lines,
`choice at R { ... } or { ... }`, and self-recursion via `do Name(...)`.
Each choice must be decided by the sender of every branch's first event,
and no message goes from a role to itself; anything else is rejected at
parse time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._lexer import TokenStream
from .ast import Atom, CfpExpr, Choice, Epsilon, Rec, Seq, Var, initials

_REC_VAR = "_self"


@dataclass(frozen=True)
class ScribbleProtocol:
    name: str
    roles: tuple[str, ...]
    body: CfpExpr


def parse_scribble(text: str) -> CfpExpr:
    return parse_scribble_protocol(text).body


def parse_scribble_protocol(text: str) -> ScribbleProtocol:
    ts = TokenStream(text)
    ts.expect("global")
    ts.expect("protocol")
    name = ts.expect_kind("id")
    ts.expect("(")
    roles: list[str] = []
    while not ts.at(")"):
        ts.expect("role")
        role = ts.expect_kind("id")
        if role in roles:
            raise ts.error(f"duplicate role {role!r}", ts.index - 1)
        roles.append(role)
        if not ts.at(")"):
            ts.expect(",")
    ts.expect(")")
    parser = _ScribbleParser(ts, name, tuple(roles))
    body = parser.parse_block()
    if not ts.done():
        raise ts.error("trailing input after protocol")
    if parser.recursive:
        body = Rec(_REC_VAR, body)
    return ScribbleProtocol(name, tuple(roles), body)


class _ScribbleParser:
    def __init__(self, ts: TokenStream, name: str, roles: tuple[str, ...]):
        self.ts = ts
        self.name = name
        self.roles = roles
        self.recursive = False
        self.declared_payload: dict[str, str] = {}

    def parse_block(self) -> CfpExpr:
        self.ts.expect("{")
        items: list[CfpExpr] = []
        while not self.ts.at("}"):
            items.append(self._statement())
        self.ts.expect("}")
        expr: CfpExpr = Epsilon()
        for item in reversed(items):
            expr = item if isinstance(expr, Epsilon) else Seq(item, expr)
        return expr

    def _statement(self) -> CfpExpr:
        if self.ts.done():
            # reported at the last token, like an unexpected end of input
            raise self.ts.error("unexpected end of protocol")
        if self.ts.at("choice"):
            return self._choice()
        if self.ts.at("do"):
            return self._do()
        return self._transfer()

    def _choice(self) -> CfpExpr:
        kw = self.ts.index
        self.ts.expect("choice")
        self.ts.expect("at")
        decider = self.ts.expect_kind("id")
        if decider not in self.roles:
            raise self.ts.error(f"unknown decider role {decider!r}", kw)
        branches = [self.parse_block()]
        while self.ts.at("or"):
            self.ts.next()
            branches.append(self.parse_block())
        if len(branches) < 2:
            raise self.ts.error("choice needs at least two branches", kw)
        seen_firsts: set[tuple[str, str, str]] = set()
        for branch in branches:
            for atom in initials(branch):
                if atom.sender != decider:
                    raise self.ts.error(f"decider {decider} is not the sender of branch-initial message {atom.name}", kw)
                if atom.label in seen_firsts:
                    raise self.ts.error(f"two branches start with the same message {atom.name}; the choice is not deterministic", kw)
                seen_firsts.add(atom.label)
        return Choice(tuple(branches), decider)

    def _do(self) -> CfpExpr:
        kw = self.ts.index
        self.ts.expect("do")
        target = self.ts.expect_kind("id")
        if target != self.name:
            raise self.ts.error(f"'do {target}' does not reference the enclosing protocol {self.name}", kw)
        self.ts.expect("(")
        while not self.ts.at(")"):
            self.ts.next()
        self.ts.expect(")")
        self.ts.expect(";")
        self.recursive = True
        return Var(_REC_VAR)

    def _transfer(self) -> CfpExpr:
        at = self.ts.index
        name = self.ts.expect_kind("id")
        payload: list[tuple[str | None, str | None]] = []
        self.ts.expect("(")
        while not self.ts.at(")"):
            first = self.ts.expect_kind("id")
            if self.ts.maybe(":"):
                ptype = self.ts.expect_kind("id")
                self.declared_payload[first] = ptype
                payload.append((first, ptype))
            elif first in self.declared_payload:
                # bare reference to an earlier declared payload parameter
                payload.append((first, self.declared_payload[first]))
            else:
                # a bare type, as in `price(Int)`
                payload.append((None, first))
            if not self.ts.at(")"):
                self.ts.expect(",")
        self.ts.expect(")")
        self.ts.expect("from")
        sender = self._role()
        self.ts.expect("to")
        receiver = self._role()
        if receiver == sender:
            raise self.ts.error(f"message {name} has sender == receiver", at)
        self.ts.expect(";")
        return Atom(sender, receiver, name, tuple(payload))

    def _role(self) -> str:
        role = self.ts.expect_kind("id")
        if role not in self.roles:
            raise self.ts.error(f"unknown role {role!r}", self.ts.index - 1)
        return role


def print_scribble(p: ScribbleProtocol) -> str:
    roles = ", ".join(f"role {r}" for r in p.roles)
    lines = [f"global protocol {p.name}({roles}) {{"]
    body = p.body
    if isinstance(body, Rec) and body.var == _REC_VAR:
        body = body.body
    _print_body(body, lines, indent=1, protocol=p.name, roles=p.roles)
    return "\n".join(lines) + "\n}\n"


def _print_body(e: CfpExpr, lines: list[str], indent: int, protocol: str, roles: tuple[str, ...]) -> None:
    pad = "  " * indent
    if isinstance(e, Epsilon):
        return
    if isinstance(e, Seq):
        _print_body(e.left, lines, indent, protocol, roles)
        _print_body(e.right, lines, indent, protocol, roles)
        return
    if isinstance(e, Atom):
        parts = []
        for pname, ptype in e.payload:
            if pname and ptype:
                parts.append(f"{pname}: {ptype}")
            else:
                parts.append(pname or ptype or "_")
        lines.append(f"{pad}{e.name}({', '.join(parts)}) from {e.sender} to {e.receiver};")
        return
    if isinstance(e, Var):
        lines.append(f"{pad}do {protocol}({', '.join(roles)});")
        return
    if isinstance(e, Choice):
        first = True
        for branch in e.branches:
            lines.append(f"{pad}choice at {e.decider} {{" if first else f"{pad}}} or {{")
            first = False
            _print_body(branch, lines, indent + 1, protocol, roles)
        lines.append(f"{pad}}}")
        return
    raise TypeError(f"cannot render {type(e).__name__} in session syntax")
