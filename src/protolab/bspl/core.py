"""Information protocols: declarations, parsing, validation, trivial projection.

A protocol declares roles, public parameters (with in/out adornments and key
flags), and message schemas.  Message ordering falls out of information
causality, so a role's projection is simply the set of schemas it sends or
receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .._lexer import TokenStream
from ..diagnostics import Diagnostic, ParseError, Severity


class Adornment(str, Enum):
    IN = "in"
    OUT = "out"


@dataclass(frozen=True)
class ParamDecl:
    name: str
    adornment: Adornment
    is_key: bool = False


@dataclass(frozen=True)
class MessageSchema:
    sender: str
    receiver: str
    name: str
    params: tuple[ParamDecl, ...]

    def param(self, name: str) -> ParamDecl | None:
        for p in self.params:
            if p.name == name:
                return p
        return None

    def param_names(self) -> tuple[str, ...]:
        return self._param_names

    @cached_property
    def _param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @cached_property
    def param_name_set(self) -> frozenset[str]:
        return frozenset(self._param_names)

    def ins(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.adornment is Adornment.IN)

    def outs(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.adornment is Adornment.OUT)


@dataclass(frozen=True)
class InfoProtocol:
    name: str
    roles: tuple[str, ...]
    public_params: tuple[ParamDecl, ...]
    messages: tuple[MessageSchema, ...]

    def public_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.public_params)

    def key_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.public_params if p.is_key)

    @cached_property
    def message_names(self) -> frozenset[str]:
        return frozenset(m.name for m in self.messages)

    def message(self, name: str) -> MessageSchema:
        for m in self.messages:
            if m.name == name:
                return m
        raise KeyError(name)

    def message_keys(self, schema: MessageSchema) -> tuple[str, ...]:
        """Key parameters of a schema: protocol keys it carries, plus its own
        key-flagged parameters, in schema declaration order."""
        return tuple(schema.params[i].name for i in self.key_positions(schema))

    def key_positions(self, schema: MessageSchema) -> tuple[int, ...]:
        """Positions of a schema's key parameters among its parameters,
        computed once for each of this protocol's own schemas."""
        cached = self._key_positions.get(schema.name)
        if cached is not None and cached[0] is schema:
            return cached[1]
        return _find_key_positions(schema, set(self.key_names()))

    @cached_property
    def _key_positions(self) -> dict[str, tuple[MessageSchema, tuple[int, ...]]]:
        keys = set(self.key_names())
        return {m.name: (m, _find_key_positions(m, keys)) for m in self.messages}


def _find_key_positions(schema: MessageSchema, protocol_keys: set[str]) -> tuple[int, ...]:
    return tuple(i for i, p in enumerate(schema.params) if p.name in protocol_keys or p.is_key)


@dataclass(frozen=True)
class LocalSchema:
    """One schema in a role's projection, tagged with its direction."""

    direction: str  # "send" | "recv"
    schema: MessageSchema

    @property
    def peer(self) -> str:
        return self.schema.receiver if self.direction == "send" else self.schema.sender


# ---------------------------------------------------------------------------
# parsing


def parse_bspl(text: str) -> InfoProtocol:
    ts = TokenStream(text)
    protocol = _parse_protocol(ts)
    if not ts.done():
        raise ts.error("trailing input after protocol")
    return protocol


def parse_bspl_file(text: str) -> list[InfoProtocol]:
    """Parse a source that may hold several protocol blocks."""
    ts = TokenStream(text)
    protocols = []
    while not ts.done():
        protocols.append(_parse_protocol(ts))
    return protocols


def _parse_protocol(ts: TokenStream) -> InfoProtocol:
    ts.expect("protocol")
    name = ts.expect_kind("id")
    ts.expect("{")
    ts.expect("roles")
    roles: list[str] = []
    while True:
        role = ts.expect_kind("id")
        if role in roles:
            raise ts.error(f"duplicate role {role!r}", ts.index - 1)
        roles.append(role)
        if not ts.maybe(","):
            break
    ts.expect("parameters")
    params = _parse_param_list(ts, stop="}")
    messages: list[MessageSchema] = []
    seen_names: set[str] = set()
    while not ts.at("}"):
        start = ts.index
        msg = _parse_message(ts)
        if msg.name in seen_names:
            # same schema name twice is a redeclaration, not two schemas;
            # the name is the fifth token of `S -> R: Name[...]`
            raise ts.error(f"duplicate message {msg.name!r}", start + 4)
        seen_names.add(msg.name)
        messages.append(msg)
    ts.expect("}")
    return InfoProtocol(name, tuple(roles), tuple(params), tuple(messages))


def _parse_param_list(ts: TokenStream, stop: str) -> list[ParamDecl]:
    params: list[ParamDecl] = []
    seen: set[str] = set()
    while not ts.done() and not ts.at(stop):
        adornment = ts.expect_kind("id")
        if adornment not in ("in", "out"):
            raise ts.error(f"expected adornment 'in' or 'out', found {adornment!r}", ts.index - 1)
        name = ts.expect_kind("id")
        if name in seen:
            raise ts.error(f"duplicate parameter {name!r}", ts.index - 1)
        seen.add(name)
        params.append(ParamDecl(name, Adornment(adornment), ts.maybe("key")))
        if not ts.maybe(","):
            # a message line or closing brace follows
            break
    return params


def _parse_message(ts: TokenStream) -> MessageSchema:
    sender = ts.expect_kind("id")
    ts.expect("->")
    receiver = ts.expect_kind("id")
    ts.expect(":")
    name = ts.expect_kind("id")
    ts.expect("[")
    params = _parse_param_list(ts, stop="]")
    ts.expect("]")
    return MessageSchema(sender, receiver, name, tuple(params))


# ---------------------------------------------------------------------------
# printing


def print_bspl(p: InfoProtocol) -> str:
    lines = [f"protocol {p.name} {{"]
    lines.append("  roles " + ", ".join(p.roles))
    lines.append("  parameters " + ", ".join(_print_param(q) for q in p.public_params))
    for m in p.messages:
        plist = ", ".join(_print_param(q) for q in m.params)
        lines.append(f"  {m.sender} -> {m.receiver}: {m.name}[{plist}]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_param(q: ParamDecl) -> str:
    text = f"{q.adornment.value} {q.name}"
    return text + " key" if q.is_key else text


# ---------------------------------------------------------------------------
# validation


def validate_bspl(p: InfoProtocol) -> list[Diagnostic]:
    """Well-formedness diagnostics.  An empty list means the protocol is valid;
    warnings are non-fatal."""
    out: list[Diagnostic] = []
    if not p.messages:
        out.append(Diagnostic("NoMessages", f"protocol {p.name} declares no messages"))
    public = set(p.public_names())
    used: set[str] = set()
    produced: set[str] = set()
    consumed: set[str] = set()
    for m in sorted(p.messages, key=lambda m: m.name):
        if m.sender == m.receiver:
            out.append(Diagnostic("SenderIsReceiver", f"message {m.name} has sender == receiver", subject=m.name))
        for role in (m.sender, m.receiver):
            if role not in p.roles:
                out.append(Diagnostic("UnknownRole", f"message {m.name} uses undeclared role {role}", subject=m.name))
        if not p.message_keys(m):
            out.append(Diagnostic("NoKeyParameter", f"message {m.name} has no key parameter", subject=m.name))
        for q in m.params:
            used.add(q.name)
            if q.adornment is Adornment.OUT:
                produced.add(q.name)
            else:
                consumed.add(q.name)
            if q.is_key and q.name in public and q.name not in set(p.key_names()):
                out.append(
                    Diagnostic(
                        "KeyNotProtocolKey",
                        f"message {m.name} marks public parameter {q.name} key but the protocol does not",
                        subject=m.name,
                    )
                )
            if q.name not in public:
                out.append(
                    Diagnostic(
                        "MessageParamNotPublic",
                        f"parameter {q.name} of {m.name} is not a public parameter (treated as private)",
                        Severity.WARNING,
                        subject=m.name,
                    )
                )
    for name in sorted(public - used):
        out.append(Diagnostic("PublicParamUnused", f"public parameter {name} appears in no message", subject=name))
    for name in sorted(consumed - produced):
        out.append(
            Diagnostic(
                "CausalityUnsatisfiable",
                f"parameter {name} is adorned 'in' somewhere but no message adorns it 'out'",
                subject=name,
            )
        )
    return out


# ---------------------------------------------------------------------------
# projection


def project_bspl(p: InfoProtocol, role: str) -> tuple[LocalSchema, ...]:
    """A role's projection: exactly the schemas it sends or receives."""
    if role not in p.roles:
        raise KeyError(f"unknown role {role!r} in protocol {p.name}")
    out = []
    for m in p.messages:
        if m.sender == role:
            out.append(LocalSchema("send", m))
        elif m.receiver == role:
            out.append(LocalSchema("recv", m))
    return tuple(out)
