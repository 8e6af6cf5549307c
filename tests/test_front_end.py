"""Differential tests of the front end.

`protolab._lexer` scans a source in one regex pass and works out token
positions only for diagnostics.  The eager tokenizer it replaced is kept
below verbatim as the oracle (only its import of ParseError is made
absolute).  These tests check that both give the same tokens, kinds,
lines, columns and errors; that the stream methods give the same answers
and errors at every index; and that every parser, run over the oracle's
tokens and positions instead, gives the same ASTs and errors on every
token-boundary prefix of every fixture.  The commitment evaluation is
checked against the `instance_views` pass it replaced.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

import protolab.bspl.core
import protolab.cfp.scribble_parser
import protolab.cfp.trace_parser
import protolab.commitments
import protolab.hapn
from generators import random_cfp, random_cupid, random_hapn, random_protocol, random_scribble
from protolab import _lexer
from protolab.bspl.core import parse_bspl, parse_bspl_file, print_bspl
from protolab.bspl.enactment import EMISSION, RECEPTION, History, IntegrityConflict, MessageInstance, Observation, instance_views
from protolab.cfp.ast import print_cfp
from protolab.cfp.scribble_parser import parse_scribble_protocol, print_scribble
from protolab.cfp.trace_parser import parse_trace
from protolab.commitments import _evaluate, commitment_states, parse_cupid, print_cupid
from protolab.diagnostics import ParseError
from protolab.hapn import parse_hapn, print_hapn

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "protolab" / "fixtures"

# ---------------------------------------------------------------------------
# the replaced tokenizer, verbatim

# Identifiers may embed + and - (protocol names like Want+WillPay or
# Deliver-Payment) but only when followed by an alphanumeric, so that
# `A->B` still lexes as `A`, `->`, `B`.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*(?:[+\-][A-Za-z0-9_]+)*)
  | (?P<num>\d+)
  | (?P<string>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<shuffle>/\\|\|)
  | (?P<choice>\\/)
  | (?P<punct>[{}()\[\],:;=*.@$+%-]|[?!])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or "ws"
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return tokens


class TokenStream:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def at_kind(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("id", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        self.index += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            return self._fail(f"expected {text!r}")
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return self._fail(f"expected {kind}")
        return self.next()

    def maybe(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def done(self) -> bool:
        return self.index >= len(self.tokens)

    def _fail(self, message: str):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("id", "", 1, 1)
            raise ParseError(f"{message}, found end of input", last.line, last.column)
        raise ParseError(f"{message}, found {tok.text!r}", tok.line, tok.column)


# ---------------------------------------------------------------------------
# inputs


def error(err: ParseError) -> tuple:
    return ("ParseError", str(err), err.reason, err.line, err.column)


def fixtures() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(FIXTURES.iterdir()) if path.suffix != ".json"}


def generated() -> dict[str, str]:
    """Sources shaped like the benchmark's (BSPL chains, trace blocks, a
    Scribble sequence, a HAPN path) and printed random ASTs."""
    rng = random.Random(5)
    chain = []
    for i in range(1, 13):
        sender, receiver = ("A", "B") if i % 2 else ("B", "A")
        chain.append(f"  {sender} -> {receiver}: M{i}[{'out ID' if i == 1 else f'in ID, in p{i - 1}'}, out p{i}]")
    params = ", ".join(["out ID key"] + [f"out p{i}" for i in range(1, 13)])
    bspl = "\n".join(["protocol Chain {", "  roles A, B", f"  parameters {params}", *chain, "}"]) + "\n"
    operators = (";", "\\/", "/\\")
    trace = " ;\n".join(f"(A -> B : t{i} {operators[i % 3]} B -> A : u{i})" for i in range(20)) + "\n"
    scribble = ["global protocol Big(role A, role B, role C) {"]
    for i in range(20):
        sender, receiver = "ABC"[i % 3], "ABC"[(i + 1) % 3]
        if i % 7 == 6:
            scribble.append(f"  choice at {sender} {{ X{i}() from {sender} to {receiver}; }} or {{ Y{i}() from {sender} to {receiver}; }}")
        else:
            scribble.append(f"  M{i}(x: Int) from {sender} to {receiver};")
    hapn = ["machine Big", "var x0, x1", "state s0 initial"] + [f"state s{i}" for i in range(1, 12)] + ["state s12 final"]
    for i in range(12):
        verb = f"when bound(x{i % 2}) do unbind(x{i % 2})" if i % 2 else f'when unbound(x{i % 2}) do bind(x{i % 2}, "v")'
        hapn.append(f"trans s{i} -> s{i + 1} on A -> B : M{i}(v) {verb}")
    sources = {
        "chain.bspl": bspl,
        "blocks.trace": trace,
        "sequence.scr": "\n".join(scribble) + "\n}\n",
        "path.hapn": "\n".join(hapn) + "\n",
    }
    printers = (
        (".bspl", lambda: print_bspl(random_protocol(rng))),
        (".trace", lambda: print_cfp(random_cfp(rng))),
        (".scr", lambda: print_scribble(random_scribble(rng))),
        (".hapn", lambda: print_hapn(random_hapn(rng))),
        (".cupid", lambda: print_cupid(random_cupid(rng))),
    )
    for i in range(6):
        for suffix, printer in printers:
            sources[f"random{i}{suffix}"] = printer()
    return sources


ALPHABET = list('ab_Z09٣é"/\\|-+>;:,.=*()[]{}\r\t\n \xa0@$%?!') + ["->", "//", "/\\", "\\/", "key", "A-B", "x+y"]


def random_strings(count: int) -> list[str]:
    rng = random.Random(13)
    return ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 24))) for _ in range(count)]


SOURCES = {**fixtures(), **generated()}


def lexed(text: str) -> list[tuple] | tuple:
    """(kind, text, line, column) per token, or the error."""
    try:
        ts = _lexer.TokenStream(text)
    except ParseError as err:
        return error(err)
    return [(ts._kinds[token], token, *ts.position(i)) for i, token in enumerate(ts.tokens)]


def lexed_by_oracle(text: str) -> list[tuple] | tuple:
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(text)]
    except ParseError as err:
        return error(err)


def test_the_trap_cases_lex_as_the_oracle_does():
    cases = {
        "A->B": ["A", "->", "B"],
        "Want+WillPay": ["Want+WillPay"],
        "x ٣ y": ["x", "٣", "y"],
        "a\xa0b": ["a", "b"],
        "a // note": ["a"],
        "a \t\r\n": ["a"],
    }
    for text, tokens in cases.items():
        assert [t[1] for t in lexed(text)] == tokens
        assert lexed(text) == lexed_by_oracle(text)
    assert lexed('a "b') == lexed_by_oracle('a "b') == error(ParseError("unexpected character '\"'", 1, 3))
    assert lexed("a\r\n é") == error(ParseError("unexpected character 'é'", 2, 2))
    # the first bad character by position, whatever the set order
    assert lexed("a ! é ٣ \" / \\") == lexed_by_oracle("a ! é ٣ \" / \\")


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_tokens_equal_the_oracle(name):
    text = SOURCES[name]
    assert lexed(text) == lexed_by_oracle(text)


def test_tokens_and_errors_equal_the_oracle_on_random_strings():
    strings = random_strings(10_000)
    bad = 0
    for text in strings:
        expected = lexed_by_oracle(text)
        assert lexed(text) == expected, text
        bad += isinstance(expected, tuple)
    assert 1_000 < bad < 9_000  # both outcomes are well represented


def outcome(call):
    try:
        result = call()
    except ParseError as err:
        return error(err)
    return result.text if isinstance(result, Token) else result


def probes(tokens: list[str]) -> list[tuple[str, tuple]]:
    near = sorted(set(tokens))[:2] + ["->", ";", ","]
    return [("peek", ()), ("next", ()), ("done", ())] + [
        (method, (arg,)) for method in ("at", "expect", "maybe") for arg in near
    ] + [(method, (kind,)) for method in ("at_kind", "expect_kind") for kind in ("id", "num", "punct", "string")]


def test_stream_methods_equal_the_oracle_at_every_index():
    texts = list(SOURCES.values()) + [t for t in random_strings(2_000) if not isinstance(lexed_by_oracle(t), tuple)]
    for text in texts:
        new, old = _lexer.TokenStream(text), TokenStream(text)
        for method, args in probes(new.tokens):
            for index in range(len(new.tokens) + 1):
                new.index = old.index = index
                assert outcome(lambda: getattr(new, method)(*args)) == outcome(lambda: getattr(old, method)(*args)), (
                    text,
                    method,
                    args,
                    index,
                )
                assert new.index == old.index


# ---------------------------------------------------------------------------
# parsers over the oracle's tokens


class OracleStream(_lexer.TokenStream):
    """`_lexer.TokenStream` reading the oracle's tokens, kinds and positions."""

    def __init__(self, text: str):
        self.oracle = tokenize(text)
        self.tokens = [t.text for t in self.oracle]
        self.index = 0

    def position(self, index: int) -> tuple[int, int]:
        if not self.oracle:
            return 1, 1
        tok = self.oracle[min(index, len(self.oracle) - 1)]
        return tok.line, tok.column

    def at_kind(self, kind: str) -> bool:
        return self.index < len(self.oracle) and self.oracle[self.index].kind == kind


PARSER_MODULES = (
    protolab.bspl.core,
    protolab.cfp.trace_parser,
    protolab.cfp.scribble_parser,
    protolab.hapn,
    protolab.commitments,
)
PARSERS = {
    ".bspl": (parse_bspl, parse_bspl_file),
    ".trace": (parse_trace,),
    ".scr": (parse_scribble_protocol,),
    ".hapn": (parse_hapn,),
    ".cupid": (parse_cupid,),
}


def parsed(parse, text: str):
    try:
        return parse(text)
    except ParseError as err:
        return error(err)


def token_prefixes(text: str) -> list[str]:
    """The source cut after each token, and before the first."""
    cuts, pos = [0], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        pos = m.end()
        if m.lastgroup not in ("ws", "comment"):
            cuts.append(pos)
    return [text[:cut] for cut in cuts] + [text]


def test_the_oracle_stream_is_patched_in():
    with mock.patch.object(protolab.hapn, "TokenStream", OracleStream):
        with mock.patch.object(OracleStream, "position", lambda self, index: (7, 7)):
            with pytest.raises(ParseError, match=r"line 7, column 7"):
                parse_hapn("machine M\nstate")


@pytest.mark.parametrize("name", sorted(n for n in SOURCES if Path(n).suffix in PARSERS))
def test_parsers_over_the_oracle_tokens_agree_on_every_prefix(name):
    parsers = PARSERS[Path(name).suffix]
    prefixes = token_prefixes(SOURCES[name])
    expected = [parsed(parse, text) for text in prefixes for parse in parsers]
    with contextlib.ExitStack() as stack:
        for module in PARSER_MODULES:
            stack.enter_context(mock.patch.object(module, "TokenStream", OracleStream))
        oracle = [parsed(parse, text) for text in prefixes for parse in parsers]
    assert expected == oracle
    assert any(not isinstance(e, tuple) for e in expected) and any(isinstance(e, tuple) for e in expected)


# ---------------------------------------------------------------------------
# commitment evaluation against instance_views


def replaced_commitment_states(spec, histories, protocol, now):
    """The evaluation before it checked integrity in its own pass."""
    views = instance_views(histories, protocol)  # raises IntegrityConflict on unsound input
    del views
    event_days = _event_days(histories, protocol, now)
    out = []
    for key in sorted(event_days):
        days = event_days[key]
        if spec.create not in days:
            continue
        out.append(_evaluate(spec, key, days, now))
    return tuple(out)


def _event_days(histories, protocol, now):
    by_key = {}
    for h in histories:
        for obs in h.observations:
            if obs.logical_day > now:
                continue
            key = obs.instance.key(protocol)
            days = by_key.setdefault(key, {})
            name = obs.instance.schema.name
            if name not in days or obs.logical_day < days[name]:
                days[name] = obs.logical_day
    return by_key


def evaluated(call):
    try:
        return call()
    except IntegrityConflict as err:
        return ("IntegrityConflict", str(err), err.param, err.values, err.key)


PURCHASE_VALUES = {"item": ("fig", "jam"), "price": ("5", "6"), "decision": ("yes",), "address": ("a", "b")}
PURCHASE_VALUES |= {"dropOff": ("d",), "OK": ("ok", "no")}


def random_histories(rng: random.Random, protocol, instances: int) -> list[History]:
    """Buyer and seller histories over `instances` purchase instances, each
    message observed by its sender and its receiver on random days, with
    values drawn from small pools, so some keys bind a parameter twice."""
    observed = {"Buyer": [], "Seller": []}
    for n in range(instances):
        for schema in rng.sample(protocol.messages, rng.randint(1, len(protocol.messages))):
            values = {p: f"i{n}" if p == "ID" else rng.choice(PURCHASE_VALUES[p]) for p in schema.param_names()}
            mi = MessageInstance.make(schema, values)
            day = rng.randint(0, 12)
            observed[schema.sender].append((day, EMISSION, mi))
            observed[schema.receiver].append((day, RECEPTION, mi))
    histories = []
    for owner, events in observed.items():
        rng.shuffle(events)
        histories.append(History(owner, tuple(Observation(kind, mi, i + 1, day) for i, (day, kind, mi) in enumerate(events))))
    return histories


def test_commitment_states_raise_the_first_conflict_of_instance_views(purchase):
    spec = parse_cupid((FIXTURES / "deliver_payment.cupid").read_text())
    make = lambda name, **values: MessageInstance.make(purchase.message(name), values)  # noqa: E731
    buyer = [
        (EMISSION, make("Request", ID="2", item="fig")),
        (EMISSION, make("Request", ID="1", item="fig")),
        (RECEPTION, make("Offer", ID="2", item="fig", price="5")),
    ]
    seller = [
        (RECEPTION, make("Request", ID="2", item="fig")),
        (EMISSION, make("Offer", ID="2", item="jam", price="5")),  # item conflicts under ID 2
        (EMISSION, make("Offer", ID="1", item="fig", price="5")),
        (EMISSION, make("Offer", ID="1", item="fig", price="6")),  # price conflicts under ID 1
    ]
    for owner_events in itertools.permutations([("Buyer", buyer), ("Seller", seller)]):
        histories = [History(owner, tuple(Observation(k, mi, i + 1) for i, (k, mi) in enumerate(events))) for owner, events in owner_events]
        expected = evaluated(lambda: instance_views(histories, purchase))
        assert expected[0] == "IntegrityConflict" and expected[2] == "price" and expected[4] == (("ID", "1"),)
        assert evaluated(lambda: commitment_states(spec, histories, purchase, now=10)) == expected


def test_commitment_states_equal_the_replaced_evaluation(purchase):
    rng = random.Random(3)
    spec = parse_cupid((FIXTURES / "deliver_payment.cupid").read_text())
    conflicts = 0
    for _ in range(300):
        histories = random_histories(rng, purchase, rng.randint(0, 4))
        now = rng.randint(0, 14)
        expected = evaluated(lambda: replaced_commitment_states(spec, histories, purchase, now))
        assert evaluated(lambda: commitment_states(spec, histories, purchase, now)) == expected
        conflicts += expected[:1] == ("IntegrityConflict",)
    assert 30 < conflicts < 270
