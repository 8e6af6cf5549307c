"""Parser for the ASCII trace-expression syntax (.trace files).

Grammar, loosest to tightest: shuffle `/\\` (or `|`), choice `\\/`,
sequence `;` (right-associative), then atoms `A -> B : Msg(sig)`,
parenthesized groups, `eps`, Kleene star suffix `*`, and recursion
variables.  Named definitions `P = expr` precede the root expression;
a definition may reference itself (recursion) or earlier definitions
(inlined).  The final definition doubles as the root when no trailing
expression is present.  A role does not send a message to itself: such an
atom is a parse error, reported at its sender.
"""

from __future__ import annotations

from .._lexer import TokenStream
from ..diagnostics import ParseError
from .ast import Atom, CfpExpr, Choice, Epsilon, Rec, Seq, Shuffle, Var, choice, occurs_free


def parse_trace(text: str) -> CfpExpr:
    parser = _TraceParser(text)
    return parser.parse()


class _TraceParser:
    def __init__(self, text: str):
        self.ts = TokenStream(text)
        self.defs: dict[str, CfpExpr] = {}
        self.star_count = 0

    def parse(self) -> CfpExpr:
        root: CfpExpr | None = None
        order: list[str] = []
        while not self.ts.done():
            if self._at_definition():
                name = self.ts.next()
                self.ts.expect("=")
                body = self._shuffle(bound={name})
                self.defs[name] = Rec(name, body) if occurs_free(body, name) else body
                order.append(name)
            else:
                if root is not None:
                    raise self.ts.error("multiple root expressions")
                root = self._shuffle(bound=set())
        if root is None:
            if not order:
                raise ParseError("empty trace expression", 1, 1)
            root = self.defs[order[-1]]
        return root

    def _at_definition(self) -> bool:
        ts = self.ts
        return ts.at_kind("id") and ts.index + 1 < len(ts.tokens) and ts.tokens[ts.index + 1] == "="

    # precedence: shuffle < choice < seq
    def _shuffle(self, bound: set[str]) -> CfpExpr:
        left = self._choice(bound)
        while self.ts.at_kind("shuffle"):
            self.ts.next()
            left = Shuffle(left, self._choice(bound))
        return left

    def _choice(self, bound: set[str]) -> CfpExpr:
        branches = [self._seq(bound)]
        while self.ts.at_kind("choice"):
            self.ts.next()
            branches.append(self._seq(bound))
        return choice(branches)

    def _seq(self, bound: set[str]) -> CfpExpr:
        left = self._postfix(bound)
        if self.ts.maybe(";"):
            return Seq(left, self._seq(bound))
        return left

    def _postfix(self, bound: set[str]) -> CfpExpr:
        e = self._primary(bound)
        while self.ts.at("*"):
            self.ts.next()
            var = f"_star{self.star_count}"
            self.star_count += 1
            e = Rec(var, Choice((Seq(e, Var(var)), Epsilon()), None))
        return e

    def _primary(self, bound: set[str]) -> CfpExpr:
        if self.ts.maybe("("):
            e = self._shuffle(bound)
            self.ts.expect(")")
            return e
        tok = self.ts.expect_kind("id")
        if tok == "eps":
            return Epsilon()
        if tok == "rec" and self.ts.at_kind("id"):
            var = self.ts.expect_kind("id")
            self.ts.expect("(")
            body = self._shuffle(bound | {var})
            self.ts.expect(")")
            return Rec(var, body)
        if self.ts.at("->"):
            return self._atom_tail(tok)
        if tok in bound:
            return Var(tok)
        if tok in self.defs:
            return self.defs[tok]
        raise self.ts.error(f"unbound recursion variable {tok!r}", self.ts.index - 1)

    def _atom_tail(self, sender: str) -> CfpExpr:
        at = self.ts.index - 1
        self.ts.expect("->")
        receiver = self.ts.expect_kind("id")
        self.ts.expect(":")
        name = self.ts.expect_kind("id")
        if receiver == sender:
            raise self.ts.error(f"message {name} has sender == receiver", at)
        payload: list[tuple[str | None, str | None]] = []
        if self.ts.maybe("("):
            while not self.ts.at(")"):
                first = self.ts.expect_kind("id")
                if self.ts.maybe(":"):
                    ptype = self.ts.expect_kind("id")
                    payload.append((first, ptype))
                else:
                    payload.append((first, None))
                if not self.ts.at(")"):
                    self.ts.expect(",")
            self.ts.expect(")")
        return Atom(sender, receiver, name, tuple(payload))
