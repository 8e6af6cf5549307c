"""The tokenizer shared by the surface-syntax parsers.

All five file formats tokenize the same way: identifiers, numbers,
punctuation, quoted strings, `//` line comments.  One regex pass gives
the token texts; each distinct text's kind is read once; line and column
are worked out from the source only for a `ParseError` (one rescan).
Parsers consume a `TokenStream`, whose methods return token texts.
"""

from __future__ import annotations

import re

from .diagnostics import ParseError

# Token kinds and their patterns, tried in this order.  Identifiers may
# embed + and - (protocol names like Want+WillPay or Deliver-Payment) but
# only when followed by an alphanumeric, so that `A->B` still lexes as
# `A`, `->`, `B`.
_KINDS = (
    ("id", r"[A-Za-z_][A-Za-z0-9_]*(?:[+\-][A-Za-z0-9_]+)*"),
    ("num", r"\d+"),
    ("string", r'"[^"\n]*"'),
    ("arrow", r"->"),
    ("shuffle", r"/\\|\|"),
    ("choice", r"\\/"),
    ("punct", r"[{}()\[\],:;=*.@$+%-]|[?!]"),
)
# Whitespace and comments match with an empty group; any other character
# that starts no token is a token of its own, with no kind.
_SCAN_RE = re.compile(r"\s+|//[^\n]*|(" + "|".join(pattern for _, pattern in _KINDS) + r"|.)", re.DOTALL)
_KIND_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _KINDS))


def _kind(text: str) -> str | None:
    m = _KIND_RE.fullmatch(text)
    return m.lastgroup if m else None


class TokenStream:
    """The tokens of `text` and a cursor `index` into them."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = list(filter(None, _SCAN_RE.findall(text)))
        self.index = 0
        self._kinds = {token: _kind(token) for token in set(self.tokens)}
        self._offsets: list[int] | None = None
        if None in self._kinds.values():
            at = next(i for i, token in enumerate(self.tokens) if self._kinds[token] is None)
            raise self.error(f"unexpected character {self.tokens[at]!r}", at)

    def position(self, index: int) -> tuple[int, int]:
        """Line and column of token `index`, or of the last token past the
        end (1, 1 when there is none).  Lines count only newlines."""
        if not self.tokens:
            return 1, 1
        if self._offsets is None:
            self._offsets = [m.start(1) for m in _SCAN_RE.finditer(self.text) if m.start(1) >= 0]
        start = self._offsets[min(index, len(self.tokens) - 1)]
        return self.text.count("\n", 0, start) + 1, start - self.text.rfind("\n", 0, start)

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A `ParseError` at token `index` (by default the current one)."""
        return ParseError(message, *self.position(self.index if index is None else index))

    def peek(self) -> str | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def at(self, text: str) -> bool:
        return self.index < len(self.tokens) and self.tokens[self.index] == text

    def at_kind(self, kind: str) -> bool:
        return self.index < len(self.tokens) and self._kinds[self.tokens[self.index]] == kind

    def next(self) -> str:
        if self.index >= len(self.tokens):
            raise self.error("unexpected end of input")
        self.index += 1
        return self.tokens[self.index - 1]

    def expect(self, text: str) -> str:
        if not self.at(text):
            raise self._fail(f"expected {text!r}")
        self.index += 1
        return text

    def expect_kind(self, kind: str) -> str:
        if not self.at_kind(kind):
            raise self._fail(f"expected {kind}")
        self.index += 1
        return self.tokens[self.index - 1]

    def maybe(self, text: str) -> bool:
        if self.at(text):
            self.index += 1
            return True
        return False

    def done(self) -> bool:
        return self.index >= len(self.tokens)

    def _fail(self, message: str) -> ParseError:
        if self.index >= len(self.tokens):
            return self.error(f"{message}, found end of input")
        return self.error(f"{message}, found {self.tokens[self.index]!r}")
