"""Control-flow protocol AST shared by the trace languages and the session
subset: atoms, sequence, choice (with optional decider), shuffle, recursion.

Expressions are immutable; equality is structural.  Payload signatures on
atoms are retained for type-level machinery but ignored by trace semantics.
Every node caches its hash at construction (`HashedNode`), so expressions
key dictionaries in O(1) however deep they are.
"""

from __future__ import annotations

from dataclasses import dataclass


class HashedNode:
    """Base for frozen dataclass nodes that cache their hash; declare them
    with `@node`.

    The hash is computed once, at construction, from the fields, whose own
    hashes are cached the same way: hashing a node costs O(1) and never
    recurses into a deep tree.  It is kept outside the dataclass fields, so
    repr, equality, `fields` and `asdict` are as if it were not there.
    String hashes are salted per process, so a pickle leaves it out."""

    def __post_init__(self) -> None:
        self.__dict__["_hash"] = hash((type(self), *self.__dict__.values()))

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:  # unpickled or copied
            self.__post_init__()
            cached = self.__dict__["_hash"]
        return cached

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def node(cls):
    """`dataclass(frozen=True)` keeping `HashedNode`'s hash, which
    `dataclass` would otherwise replace."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = HashedNode.__hash__
    return cls


class CfpExpr(HashedNode):
    pass


@node
class Atom(CfpExpr):
    sender: str
    receiver: str
    name: str
    payload: tuple[tuple[str | None, str | None], ...] = ()  # (param name, type) pairs

    @property
    def label(self) -> tuple[str, str, str]:
        return (self.sender, self.receiver, self.name)

    def __str__(self) -> str:
        sig = ""
        if self.payload:
            parts = []
            for pname, ptype in self.payload:
                if pname and ptype:
                    parts.append(f"{pname}:{ptype}")
                else:
                    parts.append(pname or ptype or "_")
            sig = "(" + ", ".join(parts) + ")"
        return f"{self.sender} -> {self.receiver} : {self.name}{sig}"


@node
class Seq(CfpExpr):
    left: CfpExpr
    right: CfpExpr


@node
class Choice(CfpExpr):
    branches: tuple[CfpExpr, ...]
    decider: str | None = None

    def __post_init__(self):
        if len(self.branches) < 2:
            raise ValueError("Choice needs at least two branches")
        super().__post_init__()


@node
class Shuffle(CfpExpr):
    left: CfpExpr
    right: CfpExpr


@node
class Rec(CfpExpr):
    var: str
    body: CfpExpr


@node
class Var(CfpExpr):
    var: str


@node
class Epsilon(CfpExpr):
    pass


EPSILON = Epsilon()


@dataclass(frozen=True)
class GlobalTrace:
    events: tuple[tuple[str, str, str], ...]  # (sender, receiver, name)

    def __str__(self) -> str:
        return " . ".join(name for _, _, name in self.events) if self.events else "<empty>"


# ---------------------------------------------------------------------------
# structure helpers


def seq(left: CfpExpr, right: CfpExpr) -> CfpExpr:
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Seq(left, right)


def choice(branches: list[CfpExpr], decider: str | None = None) -> CfpExpr:
    seen: list[CfpExpr] = []
    for b in branches:
        if b not in seen:
            seen.append(b)
    if len(seen) == 1:
        return seen[0]
    return Choice(tuple(seen), decider)


def nullable(e: CfpExpr, env: dict[str, bool] | None = None) -> bool:
    env = env or {}
    if isinstance(e, Epsilon):
        return True
    if isinstance(e, Atom):
        return False
    if isinstance(e, Seq):
        return nullable(e.left, env) and nullable(e.right, env)
    if isinstance(e, Choice):
        return any(nullable(b, env) for b in e.branches)
    if isinstance(e, Shuffle):
        return nullable(e.left, env) and nullable(e.right, env)
    if isinstance(e, Rec):
        # a recursion is nullable iff its body is, treating back-references
        # as non-nullable (they only repeat the body)
        return nullable(e.body, {**env, e.var: False})
    if isinstance(e, Var):
        return env.get(e.var, False)
    raise TypeError(type(e))


def initials(e: CfpExpr, env: dict[str, tuple] | None = None):
    """Atoms that can begin a trace of `e` (Epsilon-aware)."""
    env = env or {}
    if isinstance(e, (Epsilon,)):
        return ()
    if isinstance(e, Atom):
        return (e,)
    if isinstance(e, Seq):
        first = initials(e.left, env)
        if nullable(e.left):
            first = first + tuple(a for a in initials(e.right, env) if a not in first)
        return first
    if isinstance(e, Choice):
        out: list[Atom] = []
        for b in e.branches:
            for a in initials(b, env):
                if a not in out:
                    out.append(a)
        return tuple(out)
    if isinstance(e, Shuffle):
        left = initials(e.left, env)
        return left + tuple(a for a in initials(e.right, env) if a not in left)
    if isinstance(e, Rec):
        if e.var in env:
            return env[e.var]
        env2 = {**env, e.var: ()}
        return initials(e.body, env2)
    if isinstance(e, Var):
        return env.get(e.var, ())
    raise TypeError(type(e))


def finals(e: CfpExpr, env: dict[str, tuple] | None = None):
    """Atoms that can end a trace of `e`."""
    env = env or {}
    if isinstance(e, Epsilon):
        return ()
    if isinstance(e, Atom):
        return (e,)
    if isinstance(e, Seq):
        last = finals(e.right, env)
        if nullable(e.right):
            last = last + tuple(a for a in finals(e.left, env) if a not in last)
        return last
    if isinstance(e, Choice):
        out: list[Atom] = []
        for b in e.branches:
            for a in finals(b, env):
                if a not in out:
                    out.append(a)
        return tuple(out)
    if isinstance(e, Shuffle):
        left = finals(e.left, env)
        return left + tuple(a for a in finals(e.right, env) if a not in left)
    if isinstance(e, Rec):
        if e.var in env:
            return env[e.var]
        return finals(e.body, {**env, e.var: ()})
    if isinstance(e, Var):
        return env.get(e.var, ())
    raise TypeError(type(e))


def atoms(e: CfpExpr) -> list[Atom]:
    if isinstance(e, Atom):
        return [e]
    if isinstance(e, (Seq, Shuffle)):
        return atoms(e.left) + atoms(e.right)
    if isinstance(e, Choice):
        return [a for b in e.branches for a in atoms(b)]
    if isinstance(e, Rec):
        return atoms(e.body)
    return []


def roles(e: CfpExpr) -> tuple[str, ...]:
    out: list[str] = []
    for a in atoms(e):
        for r in (a.sender, a.receiver):
            if r not in out:
                out.append(r)
    return tuple(out)


def has_shuffle(e: CfpExpr) -> bool:
    if isinstance(e, Shuffle):
        return True
    if isinstance(e, Seq):
        return has_shuffle(e.left) or has_shuffle(e.right)
    if isinstance(e, Choice):
        return any(has_shuffle(b) for b in e.branches)
    if isinstance(e, Rec):
        return has_shuffle(e.body)
    return False


def has_rec(e: CfpExpr) -> bool:
    if isinstance(e, Rec):
        return True
    if isinstance(e, (Seq, Shuffle)):
        return has_rec(e.left) or has_rec(e.right)
    if isinstance(e, Choice):
        return any(has_rec(b) for b in e.branches)
    return False


# ---------------------------------------------------------------------------
# canonical printing

_PREC_SHUFFLE, _PREC_CHOICE, _PREC_SEQ, _PREC_ATOM = 0, 1, 2, 3


def print_cfp(e: CfpExpr) -> str:
    return _print(e, _PREC_SHUFFLE) + "\n"


def _as_star(e: Rec) -> CfpExpr | None:
    """Recognize star-desugared recursion, Rec(_star<i>, Choice(Seq(body,
    Var), eps)), so `(e)*` survives a print/parse round trip."""
    if not e.var.startswith("_star"):
        return None
    b = e.body
    if not (isinstance(b, Choice) and len(b.branches) == 2):
        return None
    loop, exit_ = b.branches
    if not isinstance(exit_, Epsilon):
        return None
    if isinstance(loop, Seq) and loop.right == Var(e.var) and not has_rec(loop.left):
        return _Star(loop.left)
    return None


@node
class _Star(CfpExpr):
    body: CfpExpr


def _print(e: CfpExpr, min_power: int) -> str:
    """Print with binding powers atom=3 > seq=2 > choice=1 > shuffle=0,
    parenthesizing whenever the node binds looser than the context demands."""
    if isinstance(e, Epsilon):
        return "eps"
    if isinstance(e, Atom):
        return str(e)
    if isinstance(e, Var):
        return e.var
    if isinstance(e, Rec):
        star = _as_star(e)
        if star is not None:
            return f"({_print(star.body, _PREC_SHUFFLE)})*"
        return f"rec {e.var} ({_print(e.body, _PREC_SHUFFLE)})"
    if isinstance(e, Seq):
        text = f"{_print(e.left, _PREC_ATOM)} ; {_print(e.right, _PREC_SEQ)}"
        power = _PREC_SEQ
    elif isinstance(e, Choice):
        text = " \\/ ".join(_print(b, _PREC_SEQ) for b in e.branches)
        power = _PREC_CHOICE
    elif isinstance(e, Shuffle):
        text = f"{_print(e.left, _PREC_CHOICE)} /\\ {_print(e.right, _PREC_CHOICE)}"
        power = _PREC_SHUFFLE
    else:
        raise TypeError(type(e))
    return f"({text})" if power < min_power else text
