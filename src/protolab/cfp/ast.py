"""Control-flow protocol AST shared by the trace languages and the session
subset: atoms, sequence, choice (with optional decider), shuffle, recursion,
and the atom occurrences (`OccAtom`) of an unrolled expression.

Expressions are immutable; equality is structural.  Payload signatures on
atoms are retained for type-level machinery but ignored by trace semantics.
Every node, global or local, is a frozen dataclass with `__slots__` whose
one constructor sets its fields and its hash (`HashedNode`), so
expressions key dictionaries in O(1) however deep they are, compare
without recursion, and pickle without the per-process hash.

The structural helpers every language's analysis rests on live here, once:
whether an expression accepts the empty trace (`nullable`), which atoms can
begin or end a trace (`initials`, `finals`; the nullable and first sets of
Brzozowski, JACM 1964), the smart constructors `seq`, `choice` and
`shuffle`, `untag`, which turns occurrences back into atoms, `same`,
structural equality walked without recursion, `distinct`, by which global
and local choices drop repeated branches, and `nodes`, the one walk over
the nodes of a global or local expression, which every node query reads.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


class HashedNode:
    """Base of the nodes of both expression kinds, global and local:
    frozen dataclasses with `__slots__`, declared with `@node`.

    One constructor, written by `node`, sets a node's fields and its hash,
    `hash((type(node), *field values))`.  The fields' own hashes are cached
    the same way, so hashing a node costs O(1) and never recurses into a
    deep tree.  The hash sits in a slot, `_hash`, outside the dataclass
    fields, so repr, `fields`, `asdict` and `replace` are as if it were
    not there.  String hashes are salted per process, so a pickle or a
    deep copy leaves it out: both rebuild the node through its
    constructor, which hashes it anew.

    Equality is structural.  It checks identity first, then the cached
    hashes, and walks the operands with `same`'s stack only when both
    agree, so comparing deep nodes never recurses."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and same(self, other)

    def __reduce__(self):
        return type(self), _values(self)


def _values(x: HashedNode) -> tuple:
    """The field values of `x` in field order (`__match_args__` names
    every field of a node)."""
    return tuple(getattr(x, name) for name in x.__match_args__)


# The node types by the operands `nodes` enters: `left` and `right`,
# `branches`, or `body`.  `node` files each type by its field names.
_PAIRS: set[type] = set()
_BRANCHES: set[type] = set()
_BODIES: set[type] = set()


def node(cls):
    """`dataclass(frozen=True, slots=True)` keeping `HashedNode`'s hash and
    equality, with one constructor that writes the fields and the hash
    through their slots (the dataclass one writes each field through
    `object.__setattr__` and would need a `__post_init__` for the hash).
    A `__post_init__` the class defines runs before the hash is taken."""
    cls = dataclass(frozen=True, slots=True, eq=False)(cls)
    names = cls.__match_args__
    namespace = {"cls": cls, "_set_hash": HashedNode._hash.__set__}
    params = ""
    for f in fields(cls):
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params += f", {f.name}"
        else:
            namespace[f"_default_{f.name}"] = f.default
            params += f", {f.name}=_default_{f.name}"
    lines = [f"def __init__(self{params}):"]
    lines += [f"    _set_{name}(self, {name})" for name in names]
    if "__post_init__" in cls.__dict__:
        lines.append("    self.__post_init__()")
    lines.append(f"    _set_hash(self, hash((cls, {''.join(f'{name}, ' for name in names)})))")
    exec("\n".join(lines), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    if "left" in names:
        _PAIRS.add(cls)
    elif "branches" in names:
        _BRANCHES.add(cls)
    elif "body" in names:
        _BODIES.add(cls)
    return cls


class CfpExpr(HashedNode):
    __slots__ = ()


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


@node
class OccAtom(HashedNode):
    """An atom occurrence in an unrolled expression."""

    atom: Atom
    occ: int

    @property
    def label(self) -> tuple[str, str, str]:
        return self.atom.label

    @property
    def sender(self) -> str:
        return self.atom.sender

    @property
    def receiver(self) -> str:
        return self.atom.receiver

    @property
    def name(self) -> str:
        return self.atom.name

    def __str__(self) -> str:
        return f"{self.atom.name}#{self.occ}"


# ---------------------------------------------------------------------------
# structure helpers: each takes Atom and OccAtom leaves alike.  A recursion
# variable counts as a dead end (not nullable, no atoms), which is exact for
# `nullable` and `initials` under guarded recursion.  `finals` is exact on
# recursion-free (expanded) expressions and refuses recursion, where the
# dead-end reading would drop the atoms a loop ends with.


def seq(left: CfpExpr, right: CfpExpr) -> CfpExpr:
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Seq(left, right)


def shuffle(left: CfpExpr, right: CfpExpr) -> CfpExpr:
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Shuffle(left, right)


def choice(branches: list[CfpExpr], decider: str | None = None) -> CfpExpr:
    """A choice among the `distinct` branches, or the one branch left."""
    kept = distinct(branches)
    return kept[0] if len(kept) == 1 else Choice(tuple(kept), decider)


def distinct(nodes) -> list:
    """The nodes, global or local, without repeats, in order of first
    occurrence.  Node equality checks the cached hashes before it walks,
    and never recurses."""
    return list(dict.fromkeys(nodes))


def same(a, b) -> bool:
    """`a == b` for expressions, the walk node equality runs: with a
    stack, so a deep expression costs no Python stack.  Nodes whose cached
    hashes differ are unequal at once."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, HashedNode):
            if x._hash != y._hash:
                return False
            stack += zip(_values(x), _values(y))
        elif isinstance(x, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def untag(e: CfpExpr) -> CfpExpr:
    """The expression with every OccAtom replaced by its atom."""
    if isinstance(e, OccAtom):
        return e.atom
    if isinstance(e, Seq):
        return Seq(untag(e.left), untag(e.right))
    if isinstance(e, Shuffle):
        return Shuffle(untag(e.left), untag(e.right))
    if isinstance(e, Choice):
        return Choice(tuple(untag(b) for b in e.branches), e.decider)
    return e


def nullable(e: CfpExpr) -> bool:
    """Whether the empty trace is a trace of `e`."""
    if isinstance(e, Epsilon):
        return True
    if isinstance(e, (Atom, OccAtom, Var)):
        return False
    if isinstance(e, (Seq, Shuffle)):
        return nullable(e.left) and nullable(e.right)
    if isinstance(e, Choice):
        return any(nullable(b) for b in e.branches)
    if isinstance(e, Rec):
        return nullable(e.body)
    raise TypeError(type(e))


def initials(e: CfpExpr) -> tuple:
    """The distinct atoms that can begin a trace of `e`, in order of first
    occurrence."""
    out: list = []
    _ends(e, out, True)
    return tuple(out)


def finals(e: CfpExpr) -> tuple:
    """The distinct atoms that can end a trace of `e`, in order of first
    occurrence, right operands of a sequence first.  Raises ValueError when
    the walk meets a recursion: expand the expression first."""
    out: list = []
    _ends(e, out, False)
    return tuple(out)


def _ends(e: CfpExpr, out: list, first: bool) -> None:
    """Append to `out` the atoms not yet in it that can begin (`first`) or
    end a trace of `e`."""
    if isinstance(e, (Atom, OccAtom)):
        if e not in out:
            out.append(e)
    elif isinstance(e, Seq):
        near, far = (e.left, e.right) if first else (e.right, e.left)
        _ends(near, out, first)
        if nullable(near):
            _ends(far, out, first)
    elif isinstance(e, Choice):
        for b in e.branches:
            _ends(b, out, first)
    elif isinstance(e, Shuffle):
        _ends(e.left, out, first)
        _ends(e.right, out, first)
    elif isinstance(e, (Rec, Var)) and not first:
        raise ValueError("finals needs a recursion-free expression; expand it first")
    elif isinstance(e, Rec):
        _ends(e.body, out, first)
    elif not isinstance(e, (Epsilon, Var)):
        raise TypeError(type(e))


def atoms(e: CfpExpr) -> list[Atom]:
    """The atoms of `e` in order, an occurrence as its atom, read from
    `nodes`: a subterm shared by several parents (see `eliminate_shuffle`)
    is read once, and the first occurrences come in the order the unfolded
    tree gives them."""
    return [x.atom if isinstance(x, OccAtom) else x for x in nodes(e) if isinstance(x, (Atom, OccAtom))]


def roles(e: CfpExpr) -> tuple[str, ...]:
    """The roles of `e` in order of first occurrence, each atom's sender
    before its receiver."""
    return tuple(dict.fromkeys(r for a in atoms(e) for r in (a.sender, a.receiver)))


def nodes(e, enter=None):
    """Every node of `e`, global or local, in pre-order, left operand first.
    The walk reads the operands both kinds name alike (`left`, `right`,
    `branches`, `body`), chosen by the node's type, with a stack, and
    enters each node object once: a node met again is yielded but not
    entered.  It does not enter a node at which `enter` is false."""
    entered: set[int] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        kind = type(x)
        if kind in _PAIRS:
            operands = (x.right, x.left)
        elif kind in _BRANCHES:
            operands = x.branches[::-1]
        elif kind in _BODIES:
            operands = (x.body,)
        else:
            continue
        if id(x) not in entered and (enter is None or enter(x)):
            entered.add(id(x))
            stack += operands


def has_shuffle(e: CfpExpr) -> bool:
    return any(isinstance(x, Shuffle) for x in nodes(e))


def has_rec(e: CfpExpr) -> bool:
    return any(isinstance(x, Rec) for x in nodes(e))


def occurs_free(e, var: str) -> bool:
    """Whether the recursion variable `var` occurs free in `e`, global or
    local: a variable named `var` outside every recursion that binds it."""
    return any(
        getattr(x, "var", None) == var and not hasattr(x, "body")
        for x in nodes(e, lambda x: getattr(x, "var", None) != var)
    )


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
