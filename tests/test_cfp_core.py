import copy
import dataclasses
import pickle
import random

import pytest

from protolab.cfp.ast import (
    EPSILON,
    Atom,
    Choice,
    Epsilon,
    GlobalTrace,
    OccAtom,
    Rec,
    Seq,
    Shuffle,
    Var,
    choice,
    finals,
    has_rec,
    has_shuffle,
    initials,
    nullable,
    occurs_free,
    print_cfp,
    roles,
    same,
)
from protolab.cfp.projection import L_EPSILON, RECV, SEND, ChoiceKind, LAtom, LChoice, LRec, LSeq, LShuffle, LVar
from protolab.cfp.scribble_parser import parse_scribble, parse_scribble_protocol, print_scribble
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import derivatives, eliminate_shuffle, enumerate_traces, expand, expand_plain, occ_traces
from protolab.diagnostics import ParseError
from protolab.matrix import fixture_text
from protolab.realizability import _infer_deciders

from generators import random_cfp, random_scribble, random_shuffle_expr


def atom(s, r, m):
    return Atom(s, r, m)


def test_parse_trace_purchase_shape():
    e = parse_trace(fixture_text("purchase.trace"))
    assert isinstance(e, Seq)
    assert e.left == atom("Buyer", "Seller", "Request")
    assert isinstance(e.right, Seq)
    assert e.right.left == atom("Seller", "Buyer", "Offer")
    tail = e.right.right
    assert isinstance(tail, Choice) and len(tail.branches) == 2
    accept_branch, reject_branch = tail.branches
    assert isinstance(accept_branch, Seq)
    assert reject_branch == atom("Buyer", "Seller", "Reject")


def test_parse_single_atom():
    assert parse_trace("A -> B : hello") == atom("A", "B", "hello")


def test_parse_precedence_seq_tighter_than_choice():
    e = parse_trace("A -> B : a ; B -> A : b \\/ A -> B : c ; B -> A : d")
    assert isinstance(e, Choice)
    assert all(isinstance(b, Seq) for b in e.branches)


def test_parse_precedence_choice_tighter_than_shuffle():
    e = parse_trace("A -> B : a \\/ A -> B : b /\\ A -> B : c")
    assert isinstance(e, Shuffle)
    assert isinstance(e.left, Choice)


def test_pipe_is_shuffle_alias():
    assert parse_trace("A -> B : a | B -> C : b") == parse_trace("A -> B : a /\\ B -> C : b")


def test_unbound_variable_rejected():
    with pytest.raises(ParseError):
        parse_trace("A -> B : a ; Q")


def test_named_definition_becomes_rec():
    e = parse_trace("P = A -> B : a ; P")
    assert e == Rec("P", Seq(atom("A", "B", "a"), Var("P")))


def test_parse_scribble_purchase_matches_trace_modulo_decider():
    body = parse_scribble(fixture_text("purchase.scr"))
    trace = parse_trace(fixture_text("purchase.trace"))

    def strip(e):
        if isinstance(e, Seq):
            return Seq(strip(e.left), strip(e.right))
        if isinstance(e, Choice):
            return Choice(tuple(strip(b) for b in e.branches), None)
        if isinstance(e, Rec):
            return Rec(e.var, strip(e.body))
        if isinstance(e, Atom):
            return Atom(e.sender, e.receiver, e.name)
        return e

    assert strip(body) == trace
    choice = body.right.right
    assert isinstance(choice, Choice) and choice.decider == "Buyer"


def test_parse_scribble_single_message():
    p = parse_scribble_protocol("global protocol One(role A, role B) { Ping() from A to B; }")
    assert p.body == Atom("A", "B", "Ping")


def test_parse_scribble_recursive_pricing():
    body = parse_scribble(fixture_text("concurrent_pricing.scr"))
    assert isinstance(body, Rec)
    assert isinstance(body.body, Seq)
    first = body.body.left
    assert first.name == "Request" and first.payload == (("ID", "String"), ("item", "String"))
    rest = body.body.right
    assert rest.left.name == "Offer" and rest.left.payload == (("ID", "String"), ("price", "String"))
    assert rest.right == Var("_self")


def test_scribble_rejects_decider_not_sending_first():
    bad = """
    global protocol Bad(role A, role B) {
      choice at A {
        Go() from A to B;
      } or {
        Stop() from B to A;
      }
    }
    """
    with pytest.raises(ParseError):
        parse_scribble(bad)


def test_eliminate_shuffle_flexible_purchase_matches_choice_form():
    flex = parse_trace(fixture_text("flexible_purchase.trace"))
    eliminated = eliminate_shuffle(flex)
    payment = atom("Buyer", "Seller", "Payment")
    shipment = atom("Seller", "Buyer", "Shipment")
    expected = Seq(
        atom("Buyer", "Seller", "Request"),
        Choice((Seq(payment, shipment), Seq(shipment, payment))),
    )
    assert eliminated == expected


def test_eliminate_shuffle_unit():
    e = Shuffle(atom("A", "B", "a"), Epsilon())
    assert eliminate_shuffle(e) == atom("A", "B", "a")


def test_eliminate_shuffle_preserves_traces_random():
    rng = random.Random(11)
    for _ in range(100):
        e = random_shuffle_expr(rng)
        assert set(enumerate_traces(e, 6)) == set(enumerate_traces(eliminate_shuffle(e), 6))


def _subterms(e):
    if isinstance(e, (Seq, Shuffle)):
        return [e, *_subterms(e.left), *_subterms(e.right)]
    if isinstance(e, Choice):
        return [e, *(x for b in e.branches for x in _subterms(b))]
    return [e]


def test_structural_helpers_match_trace_semantics_random():
    """On every subterm of an expanded expression and of its shuffle-free
    form (where one occurrence can end several branches), `nullable`,
    `initials` and `finals` agree with its occurrence-level traces, and the
    atom lists hold no duplicate.  Every subterm has a trace: no expression
    denotes the empty language, which `first_repeat` relies on."""
    rng = random.Random(29)
    checked = 0
    for case in range(300):
        e = random_cfp(rng, 3) if case % 2 else random_shuffle_expr(rng)
        expanded = expand(e, 2)
        for x in dict.fromkeys(_subterms(expanded) + _subterms(eliminate_shuffle(expanded))):
            traces = set(occ_traces(x))
            assert traces
            firsts, lasts = initials(x), finals(x)
            assert nullable(x) == (() in traces)
            assert set(firsts) == {t[0] for t in traces if t}
            assert set(lasts) == {t[-1] for t in traces if t}
            assert len(set(firsts)) == len(firsts) and len(set(lasts)) == len(lasts)
            checked += 1
    assert checked > 4000


def test_roles_read_occurrences_random():
    """An expression, its expansion and the expansion's shuffle-free form
    list the same roles in the same order."""
    rng = random.Random(31)
    for case in range(300):
        e = random_cfp(rng, 3) if case % 2 else random_shuffle_expr(rng)
        expanded = expand(e, 2)
        assert roles(expanded) == roles(eliminate_shuffle(expanded)) == roles(e) != ()


def test_structural_helpers_on_recursion():
    a, b = atom("A", "B", "a"), atom("B", "A", "b")
    loop = Rec("X", Choice((Seq(a, Var("X")), Epsilon())))
    assert nullable(loop) and initials(loop) == (a,)
    assert not nullable(Seq(loop, b)) and initials(Seq(loop, b)) == (a, b)
    # a recursion variable is a dead end: not nullable, no initial atoms
    assert not nullable(Var("X")) and initials(Var("X")) == ()
    # an inner recursion reusing the outer one's variable starts with its own body
    assert initials(Rec("X", Rec("X", Seq(b, Var("X"))))) == (b,)


def deep_chain(n, last):
    """`n` atoms in a right-nested sequence ending with `last`, built
    without the parser."""
    e = last
    for i in range(n):
        e = Seq(atom("A", "B", f"m{i}"), e)
    return e


def test_tree_queries_walk_a_10000_deep_chain():
    plain = deep_chain(10_000, atom("B", "A", "end"))
    assert not has_rec(plain) and not has_shuffle(plain) and not occurs_free(plain, "X")
    loop = deep_chain(10_000, Var("X"))
    assert occurs_free(loop, "X") and not occurs_free(loop, "Y")
    assert has_rec(Rec("X", loop)) and not occurs_free(Rec("X", loop), "X")
    assert has_rec(deep_chain(10_000, Rec("X", loop))) and not has_shuffle(loop)
    assert has_shuffle(deep_chain(10_000, Shuffle(atom("A", "B", "a"), atom("B", "A", "b"))))
    # the local form, whose nodes name their operands alike
    local = LVar("X")
    for i in range(10_000):
        local = LSeq(LAtom("B", f"m{i}", SEND), local)
    assert occurs_free(local, "X") and not occurs_free(LRec("X", local), "X")


def test_finals_refuses_recursion():
    """Read as a dead end, a loop would end nothing: `finals` of
    rec X (A -> B : a ; X \\/ eps) would be () although every non-empty
    trace ends with a.  So `finals` raises wherever its walk meets a
    recursion, and is exact once the loop is expanded."""
    a, b = atom("A", "B", "a"), atom("B", "A", "b")
    loop = parse_trace("rec X (A -> B : a ; X \\/ eps)")
    for e in (loop, Var("X"), Seq(b, loop)):
        with pytest.raises(ValueError, match="recursion-free"):
            finals(e)
    assert initials(loop) == (a,) and initials(Seq(b, loop)) == (b,)
    # a recursion the walk does not reach is no obstacle
    assert finals(Seq(loop, b)) == (b,)
    assert finals(expand_plain(loop, 2)) == (a,)


def test_enumerate_purchase_two_traces():
    traces = enumerate_traces(parse_trace(fixture_text("purchase.trace")), 1)
    names = {tuple(name for _, _, name in t.events) for t in traces}
    assert names == {
        ("Request", "Offer", "Accept", "Deliver", "Payment"),
        ("Request", "Offer", "Reject"),
    }


def test_enumerate_epsilon():
    assert enumerate_traces(Epsilon(), 3) == (GlobalTrace(()),)


def test_enumerate_star_hand_expansion():
    # (Request ; Offer)* at bound 2: empty, one iteration, two iterations
    traces = enumerate_traces(parse_trace(fixture_text("concurrent_pricing_star.trace")), 2)
    names = {tuple(name for _, _, name in t.events) for t in traces}
    assert names == {(), ("Request", "Offer"), ("Request", "Offer", "Request", "Offer")}


def test_enumerate_traces_deterministic_order():
    e = parse_trace(fixture_text("purchase.trace"))
    assert enumerate_traces(e, 2) == enumerate_traces(e, 2)


def test_every_trace_event_has_distinct_endpoints():
    rng = random.Random(3)
    for _ in range(50):
        e = random_cfp(rng, depth=3)
        for t in enumerate_traces(e, 2):
            assert all(s != r for s, r, _ in t.events)


def test_trace_roundtrip_fixture_files():
    for name in ("purchase.trace", "flexible_purchase.trace", "want_willpay.trace", "indirect_payment.trace"):
        e = parse_trace(fixture_text(name))
        assert parse_trace(print_cfp(e)) == e


def test_trace_roundtrip_random():
    rng = random.Random(23)
    for _ in range(100):
        e = random_cfp(rng, depth=3)
        assert parse_trace(print_cfp(e)) == e


def test_scribble_roundtrip_random():
    rng = random.Random(29)
    for _ in range(100):
        p = random_scribble(rng)
        assert parse_scribble_protocol(print_scribble(p)) == p


def test_star_desugars_and_reprints():
    e = parse_trace("(A -> B : a)*")
    text = print_cfp(e)
    assert "*" in text
    assert parse_trace(text) == e


def test_expand_plain_bounds_recursion():
    e = parse_trace("P = A -> B : a ; P")
    expanded = expand_plain(e, 3)
    traces = enumerate_traces(expanded, 1)
    assert {len(t.events) for t in traces} == {3}


def test_mixed_recursion_under_shuffle_parses_with_diagnostic():
    # a recursion variable as a shuffle operand is accepted but flagged
    from protolab.cfp.transforms import analyze

    e = parse_trace("P = (A -> B : Request ; B -> A : Offer) /\\ P")
    assert isinstance(e, Rec)
    diagnostics = analyze(e)
    assert len(diagnostics) == 1
    assert diagnostics[0].code == "NonstandardRecursion"
    assert analyze(parse_trace(fixture_text("purchase.trace"))) == []


def test_scribble_rejects_branches_sharing_first_event():
    bad = """
    global protocol Clash(role A, role B) {
      choice at A {
        Go() from A to B;
        Left() from A to B;
      } or {
        Go() from A to B;
        Right() from A to B;
      }
    }
    """
    with pytest.raises(ParseError):
        parse_scribble(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "global protocol P(role A, role B) {\n  M() from A to B;\n  choice at A {\n    N() from A to B;\n",
            "unexpected end of protocol (line 4, column 20)",
        ),
        ("global protocol P(role A, role B) {", "unexpected end of protocol (line 1, column 35)"),
        ("global protocol P(role A, role B) {\n  M() from A to C;\n}", "unknown role 'C' (line 2, column 17)"),
    ],
)
def test_scribble_errors_name_their_position(text, message):
    # a truncated block is reported at its last token, as the end of input is
    with pytest.raises(ParseError) as err:
        parse_scribble(text)
    assert str(err.value) == message


def test_eliminate_shuffle_size_within_factorial_bound():
    import math

    from protolab.cfp.ast import Atom, Shuffle, atoms

    # up to three shuffle operands: atom occurrences stay within n! * n
    for n, expr in [
        (2, Shuffle(Atom("A", "B", "x"), Atom("B", "C", "y"))),
        (3, Shuffle(Shuffle(Atom("A", "B", "x"), Atom("B", "C", "y")), Atom("C", "A", "z"))),
    ]:
        eliminated = eliminate_shuffle(expr)
        assert len(atoms(eliminated)) <= math.factorial(n) * n


def test_same_is_structural_equality():
    rng = random.Random(7)
    pool = [random_cfp(rng, depth=2) for _ in range(60)]
    pool += [expand(e, 2) for e in pool[:20]]  # occurrence leaves
    pool += [copy.deepcopy(e) for e in pool[:40]]  # equal, not identical, hash not cached
    for a in pool:
        for b in pool:
            assert same(a, b) == (a == b)


def test_choice_drops_repeated_branches_in_first_occurrence_order():
    rng = random.Random(11)
    for _ in range(300):
        branches = [random_cfp(rng, depth=rng.randint(0, 2)) for _ in range(rng.randint(1, 5))]
        branches += [copy.deepcopy(b) for b in rng.sample(branches, rng.randint(0, len(branches)))]
        rng.shuffle(branches)
        distinct = []
        for b in branches:
            if b not in distinct:
                distinct.append(b)
        assert choice(branches, "A") == (distinct[0] if len(distinct) == 1 else Choice(tuple(distinct), "A"))


def test_choice_between_deep_chains_compares_without_recursion():
    def chain(last: str):
        e = Atom("A", "B", last)
        for i in range(5000):
            e = Seq(Atom("A", "B", f"m{i}"), e)
        return e

    first, again, other = chain("z"), chain("z"), chain("y")
    assert same(first, again) and not same(first, other)
    deduped = choice([first, again, other, first])
    assert isinstance(deduped, Choice) and len(deduped.branches) == 2
    assert deduped.branches[0] is first and deduped.branches[1] is other


# ---------------------------------------------------------------------------
# the node contract: frozen, slotted dataclasses hashed at construction

GLOBAL_NODES = [
    Atom("A", "B", "m", (("x", "int"),)),
    OccAtom(Atom("A", "B", "m"), 3),
    Seq(Atom("A", "B", "m"), Atom("B", "A", "n")),
    Choice((Atom("A", "B", "m"), Atom("A", "B", "n")), "A"),
    Shuffle(Atom("A", "B", "m"), Atom("C", "D", "n")),
    Rec("X", Seq(Atom("A", "B", "m"), Var("X"))),
    Var("X"),
    EPSILON,
]
LOCAL_NODES = [
    LAtom("B", "m", SEND, (("x", "int"),), 3),
    LSeq(LAtom("B", "m", SEND), LAtom("B", "n", RECV)),
    LChoice((LAtom("B", "m", SEND), L_EPSILON), ChoiceKind.MIXED, ChoiceKind.INTERNAL),
    LShuffle(LAtom("B", "m", SEND), LAtom("C", "n", RECV)),
    LRec("X", LSeq(LAtom("B", "m", SEND), LVar("X"))),
    LVar("X"),
    L_EPSILON,
]
NODES = GLOBAL_NODES + LOCAL_NODES


def rebuilt(x):
    """An equal node built apart from `x`, operand by operand."""
    if isinstance(x, tuple):
        return tuple(rebuilt(v) for v in x)
    if dataclasses.is_dataclass(x):
        return type(x)(*(rebuilt(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return x


@pytest.mark.parametrize("x", NODES, ids=lambda x: type(x).__name__)
def test_a_node_is_frozen_and_has_no_instance_dict(x):
    assert not hasattr(x, "__dict__")
    for f in dataclasses.fields(x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
    assert [f.name for f in dataclasses.fields(x)] == list(type(x).__match_args__)


@pytest.mark.parametrize("x", NODES, ids=lambda x: type(x).__name__)
def test_equal_nodes_built_apart_are_equal_and_hash_equal(x):
    y = rebuilt(x)
    assert y is not x and y == x and hash(y) == hash(x)
    assert hash(x) == hash((type(x), *(getattr(x, f.name) for f in dataclasses.fields(x))))


@pytest.mark.parametrize("x", NODES, ids=lambda x: type(x).__name__)
def test_replace_deepcopy_and_pickle_keep_equality_and_the_hash(x):
    for y in (dataclasses.replace(x), copy.deepcopy(x), copy.copy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x)
    assert b"_hash" not in pickle.dumps(x)


def test_replace_rehashes_the_changed_node():
    x = Seq(Atom("A", "B", "m"), Atom("B", "A", "n"))
    y = dataclasses.replace(x, right=Atom("B", "A", "o"))
    assert y != x and y == Seq(Atom("A", "B", "m"), Atom("B", "A", "o"))
    assert hash(y) == hash(Seq(Atom("A", "B", "m"), Atom("B", "A", "o")))


def test_a_10000_deep_chain_built_twice_compares_equal_without_recursion():
    def chain(last: str):
        e = Atom("A", "B", last)
        for i in range(10_000):
            e = Seq(Atom("A", "B", f"m{i}"), e)
        return e

    first, again, other = chain("z"), chain("z"), chain("y")
    assert first == again and not first != again and hash(first) == hash(again)
    assert first != other and not first == other


def test_a_shuffle_free_expansion_comes_back_as_the_input_object():
    chain = expand(parse_trace(" ; ".join(f"A -> B : M{i}" if i % 2 else f"B -> A : M{i}" for i in range(1, 40))))
    assert eliminate_shuffle(chain) is chain
    decided = expand(parse_trace("A -> B : x ; (B -> A : y \\/ B -> C : z)"))
    assert eliminate_shuffle(decided) is decided
    shuffled = expand(parse_trace("A -> B : x ; (B -> A : y | C -> D : z)"))
    assert eliminate_shuffle(shuffled) is not shuffled
    assert eliminate_shuffle(Seq(Atom("A", "B", "x"), EPSILON)) == Atom("A", "B", "x")


def test_decider_inference_keeps_a_choice_free_or_decided_input():
    for source in ("A -> B : x ; B -> A : y", "rec X (A -> B : x ; X)", "A -> B : x | C -> D : y"):
        e = parse_trace(source)
        assert _infer_deciders(e, {}) is e
    decided = Seq(Atom("C", "A", "w"), Choice((Atom("A", "B", "x"), Atom("A", "B", "y")), "A"))
    assert _infer_deciders(decided, {}) is decided
    undecided = parse_trace("C -> A : w ; (A -> B : x \\/ A -> B : y)")
    inferred = _infer_deciders(undecided, {})
    assert inferred.left is undecided.left and inferred.right.decider == "A"


def test_an_atoms_derivative_is_the_epsilon_object():
    a = Atom("A", "B", "x")
    assert derivatives(a)[a] is EPSILON
    assert derivatives(OccAtom(a, 1))[OccAtom(a, 1)] is EPSILON
    assert expand(parse_trace("rec X (A -> B : x ; X)"), 0) is EPSILON
