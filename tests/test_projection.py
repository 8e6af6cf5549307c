import random
from pathlib import Path

import pytest

import protolab.cfp.fsm as fsm_module
from protolab.cfp.ast import Atom, Seq, roles
from protolab.cfp.fsm import TypeLevelFsm, export_fsm, extract_fsm
from protolab.cfp.projection import (
    RECV,
    SEND,
    ChoiceKind,
    LAtom,
    LChoice,
    LEps,
    LRec,
    LSeq,
    LVar,
    MergeFailure,
    print_local,
    project_scribble,
    project_trace_c,
    project_trace_f,
)
from protolab.cfp.scribble_parser import parse_scribble
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import eliminate_shuffle
from protolab.cli import main
from protolab.matrix import fixture_text

from generators import random_cfp


def latom(peer, name, direction):
    return LAtom(peer, name, direction)


def test_trace_c_buyer_projection_is_internal_choice():
    e = parse_trace(fixture_text("purchase.trace"))
    local = project_trace_c(e, "Buyer")
    expected = LSeq(
        latom("Seller", "Request", SEND),
        LSeq(
            latom("Seller", "Offer", RECV),
            LChoice(
                (
                    LSeq(latom("Seller", "Accept", SEND), LSeq(latom("Seller", "Deliver", RECV), latom("Seller", "Payment", SEND))),
                    latom("Seller", "Reject", SEND),
                ),
                ChoiceKind.INTERNAL,
            ),
        ),
    )
    assert local == expected


def test_trace_c_seller_projection_is_external_choice():
    e = parse_trace(fixture_text("purchase.trace"))
    local = project_trace_c(e, "Seller")
    choice = local.right.right
    assert isinstance(choice, LChoice) and choice.kind is ChoiceKind.EXTERNAL


def test_projection_erases_unmentioned_role():
    e = parse_trace("A -> B : hello")
    assert project_trace_c(e, "C") == LEps()
    assert project_trace_f(e, "C") == LEps()


def test_trace_c_requires_shuffle_free():
    flex = parse_trace(fixture_text("flexible_purchase.trace"))
    with pytest.raises(ValueError):
        project_trace_c(flex, "Buyer")


def test_trace_c_flexible_purchase_orderings_choice():
    flex = eliminate_shuffle(parse_trace(fixture_text("flexible_purchase.trace")))
    seller = project_trace_c(flex, "Seller")
    choice = seller.right
    assert isinstance(choice, LChoice)
    assert choice.kind is ChoiceKind.MIXED
    assert choice.lean is ChoiceKind.EXTERNAL  # presented as the paper does
    contents = set(choice.branches)
    assert contents == {
        LSeq(latom("Buyer", "Payment", RECV), latom("Buyer", "Shipment", SEND)),
        LSeq(latom("Buyer", "Shipment", SEND), latom("Buyer", "Payment", RECV)),
    }


def test_trace_f_preserves_choice_as_plain():
    e = parse_trace(fixture_text("purchase.trace"))
    seller = project_trace_f(e, "Seller")
    choice = seller.right.right
    assert isinstance(choice, LChoice)
    assert choice.lean is ChoiceKind.PLAIN
    assert "\\/" in print_local(seller)


def test_trace_f_single_send_atom():
    assert project_trace_f(parse_trace("A -> B : go"), "A") == latom("B", "go", SEND)


def test_trace_f_preserves_shuffle():
    flex = parse_trace(fixture_text("flexible_purchase.trace"))
    buyer = project_trace_f(flex, "Buyer")
    assert print_local(buyer) == "Seller!Request ; (Seller!Payment /\\ Seller?Shipment)"


def test_trace_f_equals_trace_c_on_choice_free():
    rng = random.Random(5)
    for _ in range(100):
        e = random_cfp(rng, depth=3, allow_shuffle=False, allow_choice=False)
        for role in ("A", "B", "C"):
            assert project_trace_f(e, role) == project_trace_c(e, role)


def test_scribble_seller_projection():
    body = parse_scribble(fixture_text("purchase.scr"))
    seller = project_scribble(body, "Seller")
    choice = seller.right.right
    assert isinstance(choice, LChoice) and choice.kind is ChoiceKind.EXTERNAL
    assert print_local(seller) == (
        "Buyer?Request ; Buyer!Offer ; (Buyer?Accept ; Buyer!Deliver ; Buyer?Payment + Buyer?Reject)"
    )


def test_scribble_single_message_receiver():
    body = parse_scribble("global protocol One(role A, role B) { Ping() from A to B; }")
    assert project_scribble(body, "B") == LAtom("A", "Ping", RECV)


def test_scribble_indirect_payment_seller():
    body = parse_scribble(fixture_text("indirect_payment.scr"))
    seller = project_scribble(body, "Seller")
    assert print_local(seller) == "Buyer!Offer ; Buyer?Accept ; Bank?Transfer"


def test_scribble_merge_failure_on_indistinguishable_branches():
    from protolab.cfp.ast import Choice

    ping = Atom("A", "B", "Go")
    branch1 = Seq(ping, Atom("A", "B", "Left"))
    branch2 = Seq(ping, Atom("A", "B", "Right"))
    choice = Choice((branch1, branch2), decider="A")
    # B's continuations differ but both branches open with the same reception
    with pytest.raises(MergeFailure):
        project_scribble(choice, "B")


def test_scribble_identical_projected_branches_merge():
    from protolab.cfp.ast import Choice

    branch1 = Seq(Atom("A", "B", "Go"), Atom("A", "C", "Left"))
    branch2 = Seq(Atom("A", "B", "Go"), Atom("A", "C", "Right"))
    choice = Choice((branch1, branch2), decider="A")
    assert project_scribble(choice, "B") == LAtom("A", "Go", RECV)
    # C receives a distinct first message per branch, an external choice
    c = project_scribble(choice, "C")
    assert isinstance(c, LChoice) and c.kind is ChoiceKind.EXTERNAL


def test_scribble_requires_decider():
    from protolab.cfp.ast import Choice

    choice = Choice((Atom("A", "B", "x"), Atom("A", "B", "y")), decider=None)
    with pytest.raises(MergeFailure):
        project_scribble(choice, "B")


def test_extract_fsm_two_state_loop():
    body = parse_scribble(fixture_text("book_journey.scr"))
    fsm = extract_fsm(project_scribble(body, "C"))
    assert len(fsm.states) == 2
    labels = sorted(fsm.alphabet())
    assert labels == [("A", "!", "query", ("String",)), ("A", "?", "price", ("Int",))]
    assert export_fsm(fsm) == (
        "node 0 initial\nnode 1\nedge 0 -> 1 A!query(String)\nedge 1 -> 0 A?price(Int)\n"
    )


def test_extract_fsm_epsilon_single_accepting_state():
    fsm = extract_fsm(LEps())
    assert len(fsm.states) == 1
    assert fsm.accepts([])
    assert fsm.initial in fsm.finals


def test_extract_fsm_value_blind_accepts_conflicting_run():
    body = parse_scribble(fixture_text("alt_pricing.scr"))
    fsm = extract_fsm(project_scribble(body, "Seller"))
    # the run carrying item=fig then item=jam is just types to this machine
    recv_request = ("Buyer", "?", "Request", ("String", "String"))
    send_offer = ("Buyer", "!", "Offer", ("String", "String", "String"))
    state = fsm.step(fsm.initial, recv_request)
    assert state is not None
    assert fsm.step(state, send_offer) == fsm.initial


def test_extract_fsm_deterministic_labels():
    rng = random.Random(13)
    for _ in range(50):
        e = random_cfp(rng, depth=3, allow_shuffle=False)
        for role in ("A", "B"):
            fsm = extract_fsm(project_trace_f(e, role))
            seen = set()
            for src, label, _ in fsm.transitions:
                assert (src, label) not in seen
                seen.add((src, label))


def test_extract_fsm_purchase_buyer_accepts_both_paths():
    e = parse_trace(fixture_text("purchase.trace"))
    fsm = extract_fsm(project_trace_c(e, "Buyer"))
    accept_path = [
        ("Seller", "!", "Request", ()),
        ("Seller", "?", "Offer", ()),
        ("Seller", "!", "Accept", ()),
        ("Seller", "?", "Deliver", ()),
        ("Seller", "!", "Payment", ()),
    ]
    reject_path = accept_path[:2] + [("Seller", "!", "Reject", ())]
    assert fsm.accepts(accept_path)
    assert fsm.accepts(reject_path)
    assert not fsm.accepts(accept_path[:3])
    assert not fsm.accepts([accept_path[1]])


def reference_minimize(fsm: TypeLevelFsm) -> TypeLevelFsm:
    """`_minimize` as it read every label of the alphabet for every state."""
    labels = sorted(fsm.alphabet())
    finals = set(fsm.finals)
    partition = {s: (s in finals) for s in fsm.states}
    changed = True
    while changed:
        changed = False
        signature = {}
        for s in fsm.states:
            signature[s] = (partition[s], tuple(partition.get(fsm.step(s, lab), None) for lab in labels))
        blocks: dict[tuple, list[int]] = {}
        for s in fsm.states:
            blocks.setdefault(signature[s], []).append(s)
        new_partition = {}
        for i, key in enumerate(sorted(blocks, key=lambda k: min(blocks[k]))):
            for s in blocks[key]:
                new_partition[s] = i
        if new_partition != partition:
            partition = new_partition
            changed = True
    transitions = sorted({(partition[a], lab, partition[b]) for a, lab, b in fsm.transitions})
    states = tuple(sorted(set(partition.values())))
    finals2 = tuple(sorted({partition[s] for s in fsm.finals}))
    return TypeLevelFsm(states, partition[fsm.initial], finals2, tuple(transitions))


def scribble_sequence(n: int, choice_every: int) -> str:
    """n statements over roles A, B, C in turn, every `choice_every`-th a
    two-branch choice."""
    lines = ["global protocol Big(role A, role B, role C) {"]
    for i in range(n):
        sender, receiver = "ABC"[i % 3], "ABC"[(i + 1) % 3]
        if choice_every and i % choice_every == choice_every - 1:
            lines.append(f"  choice at {sender} {{ X{i}() from {sender} to {receiver}; }} or {{ Y{i}() from {sender} to {receiver}; }}")
        else:
            lines.append(f"  M{i}(x: Int) from {sender} to {receiver};")
    return "\n".join(lines + ["}"]) + "\n"


def test_minimize_equals_the_reference_on_every_projected_machine(monkeypatch, tmp_path, capsys):
    machines = []
    minimize = fsm_module._minimize

    def recorded(machine):
        machines.append(machine)
        return minimize(machine)

    monkeypatch.setattr(fsm_module, "_minimize", recorded)
    fixtures = Path(__file__).resolve().parents[1] / "src" / "protolab" / "fixtures"
    runs = []
    for f in sorted(fixtures.glob("*.trace")) + sorted(fixtures.glob("*.scr")):
        parse = parse_scribble if f.suffix == ".scr" else parse_trace
        runs += [(f, role, doctrine) for role in roles(parse(f.read_text())) for doctrine in ("trace-c", "trace-f", "scribble")]
    for n, choice_every in ((20, 0), (61, 3), (300, 10)):
        path = tmp_path / f"sequence{n}.scr"
        path.write_text(scribble_sequence(n, choice_every))
        runs += [(path, role, "scribble") for role in "ABC"]
    for path, role, doctrine in runs:
        main(["project", str(path), role, "--doctrine", doctrine, "--fsm"])
    capsys.readouterr()
    assert len(machines) > 80 and max(len(m.states) for m in machines) > 150
    for machine in machines:
        assert export_fsm(minimize(machine)) == export_fsm(reference_minimize(machine))


def test_every_machine_state_is_an_int(monkeypatch, capsys):
    # one send: the first refinement numbers the two blocks as finality does
    one = extract_fsm(project_trace_c(parse_trace("A -> B : m"), "A"))
    assert export_fsm(one) == "node 0 initial\nnode 1 final\nedge 0 -> 1 B!m()\n"
    machines = [one]
    minimize = fsm_module._minimize

    def recorded(machine):
        machines.append(minimize(machine))
        return machines[-1]

    monkeypatch.setattr(fsm_module, "_minimize", recorded)
    fixtures = Path(__file__).resolve().parents[1] / "src" / "protolab" / "fixtures"
    for f in sorted(fixtures.glob("*.trace")) + sorted(fixtures.glob("*.scr")):
        parse = parse_scribble if f.suffix == ".scr" else parse_trace
        for role in roles(parse(f.read_text())):
            for doctrine in ("trace-c", "trace-f", "scribble"):
                main(["project", str(f), role, "--doctrine", doctrine, "--fsm"])
    capsys.readouterr()
    assert len(machines) > 80
    for m in machines:
        named = [*m.states, m.initial, *m.finals] + [s for a, _, b in m.transitions for s in (a, b)]
        assert all(type(s) is int for s in named), export_fsm(m)


def test_erasure_soundness_every_local_atom_involves_role():
    from protolab.cfp.ast import atoms as global_atoms

    def local_atoms(e):
        if isinstance(e, LAtom):
            return [e]
        if isinstance(e, (LSeq,)):
            return local_atoms(e.left) + local_atoms(e.right)
        if isinstance(e, LChoice):
            return [a for b in e.branches for a in local_atoms(b)]
        if isinstance(e, LRec):
            return local_atoms(e.body)
        from protolab.cfp.projection import LShuffle

        if isinstance(e, LShuffle):
            return local_atoms(e.left) + local_atoms(e.right)
        return []

    rng = random.Random(41)
    for _ in range(100):
        e = random_cfp(rng, depth=3, allow_shuffle=False)
        for role in ("A", "B", "C"):
            involved = [a for a in global_atoms(e) if role in (a.sender, a.receiver)]
            projected = local_atoms(project_trace_f(e, role))
            assert len(projected) == len(involved)


def test_a_branch_that_is_only_a_variable_begins_as_its_body():
    # R decides by sending m whether to go round again, so the choice
    # between B's reply and another lap is mixed; it leans external, so it
    # prints as before
    e = parse_trace("rec X (R -> A : m ; (B -> R : n \\/ X))")
    for project in (project_trace_c, project_trace_f):
        choice = project(e, "R").body.right
        assert (choice.kind, choice.branches[1]) == (ChoiceKind.MIXED, LVar("X"))
    assert project_trace_c(e, "R").body.right.lean is ChoiceKind.EXTERNAL
    assert print_local(project_trace_c(e, "R")) == "rec X (A!m ; (B?n + X))"
    assert print_local(project_trace_f(e, "R")) == "rec X (A!m ; (B?n \\/ X))"
    # the body's own first variable is not read again
    loop = project_trace_c(parse_trace("rec X (X \\/ R -> A : m)"), "R")
    assert loop == LRec("X", LChoice((LVar("X"), latom("A", "m", SEND)), ChoiceKind.INTERNAL))
