import json
from pathlib import Path
from unittest import mock

import pytest

from protolab import netsim
from protolab.cli import main

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "protolab" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_bspl(capsys):
    code, out, _ = run(capsys, "check", str(FIXDIR / "flexible_purchase.bspl"))
    assert code == 0
    assert "ok" in out


def test_check_empty_protocol_exits_one(capsys, tmp_path):
    path = tmp_path / "empty.bspl"
    path.write_text("protocol Empty { roles A, B parameters out ID key }")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "NoMessages" in out


@pytest.mark.parametrize(
    "argv",
    [("check",), ("simulate",), ("simulate", "--seed", "3"), ("simulate", "--exhaustive"), ("realizability",)],
)
def test_a_bspl_file_without_a_protocol_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "none.bspl"
    path.write_text("// no protocol here\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {path} holds no protocol\n")


def test_simulate_names_the_file_without_a_protocol(capsys, tmp_path):
    path = tmp_path / "empty.bspl"
    path.write_text("")
    code, out, err = run(capsys, "simulate", str(FIXDIR / "purchase.bspl"), str(path), "--exhaustive")
    assert (code, out, err) == (2, "", f"error: {path} holds no protocol\n")


def test_check_parse_error_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.trace"
    path.write_text("A -> : missing")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "parse error" in err


SELF_MESSAGES = {
    ".trace": ("B -> C : n ; A -> A : m\n", "line 1, column 14"),
    ".scr": ("global protocol P(role A, role B) {\n  n() from B to A;\n  m() from A to A;\n}\n", "line 3, column 3"),
}


@pytest.mark.parametrize("suffix", sorted(SELF_MESSAGES))
@pytest.mark.parametrize("argv", [("check",), ("realizability",), ("project", "A"), ("project", "A", "--fsm")])
def test_a_message_from_a_role_to_itself_is_a_parse_error(capsys, tmp_path, suffix, argv):
    source, where = SELF_MESSAGES[suffix]
    path = tmp_path / f"self{suffix}"
    path.write_text(source)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"parse error: message m has sender == receiver ({where})\n")


def test_realizability_purchase_trace_c(capsys):
    code, out, _ = run(capsys, "realizability", str(FIXDIR / "purchase.trace"), "--preset", "trace-c")
    assert code == 0
    assert out.startswith("Realizable")


def test_realizability_flexible_purchase_unrealizable(capsys):
    code, out, _ = run(capsys, "realizability", str(FIXDIR / "flexible_purchase.trace"), "--preset", "trace-c")
    assert code == 1
    assert "NonlocalChoice" in out


def test_realizability_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "realizability",
        str(FIXDIR / "want_willpay.trace"),
        "--preset",
        "trace-f",
        "--delivery",
        "fifo",
        "--interpretation",
        "RR",
        "--format",
        "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["outcome"] == "Realizable"


def test_realizability_scribble_dispatch(capsys):
    code, out, _ = run(capsys, "realizability", str(FIXDIR / "indirect_payment.scr"))
    assert code == 0


def test_simulate_writes_log(capsys):
    code, out, _ = run(capsys, "simulate", str(FIXDIR / "want_willpay.bspl"), "--seed", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert any(" E Want " in l for l in lines)
    kinds = {l.split()[2] for l in lines}
    assert kinds <= {"E", "R"}


def test_simulate_exhaustive_counts(capsys):
    code, out, _ = run(capsys, "simulate", str(FIXDIR / "want_willpay.bspl"), "--exhaustive")
    assert code == 0
    assert "maximal enactments" in out


def test_simulate_exhaustive_prints_only_its_four_counts(capsys):
    # the exploration's other counts (local states, networks, dedup hits)
    # stay out of the output, so its bytes do not change
    path = str(FIXDIR / "want_willpay.bspl")
    code, out, _ = run(capsys, "simulate", path, "--exhaustive", "--instances", "2")
    assert (code, out) == (0, "144 maximal enactments (511 states explored)\n")
    code, out, _ = run(capsys, "simulate", path, "--exhaustive", "--instances", "2", "--format", "json")
    record = json.loads(out)
    assert sorted(record) == ["bound_exceeded", "enactments", "max_queue_depth", "schema_version", "states_explored"]


def test_simulate_exhaustive_names_the_cap_that_fired(capsys):
    # six messages on one channel exceed the queue cap of 4
    args = ("simulate", str(FIXDIR / "want_willpay.bspl"), "--exhaustive", "--instances", "3", "--policy", "fifo")
    code, out, _ = run(capsys, *args)
    assert (code, out) == (0, "90 maximal enactments (1300 states explored; the queue cap of 4 messages per channel fired)\n")
    code, out, _ = run(capsys, *args, "--format", "json")
    record = json.loads(out)
    assert (code, record["cap"], record["bound_exceeded"], record["states_explored"]) == (0, "queue", True, 1300)


def test_simulate_exhaustive_builds_no_history_vector(capsys):
    def unread(self, state):
        raise AssertionError("the count needs no history vector")

    path = str(FIXDIR / "purchase.bspl")
    with mock.patch.object(netsim._StateSpace, "vector", unread):
        code, out, _ = run(capsys, "simulate", path, "--exhaustive", "--instances", "2", "--policy", "unordered")
    assert (code, out) == (0, "12968 maximal enactments (69479 states explored)\n")


def test_simulate_rejects_fewer_than_one_instance(capsys):
    path = str(FIXDIR / "pricing.bspl")
    for argv in (("--exhaustive", "--instances", "0"), ("--exhaustive", "--instances", "-2"), ("--instances", "0")):
        code, out, err = run(capsys, "simulate", path, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --instances must be at least 1, not {argv[-1]}\n"


def test_simulate_rejects_json_without_exhaustive(capsys):
    path = str(FIXDIR / "pricing.bspl")
    code, out, err = run(capsys, "simulate", path, "--format", "json")
    assert (code, out) == (2, "")
    assert err == "error: --format json needs --exhaustive: a seeded run prints its log as text\n"
    code, out, _ = run(capsys, "simulate", path, "--format", "text", "--seed", "3")
    assert code == 0 and out.startswith("1 Buyer E Request ")


def test_commitments_command(capsys, tmp_path):
    log = tmp_path / "run.log"
    log.write_text(
        "\n".join(
            [
                "0 Buyer E Request ID=1,item=fig",
                "0 Seller R Request ID=1,item=fig",
                "0 Seller E Offer ID=1,item=fig,price=$5",
                "0 Buyer R Offer ID=1,item=fig,price=$5",
                "0 Buyer E Accept ID=1,item=fig,price=$5,decision=deal,address=x",
                "0 Seller R Accept ID=1,item=fig,price=$5,decision=deal,address=x",
                "2 Seller E Deliver ID=1,item=fig,address=x,dropOff=porch",
                "2 Buyer R Deliver ID=1,item=fig,address=x,dropOff=porch",
                "4 Buyer E Payment ID=1,price=$5,dropOff=porch,OK=paid",
                "4 Seller R Payment ID=1,price=$5,dropOff=porch,OK=paid",
            ]
        )
    )
    code, out, _ = run(
        capsys,
        "commitments",
        "--protocol",
        str(FIXDIR / "purchase.bspl"),
        "--cupid",
        str(FIXDIR / "deliver_payment.cupid"),
        "--log",
        str(log),
        "--now",
        "5",
    )
    assert code == 0
    assert "Discharged" in out


def test_commitments_rejects_a_spec_naming_a_missing_message(capsys, tmp_path):
    cupid = tmp_path / "typo.cupid"
    cupid.write_text((FIXDIR / "deliver_payment.cupid").read_text().replace("create Accept", "create Acept"))
    log = tmp_path / "run.log"
    log.write_text("0 Buyer E Request ID=1,item=fig\n")
    args = ("commitments", "--protocol", str(FIXDIR / "purchase.bspl"), "--cupid", str(cupid), "--log", str(log), "--now", "5")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == "error: commitment DeliverPayment names events protocol Purchase lacks: Acept\n"


def test_commitments_rejects_a_window_naming_a_missing_message(capsys, tmp_path):
    cupid = tmp_path / "typo.cupid"
    cupid.write_text((FIXDIR / "deliver_payment.cupid").read_text().replace("[, Accept + 3]", "[, Acept + 3]"))
    log = tmp_path / "run.log"
    log.write_text("0 Buyer E Request ID=1,item=fig\n")
    args = ("commitments", "--protocol", str(FIXDIR / "purchase.bspl"), "--cupid", str(cupid), "--log", str(log), "--now", "5")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == "error: commitment DeliverPayment names events protocol Purchase lacks: Acept\n"


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix")
    assert code == 0
    assert "matches golden table: yes" in out


def test_matrix_json_matches_golden_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "matrix", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "matrix", "--format", "json")
    assert code == 0
    a, b = json.loads(first), json.loads(second)
    assert a["matches_golden"] is True
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_usage_error_exits_two(capsys):
    assert main(["realizability"]) == 2 or main(["realizability"]) == 2


def test_project_command(capsys):
    code, out, _ = run(capsys, "project", str(FIXDIR / "purchase.trace"), "Buyer", "--doctrine", "trace-c")
    assert code == 0
    assert "Seller!Request" in out


def test_project_under_scribble_infers_deciders(capsys):
    # as `realizability --preset scribble` does, also inside recursion bodies
    code, out, _ = run(capsys, "project", str(FIXDIR / "purchase.trace"), "Buyer", "--doctrine", "scribble")
    assert code == 0
    assert out == "Seller!Request ; Seller?Offer ; (Seller!Accept ; Seller?Deliver ; Seller!Payment (+) Seller!Reject)\n"
    code, out, _ = run(capsys, "project", str(FIXDIR / "concurrent_pricing_star.trace"), "Buyer", "--doctrine", "scribble")
    assert code == 0
    assert out == "rec _star0 (((Seller!Request ; Seller?Offer) ; _star0 (+) eps))\n"
    code, _, err = run(capsys, "project", str(FIXDIR / "concurrent_pricing_star.trace"), "Seller", "--doctrine", "scribble")
    assert code == 1
    assert err == "projection failed: role Seller cannot distinguish the branches of a choice at Buyer\n"


@pytest.mark.parametrize("fixture,protocol", [("purchase.bspl", "Purchase"), ("purchase.trace", "purchase"), ("purchase.scr", "Purchase")])
@pytest.mark.parametrize("doctrine", [(), ("--doctrine", "trace-f"), ("--doctrine", "scribble"), ("--fsm",)])
def test_project_names_an_unknown_role(capsys, fixture, protocol, doctrine):
    code, out, err = run(capsys, "project", str(FIXDIR / fixture), "Nobody", *doctrine)
    assert (code, out, err) == (2, "", f"error: \"unknown role 'Nobody' in protocol {protocol}\"\n")


def test_project_rejects_fsm_for_a_bspl_protocol(capsys):
    path = str(FIXDIR / "purchase.bspl")
    for argv in (("--fsm",), ("--fsm", "--doctrine", "bspl")):
        code, out, err = run(capsys, "project", path, "Buyer", *argv)
        assert (code, out) == (2, "")
        assert err == "error: --fsm needs a .trace or .scr protocol: a BSPL projection is a list of messages\n"
    code, out, _ = run(capsys, "project", path, "Buyer")
    assert (code, out.splitlines()[0]) == (0, "send Request (to Seller)")


@pytest.mark.parametrize("doctrine", ["trace-c", "trace-f", "scribble"])
def test_project_rejects_a_cfp_doctrine_for_a_bspl_protocol(capsys, doctrine):
    code, out, err = run(capsys, "project", str(FIXDIR / "purchase.bspl"), "Buyer", "--doctrine", doctrine)
    assert (code, out) == (2, "")
    assert err == f"error: --doctrine {doctrine} needs a .trace or .scr protocol: a BSPL projection is a list of messages\n"


@pytest.mark.parametrize("fixture", ["purchase.trace", "purchase.scr"])
@pytest.mark.parametrize("fsm", [(), ("--fsm",)])
def test_project_rejects_the_bspl_doctrine_for_a_cfp_protocol(capsys, fixture, fsm):
    # the source is not read as BSPL, which would report a parse error
    code, out, err = run(capsys, "project", str(FIXDIR / fixture), "Buyer", "--doctrine", "bspl", *fsm)
    assert (code, out) == (2, "")
    assert err == f"error: --doctrine bspl needs a .bspl protocol: a {Path(fixture).suffix} protocol projects to a local behavior\n"


@pytest.mark.parametrize("fixture", ["purchase.bspl", "purchase.hapn"])
@pytest.mark.parametrize(
    "argv",
    [
        ("--preset", "trace-c"),
        ("--preset", "trace-f"),
        ("--preset", "scribble"),
        ("--delivery", "unordered"),
        ("--interpretation", "RR"),
        ("--bound", "3"),
    ],
)
def test_realizability_rejects_cfp_options_for_bspl_and_hapn(capsys, fixture, argv):
    code, out, err = run(capsys, "realizability", str(FIXDIR / fixture), *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {' '.join(argv)} applies to .trace and .scr protocols, not to a {Path(fixture).suffix} verdict\n"


def test_realizability_takes_the_hapn_preset_only_for_a_hapn_machine(capsys):
    code, out, _ = run(capsys, "realizability", str(FIXDIR / "purchase.hapn"), "--preset", "hapn")
    assert (code, out) == (0, "Realizable (state machine under synchronous stepping)\n")
    code, out, err = run(capsys, "realizability", str(FIXDIR / "purchase.bspl"), "--preset", "hapn")
    assert (code, out, err) == (2, "", "error: --preset hapn applies to .trace and .scr protocols, not to a .bspl verdict\n")
    code, out, err = run(capsys, "realizability", str(FIXDIR / "purchase.hapn"), "--preset", "hapn", "--bound", "2", "--delivery", "fifo")
    assert (code, out, err) == (2, "", "error: --delivery fifo, --bound 2 apply to .trace and .scr protocols, not to a .hapn verdict\n")


@pytest.mark.parametrize("fixture,verdict", [("purchase.bspl", "Realizable (information"), ("purchase.hapn", "Realizable (state machine")])
def test_realizability_rejects_json_for_bspl_and_hapn(capsys, fixture, verdict):
    path = str(FIXDIR / fixture)
    suffix = Path(fixture).suffix
    code, out, err = run(capsys, "realizability", path, "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"error: --format json needs a .trace or .scr protocol: a {suffix} verdict is one line of text\n"
    code, out, _ = run(capsys, "realizability", path, "--format", "text")
    assert code == 0 and out.startswith(verdict)


def two_protocols(tmp_path, spare=""):
    """A .bspl file holding pricing then catalog, whose public parameters
    take `spare` as well."""
    catalog = (FIXDIR / "catalog.bspl").read_text().replace("out req, out products\n", f"out req, out products{spare}\n")
    path = tmp_path / "two.bspl"
    path.write_text((FIXDIR / "pricing.bspl").read_text() + catalog)
    return path


def test_realizability_validates_every_protocol_of_a_file(capsys, tmp_path):
    code, out, err = run(capsys, "realizability", str(two_protocols(tmp_path)))
    assert (code, out, err) == (0, "Realizable (information protocols are enactable from local histories; projections are trivial)\n", "")
    # a public parameter in no message: each error as check prints it
    path = two_protocols(tmp_path, ", out spare")
    _, checked, _ = run(capsys, "check", str(path))
    code, out, err = run(capsys, "realizability", str(path))
    assert (code, out, err) == (1, checked, "")
    assert out == "Catalog: error: PublicParamUnused [spare]: public parameter spare appears in no message\n"
    # one protocol: its errors as before, unnamed
    single = tmp_path / "catalog.bspl"
    single.write_text("protocol Catalog" + path.read_text().split("protocol Catalog")[1])
    code, out, err = run(capsys, "realizability", str(single))
    assert (code, out, err) == (1, "error: PublicParamUnused [spare]: public parameter spare appears in no message\n", "")


def test_simulate_validates_before_exploring(capsys, tmp_path):
    path = two_protocols(tmp_path, ", out spare")
    single = tmp_path / "catalog.bspl"
    single.write_text("protocol Catalog" + path.read_text().split("protocol Catalog")[1])
    error = "error: PublicParamUnused [spare]: public parameter spare appears in no message\n"

    def unexplored(*args, **kwargs):
        raise AssertionError("an invalid protocol was explored")

    with mock.patch("protolab.cli.explore", unexplored), mock.patch("protolab.cli.run_one", unexplored):
        for mode in ((), ("--exhaustive",)):
            assert run(capsys, "simulate", str(path), *mode) == (1, f"Catalog: {error}", "")
            assert run(capsys, "simulate", str(single), *mode) == (1, error, "")
    # warnings are not printed: purchase.bspl has four
    code, out, err = run(capsys, "simulate", str(FIXDIR / "purchase.bspl"), "--exhaustive")
    assert (code, out, err) == (0, "2 maximal enactments (13 states explored)\n", "")


def test_project_and_commitments_read_one_protocol(capsys, tmp_path):
    path = two_protocols(tmp_path)
    code, out, err = run(capsys, "project", str(path), "Seller")
    assert (code, out, err) == (2, "", f"error: {path} holds 2 protocols; project reads one\n")
    log = tmp_path / "run.log"
    log.write_text("0 Buyer E Request ID=1,item=fig\n")
    args = ("--cupid", str(FIXDIR / "deliver_payment.cupid"), "--log", str(log), "--now", "5")
    code, out, err = run(capsys, "commitments", "--protocol", str(path), *args)
    assert (code, out, err) == (2, "", f"error: {path} holds 2 protocols; commitments --protocol reads one\n")


def test_project_reads_the_declared_roles_of_a_scribble_header(capsys, tmp_path):
    # a role the header declares but no message names projects to eps
    path = tmp_path / "idle.scr"
    path.write_text("global protocol P(role A, role B, role C) {\n  M() from A to B;\n}\n")
    code, out, _ = run(capsys, "project", str(path), "C")
    assert (code, out) == (0, "eps\n")
    code, _, err = run(capsys, "project", str(path), "D")
    assert (code, err) == (2, "error: \"unknown role 'D' in protocol P\"\n")


def test_project_fsm_output(capsys):
    code, out, _ = run(capsys, "project", str(FIXDIR / "book_journey.scr"), "C", "--fsm")
    assert code == 0
    assert "edge 0 -> 1 A!query(String)" in out


def test_too_deep_input_is_a_one_line_diagnostic(capsys, tmp_path):
    path = tmp_path / "chain1200.trace"
    path.write_text(" ; ".join(f"A -> B : M{i}" if i % 2 else f"B -> A : M{i}" for i in range(1, 1201)) + "\n")
    code, out, err = run(capsys, "realizability", str(path), "--preset", "trace-f")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "nested too deeply" in err
    assert "Traceback" not in err


def chain(names) -> str:
    return " ; ".join(f"A -> B : {name}" for name in names)


CHAIN = [f"M{i}" for i in range(350)]
# a choice between two 350-atom chains: the same one twice, and two that
# differ only in their last name; (command, input) -> exit code
DEEP_CHOICES = {
    "same": f"({chain(CHAIN)}) \\/ ({chain(CHAIN)})\n",
    "last name changed": f"({chain(CHAIN)}) \\/ ({chain(CHAIN[:-1] + ['Z'])})\n",
}
# (command, input) -> exit code and first line printed; the line tells a
# verdict from a capped one, which exits 1 with an empty stderr too
DEEP_CHOICE_EXITS = {
    ("check", "same"): (0, "ok"),
    ("check", "last name changed"): (0, "ok"),
    ("realizability", "same"): (0, "Realizable"),
    ("realizability", "last name changed"): (1, "Unrealizable (OrderViolation)"),
}


@pytest.mark.parametrize("command,name", sorted(DEEP_CHOICE_EXITS))
def test_a_choice_between_deep_chains_is_decided(capsys, tmp_path, command, name):
    path = tmp_path / "choice.trace"
    path.write_text(DEEP_CHOICES[name])
    code, out, err = run(capsys, command, str(path))
    assert (code, out.splitlines()[0], err) == (*DEEP_CHOICE_EXITS[command, name], "")


@pytest.mark.parametrize(
    "command,fixture",
    [("project", "deliver_payment.cupid"), ("project", "concurrent_pricing.hapn"), ("realizability", "deliver_payment.cupid")],
)
def test_a_format_a_command_does_not_read_is_a_one_line_diagnostic(capsys, command, fixture):
    # read as a trace expression, these gave "unbound recursion variable"
    code, out, err = run(capsys, command, str(FIXDIR / fixture), *(["Buyer"] if command == "project" else []))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.rstrip().endswith(f"not {Path(fixture).suffix}")


def test_project_under_scribble_eliminates_shuffles(capsys, tmp_path):
    # as `realizability --preset scribble` does: the shuffle becomes a choice
    # of its orderings, and the merge failure is the one realizability reports
    path = str(FIXDIR / "flexible_purchase.trace")
    code, _, err = run(capsys, "project", path, "Buyer", "--doctrine", "scribble")
    assert (code, err) == (1, "projection failed: no single role initiates every branch (candidates: Buyer, Seller)\n")
    code, out, _ = run(capsys, "realizability", path, "--preset", "scribble")
    assert code == 1 and "no single role initiates every branch (candidates: Buyer, Seller)" in out
    one_sender = tmp_path / "one_sender.trace"
    one_sender.write_text("A -> B : x ; (A -> B : y /\\ A -> C : z)\n")
    code, out, _ = run(capsys, "project", str(one_sender), "A", "--doctrine", "scribble")
    assert (code, out) == (0, "B!x ; (B!y ; C!z (+) C!z ; B!y)\n")


def test_project_under_scribble_reads_a_variable_branch_as_its_body(capsys, tmp_path):
    # B sends n, A sends m by going round again: no single decider, as
    # `realizability --preset scribble` finds after unrolling
    path = tmp_path / "loop.trace"
    path.write_text("rec X (A -> B : m ; (B -> A : n \\/ X))\n")
    code, _, err = run(capsys, "project", str(path), "B", "--doctrine", "scribble")
    assert (code, err) == (1, "projection failed: no single role initiates every branch (candidates: A, B)\n")
    code, out, _ = run(capsys, "realizability", str(path), "--preset", "scribble")
    assert code == 1 and "(candidates: A, B)" in out
    path.write_text("rec X (A -> B : m ; (A -> B : n \\/ X))\n")
    code, out, _ = run(capsys, "project", str(path), "A", "--doctrine", "scribble")
    assert (code, out) == (0, "rec X (B!m ; (B!n (+) X))\n")
