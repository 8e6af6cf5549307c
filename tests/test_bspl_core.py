import random

import pytest

from protolab.bspl.core import (
    parse_bspl,
    parse_bspl_file,
    print_bspl,
    project_bspl,
    validate_bspl,
)
from protolab.diagnostics import ParseError, Severity
from protolab.matrix import fixture_text

from generators import random_protocol


def test_purchase_structure(purchase):
    assert purchase.name == "Purchase"
    assert purchase.roles == ("Buyer", "Seller")
    assert len(purchase.messages) == 6
    assert purchase.key_names() == ("ID",)
    request = purchase.message("Request")
    assert request.sender == "Buyer" and request.receiver == "Seller"
    assert request.outs() == ("ID", "item")
    offer = purchase.message("Offer")
    assert offer.ins() == ("ID", "item")
    # parameter order preserved as declared
    assert purchase.public_names() == ("ID", "item", "price", "decision", "OK")


def test_purchase_message_keys(purchase):
    for m in purchase.messages:
        assert purchase.message_keys(m) == ("ID",)


def test_purchase_validation_warnings_only(purchase):
    diagnostics = validate_bspl(purchase)
    assert diagnostics, "address/dropOff are message-only parameters"
    assert all(d.severity is Severity.WARNING for d in diagnostics)
    assert {d.code for d in diagnostics} == {"MessageParamNotPublic"}
    subjects = {d.message.split()[1] for d in diagnostics}
    assert subjects == {"address", "dropOff"}


def test_flexible_purchase_validates_clean(flexible_purchase):
    assert validate_bspl(flexible_purchase) == []


def test_zero_message_protocol_parses_then_fails_validation():
    p = parse_bspl("protocol Empty { roles A, B parameters out x key }")
    diagnostics = validate_bspl(p)
    codes = {d.code for d in diagnostics}
    assert "NoMessages" in codes
    assert "PublicParamUnused" in codes


def test_unproducible_parameter_is_causality_error():
    p = parse_bspl(
        """
        protocol Broken {
          roles A, B
          parameters out ID key, in price
          A -> B: Quote[out ID, in price]
        }
        """
    )
    codes = {d.code for d in validate_bspl(p) if d.severity is Severity.ERROR}
    assert "CausalityUnsatisfiable" in codes


def test_sender_equals_receiver_rejected():
    p = parse_bspl(
        """
        protocol Selfie {
          roles A, B
          parameters out ID key
          A -> A: Note[out ID]
        }
        """
    )
    assert "SenderIsReceiver" in {d.code for d in validate_bspl(p)}


def test_duplicate_role_is_parse_error():
    with pytest.raises(ParseError):
        parse_bspl("protocol P { roles A, A parameters out ID key A -> B: M[out ID] }")


def test_duplicate_parameter_is_parse_error():
    with pytest.raises(ParseError):
        parse_bspl("protocol P { roles A, B parameters out ID key, out ID A -> B: M[out ID] }")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_bspl("protocol P {\n roles A, B\n parameters out ID key\n A => B: M[out ID]\n}")
    assert err.value.line == 4


PRELUDE = "protocol P {\n roles A, B\n parameters out ID key, out x\n A -> B: M[out ID]\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("protocol P { roles A, A parameters out ID key A -> B: M[out ID] }", "duplicate role 'A' (line 1, column 23)"),
        (
            "protocol P { roles A, B parameters out ID key, out ID A -> B: M[out ID] }",
            "duplicate parameter 'ID' (line 1, column 52)",
        ),
        (
            "protocol P { roles A, B parameters out ID key A -> B: M[inout ID] }",
            "expected adornment 'in' or 'out', found 'inout' (line 1, column 57)",
        ),
        # a duplicate message is reported at its name, whatever follows it
        (PRELUDE + " B -> A: M[in ID, out x]\n}", "duplicate message 'M' (line 5, column 10)"),
        (PRELUDE + " B -> A: M[in ID, out x]", "duplicate message 'M' (line 5, column 10)"),
        (PRELUDE + " B -> A: N[in ID, out x \u00e9]\n}", "unexpected character '\u00e9' (line 5, column 25)"),
        (PRELUDE + " B -> A: N[in ID, out x", "expected ']', found end of input (line 5, column 23)"),
        (PRELUDE + "} }", "trailing input after protocol (line 5, column 3)"),
        ("", "expected 'protocol', found end of input (line 1, column 1)"),
    ],
)
def test_parse_errors_name_their_position(text, message):
    with pytest.raises(ParseError) as err:
        parse_bspl(text)
    assert str(err.value) == message


def test_multi_protocol_file():
    protocols = parse_bspl_file(fixture_text("pricing.bspl") + "\n" + fixture_text("catalog.bspl"))
    assert [p.name for p in protocols] == ["Pricing", "Catalog"]


def test_projection_pricing_seller(pricing):
    local = project_bspl(pricing, "Seller")
    assert [(ls.direction, ls.schema.name) for ls in local] == [("recv", "Request"), ("send", "Offer")]


def test_projection_unknown_role(pricing):
    with pytest.raises(KeyError):
        project_bspl(pricing, "Courier")


def test_projection_unmentioned_role_empty():
    p = parse_bspl(
        """
        protocol Spectate {
          roles A, B, C
          parameters out ID key
          A -> B: M[out ID]
        }
        """
    )
    assert project_bspl(p, "C") == ()


def test_projection_union_covers_messages_once(purchase):
    # every schema appears exactly once as a send and once as a receive
    directed = {}
    for role in purchase.roles:
        for ls in project_bspl(purchase, role):
            directed.setdefault(ls.schema.name, []).append(ls.direction)
    assert set(directed) == {m.name for m in purchase.messages}
    assert all(sorted(dirs) == ["recv", "send"] for dirs in directed.values())


def test_parse_print_roundtrip_on_fixtures(purchase, pricing, catalog, flexible_purchase):
    for p in (purchase, pricing, catalog, flexible_purchase):
        assert parse_bspl(print_bspl(p)) == p


def test_parse_print_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        p = random_protocol(rng)
        assert parse_bspl(print_bspl(p)) == p


def test_validation_order_independent(purchase):
    from protolab.bspl.core import InfoProtocol

    reordered = InfoProtocol(purchase.name, purchase.roles, purchase.public_params, tuple(reversed(purchase.messages)))
    assert {str(d) for d in validate_bspl(reordered)} == {str(d) for d in validate_bspl(purchase)}
