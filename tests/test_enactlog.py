from pathlib import Path

import pytest

from protolab.bspl.enactment import instance_views
from protolab.cli import main
from protolab.enactlog import (
    LogEntry,
    format_log,
    histories_from_log,
    log_from_histories,
    log_from_run,
    parse_log,
)
from protolab.netsim import BsplAgent, Delivery, InstanceScript, SimPolicy, run_one

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "protolab" / "fixtures"


def test_log_roundtrip(pricing):
    entries = [
        LogEntry(1, "Buyer", "E", "Request", (("ID", "1"), ("item", "fig"))),
        LogEntry(1, "Seller", "R", "Request", (("ID", "1"), ("item", "fig"))),
        LogEntry(2, "Seller", "E", "Offer", (("ID", "1"), ("price", "$5"))),
        LogEntry(2, "Buyer", "R", "Offer", (("ID", "1"), ("price", "$5"))),
    ]
    text = format_log(entries)
    assert parse_log(text, [pricing]) == entries


def test_rejection_lines_roundtrip(pricing):
    entries = [LogEntry(3, "Seller", "X", "Offer", (), "AlreadyBound(price)")]
    text = format_log(entries)
    parsed = parse_log(text, [pricing])
    assert parsed[0].kind == "X" and parsed[0].reason == "AlreadyBound(price)"


def test_unknown_message_rejected(pricing):
    with pytest.raises(ValueError):
        parse_log("1 Buyer E Bogus ID=1", [pricing])


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 Buyer E Request ID,item=fig", "binding without '=' in log line: '1 Buyer E Request ID,item=fig'"),
        ("x Seller R Request ID=1,item=fig", "malformed log line: 'x Seller R Request ID=1,item=fig'"),
    ],
)
def test_malformed_line_is_quoted_in_a_one_line_error(purchase, tmp_path, capsys, line, message):
    with pytest.raises(ValueError) as err:
        parse_log(line, [purchase])
    assert str(err.value) == message
    log = tmp_path / "bad.log"
    log.write_text(line + "\n")
    argv = ["commitments", "--protocol", str(FIXDIR / "purchase.bspl"), "--cupid", str(FIXDIR / "deliver_payment.cupid")]
    assert main([*argv, "--log", str(log), "--now", "5"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_replay_rejects_an_agent_that_does_not_own_the_message(pricing):
    with pytest.raises(ValueError, match=r"^Seller cannot emit Request \(sender is Buyer\)$"):
        histories_from_log(parse_log("1 Seller E Request ID=1,item=fig", [pricing]), [pricing])
    with pytest.raises(ValueError, match=r"^Buyer cannot receive Request \(receiver is Seller\)$"):
        histories_from_log(parse_log("1 Buyer E Request ID=1,item=fig\n2 Buyer R Request ID=1,item=fig", [pricing]), [pricing])


def test_replay_reproduces_views(want_willpay):
    scripts = [InstanceScript.make(want_willpay, [{"ID": "1", "item": "fig", "price": "$5"}])]
    agents = [BsplAgent(r, scripts) for r in want_willpay.roles]
    for seed in range(20):
        vector, log = run_one(agents, SimPolicy(Delivery.UNORDERED), seed=seed)
        histories = {h.owner: h for h in vector}
        entries = log_from_histories(histories)
        replayed = histories_from_log(parse_log(format_log(entries), [want_willpay]), [want_willpay])
        original_views = instance_views(list(histories.values()), want_willpay)
        replayed_views = instance_views(list(replayed.values()), want_willpay)
        assert original_views == replayed_views
        for owner, h in histories.items():
            assert [o.instance for o in replayed[owner].observations] == [o.instance for o in h.observations]


def test_log_from_run_ticks_are_per_agent(want_willpay):
    scripts = [InstanceScript.make(want_willpay, [{"ID": "1", "item": "fig", "price": "$5"}])]
    agents = [BsplAgent(r, scripts) for r in want_willpay.roles]
    _, log = run_one(agents, SimPolicy(Delivery.UNORDERED), seed=1)
    entries = log_from_run(log)
    per_agent: dict[str, list[int]] = {}
    for e in entries:
        per_agent.setdefault(e.agent, []).append(e.tick)
    for ticks in per_agent.values():
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)
