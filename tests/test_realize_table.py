"""Verdicts pinned against the path-enumerating composition engine.

`data/realize_table.json` holds the verdicts the path-enumerating engine
gave at commit b4f0f61 (see `data/capture_realize_table.py` for how they
were captured): the 50 golden cases, the realize benchmark ladder at
seeds 101-110 and 1,200 generated expressions.  On every input it
decided:

- outcome, reasons and notes are identical, and for the golden cases the
  whole JSON record is;
- the witness is identical, unless it came from a deadlock or a
  reception violation, whose witnesses now follow the least-path rule; a
  changed one must replay on the composition graph to such a state.

Inputs the old engine left undecided (`BoundExceeded`, over its time
limit, or a `RecursionError`) are not compared here; the ones the ladder
knows answers for are checked in `test_compose_graph.py`.
"""

import hashlib
import json
from pathlib import Path

from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import eliminate_shuffle, expand
from protolab.matrix import fixture_text
from protolab.netsim import Delivery
from protolab.realizability import (
    Doctrine,
    Interpretation,
    _project_all,
    check_realizability,
    language_preset,
)
from protolab.runtime import compose

TABLE = json.loads((Path(__file__).parent / "data" / "realize_table.json").read_text())


def config_from_flags(flags):
    """The configuration and bound `protolab realizability` builds from
    these flags."""
    opts = dict(zip(flags[::2], flags[1::2]))
    cfg = language_preset(opts.get("--preset", "trace-c"))
    if "--delivery" in opts:
        cfg = cfg.with_(delivery=Delivery(opts["--delivery"]))
    if "--interpretation" in opts:
        cfg = cfg.with_(interpretation=Interpretation(opts["--interpretation"]))
    if cfg.doctrine is Doctrine.TRACE_F:
        if cfg.delivery is None:
            cfg = cfg.with_(delivery=Delivery.FIFO_PAIRWISE)
        if cfg.interpretation is None:
            cfg = cfg.with_(interpretation=Interpretation.RR)
    return cfg, int(opts.get("--bound", 2))


def expression(entry, golden):
    source = entry["source"]
    if entry["set"] == "golden":
        return golden[entry["id"]]
    if source.startswith("fixture:"):
        return parse_trace(fixture_text(source[len("fixture:"):]))
    if source.startswith("chain:"):
        n = int(source[len("chain:"):])
        return parse_trace(" ; ".join(f"A -> B : M{i}" if i % 2 else f"B -> A : M{i}" for i in range(1, n + 1)))
    return parse_trace(source)


def encode(events):
    return " ".join(".".join(str(x) for x in ev) for ev in events)


def replays(e, cfg, bound, witness, source):
    """Whether `witness` is a path of the composition graph that ends at a
    stuck state (`deadlock`) or with a violating delivery (`violation`)."""
    expanded = expand(e, bound)
    working = eliminate_shuffle(expanded) if cfg.doctrine in (Doctrine.TRACE_C, Doctrine.SCRIBBLE) else expanded
    graph = compose(_project_all(working, cfg), cfg.delivery, cfg.reception)

    def closure(states):
        stack, seen = list(states), set(states)
        while stack:
            for event, t in graph.edges[stack.pop()]:
                if event is None and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    steps = witness if source == "deadlock" else witness[:-1]
    states = closure({0})
    for ev in steps:
        states = closure({t for n in states for event, t in graph.edges[n] if event == ev})
    if source == "deadlock":
        return bool(states & set(graph.deadlocks))
    return any(ev == witness[-1] for n in states for _, _, ev in graph.violations[n])


def test_verdicts_match_the_path_engine():
    import test_acceptance

    golden = {case_id: expr for case_id, expr, *_ in test_acceptance._golden_cases()}
    checked = changed = 0
    failures = []
    for entry in TABLE:
        if entry["outcome"] in (None, "BoundExceeded"):
            continue
        cfg, bound = config_from_flags(entry["flags"])
        e = expression(entry, golden)
        verdict = check_realizability(e, cfg, bound)
        got = {
            "outcome": verdict.outcome.value,
            "reasons": [r.value for r in verdict.reasons],
            "notes_sha": hashlib.sha256("\n".join(verdict.notes).encode()).hexdigest()[:16],
        }
        want = {k: entry[k] for k in got}
        if got != want:
            failures.append((entry["id"], entry["flags"], got, want))
            continue
        if entry["set"] == "golden":
            record = json.dumps(verdict.to_record("p", cfg), sort_keys=True).encode()
            if hashlib.sha256(record).hexdigest()[:16] != entry["record_sha"]:
                failures.append((entry["id"], "record differs"))
        witness = encode(verdict.witness)
        if witness != entry["witness"]:
            if entry["set"] == "golden" or entry["witness_source"] not in ("deadlock", "violation"):
                failures.append((entry["id"], entry["flags"], "witness", witness, entry["witness"]))
            elif not replays(e, cfg, bound, verdict.witness, entry["witness_source"]):
                failures.append((entry["id"], entry["flags"], "witness does not replay", witness))
            changed += 1
        checked += 1
    assert not failures, failures[:5]
    assert checked >= 5000
    assert changed  # the least-path rule does move some witnesses
