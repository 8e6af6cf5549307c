"""Capture the realizability table that `tests/test_compose_graph.py`
checks the composition engine against.

The table was captured at commit b4f0f61, the last commit with the
path-enumerating `runtime.compose`; this script needs that commit's
`protolab` on the path, because it hooks the old verdict's internals to
record where each witness came from:

    PYTHONPATH=<checkout of b4f0f61>/src:perfbench \\
        python tests/data/capture_realize_table.py tests/data/realize_table.json

It covers three input sets, one entry per distinct (input, config):

- the 50 golden cases of acceptance criterion 1 (`golden`);
- the realize ladder of `perfbench/ladders.py` at seeds 101-110
  (`ladder`), every op that is a CFP realizability check;
- 1,200 expressions from `tests/generators.py`, half `random_cfp` (depth
  3) and half `random_shuffle_expr`, each under one of the ten ladder
  configs in turn (`generated`).

Each entry records the outcome and reasons in plain form, the first 16
hex digits of the sha256 of the notes (joined by newlines), the witness
(events as `kind.occ.sender.receiver.name`, space-separated) and which
rule chose it; a golden case also records the first 16 hex digits of
the sha256 of its whole JSON record.  An input the old engine did not decide within the
time limit, or on which it raised, is recorded with outcome `None`
and the error.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import ladders  # noqa: E402  (perfbench on the path)
import protolab.realizability as R  # noqa: E402
from generators import random_cfp, random_shuffle_expr  # noqa: E402
from protolab.cfp.ast import print_cfp  # noqa: E402
from protolab.cfp.trace_parser import parse_trace  # noqa: E402
from protolab.matrix import fixture_text  # noqa: E402

LADDER_SEEDS = range(101, 111)
GENERATED = 1200
LIMIT_S = 60


class Overtime(BaseException):
    pass


def _alarm(signum, frame):
    raise Overtime()


def config_from_flags(flags: list[str]) -> tuple[R.CommConfig, int]:
    """The configuration `protolab realizability` builds from these flags."""
    opts = dict(zip(flags[::2], flags[1::2]))
    cfg = R.language_preset(opts.get("--preset", "trace-c"))
    if "--delivery" in opts:
        cfg = cfg.with_(delivery=R.Delivery(opts["--delivery"]))
    if "--interpretation" in opts:
        cfg = cfg.with_(interpretation=R.Interpretation(opts["--interpretation"]))
    if cfg.doctrine is R.Doctrine.TRACE_F:
        if cfg.delivery is None:
            cfg = cfg.with_(delivery=R.Delivery.FIFO_PAIRWISE)
        if cfg.interpretation is None:
            cfg = cfg.with_(interpretation=R.Interpretation.RR)
    return cfg, int(opts.get("--bound", 2))


def encode_witness(events) -> str:
    return " ".join(".".join(str(x) for x in ev) for ev in events)


def notes_sha(notes) -> str:
    return hashlib.sha256("\n".join(notes).encode()).hexdigest()[:16]


def checked(expr, cfg, bound):
    """The verdict, and which rule of the old verdict chose its witness."""
    seen = {}
    hooks = {
        "compose": lambda orig: lambda *a, **k: seen.setdefault("compose", orig(*a, **k)),
        "_check_constraints": lambda orig: lambda *a, **k: seen.setdefault("constraints", orig(*a, **k)),
        "_repeated_schema_on_channel": lambda orig: lambda *a, **k: seen.setdefault("dup", orig(*a, **k)),
        "occ_traces": lambda orig: lambda *a, **k: seen.setdefault("traces", orig(*a, **k)),
    }
    saved = {name: getattr(R, name) for name in hooks}
    for name, hook in hooks.items():
        setattr(R, name, hook(saved[name]))
    try:
        verdict = R.check_realizability(expr, cfg, bound)
    finally:
        for name, fn in saved.items():
            setattr(R, name, fn)
    if not verdict.witness:
        return verdict, None
    traces = seen.get("traces", ())
    first_trace = tuple(("E", o.occ, *o.label) for o in traces[0]) if traces else ()
    candidates = []
    if seen.get("dup"):
        candidates.append(("repeated-schema", tuple(("E", o.occ, *o.label) for o in seen["dup"][0])))
    if "compose" not in seen:
        candidates.append(("merge-failure-trace", first_trace))
    else:
        outcome = seen["compose"]
        if outcome.deadlocks:
            candidates.append(("deadlock", outcome.deadlocks[0]))
        for v in outcome.violations:
            candidates.append(("violation", v.events))
        note, events = seen.get("constraints", (None, ()))
        if note:
            candidates.append(("constraint", events))
        if R.Reason.TRACE_MISMATCH in verdict.reasons:
            labels = {tuple(o.label for o in t) for t in traces}
            extra = sorted({ex.labels() for ex in outcome.completed} - labels)
            if extra:
                candidates.append(("extra-trace", next(ex.events for ex in outcome.completed if ex.labels() == extra[0])))
        candidates.append(("first-trace", first_trace))
    for source, events in candidates:
        if events:
            assert events == verdict.witness, (source, events, verdict.witness)
            return verdict, source
    raise AssertionError("witness with no source")


def entry(kind, ident, source, flags, expr):
    cfg, bound = config_from_flags(flags)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(LIMIT_S)
    try:
        verdict, wsource = checked(expr, cfg, bound)
        record = verdict.to_record("p", cfg)
        result = {
            "outcome": verdict.outcome.value,
            "reasons": [r.value for r in verdict.reasons],
            "notes_sha": notes_sha(verdict.notes),
            "witness": encode_witness(verdict.witness),
            "witness_source": wsource,
        }
        if kind == "golden":
            result["record_sha"] = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]
    except Overtime:
        result = {"outcome": None, "error": f"over {LIMIT_S} s"}
    except RecursionError:
        result = {"outcome": None, "error": "RecursionError"}
    finally:
        signal.alarm(0)
    return {"set": kind, "id": ident, "source": source, "flags": list(flags), **result}


def main(out: str) -> None:
    entries = []
    seen = set()

    import test_acceptance

    for case_id, expr, cfg, _outcome, _reasons in test_acceptance._golden_cases():
        flags = ["--preset", cfg.doctrine.value]
        if cfg.delivery:
            flags += ["--delivery", cfg.delivery.value]
        if cfg.interpretation:
            flags += ["--interpretation", cfg.interpretation.value]
        assert config_from_flags(flags)[0] == cfg, case_id
        entries.append(entry("golden", case_id, None, flags, expr))
        print("golden", case_id, entries[-1]["outcome"], flush=True)

    fixtures = Path(R.__file__).parent / "fixtures"
    with tempfile.TemporaryDirectory() as tmp:
        for seed in LADDER_SEEDS:
            for op in ladders.build("realize", seed, Path(tmp) / str(seed), fixtures):
                if op.argv[0] != "realizability" or op.argv[1].endswith(".hapn"):
                    continue
                path = Path(op.argv[1])
                flags = [a for a in op.argv[2:] if a not in ("--format", "json")]
                if path.parent == fixtures:
                    source = "fixture:" + path.name
                    text = fixture_text(path.name)
                elif path.name.startswith("chain"):
                    source = "chain:" + path.stem[len("chain"):]
                    text = path.read_text()
                    assert text == ladders.atom_chain(int(source[6:]))
                else:
                    text = path.read_text()
                    source = text
                key = (source, tuple(flags))
                if key in seen:
                    continue
                seen.add(key)
                ident = op.id if not op.id.startswith("random/") else f"random/{seed}/{op.id.split('/')[1]}"
                try:
                    expr = parse_trace(text)
                except RecursionError:
                    entries.append({"set": "ladder", "id": ident, "source": source, "flags": flags, "outcome": None, "error": "RecursionError"})
                    continue
                entries.append(entry("ladder", ident, source, flags, expr))
                print("ladder", ident, entries[-1]["outcome"], flush=True)

    rng = random.Random(20261018)
    made = 0
    while made < GENERATED:
        expr = random_cfp(rng, 3) if made % 2 == 0 else random_shuffle_expr(rng)
        text = print_cfp(expr)
        if parse_trace(text) != expr:
            continue
        config = ladders.ALL_CFP_CONFIGS[made % len(ladders.ALL_CFP_CONFIGS)]
        flags = list(ladders.config_args(config))
        key = (text, tuple(flags))
        if key in seen:
            continue
        seen.add(key)
        entries.append(entry("generated", f"generated/{made}", text, flags, expr))
        print("generated", made, entries[-1]["outcome"], flush=True)
        made += 1

    with open(out, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n")


if __name__ == "__main__":
    main(sys.argv[1])
