"""Traced run: per-layer call counts, self time and work counts.

Spans are recorded from the benchmark's side only.  Each layer's public
function is wrapped wherever protolab looks it up (every module that
imported the name, or the class for a method), so no program file
changes.  A span is (id, name, start, end, parent id, op id); spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus its child spans.  Only the outermost call of a recursive
function gets a span.  Work counts are read from each call's arguments
and result after its span has closed, and the time that takes is not
charged to the enclosing span.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

from harness import ERROR, TIMEOUT, run_pass

SPAN_CAP = 100_000  # spans kept in memory per run; the rest are only counted


def count_nodes(root) -> int:
    """Dataclass nodes reachable from `root` through fields and tuples."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node) and not isinstance(node, type):
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return count


# Probes: (work counters, args, result) -> None, adding to named counters.


def _add(work: dict, key: str, value) -> None:
    work[key] = work.get(key, 0) + value


def _traces(work, args, result):
    _add(work, "traces", len(result))


def _out_nodes(work, args, result):
    _add(work, "out_nodes", count_nodes(result))


def _compose(work, args, result):
    _add(work, "executions", len(result.completed))
    _add(work, "distinct_traces", len({ex.labels() for ex in result.completed}))
    _add(work, "bound_exceeded", int(result.bound_exceeded))


def _constraints(work, args, result):
    _add(work, "constraints", len(result))


def _explore(work, args, result):
    _add(work, "states", result.stats.states_explored)
    _add(work, "enactments", result.stats.enactments)
    _add(work, "bound_exceeded", int(result.bound_exceeded))
    work["max_queue_depth"] = max(work.get("max_queue_depth", 0), result.stats.max_queue_depth)


def _accepted(work, args, result):
    _add(work, "accepted", int(result is None))


def _text_bytes(work, args, result):
    _add(work, "bytes", len(args[0].encode()))


def _fsm_states(work, args, result):
    _add(work, "states", len(result.states))


def _rejected(work, args, result):
    _add(work, "rejected", int(result[1] is not None))


def _count(key):
    return lambda calls, incl, work: work.get(key, 0)


def _per_call(key):
    return lambda calls, incl, work: work.get(key, 0) / calls if calls else 0.0


def _per_second(key):
    return lambda calls, incl, work: work.get(key, 0) / incl if incl else 0.0


def _yield(calls, incl, work):
    return work.get("distinct_traces", 0) / work["executions"] if work.get("executions") else 0.0


OUT_NODES = (("out_nodes", "count", "lower", _count("out_nodes")),)
BYTES_PER_S = (("bytes_per_s", "B/s", "higher", _per_second("bytes")),)

# (module, attribute or Class.method, probe, extra metrics as (suffix,
# unit, better, value from (calls, inclusive seconds, work counters))).
# Every target also reports .calls and .self_s.
TARGETS = [
    ("protolab.cli", "main", None, ()),
    ("protolab.cfp.transforms", "expand", None, ()),
    ("protolab.cfp.transforms", "occ_traces", _traces, (("traces", "count", "lower", _count("traces")),)),
    ("protolab.cfp.transforms", "eliminate_shuffle", _out_nodes, OUT_NODES),
    (
        "protolab.runtime",
        "compose",
        _compose,
        (
            ("executions", "count", "lower", _count("executions")),
            ("distinct_traces", "count", "lower", _count("distinct_traces")),
            ("trace_yield", "ratio", "higher", _yield),
            ("bound_exceeded", "count", "lower", _count("bound_exceeded")),
        ),
    ),
    ("protolab.realizability", "check_realizability", None, ()),
    ("protolab.realizability", "sequence_constraints", _constraints, (("constraints", "count", "lower", _count("constraints")),)),
    ("protolab.realizability", "detect_nonlocal_choice", None, ()),
    ("protolab.cfp.projection", "project_trace_c", _out_nodes, OUT_NODES),
    ("protolab.cfp.projection", "project_trace_f", _out_nodes, OUT_NODES),
    ("protolab.cfp.projection", "project_scribble", _out_nodes, OUT_NODES),
    (
        "protolab.netsim",
        "explore",
        _explore,
        (
            ("states", "count", "lower", _count("states")),
            ("enactments", "count", "lower", _count("enactments")),
            ("max_queue_depth", "count", "lower", _count("max_queue_depth")),
            ("bound_exceeded", "count", "lower", _count("bound_exceeded")),
            ("states_per_s", "1/s", "higher", _per_second("states")),
        ),
    ),
    ("protolab.netsim", "run_one", None, ()),
    ("protolab.netsim", "BsplAgent.emissions", None, ()),
    ("protolab.netsim", "Network.send", None, ()),
    ("protolab.netsim", "Network.remove", None, ()),
    ("protolab.netsim", "Network.deliverable", None, ()),
    ("protolab.bspl.enactment", "check_emission", _accepted, (("accept_share", "ratio", "higher", _per_call("accepted")),)),
    ("protolab.bspl.enactment", "known_bindings", None, ()),
    ("protolab.bspl.enactment", "MessageInstance.key", None, ()),
    ("protolab.bspl.enactment", "observe", None, ()),
    ("protolab.cfp.trace_parser", "parse_trace", _text_bytes, BYTES_PER_S),
    ("protolab.cfp.scribble_parser", "parse_scribble", _text_bytes, BYTES_PER_S),
    ("protolab.bspl.core", "parse_bspl_file", _text_bytes, BYTES_PER_S),
    ("protolab.bspl.core", "parse_bspl", _text_bytes, BYTES_PER_S),
    ("protolab.bspl.core", "validate_bspl", None, ()),
    ("protolab.hapn", "parse_hapn", _text_bytes, BYTES_PER_S),
    ("protolab.commitments", "parse_cupid", _text_bytes, BYTES_PER_S),
    ("protolab.enactlog", "parse_log", _text_bytes, BYTES_PER_S),
    ("protolab.cfp.fsm", "extract_fsm", _fsm_states, (("states", "count", "lower", _count("states")),)),
    ("protolab.hapn", "conforms", None, ()),
    ("protolab.hapn", "hapn_integrity_check", None, ()),
    ("protolab.hapn", "step_hapn", None, ()),
    ("protolab.filters", "request_emission", _rejected, (("reject_share", "ratio", "lower", _per_call("rejected")),)),
    ("protolab.filters", "on_delivery", None, ()),
    ("protolab.commitments", "commitment_states", None, ()),
    ("protolab.matrix", "run_matrix", None, ()),
] + [
    ("protolab.matrix", f"{cell}_cell", None, ())
    for cell in ("instances", "integrity", "social_meaning", "concurrency", "extensibility", "asynchrony", "unordering")
]


def layer_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('protolab.')}.{attr}"


def metric_table() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    table = []
    for module, attr, _probe, extras in TARGETS:
        name = layer_name(module, attr)
        table += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        table += [(f"{name}.{suffix}", unit, better) for suffix, unit, better, _value in extras]
    table.append(("trace.overhead", "ratio", "lower"))
    return table


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [span id, child seconds]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id: str | None = None
        self.depth: dict[str, int] = {}
        self.patches: list[tuple] = []
        # per op, merged into the totals only when the op ran to the end
        self.op_calls: dict[str, list] = {}
        self.op_work: dict[str, dict] = {}
        self.calls: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.work: dict[str, dict] = {}

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self.stack = []
        self.depth = dict.fromkeys(self.depth, 0)
        self.op_calls, self.op_work = {}, {}

    def end_op(self, keep: bool) -> None:
        if not keep:
            return
        for name, (n, self_s, incl) in self.op_calls.items():
            total = self.calls.setdefault(name, [0, 0.0, 0.0])
            total[0] += n
            total[1] += self_s
            total[2] += incl
        for name, counters in self.op_work.items():
            total = self.work.setdefault(name, {})
            for key, value in counters.items():
                total[key] = max(total.get(key, 0), value) if key == "max_queue_depth" else total.get(key, 0) + value

    def exclude(self, seconds: float) -> None:
        """Time spent inside a span but outside the program (the runner's
        in-op reference loops): the innermost open span counts it as child
        time, so no self time includes it."""
        if self.stack:
            self.stack[-1][1] += seconds

    def wrap(self, name: str, fn, probe):
        tracer = self
        self.depth[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.depth[name]:
                return fn(*args, **kwargs)
            tracer.depth[name] = 1
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.depth[name] = 0
                tracer.stack.pop()
                tracer._close(name, frame, parent, start, end)
            if probe is not None:
                probe(tracer.op_work.setdefault(name, {}), args, result)
                if parent is not None:
                    parent[1] += time.perf_counter() - end
            return result

        return wrapper

    def _close(self, name, frame, parent, start, end) -> None:
        duration = end - start
        stats = self.op_calls.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += duration - frame[1]
        stats[2] += duration
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None, self.op_id))
        else:
            self.dropped += 1

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "protolab" or n.startswith("protolab.")]
        for module_name, attr, probe, _extras in TARGETS:
            name = layer_name(module_name, attr)
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(name, original, probe))
                self.patches.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.patches.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches = []

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for module, attr, _probe, extras in TARGETS:
            name = layer_name(module, attr)
            calls, self_s, incl = self.calls.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            for suffix, _unit, _better, value in extras:
                out[f"{name}.{suffix}"] = value(calls, incl, self.work.get(name, {}))
        return out

    def counts(self) -> dict:
        """Everything that must repeat exactly between two traced runs of
        the same seed: call counts and work counts (no times)."""
        return {
            name: {"calls": self.calls.get(name, [0])[0], **self.work.get(name, {})}
            for name in sorted(set(self.calls) | set(self.work))
        }

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


UNITS = {name: unit for name, unit, _better in metric_table()}


def traced_run(runner, ops, limit: float, traced_limit: float, args, out_dir) -> dict:
    """An untraced pass, then a traced pass over the ops that finished
    within the limit untraced.  Traced ops may take `traced_limit`, so that
    tracing overhead does not cut them off; an op cut off anyway is left
    out of the counts, which then repeat exactly between runs."""
    first = run_pass(runner, ops, limit)
    traced_ops = [op for op in ops if first[op.id][1] != TIMEOUT]
    tracer = Tracer()
    traced = {}
    tracer.install()
    runner.on_stolen = tracer.exclude
    try:
        for op in traced_ops:
            tracer.begin_op(op.id)
            traced[op.id] = runner.run(op, traced_limit)
            tracer.end_op(keep=traced[op.id][1] != TIMEOUT)
    finally:
        runner.on_stolen = None
        tracer.uninstall()
    kept = [op.id for op in traced_ops if traced[op.id][1] != TIMEOUT]
    untraced_s = sum(first[op_id][0] for op_id in kept)
    traced_s = sum(traced[op_id][0] for op_id in kept)
    metrics = tracer.metrics()
    metrics["trace.overhead"] = traced_s / untraced_s if untraced_s else 0.0
    changed = [op_id for op_id in kept if traced[op_id][1] != first[op_id][1] and ERROR not in (traced[op_id][1], first[op_id][1])]
    stem = f"{args.workload}-seed{args.seed}"
    counts_path = out_dir / "traces" / f"{stem}.counts.json"
    counts_path.parent.mkdir(parents=True, exist_ok=True)
    counts_path.write_text(json.dumps(tracer.counts(), indent=1, sort_keys=True) + "\n")
    tracer.write_spans(out_dir / "traces" / f"{stem}.spans.jsonl")
    lines = [
        f"trace: {len(kept)} of {len(ops)} ops traced ({len(ops) - len(traced_ops)} cut off untraced, "
        f"{len(traced_ops) - len(kept)} cut off traced); overhead {metrics['trace.overhead']:.2f}x "
        f"({traced_s:.2f} s traced / {untraced_s:.2f} s untraced)",
        f"trace: {len(tracer.spans)} spans kept, {tracer.dropped} dropped; counts in {counts_path}",
    ]
    lines += [f"trace: answer changed under tracing: {op_id}" for op_id in changed]
    return {
        "first": first,
        "correct": not changed and not any(first[op.id][1] == "wrong" for op in ops),
        "lines": lines,
        "metrics": {name: (metrics[name], UNITS[name]) for name, _u, _b in metric_table()},
    }
