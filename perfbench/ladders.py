"""Workload ladders: the ops each workload runs, their seeded inputs, and
the known answer every op is checked against.

An op is one `protolab` command line, run in-process through
`protolab.cli.main`.  Its check turns (exit code, stdout) into one of
three statuses:

- "decided": a definite answer that matches the known answer;
- "undecided": a `BoundExceeded` verdict or a `bound_exceeded`
  exploration (a cap fired), which is not an error;
- "wrong": an answer that differs from the known answer.

Exceptions and exit code 2 are errors; the harness classifies them before
the check runs.  Known answers come from how each input was built or from
the acceptance tests, never from a run of the program: where the program
disagrees, the op counts as an error and the run reports it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DECIDED, UNDECIDED, WRONG = "decided", "undecided", "wrong"

Check = Callable[[int, str], tuple[str, str]]


@dataclass(frozen=True)
class Op:
    id: str
    family: str
    argv: tuple[str, ...]
    check: Check


# Per-op time limits in seconds at the reference speed (harness.py).  Each
# sits well below the frontier cases of its workload, so those are cut off
# cheaply, and far enough from every other op that machine noise does not
# move an op across it (DESIGN.md lists the two explore fixtures that sit
# just under 2x from it).
LIMITS = {"realize": 1.0, "explore": 4.5, "toolchain": 1.5}


# ---------------------------------------------------------------------------
# known-answer checks


def verdict(outcome: str, reasons: tuple[str, ...] = ()) -> Check:
    """`realizability --format json`: the outcome, and at least `reasons`."""

    def check(rc: int, out: str) -> tuple[str, str]:
        record = json.loads(out)
        got = record["outcome"]
        if got == "BoundExceeded":
            return UNDECIDED, "BoundExceeded"
        if rc != (0 if got == "Realizable" else 1):
            return WRONG, f"exit {rc} with outcome {got}"
        missing = [r for r in reasons if r not in record["reasons"]]
        if got != outcome or missing:
            return WRONG, f"got {got} {record['reasons']}, want {outcome} with {list(reasons)}"
        return DECIDED, got

    return check


def any_verdict(rc: int, out: str) -> tuple[str, str]:
    """Random expressions have no independent oracle: any verdict whose exit
    code agrees with it is accepted."""
    got = json.loads(out)["outcome"]
    if got == "BoundExceeded":
        return UNDECIDED, got
    if rc != (0 if got == "Realizable" else 1):
        return WRONG, f"exit {rc} with outcome {got}"
    return DECIDED, got


def first_line(text: str) -> Check:
    """Exit 0 and `text` as the first output line."""

    def check(rc: int, out: str) -> tuple[str, str]:
        line = out.splitlines()[0] if out else ""
        if rc != 0 or line != text:
            return WRONG, f"exit {rc}, first line {line!r}"
        return DECIDED, line

    return check


def exploration(enactments: int | None = None, capped: bool = False) -> Check:
    """`simulate --exhaustive --format json`.  A run that hits a cap is
    undecided; `capped` marks runs whose known answer is that a cap fires.
    No queue may grow past the default queue cap of 4."""

    def check(rc: int, out: str) -> tuple[str, str]:
        record = json.loads(out)
        if rc != 0:
            return WRONG, f"exit {rc}"
        if record["max_queue_depth"] > 4 or record["enactments"] > record["states_explored"]:
            return WRONG, f"inconsistent stats {record}"
        if record["bound_exceeded"]:
            return UNDECIDED, "bound_exceeded"
        if capped:
            return WRONG, "finished, but a cap must fire"
        if record["enactments"] < 1 or (enactments is not None and record["enactments"] != enactments):
            return WRONG, f"{record['enactments']} enactments, want {enactments or '>= 1'}"
        return DECIDED, f"{record['enactments']} enactments"

    return check


def fsm_shape(nodes: int, edges: int) -> Check:
    def check(rc: int, out: str) -> tuple[str, str]:
        lines = out.splitlines()
        got = (sum(l.startswith("node ") for l in lines), sum(l.startswith("edge ") for l in lines))
        if rc != 0 or got != (nodes, edges):
            return WRONG, f"exit {rc}, (nodes, edges) {got}, want {(nodes, edges)}"
        return DECIDED, f"{nodes} nodes"

    return check


def commitment_census(states: dict[str, int]) -> Check:
    def check(rc: int, out: str) -> tuple[str, str]:
        got: dict[str, int] = {}
        for inst in json.loads(out)["instances"]:
            got[inst["state"]] = got.get(inst["state"], 0) + 1
        if rc != (1 if states.get("Violated") else 0) or got != states:
            return WRONG, f"exit {rc}, states {got}, want {states}"
        return DECIDED, f"{sum(got.values())} instances"

    return check


def matrix_golden(rc: int, out: str) -> tuple[str, str]:
    if rc != 0 or json.loads(out)["matches_golden"] is not True:
        return WRONG, f"exit {rc}, matrix differs from the golden table"
    return DECIDED, "matches_golden"


PURCHASE_SHAPES = ({"Request", "Offer", "Accept", "Deliver", "Payment"}, {"Request", "Offer", "Reject"})


def simulated_log(shapes: tuple[set[str], ...] | None) -> Check:
    """`simulate --seed`: every emission is received exactly once (the
    network is noncreative and a run ends only when nothing is in transit),
    and with one purchase instance the emitted messages form one of the two
    shapes of acceptance criterion 2."""

    def check(rc: int, out: str) -> tuple[str, str]:
        sent: dict[str, int] = {}
        received: dict[str, int] = {}
        for line in out.splitlines():
            _tick, _agent, kind, message = line.split()[:4]
            table = sent if kind == "E" else received
            table[message] = table.get(message, 0) + 1
        if rc != 0 or not sent or sent != received:
            return WRONG, f"exit {rc}, sent {sent}, received {received}"
        if shapes is not None and set(sent) not in shapes:
            return WRONG, f"emitted {sorted(sent)}, not a known shape"
        return DECIDED, f"{sum(sent.values())} messages"

    return check


# ---------------------------------------------------------------------------
# generated sources


def disjoint_pairs(k: int) -> str:
    """k request/reply pairs on disjoint role pairs, joined by shuffle."""
    return " | ".join(f"(A{i} -> B{i} : Req{i} ; B{i} -> A{i} : Rep{i})" for i in range(1, k + 1)) + "\n"


def shared_pairs(k: int) -> str:
    """k request/reply pairs on one role pair, joined by shuffle."""
    return " | ".join(f"(A -> B : Req{i} ; B -> A : Rep{i})" for i in range(1, k + 1)) + "\n"


def atom_chain(n: int) -> str:
    """n distinct messages in sequence, each sent by the previous receiver."""
    return " ; ".join(f"A -> B : M{i}" if i % 2 else f"B -> A : M{i}" for i in range(1, n + 1)) + "\n"


def choice_fan(k: int) -> str:
    """k branches, each an ask/answer pair that A initiates."""
    return " \\/ ".join(f"(A -> B : Ask{i} ; B -> A : Ans{i})" for i in range(1, k + 1)) + "\n"


OPERATORS = (";", "\\/", "|")
# Every binary tree shape of up to four atoms (at most two levels deep)
# with every choice of operators: 1 + 3 + 18 + 27 shapes.
SHAPES = (
    ["atom"]
    + [(o, "atom", "atom") for o in OPERATORS]
    + [(o1, (o2, "atom", "atom"), "atom") for o1 in OPERATORS for o2 in OPERATORS]
    + [(o1, "atom", (o2, "atom", "atom")) for o1 in OPERATORS for o2 in OPERATORS]
    + [(o1, (o2, "atom", "atom"), (o3, "atom", "atom")) for o1 in OPERATORS for o2 in OPERATORS for o3 in OPERATORS]
)


def random_expression(rng: random.Random, shape) -> str:
    """`shape` with seeded atoms over roles A, B, C; message names repeat,
    so correlation ambiguity can arise.  Fixing the shapes keeps the
    family's cost from swinging with the seed."""
    if shape == "atom":
        sender, receiver = rng.sample("ABC", 2)
        return f"{sender} -> {receiver} : m{rng.randrange(4)}"
    op, left, right = shape
    return f"({random_expression(rng, left)} {op} {random_expression(rng, right)})"


def bspl_chain(name: str, length: int, roles: tuple[str, str] = ("A", "B")) -> str:
    """A protocol whose messages form one causal chain: message i needs the
    value message i-1 produced, so each instance enacts strictly in order."""
    params = ", ".join(["out ID key"] + [f"out p{i}" for i in range(1, length + 1)])
    lines = [f"protocol {name} {{", f"  roles {roles[0]}, {roles[1]}", f"  parameters {params}"]
    for i in range(1, length + 1):
        sender, receiver = (roles[0], roles[1]) if i % 2 else (roles[1], roles[0])
        ins = "out ID" if i == 1 else f"in ID, in p{i - 1}"
        lines.append(f"  {sender} -> {receiver}: M{i}[{ins}, out p{i}]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def scribble_sequence(n: int, choice_every: int) -> tuple[str, int, int]:
    """A global protocol of n statements over roles A, B, C (every
    `choice_every`-th a two-branch choice).  Returns the source and the
    node and edge count of A's minimal state machine: one node per
    A-involving statement plus the initial node, and two edges for each
    A-involving choice."""
    roles = ("A", "B", "C")
    lines = ["global protocol Big(role A, role B, role C) {"]
    nodes, edges = 1, 0
    for i in range(n):
        sender, receiver = roles[i % 3], roles[(i + 1) % 3]
        is_choice = choice_every and i % choice_every == choice_every - 1
        if is_choice:
            lines.append(f"  choice at {sender} {{ X{i}() from {sender} to {receiver}; }} or {{ Y{i}() from {sender} to {receiver}; }}")
        else:
            lines.append(f"  M{i}(x: Int) from {sender} to {receiver};")
        if "A" in (sender, receiver):
            nodes += 1
            edges += 2 if is_choice else 1
    lines.append("}")
    return "\n".join(lines) + "\n", nodes, edges


def trace_source(rng: random.Random, n: int) -> str:
    """n distinct atoms in pairs joined by sequence, choice and shuffle in
    turn (the seed picks only the roles), with no recursion variable, so
    `check` reports no diagnostic."""
    blocks = []
    for i in range(0, n, 2):
        a, b = rng.sample(("A", "B", "C", "D"), 2)
        op = (";", "\\/", "/\\")[i // 2 % 3]
        blocks.append(f"({a} -> {b} : t{i} {op} {b} -> {a} : t{i + 1})")
    return " ;\n".join(blocks) + "\n"


def hapn_source(rng: random.Random, n: int) -> str:
    """A machine with n transitions along a path of states, with guards and
    bind/unbind actions over a handful of variables."""
    lines = ["machine Big", "var x0, x1, x2, x3", "state s0 initial"]
    lines += [f"state s{i}" for i in range(1, n)] + [f"state s{n} final"]
    for i in range(n):
        a, b = rng.sample(("A", "B", "C"), 2)
        var = f"x{i % 4}"
        if i % 2:
            lines.append(f"trans s{i} -> s{i + 1} on {a} -> {b} : M{i}(v) when bound({var}) do unbind({var})")
        else:
            lines.append(f"trans s{i} -> s{i + 1} on {a} -> {b} : M{i}(v) when unbound({var}) do bind({var}, arg.v)")
    return "\n".join(lines) + "\n"


# Purchase commitment shapes: the message days of one instance relative to
# a start day, and the lifecycle state `deliver_payment.cupid`
# (detach Deliver within Accept + 3, discharge Payment within Deliver + 3)
# gives it on day NOW.  Shapes anchored at NOW stay open on that day.
NOW = 10_000
COMMITMENT_SHAPES = {
    "discharged": ({"Request": 0, "Offer": 1, "Accept": 2, "Deliver": 3, "Payment": 4}, "Discharged", False),
    "violated": ({"Request": 0, "Offer": 1, "Accept": 2, "Deliver": 4}, "Violated", False),
    "expired": ({"Request": 0, "Offer": 1, "Accept": 2}, "Expired", False),
    "late_delivery": ({"Request": 0, "Offer": 1, "Accept": 2, "Deliver": 7}, "Expired", False),
    "detached": ({"Request": -4, "Offer": -3, "Accept": -2, "Deliver": -1}, "Detached", True),
    "active": ({"Request": -3, "Offer": -2, "Accept": -1}, "Active", True),
    "rejected": ({"Request": 0, "Offer": 1, "Reject": 2}, None, False),
}
PURCHASE_MESSAGES = {  # name: (sender, receiver, parameters)
    "Request": ("Buyer", "Seller", ("ID", "item")),
    "Offer": ("Seller", "Buyer", ("ID", "item", "price")),
    "Accept": ("Buyer", "Seller", ("ID", "item", "price", "decision", "address")),
    "Reject": ("Buyer", "Seller", ("ID", "item", "price", "decision", "OK")),
    "Deliver": ("Seller", "Buyer", ("ID", "item", "address", "dropOff")),
    "Payment": ("Buyer", "Seller", ("ID", "price", "dropOff", "OK")),
}


def commitment_log(rng: random.Random, instances: int) -> tuple[str, dict[str, int]]:
    """A purchase enactment log of `instances` instances in seeded shapes,
    and the census of lifecycle states it must give."""
    events = []
    census: dict[str, int] = {}
    for n in range(instances):
        days, state, at_now = COMMITMENT_SHAPES[rng.choice(sorted(COMMITMENT_SHAPES))]
        start = NOW if at_now else NOW - 20 - rng.randrange(5_000)
        values = {"ID": f"i{n}", "item": f"item{n}", "price": str(n), "decision": "yes", "address": "a", "dropOff": "d", "OK": "ok"}
        for message, offset in days.items():
            sender, receiver, params = PURCHASE_MESSAGES[message]
            body = ",".join(f"{p}={values[p]}" for p in params)
            events.append((start + offset, sender, "E", message, body))
            events.append((start + offset, receiver, "R", message, body))
        if state:
            census[state] = census.get(state, 0) + 1
    events.sort(key=lambda e: e[0])
    return "".join(f"{d} {agent} {kind} {msg} {body}\n" for d, agent, kind, msg, body in events), census


# ---------------------------------------------------------------------------
# workloads

ALL_CFP_CONFIGS = (
    [("trace-c",)]
    + [("trace-f", d, i) for d in ("fifo", "unordered") for i in ("SS", "SR", "RS", "RR")]
    + [("scribble",)]
)


def config_args(config: tuple[str, ...]) -> tuple[str, ...]:
    preset, *rest = config
    args = ("--preset", preset)
    if rest:
        args += ("--delivery", rest[0], "--interpretation", rest[1])
    return args


def config_name(config: tuple[str, ...]) -> str:
    return "/".join(config)


FIFO_RR = ("trace-f", "fifo", "RR")
UNORDERED_RR = ("trace-f", "unordered", "RR")

FLEX_CHOICE = (
    "Buyer -> Seller : Request ; (Buyer -> Seller : Payment ; Seller -> Buyer : Shipment"
    " \\/ Seller -> Buyer : Shipment ; Buyer -> Seller : Payment)\n"
)


def golden_cases() -> list[tuple[str, str, tuple[str, ...], str, tuple[str, ...]]]:
    """The golden verdicts of acceptance criterion 1 (50 cases) as command lines:
    (case id, input name, CLI flags, outcome, required reasons)."""
    R, U = "Realizable", "Unrealizable"
    nonlocal_ = ("NonlocalChoice",)

    def tf(delivery: str, interp: str) -> tuple[str, ...]:
        return ("--preset", "trace-f", "--delivery", delivery, "--interpretation", interp)

    cases = []
    for d in ("unordered", "fifo"):
        for interp, outcome in (("SS", R), ("SR", R), ("RS", U), ("RR", U)):
            cases.append((f"a/{d}/{interp}", "split", tf(d, interp), outcome, ()))
    cases.append(("b/unordered/RR", "same", tf("unordered", "RR"), U, ()))
    cases.append(("b/fifo/RR", "same", tf("fifo", "RR"), R, ()))
    for form, name in (("raw", "flexible_purchase"), ("choice", "flex_choice")):
        cases.append((f"c/trace-c/{form}", name, ("--preset", "trace-c"), U, nonlocal_))
        cases.append((f"c/scribble/{form}", name, ("--preset", "scribble"), U, nonlocal_))
        for d in ("unordered", "fifo"):
            for interp in ("SS", "SR", "RS", "RR"):
                cases.append((f"c/trace-f/{form}/{d}/{interp}", name, tf(d, interp), U, nonlocal_))
    cases.append(("d/trace-c", "pricing_catalog", ("--preset", "trace-c"), U, nonlocal_))
    cases.append(("d/trace-f", "pricing_catalog", tf("fifo", "RR"), U, nonlocal_))
    cases.append(("e/trace-c/fifo", "want_willpay", ("--preset", "trace-c"), R, ()))
    cases.append(("e/trace-c/unordered", "want_willpay", ("--preset", "trace-c", "--delivery", "unordered"), U, ()))
    cases.append(("e/scribble/fifo", "want_willpay", ("--preset", "scribble"), R, ()))
    cases.append(("e/scribble/unordered", "want_willpay", ("--preset", "scribble", "--delivery", "unordered"), U, ()))
    for interp in ("SS", "SR", "RR"):
        cases.append((f"e/trace-f/fifo/{interp}", "want_willpay", tf("fifo", interp), R, ()))
        cases.append((f"e/trace-f/unordered/{interp}", "want_willpay", tf("unordered", interp), U, ()))
    cases.append(("f/trace-c", "indirect_payment", ("--preset", "trace-c"), U, ()))
    for interp in ("SS", "SR", "RS", "RR"):
        cases.append((f"f/trace-f/fifo/{interp}", "indirect_payment", tf("fifo", interp), U, ()))
    cases.append(("f/scribble", "indirect_payment", ("--preset", "scribble"), R, ()))
    cases.append(("g/unordered/RR", "concurrent_pricing_rec", tf("unordered", "RR"), U, ()))
    cases.append(("g/fifo/RR", "concurrent_pricing_rec", tf("fifo", "RR"), R, ()))
    return cases


class Inputs:
    """Writes input files into a work directory and names them."""

    def __init__(self, workdir: Path, fixtures: Path):
        self.workdir = workdir
        self.fixtures = fixtures

    def fixture(self, name: str) -> str:
        return str(self.fixtures / name)

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)


def realize_ops(inputs: Inputs, rng: random.Random, tiny: bool) -> list[Op]:
    ops: list[Op] = []

    def add(op_id: str, family: str, path: str, flags: tuple[str, ...], check: Check) -> None:
        ops.append(Op(op_id, family, ("realizability", path, "--format", "json") + tuple(flags), check))

    # Chains: each message is sent by the previous receiver and all names
    # differ, so every model realizes them.  Up to 300 atoms they run under
    # four models and at 350 under eight (400 atoms would come within 2x
    # of the limit); the larger sizes raise RecursionError today and run
    # once.  The realize tail (11th slowest op, with six ops cut off) sits
    # in the middle of the eight 350-atom ops, on fixed inputs, above every
    # seeded random expression, rather than on the edge between two sizes.
    four = (FIFO_RR, UNORDERED_RR, ("trace-c",), ("scribble",))
    eight = four + tuple(("trace-f", d, i) for d in ("fifo", "unordered") for i in ("SS", "SR"))
    for n in (50, 100) if tiny else (50, 100, 200, 250, 300, 350, 600, 800, 1000, 1200):
        path = inputs.write(f"chain{n}.trace", atom_chain(n))
        for config in (FIFO_RR,) if n > 350 else eight if n == 350 else four:
            add(f"chain/n{n}/{config_name(config)}", f"chain/n{n}", path, config_args(config), verdict("Realizable"))

    golden_paths = {
        "split": inputs.write("split.trace", "W -> X : p ; W -> Y : q\n"),
        "same": inputs.write("same.trace", "W -> X : p ; W -> X : q\n"),
        "flex_choice": inputs.write("flex_choice.trace", FLEX_CHOICE),
    }
    for name in ("flexible_purchase", "pricing_catalog", "want_willpay", "indirect_payment", "concurrent_pricing_rec"):
        golden_paths[name] = inputs.fixture(f"{name}.trace")
    for case_id, name, flags, outcome, reasons in golden_cases():
        add(f"golden/{case_id}", "golden", golden_paths[name], flags, verdict(outcome, reasons))

    # Disjoint pairs: one pair is realizable under every model; from two
    # pairs on, the shuffle operands start at different roles, so the
    # verdict is NonlocalChoice (rule 5).  k >= 3 under trace-f is the
    # composition frontier (paths grow as (2k)!/2^k); k = 5 under scribble
    # is the shuffle-elimination frontier.  (k = 4 under scribble takes
    # about 1.3 s, too close to the limit, so it is left out.)
    for k in (1, 2) if tiny else (1, 2, 3, 4, 5):
        path = inputs.write(f"disjoint{k}.trace", disjoint_pairs(k))
        configs = ALL_CFP_CONFIGS if k <= 2 else [FIFO_RR, ("scribble",)] if k in (3, 5) else [FIFO_RR]
        for config in configs:
            want = verdict("Realizable") if k == 1 else verdict("Unrealizable", ("NonlocalChoice",))
            add(f"disjoint/k{k}/{config_name(config)}", "disjoint", path, config_args(config), want)

    # Shared pairs: A starts every pair and the names are distinct, so no
    # choice is nonlocal and no delivery order can cross correlations; the
    # pluggable doctrine must find every interleaving realizable.  k = 3 is
    # run only under unordered delivery, the full-search frontier: under
    # FIFO it takes about half the realize limit, too close to it.
    for k in (2,) if tiny else (2, 3):
        path = inputs.write(f"shared{k}.trace", shared_pairs(k))
        configs = (FIFO_RR, ("trace-f", "fifo", "SS")) if k == 2 else ()
        for config in configs + (UNORDERED_RR, ("trace-f", "unordered", "SR")):
            add(f"shared/k{k}/{config_name(config)}", "shared", path, config_args(config), verdict("Realizable"))

    # Choice fan-out: A initiates every branch (a local choice) and every
    # label is distinct, so the fan-out is realizable.
    for k in (4, 8) if tiny else (4, 8, 16, 32, 64):
        path = inputs.write(f"fan{k}.trace", choice_fan(k))
        for config in (("trace-c",), FIFO_RR, UNORDERED_RR, ("scribble",)):
            add(f"fan/k{k}/{config_name(config)}", "fan", path, config_args(config), verdict("Realizable"))

    # Recursion bounds on concurrent_pricing_rec: under FIFO the repeated
    # request/offer rounds stay in order (realizable); under unordered
    # delivery two Request occurrences share a channel from bound 2 on and
    # can cross (rule 6), while bound 1 has a single round.
    rec = inputs.fixture("concurrent_pricing_rec.trace")
    for bound in (1, 2) if tiny else range(1, 9):
        for config in (FIFO_RR, ("trace-c",)):
            add(f"rec/b{bound}/{config_name(config)}", "rec", rec, config_args(config) + ("--bound", str(bound)), verdict("Realizable"))
        want = verdict("Realizable") if bound == 1 else verdict("Unrealizable", ("OrderViolation",))
        add(f"rec/b{bound}/{config_name(UNORDERED_RR)}", "rec", rec, config_args(UNORDERED_RR) + ("--bound", str(bound)), want)

    # Seeded random expressions: every shape in turn under every config in
    # turn, with seeded atoms.  No independent oracle yet, so only "no
    # error" is checked.
    for i in range(20 if tiny else 400):
        path = inputs.write(f"random{i}.trace", random_expression(rng, SHAPES[i % len(SHAPES)]) + "\n")
        config = ALL_CFP_CONFIGS[i % len(ALL_CFP_CONFIGS)]
        add(f"random/{i}/{config_name(config)}", "random", path, config_args(config), any_verdict)

    # The state-machine preset decides .hapn machines by synchronous
    # stepping, which always realizes them.
    for name in ("purchase", "flexible_purchase", "concurrent_pricing"):
        ops.append(
            Op(
                f"hapn/{name}",
                "hapn",
                ("realizability", inputs.fixture(f"{name}.hapn"), "--preset", "hapn"),
                first_line("Realizable (state machine under synchronous stepping)"),
            )
        )
    return ops


BSPL_FIXTURES = ("catalog", "flexible_purchase", "indirect_payment", "pricing", "purchase", "want_willpay")

# One-instance enactment counts that follow from the protocols: pricing and
# catalog are a single causal chain; purchase has its two shapes (accept or
# reject); want_willpay's two messages share a channel, so unordered
# delivery lets the seller see them in either order.
ONE_INSTANCE_ENACTMENTS = {
    ("pricing", "fifo"): 1,
    ("pricing", "unordered"): 1,
    ("catalog", "fifo"): 1,
    ("catalog", "unordered"): 1,
    ("purchase", "fifo"): 2,
    ("purchase", "unordered"): 2,
    ("want_willpay", "fifo"): 1,
    ("want_willpay", "unordered"): 2,
}


def explore_ops(inputs: Inputs, rng: random.Random, tiny: bool) -> list[Op]:
    ops: list[Op] = []

    def add(op_id: str, family: str, path: str, instances: int, policy: str, check: Check) -> None:
        argv = ("simulate", path, "--exhaustive", "--format", "json", "--instances", str(instances), "--policy", policy)
        ops.append(Op(op_id, family, argv, check))

    heavy = {  # fixture runs past the explore limit today (the frontier)
        ("flexible_purchase", 2, "unordered"),
        ("indirect_payment", 2, "unordered"),
        ("purchase", 2, "fifo"),
        ("purchase", 2, "unordered"),
    }
    for name in BSPL_FIXTURES:
        for instances in (1,) if tiny else (1, 2):
            for policy in ("unordered", "fifo"):
                if tiny and (name, instances, policy) in heavy:
                    continue
                expected = ONE_INSTANCE_ENACTMENTS.get((name, policy)) if instances == 1 else None
                add(f"fixture/{name}/x{instances}/{policy}", "fixture", inputs.fixture(f"{name}.bspl"), instances, policy, exploration(expected))
    if not tiny:
        # Three runs of each: ten ops are slower than these six and L = 4 at
        # two instances (0.6-0.8 reference s together), so the explore tail
        # (11th slowest op) falls in the middle of that group rather than
        # on the single next op.
        for name in ("pricing", "catalog"):
            for rep in range(3):
                add(f"fixture/{name}/x3/fifo/{rep}", "fixture3", inputs.fixture(f"{name}.bspl"), 3, "fifo", exploration())
        # Six messages on one channel exceed the queue cap of 4: the known
        # answer is that the cap fires.
        add("fixture/want_willpay/x3/fifo", "fixture3", inputs.fixture("want_willpay.bspl"), 3, "fifo", exploration(capped=True))
        add("frontier/want_willpay/x3/unordered", "frontier", inputs.fixture("want_willpay.bspl"), 3, "unordered", exploration())

    # Chains at one instance: long histories, few states (2L + 1), and
    # exactly one enactment because each message needs the one before.
    # At two instances: short histories, many interleavings.
    # Each length runs as several protocols with seeded role names, so the
    # explore median (among the L = 16 runs) and tail (next to the L = 32
    # runs) fall in groups of like ops rather than on single inputs.
    chain_role_pairs = (("A", "B"), ("Buyer", "Seller"), ("P", "Q"), ("Left", "Right"))
    for length, variants in ((4, 1), (8, 1)) if tiny else ((8, 3), (16, 12), (24, 3), (32, 3)):
        for variant in range(variants):
            roles = chain_role_pairs[rng.randrange(len(chain_role_pairs))]
            path = inputs.write(f"chain{length}_{variant}.bspl", bspl_chain(f"Chain{length}", length, roles))
            for policy in ("unordered", "fifo"):
                add(f"chain/L{length}/{variant}/x1/{policy}", f"chain1/L{length}", path, 1, policy, exploration(1))
    # (L = 4 under unordered delivery runs past the limit, like the
    # fixture frontier, so it is left out.)
    for length, policies in ((2, ("unordered", "fifo")),) if tiny else ((3, ("unordered", "fifo")), (4, ("fifo",))):
        path = inputs.write(f"pair_chain{length}.bspl", bspl_chain(f"PairChain{length}", length))
        for policy in policies:
            add(f"chain/L{length}/x2/{policy}", "chain2", path, 2, policy, exploration())
    return ops


def toolchain_ops(inputs: Inputs, rng: random.Random, tiny: bool) -> list[Op]:
    ops: list[Op] = []
    # The repeated matrix runs are the middle of the ladder, so op_p50_ms
    # is the matrix's per-op time rather than a seed-dependent boundary
    # between two families.
    for i in range(2 if tiny else 30):
        ops.append(Op(f"matrix/{i}", "matrix", ("matrix", "--format", "json"), matrix_golden))

    ok = first_line("ok")
    scale = 1 if tiny else 10
    sources = {
        "bspl": "".join(bspl_chain(f"Chain{i}", 20 * scale, ("A", "B")) for i in range(1, 6)),
        "trace": trace_source(rng, 60 * scale),
        "scr": scribble_sequence(30 * scale, 7)[0],
        "hapn": hapn_source(rng, 40 * scale),
    }
    for ext, text in sources.items():
        path = inputs.write(f"big.{ext}", text)
        for rep in range(2):
            ops.append(Op(f"check/{ext}/{rep}", "check", ("check", path), ok))

    # project --fsm: the minimal machine is a path, so its size is known
    # from the generator.  600 statements is the toolchain's frontier.
    for n in (30, 60) if tiny else (75, 150, 300, 600):
        text, nodes, edges = scribble_sequence(n, 10)
        path = inputs.write(f"seq{n}.scr", text)
        ops.append(Op(f"project_fsm/n{n}", "project_fsm", ("project", path, "A", "--fsm"), fsm_shape(nodes, edges)))

    protocol, cupid = inputs.fixture("purchase.bspl"), inputs.fixture("deliver_payment.cupid")
    for n in (20, 50) if tiny else (250, 500, 1000):
        log_text, census = commitment_log(rng, n)
        path = inputs.write(f"purchase{n}.log", log_text)
        argv = ("commitments", "--protocol", protocol, "--cupid", cupid, "--log", path, "--now", str(NOW), "--format", "json")
        ops.append(Op(f"commitments/n{n}", "commitments", argv, commitment_census(census)))

    for i in range(4 if tiny else 8):
        name = ("purchase", "pricing", "flexible_purchase", "want_willpay")[i % 4]
        seed = rng.randrange(1_000_000)
        check = simulated_log(PURCHASE_SHAPES if name == "purchase" else None)
        ops.append(Op(f"simulate/{name}/{seed}", "simulate", ("simulate", inputs.fixture(f"{name}.bspl"), "--seed", str(seed)), check))
    return ops


WORKLOADS = {"realize": realize_ops, "explore": explore_ops, "toolchain": toolchain_ops}


def interleave(ops: list[Op]) -> list[Op]:
    """`ops` with each family spread evenly over the ladder: the i-th of a
    family's n ops goes to the relative position (i + 1/2) / n.  Like ops
    then run at different moments of a pass, so a stretch in which the
    host runs the program at an odd speed moves few ops of the group that
    sets a median or a tail, not all of them."""
    sizes: dict[str, int] = {}
    for op in ops:
        sizes[op.family] = sizes.get(op.family, 0) + 1
    seen: dict[str, int] = {}
    keyed = []
    for op in ops:
        i = seen.get(op.family, 0)
        seen[op.family] = i + 1
        keyed.append(((i + 0.5) / sizes[op.family], len(keyed), op))
    return [op for _position, _index, op in sorted(keyed)]


def build(workload: str, seed: int, workdir: Path, fixtures: Path, tiny: bool = False) -> list[Op]:
    """The ladder of `workload` for `seed`, with its inputs written under
    `workdir`.  The same seed gives the same ops and the same files."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return interleave(WORKLOADS[workload](Inputs(workdir, fixtures), rng, tiny))
