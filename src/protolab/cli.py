"""Command-line entry point.

Exit codes: 0 for success / Realizable / compliant, 1 for Unrealizable or
violations or fatal diagnostics, 2 for usage and parse errors.  Input
formats dispatch on extension: .bspl, .trace, .scr, .hapn, .cupid.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import matrix as matrix_mod
from .bspl.core import InfoProtocol, parse_bspl_file, project_bspl, validate_bspl
from .cfp.ast import has_shuffle, roles
from .cfp.fsm import export_fsm, extract_fsm
from .cfp.projection import MergeFailure, print_local, project_scribble, project_trace_c, project_trace_f
from .cfp.scribble_parser import parse_scribble, parse_scribble_protocol
from .cfp.trace_parser import parse_trace
from .cfp.transforms import DEFAULT_UNROLL, eliminate_shuffle
from .commitments import bind_spec, commitment_states, parse_cupid
from .diagnostics import ParseError, Severity
from .enactlog import format_log, histories_from_log, log_from_run, parse_log
from .hapn import parse_hapn
from .netsim import DEFAULT_QUEUE_CAP, DEFAULT_STATE_CAP, BsplAgent, Delivery, InstanceScript, SimPolicy, explore, run_one
from .realizability import Doctrine, Interpretation, _infer_deciders, check_realizability, language_preset

SCHEMA_VERSION = "1"

FORMATS_HELP = """\
input formats (by extension):
  .bspl   protocol <name> { roles A, B  parameters out ID key, in x, ...
          A -> B: Msg[out ID, in x] ... }          // comments with //
  .trace  atoms `A -> B : Msg(sig)`; `;` sequence (binds tightest),
          `\\/` choice, `/\\` or `|` shuffle (binds loosest), `(e)*` star,
          `P = expr` named recursion, `rec P (expr)` inline, `eps`
  .scr    global protocol Name(role A, role B) { Msg(p: T) from A to B;
          choice at A { ... } or { ... }  do Name(A, B); }
  .hapn   state s0 initial; state s2 final;
          trans s0 -> s1 on A -> B : Msg(p) when bound(x) and unbound(y)
          do bind(x, arg.p), unbind(y)
  .cupid  commitment Name Debtor to Creditor  create Msg
          detach Msg [lo, Ref + n]  discharge Msg [lo, Ref + n]
  logs    one event per line: <timestamp> <agent> <E|R> <Msg> <k=v,...>
          (rejections: <timestamp> <agent> X <Msg> <reason>)
"""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 2 if exit_.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply (Python recursion limit reached)", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="protolab",
        description="Workbench for multiagent protocol languages: parsing, projection, "
        "realizability, simulation, commitments, and the evaluation matrix.",
        epilog=FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(required=True)

    check = sub.add_parser("check", help="parse and validate a protocol source")
    check.add_argument("path", type=Path)
    check.set_defaults(func=cmd_check)

    project = sub.add_parser("project", help="print a role's local behavior")
    project.add_argument("path", type=Path)
    project.add_argument("role")
    project.add_argument("--doctrine", choices=["trace-c", "trace-f", "scribble", "bspl"], default=None)
    project.add_argument("--fsm", action="store_true", help="emit the type-level state machine")
    project.set_defaults(func=cmd_project)

    realizability = sub.add_parser("realizability", help="decide realizability under a communication model")
    realizability.add_argument("path", type=Path)
    realizability.add_argument("--preset", choices=["trace-c", "trace-f", "scribble", "hapn"])
    realizability.add_argument("--delivery", choices=[d.value for d in Delivery])
    realizability.add_argument("--interpretation", choices=[i.value for i in Interpretation])
    realizability.add_argument("--bound", type=int)
    realizability.add_argument("--format", choices=["text", "json"], default="text")
    realizability.set_defaults(func=cmd_realizability)

    simulate = sub.add_parser("simulate", help="simulate information-protocol agents")
    simulate.add_argument("paths", nargs="+", type=Path)
    simulate.add_argument("--policy", choices=[d.value for d in Delivery], default=Delivery.UNORDERED.value)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--exhaustive", action="store_true")
    simulate.add_argument("--instances", type=int, default=1, help="instances each initiator may originate")
    simulate.add_argument("--format", choices=["text", "json"], default="text")
    simulate.set_defaults(func=cmd_simulate)

    commitments = sub.add_parser("commitments", help="evaluate commitment states over an enactment log")
    commitments.add_argument("--protocol", type=Path, required=True)
    commitments.add_argument("--cupid", type=Path, required=True)
    commitments.add_argument("--log", type=Path, required=True)
    commitments.add_argument("--now", type=int, required=True)
    commitments.add_argument("--format", choices=["text", "json"], default="text")
    commitments.set_defaults(func=cmd_commitments)

    matrix = sub.add_parser("matrix", help="reproduce the language-evaluation matrix")
    matrix.add_argument("--format", choices=["text", "json"], default="text")
    matrix.set_defaults(func=cmd_matrix)
    return parser


def cmd_check(args) -> int:
    suffix = args.path.suffix
    text = args.path.read_text()
    if suffix == ".bspl":
        exit_code = 0
        for protocol in _protocols(args.path, text):
            diagnostics = validate_bspl(protocol)
            for d in diagnostics:
                print(f"{protocol.name}: {d}")
            if any(d.severity is Severity.ERROR for d in diagnostics):
                exit_code = 1
        if exit_code == 0:
            print("ok")
        return exit_code
    if suffix == ".trace":
        expr = parse_trace(text)
        from .cfp.transforms import analyze

        for d in analyze(expr):
            print(d)
    elif suffix == ".scr":
        parse_scribble(text)
    elif suffix == ".hapn":
        parse_hapn(text)
    elif suffix == ".cupid":
        parse_cupid(text)
    else:
        print(f"unknown input format {suffix!r}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def cmd_project(args) -> int:
    suffix = args.path.suffix
    if suffix in (".hapn", ".cupid"):
        raise ValueError(f"project reads .trace, .scr and .bspl files, not {suffix}")
    text = args.path.read_text()
    doctrine = args.doctrine or {"": "trace-c", ".trace": "trace-c", ".scr": "scribble", ".bspl": "bspl"}.get(suffix, "trace-c")
    if doctrine == "bspl" and suffix in (".trace", ".scr"):
        raise ValueError(f"--doctrine bspl needs a .bspl protocol: a {suffix} protocol projects to a local behavior")
    if suffix == ".bspl" or doctrine == "bspl":
        projection = project_bspl(_one_protocol(args.path, text, "project"), args.role)
        if doctrine != "bspl":
            raise ValueError(f"--doctrine {doctrine} needs a .trace or .scr protocol: a BSPL projection is a list of messages")
        if args.fsm:
            raise ValueError("--fsm needs a .trace or .scr protocol: a BSPL projection is a list of messages")
        for local in projection:
            print(f"{local.direction} {local.schema.name} ({'to' if local.direction == 'send' else 'from'} {local.peer})")
        return 0
    if suffix == ".scr":
        session = parse_scribble_protocol(text)
        name, declared, expr = session.name, session.roles, session.body
    else:
        expr = parse_trace(text)
        name, declared = args.path.stem, roles(expr)
    if args.role not in declared:
        raise KeyError(f"unknown role {args.role!r} in protocol {name}")
    try:
        if doctrine == "scribble":
            # as realizability does, a shuffle becomes the choice of its
            # orderings; a shuffle-free recursion stays folded
            session = eliminate_shuffle(expr) if has_shuffle(expr) else expr
            local = project_scribble(_infer_deciders(session, {}), args.role)
        elif doctrine == "trace-f":
            local = project_trace_f(expr, args.role)
        else:
            local = project_trace_c(eliminate_shuffle(expr), args.role)
    except MergeFailure as failure:
        print(f"projection failed: {failure}", file=sys.stderr)
        return 1
    if args.fsm:
        print(export_fsm(extract_fsm(local)), end="")
    else:
        print(print_local(local))
    return 0


def cmd_realizability(args) -> int:
    suffix = args.path.suffix
    if suffix == ".cupid":
        raise ValueError("realizability reads .trace, .scr, .hapn and .bspl files, not .cupid")
    if suffix in (".bspl", ".hapn"):
        if args.format == "json":
            raise ValueError(f"--format json needs a .trace or .scr protocol: a {suffix} verdict is one line of text")
        given = [f"--{name} {getattr(args, name)}" for name in ("preset", "delivery", "interpretation", "bound") if getattr(args, name) is not None]
        if suffix == ".hapn" and args.preset == "hapn":
            given.remove("--preset hapn")  # the synchronous stepping a .hapn verdict assumes
        if given:
            raise ValueError(f"{', '.join(given)} {'applies' if len(given) == 1 else 'apply'} to .trace and .scr protocols, not to a {suffix} verdict")
    text = args.path.read_text()
    if suffix == ".bspl":
        protocols = _protocols(args.path, text)
        if _print_errors(protocols):
            return 1
        print("Realizable (information protocols are enactable from local histories; projections are trivial)")
        return 0
    if suffix == ".hapn":
        parse_hapn(text)
        print("Realizable (state machine under synchronous stepping)")
        return 0
    expr = parse_scribble(text) if suffix == ".scr" else parse_trace(text)
    cfg = language_preset(args.preset) if args.preset else language_preset("scribble" if suffix == ".scr" else "trace-c")
    if args.delivery:
        cfg = cfg.with_(delivery=Delivery(args.delivery))
    if args.interpretation:
        cfg = cfg.with_(interpretation=Interpretation(args.interpretation))
    if cfg.doctrine is Doctrine.TRACE_F:
        if cfg.delivery is None:
            cfg = cfg.with_(delivery=Delivery.FIFO_PAIRWISE)
        if cfg.interpretation is None:
            cfg = cfg.with_(interpretation=Interpretation.RR)
    verdict = check_realizability(expr, cfg, bound=DEFAULT_UNROLL if args.bound is None else args.bound)
    record = verdict.to_record(str(args.path), cfg)
    if args.format == "json":
        record["schema_version"] = SCHEMA_VERSION
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(verdict.outcome.value + ("" if not verdict.reasons else " (" + ", ".join(r.value for r in verdict.reasons) + ")"))
        for note in verdict.notes:
            print(f"  - {note}")
    return 0 if verdict.realizable else 1


def _print_errors(protocols: list[InfoProtocol]) -> bool:
    """Print the errors `validate_bspl` finds, named by protocol if several; whether any."""
    errors = [(p, d) for p in protocols for d in validate_bspl(p) if d.severity is Severity.ERROR]
    for p, d in errors:
        print(f"{p.name}: {d}" if len(protocols) > 1 else d)
    return bool(errors)


def _protocols(path: Path, text: str) -> list[InfoProtocol]:
    """The protocols of a .bspl source, which must hold at least one."""
    protocols = parse_bspl_file(text)
    if not protocols:
        raise ValueError(f"{path} holds no protocol")
    return protocols


def _one_protocol(path: Path, text: str, command: str) -> InfoProtocol:
    """The one protocol of a .bspl source that `command` reads."""
    protocols = parse_bspl_file(text)
    if len(protocols) != 1:
        raise ValueError(f"{path} holds {len(protocols)} protocols; {command} reads one")
    return protocols[0]


def _auto_rows(protocol, count: int) -> list[dict[str, str]]:
    names = list(protocol.public_names())
    for m in protocol.messages:
        for p in m.params:
            if p.name not in names:
                names.append(p.name)  # message-only (private) parameters
    return [{name: f"{name}{i}" for name in names} for i in range(1, count + 1)]


def cmd_simulate(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, not {args.instances}")
    if args.format == "json" and not args.exhaustive:
        raise ValueError("--format json needs --exhaustive: a seeded run prints its log as text")
    protocols = []
    for path in args.paths:
        protocols.extend(_protocols(path, path.read_text()))
    if _print_errors(protocols):
        return 1
    scripts = [InstanceScript.make(p, _auto_rows(p, args.instances)) for p in protocols]
    roles = sorted({r for p in protocols for r in p.roles})
    agents = [BsplAgent(role, scripts) for role in roles]
    policy = SimPolicy(Delivery(args.policy))
    if args.exhaustive:
        result = explore(agents, policy)
        if args.format == "json":
            record = {
                "schema_version": SCHEMA_VERSION,
                "enactments": result.stats.enactments,
                "states_explored": result.stats.states_explored,
                "max_queue_depth": result.stats.max_queue_depth,
                "bound_exceeded": result.bound_exceeded,
                **({"cap": result.cap} if result.cap else {}),
            }
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            limits = {"state": f"{DEFAULT_STATE_CAP} states", "queue": f"{DEFAULT_QUEUE_CAP} messages per channel"}
            clause = f"; the {result.cap} cap of {limits[result.cap]} fired" if result.cap else ""
            print(f"{result.stats.enactments} maximal enactments ({result.stats.states_explored} states explored{clause})")
        return 0
    vector, log = run_one(agents, policy, seed=args.seed)
    entries = log_from_run([(agent, kind, mi) for agent, kind, mi in log])
    print(format_log(entries), end="")
    return 0


def cmd_commitments(args) -> int:
    protocol = _one_protocol(args.protocol, args.protocol.read_text(), "commitments --protocol")
    spec = parse_cupid(args.cupid.read_text())
    missing = bind_spec(spec, protocol)
    if missing:
        raise ValueError(f"commitment {spec.name} names events protocol {protocol.name} lacks: {', '.join(missing)}")
    # The histories are freed once the states are decided, before the output is built.
    histories = histories_from_log(parse_log(args.log.read_text(), [protocol]), [protocol])
    states = commitment_states(spec, list(histories.values()), protocol, now=args.now)
    del histories
    payload = [
        {"key": dict(inst.key), "state": inst.state.value, "timestamps": inst.timestamp_map()} for inst in states
    ]
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "instances": payload}, indent=2, sort_keys=True))
    else:
        if not states:
            print("no commitment instances")
        for inst in states:
            key = ", ".join(f"{k}={v}" for k, v in inst.key)
            print(f"{spec.name}[{key}]: {inst.state.value}")
    violated = any(inst.state.value in ("Violated",) for inst in states)
    return 1 if violated else 0


def cmd_matrix(args) -> int:
    report = matrix_mod.run_matrix()
    ok, mismatches = matrix_mod.matches_golden(report)
    if args.format == "json":
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
        report["matches_golden"] = ok
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(matrix_mod.render_matrix(report), end="")
        print(f"matches golden table: {'yes' if ok else 'NO'}")
        for m in mismatches:
            print(f"  mismatch {m}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
