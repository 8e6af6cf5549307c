"""Per-agent protocol filter: checks requested emissions against the local
history, records observations, and optionally applies the channel-selector
reception discipline.

The filter never rejects a reception.  Under anytime reception a delivery
is recorded immediately; under the blocking selector it waits in a per-peer
queue until the behavior expects that channel.  Integrity trouble observed
on reception is recorded and flagged as peer noncompliance, never refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bspl.core import InfoProtocol
from .bspl.enactment import (
    EMISSION,
    RECEPTION,
    History,
    IntegrityConflict,
    MessageInstance,
    check_emission,
    known_bindings,
    observe,
)
from .cfp.fsm import TypeLevelFsm
from .diagnostics import Diagnostic, Severity
from .hapn import HapnConfigState, HapnEvent, HapnMachine, NoTransition, step_hapn
from .netsim import Reception, dequeue, enqueue


@dataclass(frozen=True)
class BsplBackend:
    """Universe of discourse: every schema of every loaded protocol."""

    protocols: tuple[InfoProtocol, ...]

    def protocol_of(self, mi: MessageInstance) -> InfoProtocol | None:
        for p in self.protocols:
            if mi.schema in p.messages:
                return p
        return None


@dataclass(frozen=True)
class CfpBackend:
    """Type-level machine; only messages in the machine's alphabet fit."""

    fsm: TypeLevelFsm


@dataclass(frozen=True)
class HapnBackend:
    machine: HapnMachine


@dataclass(frozen=True)
class FilterState:
    owner: str
    backend: BsplBackend | CfpBackend | HapnBackend
    reception: Reception = Reception.ANYTIME
    history: History | None = None
    fsm_state: int | None = None
    hapn_config: HapnConfigState | None = None
    pending: tuple[tuple[str, tuple[MessageInstance, ...]], ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()
    rejections: tuple[tuple[str, str], ...] = ()  # (message name, reason)

    def __post_init__(self):
        if self.history is None:
            object.__setattr__(self, "history", History(self.owner))
        if isinstance(self.backend, CfpBackend) and self.fsm_state is None:
            object.__setattr__(self, "fsm_state", self.backend.fsm.initial)
        if isinstance(self.backend, HapnBackend) and self.hapn_config is None:
            object.__setattr__(self, "hapn_config", HapnConfigState(self.backend.machine.initial))


@dataclass(frozen=True)
class Rejection:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def request_emission(f: FilterState, mi: MessageInstance) -> tuple[FilterState, Rejection | None]:
    """Accept and record the emission iff the backend allows it from the
    current state; on rejection the history is unchanged and the attempt is
    logged as a rejection record."""
    if mi.schema.sender != f.owner:
        return _reject(f, mi, Rejection("NotSender", f"{f.owner} is not the sender of {mi.schema.name}"))
    if isinstance(f.backend, BsplBackend):
        protocol = f.backend.protocol_of(mi)
        if protocol is None:
            return _reject(f, mi, Rejection("UnknownMessage", f"{mi.schema.name} is not in any loaded protocol"))
        error = check_emission(f.history, mi, protocol)
        if error is not None:
            return _reject(f, mi, Rejection(error.code, str(error)))
        return _record(f, EMISSION, mi), None
    if isinstance(f.backend, CfpBackend):
        nxt = f.backend.fsm.move(f.fsm_state, mi.schema.receiver, "!", mi.schema.name)
        if nxt is None:
            return _reject(f, mi, Rejection("NotInProtocol", f"the local machine has no send of {mi.schema.name} here"))
        return _record(_step(f, fsm_state=nxt), EMISSION, mi), None
    machine = f.backend.machine
    event = _hapn_event(mi)
    try:
        successors = step_hapn(f.hapn_config, machine, event)
    except NoTransition:
        return _reject(f, mi, Rejection("NotInProtocol", f"no machine transition for {mi.schema.name}"))
    return _record(_step(f, hapn_config=successors[0]), EMISSION, mi), None


def _reject(f: FilterState, mi: MessageInstance, rejection: Rejection) -> tuple[FilterState, Rejection]:
    logged = _step(f, rejections=f.rejections + ((mi.schema.name, str(rejection)),))
    return logged, rejection


def on_delivery(f: FilterState, mi: MessageInstance) -> tuple[FilterState, list[MessageInstance]]:
    """Handle an infrastructure delivery; returns the new state and the
    observations surfaced to the reasoner (possibly several when a held
    message becomes visible, possibly none while a message is held)."""
    if mi.schema.receiver != f.owner:
        raise ValueError(f"{f.owner} is not the receiver of {mi.schema.name}")
    if f.reception is Reception.ANYTIME or isinstance(f.backend, (BsplBackend, HapnBackend)):
        return _receive_now(f, mi), [mi]
    # blocking selector: queue per sending peer, then drain whatever the
    # machine currently expects
    return _drain(_step(f, pending=enqueue(f.pending, mi.schema.sender, mi)))


def _drain(f: FilterState) -> tuple[FilterState, list[MessageInstance]]:
    """Take the head of each queue the machine expects, first peer first,
    until it expects none; a head that does not fit is dropped and noted."""
    surfaced: list[MessageInstance] = []
    while True:
        fsm, state = f.backend.fsm, f.fsm_state
        ready = next(((peer, queue[0]) for peer, queue in f.pending if _expects_channel(fsm, state, peer)), None)
        if ready is None:
            return f, surfaced
        peer, head = ready
        nxt = fsm.move(state, peer, "?", head.schema.name)
        f = _step(f, pending=dequeue(f.pending, peer, 0))
        if nxt is None:
            text = f"{head.schema.name} arrived on the expected channel from {peer} but does not fit"
            f = _step(f, diagnostics=f.diagnostics + (Diagnostic("UnexpectedMessage", text, subject=f.owner),))
        else:
            f = _record(_step(f, fsm_state=nxt), RECEPTION, head)
            surfaced.append(head)


def _expects_channel(fsm: TypeLevelFsm, state: int, peer: str) -> bool:
    return any(key[:2] == (peer, "?") for key in fsm.index.get(state, ()))


def _receive_now(f: FilterState, mi: MessageInstance) -> FilterState:
    f = _record(f, RECEPTION, mi)
    if isinstance(f.backend, BsplBackend):
        protocol = f.backend.protocol_of(mi)
        if protocol is not None:
            try:
                known_bindings(f.history, mi.key(protocol), protocol)
            except IntegrityConflict as conflict:
                f = _step(
                    f,
                    diagnostics=f.diagnostics
                    + (Diagnostic("IntegrityConflict", str(conflict), Severity.WARNING, subject=f.owner),),
                )
        else:
            f = _step(
                f,
                diagnostics=f.diagnostics
                + (Diagnostic("UnknownMessage", f"{mi.schema.name} is not in any loaded protocol", Severity.WARNING),),
            )
    elif isinstance(f.backend, CfpBackend):
        nxt = f.backend.fsm.move(f.fsm_state, mi.schema.sender, "?", mi.schema.name)
        if nxt is None:
            f = _step(
                f,
                diagnostics=f.diagnostics
                + (Diagnostic("NotInProtocol", f"reception of {mi.schema.name} deviates from the local machine", Severity.WARNING),),
            )
        else:
            f = _step(f, fsm_state=nxt)
    elif isinstance(f.backend, HapnBackend):
        try:
            successors = step_hapn(f.hapn_config, f.backend.machine, _hapn_event(mi))
            f = _step(f, hapn_config=successors[0])
        except NoTransition:
            f = _step(
                f,
                diagnostics=f.diagnostics
                + (Diagnostic("NotInProtocol", f"no machine transition for {mi.schema.name}", Severity.WARNING),),
            )
    return f


def _step(f: FilterState, **changes) -> FilterState:
    """`dataclasses.replace(f, **changes)` without its field scan and
    `__init__` run: a copy of f's fields with the changes made.  f's
    fields are complete already, so `__post_init__` would change none."""
    stepped = object.__new__(FilterState)
    stepped.__dict__.update(f.__dict__, **changes)
    return stepped


def _record(f: FilterState, kind: str, mi: MessageInstance) -> FilterState:
    return _step(f, history=observe(f.history, kind, mi))


def _hapn_event(mi: MessageInstance) -> HapnEvent:
    return HapnEvent(mi.schema.sender, mi.schema.receiver, mi.schema.name, mi.bindings)
