"""Commitment specifications evaluated as views over observation histories.

A specification names debtor and creditor, a creating message, and detach
and discharge messages with inclusive day windows relative to reference
events.  Instances are correlated strictly by protocol keys: a Payment in
one instance never affects a commitment created in another.  Evaluation is
monotone in the clock: advancing time never un-discharges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ._lexer import TokenStream
from .bspl.core import InfoProtocol
from .bspl.enactment import History, MessageInstance, union_bindings


class LifecycleState(str, Enum):
    NULL = "Null"
    ACTIVE = "Active"
    DETACHED = "Detached"
    DISCHARGED = "Discharged"
    EXPIRED = "Expired"
    VIOLATED = "Violated"


@dataclass(frozen=True)
class Window:
    """Inclusive [lo, hi] day window; each bound is either absolute, an
    offset from a reference event, or open."""

    lo_ref: str | None = None
    lo_offset: int | None = None  # None with no ref means open below
    hi_ref: str | None = None
    hi_offset: int | None = None

    def lo(self, ref_days: dict[str, int]) -> int | None:
        return self._bound(self.lo_ref, self.lo_offset, ref_days)

    def hi(self, ref_days: dict[str, int]) -> int | None:
        return self._bound(self.hi_ref, self.hi_offset, ref_days)

    @staticmethod
    def _bound(ref: str | None, offset: int | None, ref_days: dict[str, int]) -> int | None:
        if ref is None:
            return offset
        if ref not in ref_days:
            return None  # reference event has not happened
        return ref_days[ref] + (offset or 0)

    def __str__(self) -> str:
        def side(ref, off):
            if ref is None and off is None:
                return ""
            if ref is None:
                return str(off)
            if not off:
                return ref
            return f"{ref} + {off}" if off > 0 else f"{ref} - {-off}"

        return f"[{side(self.lo_ref, self.lo_offset)}, {side(self.hi_ref, self.hi_offset)}]"

    @property
    def unbounded(self) -> bool:
        return self.lo_ref is None and self.lo_offset is None and self.hi_ref is None and self.hi_offset is None


OPEN_WINDOW = Window()


@dataclass(frozen=True)
class CommitmentSpec:
    name: str
    debtor: str
    creditor: str
    create: str
    detach: str
    detach_window: Window = OPEN_WINDOW
    discharge: str = ""
    discharge_window: Window = OPEN_WINDOW

    def events(self) -> tuple[str, ...]:
        """The distinct events the spec names, window references included."""
        refs = (ref for w in (self.detach_window, self.discharge_window) for ref in (w.lo_ref, w.hi_ref))
        return tuple(dict.fromkeys(n for n in (self.create, self.detach, self.discharge, *refs) if n))


@dataclass(frozen=True)
class CommitmentInstance:
    spec: CommitmentSpec
    key: tuple[tuple[str, str], ...]
    state: LifecycleState
    timestamps: tuple[tuple[str, int], ...] = ()

    def timestamp_map(self) -> dict[str, int]:
        return dict(self.timestamps)


def bind_spec(spec: CommitmentSpec, protocol: InfoProtocol) -> list[str]:
    """Names of referenced events missing from the protocol."""
    names = {m.name for m in protocol.messages}
    return [n for n in spec.events() if n not in names]


def commitment_states(
    spec: CommitmentSpec,
    histories: list[History],
    protocol: InfoProtocol,
    now: int,
) -> tuple[CommitmentInstance, ...]:
    """One instance per protocol-instance key with a create event observed
    by day `now`; lifecycle computed from correlated events in windows.
    Raises IntegrityConflict on unsound input, as `instance_views` does."""
    instances: dict[tuple, dict[MessageInstance, None]] = {}
    event_days: dict[tuple, dict[str, int]] = {}  # per key, each message's earliest day up to `now`
    for h in histories:
        for obs in h.observations:
            mi = obs.instance
            key = mi.key(protocol)
            instances.setdefault(key, {})[mi] = None
            day = obs.logical_day
            if day <= now:
                days = event_days.setdefault(key, {})
                name = mi.schema.name
                if days.get(name, day) >= day:
                    days[name] = day
    for key in sorted(instances):
        union_bindings(key, instances[key])
    out = []
    for key in sorted(event_days):
        days = event_days[key]
        if spec.create not in days:
            continue
        out.append(_evaluate(spec, key, days, now))
    return tuple(out)


def _evaluate(spec: CommitmentSpec, key, days: dict[str, int], now: int) -> CommitmentInstance:
    stamps: dict[str, int] = {"create": days[spec.create]}
    detach_day = _event_in_window(spec.detach, spec.detach_window, days)
    if detach_day is None:
        deadline = spec.detach_window.hi(days)
        if deadline is not None and now > deadline:
            return CommitmentInstance(spec, key, LifecycleState.EXPIRED, _freeze(stamps))
        return CommitmentInstance(spec, key, LifecycleState.ACTIVE, _freeze(stamps))
    stamps["detach"] = detach_day
    discharge_day = _event_in_window(spec.discharge, spec.discharge_window, days)
    if discharge_day is None:
        deadline = spec.discharge_window.hi(days)
        if deadline is not None and now > deadline:
            return CommitmentInstance(spec, key, LifecycleState.VIOLATED, _freeze(stamps))
        return CommitmentInstance(spec, key, LifecycleState.DETACHED, _freeze(stamps))
    stamps["discharge"] = discharge_day
    return CommitmentInstance(spec, key, LifecycleState.DISCHARGED, _freeze(stamps))


def _event_in_window(name: str, window: Window, days: dict[str, int]) -> int | None:
    if name not in days:
        return None
    day = days[name]
    lo = window.lo(days)
    hi = window.hi(days)
    if any(ref is not None and ref not in days for ref in (window.lo_ref, window.hi_ref)):
        return None  # window anchored to an event that has not happened
    if lo is not None and day < lo:
        return None
    if hi is not None and day > hi:
        return None
    return day


def _freeze(stamps: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(stamps.items()))


# ---------------------------------------------------------------------------
# text format


def parse_cupid(text: str) -> CommitmentSpec:
    ts = TokenStream(text)
    ts.expect("commitment")
    name = ts.expect_kind("id")
    debtor = ts.expect_kind("id")
    ts.expect("to")
    creditor = ts.expect_kind("id")
    ts.expect("create")
    create = ts.expect_kind("id")
    ts.expect("detach")
    detach, detach_window = _parse_clause(ts)
    ts.expect("discharge")
    discharge, discharge_window = _parse_clause(ts)
    if not ts.done():
        raise ts.error("trailing input after commitment")
    return CommitmentSpec(name, debtor, creditor, create, detach, detach_window, discharge, discharge_window)


def _parse_clause(ts: TokenStream) -> tuple[str, Window]:
    event = ts.expect_kind("id")
    if not ts.at("["):
        return event, OPEN_WINDOW
    ts.next()
    lo_ref, lo_offset = _parse_bound(ts, stop=",")
    ts.expect(",")
    hi_ref, hi_offset = _parse_bound(ts, stop="]")
    ts.expect("]")
    return event, Window(lo_ref, lo_offset, hi_ref, hi_offset)


def _parse_bound(ts: TokenStream, stop: str) -> tuple[str | None, int | None]:
    if ts.at(stop):
        return None, None
    if ts.at_kind("num"):
        return None, int(ts.next())
    ref = ts.expect_kind("id")
    offset = 0
    if ts.at("+") or ts.at("-"):
        sign = 1 if ts.next() == "+" else -1
        offset = sign * int(ts.expect_kind("num"))
    return ref, offset


def print_cupid(spec: CommitmentSpec) -> str:
    lines = [f"commitment {spec.name} {spec.debtor} to {spec.creditor}"]
    lines.append(f"  create {spec.create}")
    lines.append(f"  detach {spec.detach}" + _window_suffix(spec.detach_window))
    lines.append(f"  discharge {spec.discharge}" + _window_suffix(spec.discharge_window))
    return "\n".join(lines) + "\n"


def _window_suffix(window: Window) -> str:
    return "" if window.unbounded else f" {window}"
