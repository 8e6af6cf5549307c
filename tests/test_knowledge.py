"""The one-pass knowledge reading (`Knowledge`, and `known_bindings` and
`check_emission` over it), and knowledge grown one observation at a time
(`Knowledge.after`), against a reference that scans the history for every
question, as those two functions did before the pass existed.

Histories are random: correlated, conflicting and foreign observations,
schemas of another protocol, one of them sharing a name with one of ours,
and one whose key under our protocol is empty.  Answers, raised
conflicts and every `EmissionError` (its detail text included) must be
equal."""

from hypothesis import example, given, settings, strategies as st

from protolab.bspl.core import Adornment, parse_bspl
from protolab.bspl.enactment import (
    EMISSION,
    RECEPTION,
    EmissionError,
    History,
    IntegrityConflict,
    Knowledge,
    MessageInstance,
    Observation,
    check_emission,
    known_bindings,
)

LAB = parse_bspl(
    """protocol Lab {
  roles A, B
  parameters out ID key, out x, out y, out z, out w
  A -> B: Open[out ID, out x]
  B -> A: Step[in ID, out sub key, in x, out y]
  A -> B: Fill[in ID, in sub, out z]
  B -> A: Close[in ID, in x, out w]
  A -> B: Ack[in ID, in x]
}"""
)

# Ack binds nothing new, so it alone can be a DuplicateMessage.
# Query's key under Lab is (ID); its Open has Lab's Open's name but another
# schema; Note has no key under Lab, so it correlates with every query.
OTHER = parse_bspl(
    """protocol Other {
  roles A, B
  parameters out qID key, out ID, out x
  A -> B: Query[out qID, out ID]
  B -> A: Open[in qID, in ID, out x]
  A -> B: Note[out x]
}"""
)

SCHEMAS = LAB.messages + OTHER.messages
VALUES = ("1", "2")
KEY_NAMES = ("ID", "sub", "qID", "x")


# ---------------------------------------------------------------------------
# reference: one scan of the history per question


def reference_known_bindings(h, key, protocol):
    query = set(key)
    known = {}
    for obs in h.observations:
        if not query.issuperset(obs.instance.key(protocol)):
            continue
        for param, value in obs.instance.bindings:
            if param in known and known[param] != value:
                raise IntegrityConflict(param, known[param], value, key)
            known[param] = value
    return known


def reference_check_emission(h, m, p):
    if h.owner != m.schema.sender:
        raise ValueError(f"{h.owner} is not the sender of {m.schema.name}")
    key = m.key(p)
    try:
        known = reference_known_bindings(h, key, p)
    except IntegrityConflict as conflict:
        return EmissionError("IntegrityConflict", conflict.param, str(conflict))
    values = m.binding_map()
    for q in m.schema.params:
        if q.adornment is Adornment.IN:
            if q.name not in known:
                return EmissionError("UnknownIn", q.name, f"'in' parameter {q.name} is not known for key {dict(key)}")
            if known[q.name] != values[q.name]:
                return EmissionError(
                    "IntegrityConflict",
                    q.name,
                    f"'in' parameter {q.name} is bound to {known[q.name]!r}, not {values[q.name]!r}",
                )
        else:
            if q.name in known:
                return EmissionError("AlreadyBound", q.name, f"'out' parameter {q.name} already bound to {known[q.name]!r}")
    for obs in h.observations:
        if obs.kind == EMISSION and obs.instance.schema.name == m.schema.name and obs.instance.key(p) == key:
            return EmissionError("DuplicateMessage", None, f"{m.schema.name} already emitted for key {dict(key)}")
    return None


def outcome(fn, *args):
    """A call's result, or the type, text and fields of what it raised."""
    try:
        return ("ok", fn(*args))
    except IntegrityConflict as conflict:
        return ("conflict", str(conflict), conflict.param, conflict.values, conflict.key)
    except ValueError as error:
        return ("error", str(error))


def history(owner, *observed):
    return History(owner, tuple(Observation(kind, mi, tick) for tick, (kind, mi) in enumerate(observed, 1)))


def msg(name, protocol=LAB, **values):
    return MessageInstance.make(protocol.message(name), values)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def instances(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    values = {name: draw(st.sampled_from(VALUES)) for name in schema.param_names()}
    return MessageInstance.make(schema, values)


@st.composite
def histories(draw):
    owner = draw(st.sampled_from(("A", "B")))
    return history(owner, *draw(st.lists(st.tuples(st.sampled_from((EMISSION, RECEPTION)), instances()), max_size=7)))


keys = st.lists(st.tuples(st.sampled_from(KEY_NAMES), st.sampled_from(VALUES)), max_size=3).map(tuple)

# Answers random histories rarely give: a repeated emission, the same
# message received rather than emitted (no duplicate), and a union that
# conflicts through an observation with an empty key.
DUPLICATE = (history("A", (EMISSION, msg("Open", ID="1", x="1")), (EMISSION, msg("Ack", ID="1", x="1"))), msg("Ack", ID="1", x="1"))
RECEIVED = (history("A", (RECEPTION, msg("Ack", ID="1", x="1"))), msg("Ack", ID="1", x="1"))
CONFLICT = (history("A", (EMISSION, msg("Open", ID="1", x="1")), (RECEPTION, msg("Note", OTHER, x="2"))), msg("Ack", ID="1", x="1"))


# ---------------------------------------------------------------------------
# properties

FIXED = {"deadline": None, "database": None, "derandomize": True}  # same cases every run, no files written


@settings(max_examples=250, **FIXED)
@given(histories(), st.lists(keys, min_size=1, max_size=4))
def test_known_bindings_equal_the_reference_scan(h, queries):
    knowledge = Knowledge(h, LAB)
    for key in queries + queries[:1]:  # the first key twice: a cached answer
        expected = outcome(reference_known_bindings, h, key, LAB)
        assert outcome(known_bindings, h, key, LAB) == expected
        assert outcome(knowledge.bindings, key) == expected


@settings(max_examples=250, **FIXED)
@given(histories(), st.lists(instances(), min_size=1, max_size=4))
@example(DUPLICATE[0], [DUPLICATE[1]])
@example(RECEIVED[0], [RECEIVED[1]])
@example(CONFLICT[0], [CONFLICT[1]])
def test_check_emission_equals_the_reference_scan(h, messages):
    knowledge = Knowledge(h, LAB)
    for m in messages + messages[:1]:
        expected = outcome(reference_check_emission, h, m, LAB)
        assert outcome(check_emission, h, m, LAB) == expected
        assert outcome(knowledge.check_emission, m) == expected


@settings(max_examples=100, **FIXED)
@given(histories(), keys, instances())
def test_one_knowledge_answers_mixed_questions_like_fresh_scans(h, key, m):
    knowledge = Knowledge(h, LAB)
    for _ in range(2):
        assert outcome(knowledge.check_emission, m) == outcome(reference_check_emission, h, m, LAB)
        assert outcome(knowledge.bindings, key) == outcome(reference_known_bindings, h, key, LAB)
        assert outcome(knowledge.bindings, m.key(LAB)) == outcome(reference_known_bindings, h, m.key(LAB), LAB)


@settings(max_examples=250, **FIXED)
@given(histories(), st.lists(keys, min_size=1, max_size=4), st.lists(instances(), min_size=1, max_size=3))
@example(CONFLICT[0], [(("ID", "1"),)], [CONFLICT[1]])
def test_knowledge_grown_one_observation_at_a_time_answers_like_the_scan(h, queries, messages):
    # each step is asked its questions before it grows, so that the next
    # step extends the unions it built; its answers, the details of a
    # conflict too, and its fields are those of the history read whole
    knowledge = Knowledge(History(h.owner), LAB)
    for n in range(len(h.observations) + 1):
        prefix = History(h.owner, h.observations[:n])
        for key in queries:
            assert outcome(knowledge.bindings, key) == outcome(reference_known_bindings, prefix, key, LAB)
        for m in messages:
            assert outcome(knowledge.check_emission, m) == outcome(reference_check_emission, prefix, m, LAB)
        whole = Knowledge(prefix, LAB)
        fields = ("owner", "instances", "keys", "emitted", "observed")
        assert [getattr(knowledge, f) for f in fields] == [getattr(whole, f) for f in fields]
        if n < len(h.observations):
            knowledge = knowledge.after(h.observations[n].kind, h.observations[n].instance)


def test_explicit_examples_give_their_answers():
    assert reference_check_emission(*DUPLICATE, LAB).code == "DuplicateMessage"
    assert reference_check_emission(*RECEIVED, LAB) is None
    assert reference_check_emission(*CONFLICT, LAB) == EmissionError(
        "IntegrityConflict", "x", "parameter x bound to both '1' and '2' (key {'ID': '1'})"
    )
