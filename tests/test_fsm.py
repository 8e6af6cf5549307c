"""Type-level machines from the derivative walk.

`extract_fsm` steps sets of local remainders with `projection.local_steps`
on the exploration core and minimizes the result.  The Thompson
construction it replaced is kept in `thompson.py` as the oracle: the
printed machine depends only on the language, so both must print the same
bytes.  The CLI pins below were printed by that construction.
"""

import random
import sys
from pathlib import Path

import pytest

from generators import random_cfp, random_scribble, random_shuffle_expr
from thompson import thompson_fsm

from protolab import matrix
from protolab.cfp.ast import has_shuffle, roles
from protolab.cfp.fsm import export_fsm, extract_fsm
from protolab.cfp.projection import MergeFailure, project_scribble, project_trace_c, project_trace_f
from protolab.cfp.scribble_parser import parse_scribble
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import eliminate_shuffle
from protolab.cli import main
from protolab.realizability import _infer_deciders

ROOT = Path(__file__).resolve().parents[1]
FIXDIR = ROOT / "src" / "protolab" / "fixtures"
sys.path.insert(0, str(ROOT / "perfbench"))
import ladders  # noqa: E402

# an inner recursion that shadows an outer one of the same name, which the
# outer body still reaches; an unguarded variable; a non-tail recursion
SOURCES = {
    "shadow_choice": "rec P (A -> B : a ; (rec P (B -> A : b ; P) \\/ P))",
    "shadow_branch": "rec P (A -> B : a ; (B -> A : c ; P \\/ rec P (B -> A : b ; P)))",
    "unguarded": "rec P (P \\/ A -> B : a ; P)",
    "non_tail": "rec P (A -> B : a ; P ; B -> A : b)",
}

# a choice whose polarity, read from its branches' first events, says
# external, while one branch loops to a send; and an inner recursion whose
# unfolding meets a binder of the outer recursion's name
DIFFERENTIAL_SOURCES = [
    "rec V (A -> B : s ; rec W (V \\/ rec U (W \\/ B -> A : r ; U)))",
    "rec Q (rec P (A -> B : a ; (rec Q (B -> A : b ; P \\/ B -> A : e ; Q) \\/ Q)))",
]

# `project --fsm` under trace-c and trace-f alike, per source and role
PINNED = {
    ("shadow_choice", "A"): """node 0 initial
node 1
node 2
edge 0 -> 1 B!a()
edge 1 -> 1 B!a()
edge 1 -> 2 B?b()
edge 2 -> 2 B?b()
""",
    ("shadow_choice", "B"): """node 0 initial
node 1
node 2
edge 0 -> 1 A?a()
edge 1 -> 2 A!b()
edge 1 -> 1 A?a()
edge 2 -> 2 A!b()
""",
    ("shadow_branch", "A"): """node 0 initial
node 1
node 2
edge 0 -> 1 B!a()
edge 1 -> 2 B?b()
edge 1 -> 0 B?c()
edge 2 -> 2 B?b()
""",
    ("shadow_branch", "B"): """node 0 initial
node 1
node 2
edge 0 -> 1 A?a()
edge 1 -> 2 A!b()
edge 1 -> 0 A!c()
edge 2 -> 2 A!b()
""",
    ("unguarded", "A"): """node 0 initial
edge 0 -> 0 B!a()
""",
    ("unguarded", "B"): """node 0 initial
edge 0 -> 0 A?a()
""",
    ("non_tail", "A"): """node 0 initial
node 1
node 2
node 3
node 4 final
edge 0 -> 1 B!a()
edge 1 -> 2 B!a()
edge 2 -> 3 B?b()
edge 3 -> 4 B?b()
""",
    ("non_tail", "B"): """node 0 initial
node 1
node 2
node 3
node 4 final
edge 0 -> 1 A?a()
edge 1 -> 2 A?a()
edge 2 -> 3 A!b()
edge 3 -> 4 A!b()
""",
}


@pytest.mark.parametrize("doctrine", ["trace-c", "trace-f"])
@pytest.mark.parametrize("source,role", sorted(PINNED))
def test_project_fsm_bytes_of_recursions(capsys, tmp_path, source, role, doctrine):
    path = tmp_path / f"{source}.trace"
    path.write_text(SOURCES[source] + "\n")
    assert main(["project", str(path), role, "--fsm", "--doctrine", doctrine]) == 0
    assert capsys.readouterr().out == PINNED[source, role]


@pytest.mark.parametrize("role", ["Buyer", "Seller"])
def test_trace_c_keeps_a_shuffle_free_recursion_folded(capsys, role):
    # the machine the matrix's TraceC cells check against, not two rounds
    path = FIXDIR / "concurrent_pricing_star.trace"
    assert main(["project", str(path), role, "--fsm"]) == 0
    assert capsys.readouterr().out == export_fsm(matrix._pricing_fsms("TraceC")[role])


# ---------------------------------------------------------------------------
# the differential against the Thompson construction


def local_behaviors(expr):
    """Every local behavior of a global expression, role by role: trace-c
    on the folded and on the shuffle-eliminated form, trace-f, and
    scribble with inferred deciders."""
    eliminated = eliminate_shuffle(expr)
    folded = eliminated if has_shuffle(expr) else expr
    projections = [
        lambda role: project_trace_c(folded, role),
        lambda role: project_trace_c(eliminated, role),
        lambda role: project_trace_f(expr, role),
        lambda role: project_scribble(_infer_deciders(folded, {}), role),
    ]
    out = []
    for role in roles(expr):
        for project in projections:
            try:
                out.append(project(role))
            except MergeFailure:
                pass
    return out


def _fixture_exprs():
    return [(parse_scribble if f.suffix == ".scr" else parse_trace)(f.read_text()) for f in sorted(FIXDIR.glob("*.trace")) + sorted(FIXDIR.glob("*.scr"))]


def _random_exprs():
    rng = random.Random(7)
    exprs = [random_cfp(rng, depth=rng.randint(2, 4)) for _ in range(300)]
    exprs += [random_shuffle_expr(rng) for _ in range(300)]
    exprs += [random_scribble(rng).body for _ in range(300)]
    return exprs


def _ladder_behaviors():
    """The local behaviors of k = 1-5 request/reply pairs, shuffled on
    disjoint and on shared role pairs, and of 75-600 Scribble statements.
    Five shared pairs keep only their trace-f behaviors: the oracle builds
    an eliminated shuffle's DAG as the tree it stands for, 113,400 leaves."""
    exprs = [parse_trace(build(k)) for k in range(1, 6) for build in (ladders.disjoint_pairs, ladders.shared_pairs)]
    exprs += [parse_scribble(ladders.scribble_sequence(n, 10)[0]) for n in (75, 150, 300, 600)]
    shared5 = exprs.pop(9)
    return [local for e in exprs for local in local_behaviors(e)] + [project_trace_f(shared5, role) for role in roles(shared5)]


def _assert_same_machines(behaviors, least):
    assert len(behaviors) >= least
    for local in behaviors:
        assert export_fsm(extract_fsm(local)) == export_fsm(thompson_fsm(local))


def test_fixture_machines_equal_the_thompson_construction():
    exprs = _fixture_exprs() + [parse_trace(s) for s in [*SOURCES.values(), *DIFFERENTIAL_SOURCES]]
    _assert_same_machines([local for e in exprs for local in local_behaviors(e)], 150)


def test_random_machines_equal_the_thompson_construction():
    _assert_same_machines([local for e in _random_exprs() for local in local_behaviors(e)], 8_000)


def test_ladder_machines_equal_the_thompson_construction():
    _assert_same_machines(_ladder_behaviors(), 100)
