"""The BSPL walk (`netsim.explore` over `netsim._StateSpace`) against
the walk it replaced (`walk_oracle.explore` over `walk_oracle._StateSpace`,
whose `moves` is the old one; both kept verbatim): one membership test and
at most one canonicalization per move, and a reception's successor read
from the agent's history table, must change no count, cap, enactment,
orbit size or number.  Each case runs both walks on the same agents and
compares their results (stats, cap and enactments), `_Orbits.sizes`, the
states expanded, in the order taken, with the number of next states of
each, and every numbered history's origin, payload and network key, over
the pinned explorations, loss, generated protocols, and state and queue
caps that fire at several points of a walk.

The enactments are built from the terminal states (those expanded with no
next state) and those tables, so equal expansions and tables give equal
enactments.  They are also built on both sides and compared where a walk
has at most `COMPARED_ENACTMENTS` of them: above that, building them
would take most of this module's time."""

import random
from unittest import mock

import pytest

import walk_oracle
from generators import bspl_chain, random_protocol
from protolab import netsim
from protolab.bspl.core import parse_bspl
from protolab.cli import _auto_rows
from protolab.netsim import BsplAgent, Delivery, InstanceScript, SimPolicy
from test_netsim import PINNED_EXPLORATIONS, PINNED_SYNCHRONOUS, QUEUE_DEPTHS, simulate_agents


FIXTURE_NAMES = sorted({c[0] for c in PINNED_EXPLORATIONS})
COMPARED_ENACTMENTS = 10_000


def walked(module, agents, policy, **caps):
    """`module.explore`'s result, its `_Orbits` (and through it the
    `_StateSpace`), and (state, number of next states) per state expanded,
    in the order taken."""
    made, expanded = [], []
    moves = module._StateSpace.moves

    class Recorded(netsim._Orbits):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def recorded_moves(space, state):
        nexts = moves(space, state)
        expanded.append((state, len(nexts)))
        return nexts

    with mock.patch.object(module, "_Orbits", Recorded), mock.patch.object(module._StateSpace, "moves", recorded_moves):
        result = module.explore(agents, policy, **caps)
    (orbits,) = made
    assert type(orbits.space) is module._StateSpace  # each walk over its own moves
    return result, orbits, expanded


def tables(space):
    """What a walk numbered: each agent's history origins, the payloads and the network keys."""
    return [steps.origins for steps in space.local], space.payloads.values, space.networks


def assert_same_walk(agents, policy, **caps):
    """Both walks of the agents under the policy and caps agree; the
    oracle's result is returned."""
    result, orbits, expanded = walked(netsim, agents, policy, **caps)
    expected, oracle, oracle_expanded = walked(walk_oracle, agents, policy, **caps)
    assert (result.stats, result.cap) == (expected.stats, expected.cap)
    assert orbits.sizes == oracle.sizes
    assert [len(steps.origins) for steps in orbits.space.local] == [len(steps.origins) for steps in oracle.space.local]
    assert len(orbits.space.networks) == len(oracle.space.networks)
    assert expanded == oracle_expanded
    assert tables(orbits.space) == tables(oracle.space)
    if expected.stats.enactments <= COMPARED_ENACTMENTS:
        assert result.enactments == expected.enactments
    return expected


PINNED = [c[:3] for c in PINNED_EXPLORATIONS] + [(c[0], c[1], "synchronous") for c in PINNED_SYNCHRONOUS]


@pytest.mark.parametrize("name,instances,policy", PINNED, ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED])
def test_the_walk_equals_the_oracle_on_the_pinned_explorations(name, instances, policy):
    assert_same_walk(simulate_agents(name, instances), SimPolicy(Delivery(policy)))


@pytest.mark.parametrize("policy", ["fifo", "unordered"])
@pytest.mark.parametrize("instances", [1, 2])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_the_walk_equals_the_oracle_with_loss(name, instances, policy):
    expected = assert_same_walk(simulate_agents(name, instances), SimPolicy(Delivery(policy), loss_enabled=True))
    assert expected.cap is None


def script_agents(protocol, instances):
    scripts = [InstanceScript.make(protocol, _auto_rows(protocol, instances))]
    return [BsplAgent(role, scripts) for role in protocol.roles]


# (chain length, instances): up to 5 row permutations
CHAINS = [(3, 1), (8, 1), (16, 1), (3, 2), (4, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize("policy", ["fifo", "unordered", "synchronous"])
@pytest.mark.parametrize("length,instances", CHAINS)
def test_the_walk_equals_the_oracle_on_chains(length, instances, policy):
    protocol = parse_bspl(bspl_chain(f"Chain{length}", length))
    assert_same_walk(script_agents(protocol, instances), SimPolicy(Delivery(policy)), state_cap=20_000)


def test_the_walk_equals_the_oracle_on_random_protocols():
    rng = random.Random(35)
    walks = 0
    for _ in range(40):
        protocol = random_protocol(rng)
        for instances in (1, 2):
            agents = script_agents(protocol, instances)
            for delivery in Delivery:
                policy = SimPolicy(delivery, loss_enabled=rng.random() < 0.5)
                walks += assert_same_walk(agents, policy, state_cap=2_000).stats.states_explored > 1
    assert walks > 50  # not every draw enacts nothing


# explorations whose walks stop on the state cap below: no, one and five
# row permutations, and one where the queue cap fires too
STATE_CAPPED = [("flexible_purchase", 1, "unordered"), ("want_willpay", 2, "unordered"), ("purchase", 2, "fifo"), ("pricing", 3, "fifo"), ("want_willpay", 3, "fifo")]


@pytest.mark.parametrize("name,instances,policy", STATE_CAPPED, ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in STATE_CAPPED])
def test_the_walk_equals_the_oracle_where_the_state_cap_fires(name, instances, policy):
    agents, policy = simulate_agents(name, instances), SimPolicy(Delivery(policy))
    full = assert_same_walk(agents, policy).stats.states_explored
    for cap in (1, 10, full // 2, full - 1):
        assert assert_same_walk(agents, policy, state_cap=cap).cap == "state"


@pytest.mark.parametrize("policy", ["fifo", "unordered"])
@pytest.mark.parametrize("name,depth", QUEUE_DEPTHS)
def test_the_walk_equals_the_oracle_where_the_queue_cap_fires(name, depth, policy):
    agents, policy = simulate_agents(name, 2), SimPolicy(Delivery(policy))
    assert assert_same_walk(agents, policy, queue_cap=depth).cap is None
    assert assert_same_walk(agents, policy, queue_cap=depth - 1).cap == "queue"
