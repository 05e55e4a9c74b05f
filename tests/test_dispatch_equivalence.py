"""Differential test: compiled dispatch table vs the declared transitions.

Each controller class declares ``TRANSITIONS`` ((state, event) -> handler
method name) once; the class flattens it into a dense per-state dict when
it is defined. These tests enumerate every compiled (state, event) entry
of every controller in every built system and check it agrees with the
declared table and the ``has_transition`` / ``possible_transitions``
view — same pairs, the handler each name resolves to on the concrete
class, nothing added, nothing dropped.
"""

import pytest

from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system


def _small_config(host, org):
    return SystemConfig(
        host=host,
        org=org,
        n_cpus=2,
        n_accel_cores=2,
        cpu_l1_sets=2,
        cpu_l1_assoc=1,
        shared_l2_sets=4,
        shared_l2_assoc=2,
        accel_l1_sets=2,
        accel_l1_assoc=1,
        seed=7,
    )


def _compiled_pairs(ctrl):
    """Every (state, event) pair the compiled table will dispatch."""
    return {
        (state, event)
        for state, row in ctrl._dispatch.items()
        for event in row
    }


CASES = [(host, org) for host in HostProtocol for org in AccelOrg]


@pytest.mark.parametrize(
    "host,org", CASES,
    ids=[f"{h.name.lower()}-{o.name.lower()}" for h, o in CASES],
)
def test_compiled_table_matches_declared_transitions(host, org):
    system = build_system(_small_config(host, org))
    checked = 0
    for ctrl in system.controllers():
        cls = type(ctrl)
        compiled = _compiled_pairs(ctrl)
        declared = set(cls.TRANSITIONS)
        # Same key set in both directions.
        assert compiled == declared == set(ctrl.transitions), (
            f"{ctrl.name}: compiled table diverged from declared transitions "
            f"(extra={compiled - declared}, missing={declared - compiled})"
        )
        for state, row in ctrl._dispatch.items():
            for event, (handler, key) in row.items():
                # The flattened entry must hold the function the declared
                # name resolves to on the concrete class, and carry the
                # pre-made coverage key.
                assert ctrl.has_transition(state, event)
                assert handler is getattr(cls, cls.TRANSITIONS[(state, event)])
                assert handler is ctrl.transitions[(state, event)], (
                    f"{ctrl.name}: ({state}, {event}) bound to a different handler"
                )
                assert key == (state, event)
                checked += 1
        # The coverage denominator view is unchanged by compilation.
        assert ctrl.possible_transitions() == declared - cls.COVERAGE_EXEMPT
    # Table-driven hosts contribute hundreds of pairs; XG controllers are
    # intentionally method-driven (empty tables) and contribute zero.
    assert checked == sum(len(c.transitions) for c in system.controllers())


@pytest.mark.parametrize("host", list(HostProtocol), ids=lambda h: h.name.lower())
def test_compiled_fire_installed_per_instance(host):
    system = build_system(_small_config(host, AccelOrg.XG))
    closures = set()
    for ctrl in system.controllers():
        # Each instance carries its own closure over its class's shared table.
        assert "fire" in ctrl.__dict__
        assert not hasattr(type(ctrl), "fire")
        closures.add(id(ctrl.fire))
    assert len(closures) == len(system.controllers())

