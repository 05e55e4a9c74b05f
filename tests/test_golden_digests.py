"""Committed golden digests: the behaviour contract of seeded runs.

Seed-run digests (transition sequence, final memory image, stats) for
every :data:`~repro.testing.golden.PINNED_CONFIGS` case are committed in
``tests/golden/digests.json``: stress over all hosts x accelerator
organizations, fuzz over all hosts, chaos on MESI under both XG
variants, and stress + fuzz on MESIF behind a Transactional XG. The entries were generated while the compiled transition
dispatch was still proven step-for-step identical to the interpreted
table lookup it replaced, so they carry that proof forward. Any change
that perturbs a transition sequence fails here until the digests are
deliberately refreshed (``python -m repro golden --update``) and the
behaviour change is explained in the PR.
"""

import os

import pytest

from repro.host.config import AccelOrg, HostProtocol
from repro.testing.golden import (
    PINNED_CONFIGS,
    golden_run,
    load_pinned,
    pinned_label,
)
from repro.xg.interface import XGVariant

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")

STRESS_CASES = [(host, org) for host in HostProtocol for org in AccelOrg]


@pytest.fixture(scope="module")
def pinned():
    return load_pinned(GOLDEN_PATH)


@pytest.fixture(scope="module")
def fresh_run(pinned):
    """Digest of one pinned case at the file's seed and ops; each case
    runs at most once per module."""
    runs = {}

    def run(scenario, host, org=AccelOrg.XG, variant=XGVariant.FULL_STATE):
        label = pinned_label(scenario, host, org, variant)
        if label not in runs:
            runs[label] = golden_run(
                scenario, host, org, variant,
                seed=pinned["seed"], ops=pinned["ops"],
            )
        return label, runs[label]

    return run


def _check_pinned(pinned, label, fresh):
    assert fresh == pinned["digests"][label]
    # A trivially-empty run would vacuously pass; demand real traffic.
    assert fresh["transitions_count"] > 100


@pytest.mark.parametrize(
    "host,org", STRESS_CASES,
    ids=[f"{h.name.lower()}-{o.name.lower()}" for h, o in STRESS_CASES],
)
def test_stress_equivalence_all_hosts_all_orgs(pinned, fresh_run, host, org):
    _check_pinned(pinned, *fresh_run("stress", host, org))


@pytest.mark.parametrize("host", list(HostProtocol), ids=lambda h: h.name.lower())
def test_fuzz_equivalence(pinned, fresh_run, host):
    """Adversarial traffic exercises the error/guard paths too."""
    _check_pinned(pinned, *fresh_run("fuzz", host))


@pytest.mark.parametrize(
    "variant", list(XGVariant), ids=lambda v: v.name.lower()
)
def test_chaos_equivalence_both_variants(pinned, fresh_run, variant):
    """Link faults + flooding: the harshest message orderings we have."""
    _check_pinned(
        pinned, *fresh_run("chaos", HostProtocol.MESI, variant=variant)
    )


def test_equivalence_covers_distinct_behaviors(fresh_run):
    """Different configs must produce different digests — otherwise the
    pinned comparisons could be comparing a constant."""
    _, a = fresh_run("stress", HostProtocol.MESI, AccelOrg.XG)
    _, b = fresh_run("stress", HostProtocol.HAMMER, AccelOrg.XG)
    assert a["transitions"] != b["transitions"]
    assert a["stats"] != b["stats"]


# -- committed digest file ----------------------------------------------------


def test_pinned_digest_file_shape(pinned):
    assert set(pinned["digests"]) == {
        pinned_label(*case) for case in PINNED_CONFIGS
    }
    for digest in pinned["digests"].values():
        assert set(digest) >= {
            "transitions", "transitions_count", "memory", "stats", "final_tick"
        }


@pytest.mark.parametrize(
    "scenario,host,org,variant", PINNED_CONFIGS,
    ids=[pinned_label(*case).replace("/", "-") for case in PINNED_CONFIGS],
)
def test_pinned_digests_unchanged(pinned, fresh_run, scenario, host, org, variant):
    """Seed-run behavior is pinned. If this fails, a change perturbed the
    transition sequences / memory image / stats of a golden run: either
    fix the regression, or — if the change is deliberate — refresh with
    `python -m repro golden --update` and say so in the PR."""
    label, fresh = fresh_run(scenario, host, org, variant)
    assert fresh == pinned["digests"][label]
