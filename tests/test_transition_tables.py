"""Pinned per-class transition tables.

Every controller class ``build_system`` instantiates (each host protocol
x accelerator organization, one- and two-level accelerator caches, plus
the prefetching ``StreamingAccelL1``) declares one (state, event) table.
The rows below — (state name, event name, handler name) — and the
coverage-exempt pairs are pinned, so moving, merging or regrouping a
table cannot silently add, drop or rebind a transition. The complexity
experiment (E2) and the coverage denominator both read these tables.
"""

import itertools

import pytest

from repro.accel.l1_single import AccelL1, AL1Event, AL1State
from repro.accel.streaming import StreamingAccelL1
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system

DECLARED_TABLES = {
    'AccelL1': (
        (
            ('B', 'DataE', '_b_data_e'),
            ('B', 'DataM', '_b_data_m'),
            ('B', 'DataS', '_b_data_s'),
            ('B', 'Invalidate', '_b_inv'),
            ('B', 'WBAck', '_b_wback'),
            ('E', 'Invalidate', '_e_inv'),
            ('E', 'Load', '_hit_load'),
            ('E', 'Replacement', '_e_repl'),
            ('E', 'Store', '_e_store'),
            ('I', 'Invalidate', '_i_inv'),
            ('I', 'Load', '_i_load'),
            ('I', 'Store', '_i_store'),
            ('M', 'Invalidate', '_m_inv'),
            ('M', 'Load', '_hit_load'),
            ('M', 'Replacement', '_m_repl'),
            ('M', 'Store', '_hit_store'),
            ('S', 'Invalidate', '_stable_inv_ack'),
            ('S', 'Load', '_hit_load'),
            ('S', 'Replacement', '_s_repl'),
            ('S', 'Store', '_s_store'),
        ),
        (),
    ),
    'AccelL2Shared': (
        (
            ('B_EVICT', 'CleanWB', '_local_wb'),
            ('B_EVICT', 'DirtyWB', '_local_wb'),
            ('B_EVICT', 'InvAck', '_local_ack'),
            ('B_EVICT', 'Invalidate', '_busy_inv_stall'),
            ('B_FETCH', 'DataE', '_fetch_data'),
            ('B_FETCH', 'DataM', '_fetch_data'),
            ('B_FETCH', 'DataS', '_fetch_data'),
            ('B_FETCH', 'Invalidate', '_busy_inv'),
            ('B_LOCAL', 'CleanWB', '_local_wb'),
            ('B_LOCAL', 'DirtyWB', '_local_wb'),
            ('B_LOCAL', 'InvAck', '_local_ack'),
            ('B_LOCAL', 'Invalidate', '_busy_inv_stall'),
            ('B_PUT', 'Invalidate', '_busy_inv'),
            ('B_PUT', 'WBAck', '_put_done'),
            ('NP', 'GetM', '_np_get'),
            ('NP', 'GetS', '_np_get'),
            ('NP', 'Invalidate', '_xg_inv_np'),
            ('NP', 'PutE', '_l1_put_stale'),
            ('NP', 'PutM', '_l1_put_stale'),
            ('NP', 'PutS', '_l1_put_stale'),
            ('O', 'GetM', '_o_getm'),
            ('O', 'GetS', '_o_gets'),
            ('O', 'Invalidate', '_xg_inv'),
            ('O', 'PutE', '_l1_putx'),
            ('O', 'PutM', '_l1_putx'),
            ('O', 'PutS', '_l1_puts'),
            ('O', 'Replacement', '_repl'),
            ('S', 'GetM', '_s_getm'),
            ('S', 'GetS', '_s_gets'),
            ('S', 'Invalidate', '_xg_inv'),
            ('S', 'PutE', '_l1_putx'),
            ('S', 'PutM', '_l1_putx'),
            ('S', 'PutS', '_l1_puts'),
            ('S', 'Replacement', '_repl'),
        ),
        (
            ('B_EVICT', 'Invalidate'),
            ('B_LOCAL', 'Invalidate'),
            ('NP', 'PutE'),
            ('NP', 'PutM'),
            ('S', 'PutE'),
            ('S', 'PutM'),
        ),
    ),
    'HammerCache': (
        (
            ('E', 'Fwd_GetM', '_owner_fwd_getm'),
            ('E', 'Fwd_GetS', '_e_fwd_gets'),
            ('E', 'Fwd_GetS_Only', '_e_fwd_gets_only'),
            ('E', 'Load', '_hit_load'),
            ('E', 'Replacement', '_e_repl'),
            ('E', 'Store', '_e_store'),
            ('EI_A', 'Fwd_GetM', '_replacing_owner_getm'),
            ('EI_A', 'Fwd_GetS', '_eia_fwd_gets'),
            ('EI_A', 'Fwd_GetS_Only', '_eia_fwd_gets_only'),
            ('EI_A', 'WBAck', '_wb_send_data'),
            ('I', 'Fwd_GetM', '_ack_probe'),
            ('I', 'Fwd_GetS', '_ack_probe'),
            ('I', 'Fwd_GetS_Only', '_ack_probe'),
            ('I', 'Load', '_i_load'),
            ('I', 'Store', '_i_store'),
            ('I', 'WBNack', '_sink_nack'),
            ('II_A', 'Fwd_GetM', '_ack_probe'),
            ('II_A', 'Fwd_GetS', '_ack_probe'),
            ('II_A', 'Fwd_GetS_Only', '_ack_probe'),
            ('II_A', 'WBNack', '_wb_nacked'),
            ('IM_AD', 'Fwd_GetM', '_ack_probe'),
            ('IM_AD', 'Fwd_GetS', '_ack_probe'),
            ('IM_AD', 'Fwd_GetS_Only', '_ack_probe'),
            ('IM_AD', 'MemData', '_collect'),
            ('IM_AD', 'PeerAck', '_collect'),
            ('IM_AD', 'PeerData', '_collect'),
            ('IM_AD', 'PeerDataExcl', '_collect'),
            ('IS_AD', 'Fwd_GetM', '_ack_probe'),
            ('IS_AD', 'Fwd_GetS', '_ack_probe'),
            ('IS_AD', 'Fwd_GetS_Only', '_ack_probe'),
            ('IS_AD', 'MemData', '_collect'),
            ('IS_AD', 'PeerAck', '_collect'),
            ('IS_AD', 'PeerData', '_collect'),
            ('IS_AD', 'PeerDataExcl', '_collect'),
            ('M', 'Fwd_GetM', '_owner_fwd_getm'),
            ('M', 'Fwd_GetS', '_m_fwd_gets'),
            ('M', 'Fwd_GetS_Only', '_m_fwd_gets'),
            ('M', 'Load', '_hit_load'),
            ('M', 'Replacement', '_m_repl'),
            ('M', 'Store', '_m_store'),
            ('MI_A', 'Fwd_GetM', '_replacing_owner_getm'),
            ('MI_A', 'Fwd_GetS', '_replacing_owner_gets'),
            ('MI_A', 'Fwd_GetS_Only', '_replacing_owner_gets'),
            ('MI_A', 'WBAck', '_wb_send_data'),
            ('O', 'Fwd_GetM', '_owner_fwd_getm'),
            ('O', 'Fwd_GetS', '_o_fwd_gets'),
            ('O', 'Fwd_GetS_Only', '_o_fwd_gets'),
            ('O', 'Load', '_hit_load'),
            ('O', 'Replacement', '_o_repl'),
            ('O', 'Store', '_o_store'),
            ('OI_A', 'Fwd_GetM', '_replacing_owner_getm'),
            ('OI_A', 'Fwd_GetS', '_replacing_owner_gets'),
            ('OI_A', 'Fwd_GetS_Only', '_replacing_owner_gets'),
            ('OI_A', 'WBAck', '_wb_send_data'),
            ('OM_A', 'Fwd_GetM', '_oma_fwd_getm'),
            ('OM_A', 'Fwd_GetS', '_oma_fwd_gets'),
            ('OM_A', 'Fwd_GetS_Only', '_oma_fwd_gets'),
            ('OM_A', 'MemData', '_collect'),
            ('OM_A', 'PeerAck', '_collect'),
            ('OM_A', 'PeerData', '_collect'),
            ('OM_A', 'PeerDataExcl', '_collect'),
            ('S', 'Fwd_GetM', '_s_fwd_getm'),
            ('S', 'Fwd_GetS', '_shared_ack'),
            ('S', 'Fwd_GetS_Only', '_shared_ack'),
            ('S', 'Load', '_hit_load'),
            ('S', 'Replacement', '_s_repl'),
            ('S', 'Store', '_s_store'),
            ('S', 'WBNack', '_sink_nack'),
            ('SM_AD', 'Fwd_GetM', '_smad_fwd_getm'),
            ('SM_AD', 'Fwd_GetS', '_shared_ack'),
            ('SM_AD', 'Fwd_GetS_Only', '_shared_ack'),
            ('SM_AD', 'MemData', '_collect'),
            ('SM_AD', 'PeerAck', '_collect'),
            ('SM_AD', 'PeerData', '_collect'),
            ('SM_AD', 'PeerDataExcl', '_collect'),
        ),
        (
            ('I', 'WBNack'),
            ('IM_AD', 'PeerDataExcl'),
            ('OM_A', 'PeerData'),
            ('OM_A', 'PeerDataExcl'),
            ('S', 'WBNack'),
            ('SM_AD', 'PeerDataExcl'),
        ),
    ),
    'HammerCrossingGuard': ((), ()),
    'HammerDirectory': (
        (
            ('BUSY', 'UnblockE', '_unblock_exclusive'),
            ('BUSY', 'UnblockM', '_unblock_exclusive'),
            ('BUSY', 'UnblockS', '_unblock_shared'),
            ('IDLE', 'GetM', '_get'),
            ('IDLE', 'GetS', '_get'),
            ('IDLE', 'GetS_Only', '_get'),
            ('IDLE', 'PutOwner', '_put_owner'),
            ('IDLE', 'PutStale', '_put_stale'),
            ('WB', 'WBData', '_wb_data'),
        ),
        (),
    ),
    'MesiCrossingGuard': ((), ()),
    'MesiL1': (
        (
            ('E', 'Fwd_GetM', '_owner_fwd_getm'),
            ('E', 'Fwd_GetS', '_owner_fwd_gets'),
            ('E', 'Load', '_hit_load'),
            ('E', 'Recall', '_owner_recall'),
            ('E', 'Replacement', '_e_repl'),
            ('E', 'Store', '_e_store'),
            ('EI_A', 'Fwd_GetM', '_replacing_fwd_getm'),
            ('EI_A', 'Fwd_GetS', '_replacing_fwd_gets'),
            ('EI_A', 'Recall', '_replacing_recall'),
            ('EI_A', 'WBAck', '_wb_done'),
            ('I', 'Load', '_i_load'),
            ('I', 'Store', '_i_store'),
            ('II_A', 'Inv', '_iia_inv'),
            ('II_A', 'WBNack', '_wb_done'),
            ('IM_A', 'InvAck', '_ima_ack'),
            ('IM_AD', 'DataM', '_imad_data_m'),
            ('IM_AD', 'InvAck', '_count_ack'),
            ('IS_D', 'DataE', '_isd_data_e'),
            ('IS_D', 'DataM', '_isd_data_m'),
            ('IS_D', 'DataS', '_isd_data_s'),
            ('M', 'Fwd_GetM', '_owner_fwd_getm'),
            ('M', 'Fwd_GetS', '_owner_fwd_gets'),
            ('M', 'Load', '_hit_load'),
            ('M', 'Recall', '_owner_recall'),
            ('M', 'Replacement', '_m_repl'),
            ('M', 'Store', '_m_store'),
            ('MI_A', 'Fwd_GetM', '_replacing_fwd_getm'),
            ('MI_A', 'Fwd_GetS', '_replacing_fwd_gets'),
            ('MI_A', 'Recall', '_replacing_recall'),
            ('MI_A', 'WBAck', '_wb_done'),
            ('S', 'Inv', '_s_inv'),
            ('S', 'Load', '_hit_load'),
            ('S', 'Replacement', '_s_repl'),
            ('S', 'Store', '_s_store'),
            ('SI_A', 'Inv', '_sia_inv'),
            ('SI_A', 'WBAck', '_wb_done'),
            ('SM_A', 'InvAck', '_ima_ack'),
            ('SM_AD', 'DataM', '_imad_data_m'),
            ('SM_AD', 'Inv', '_smad_inv'),
            ('SM_AD', 'InvAck', '_count_ack'),
        ),
        (),
    ),
    'MesiL2': (
        (
            ('BUSY', 'CopyBack', '_busy_copyback'),
            ('BUSY', 'UnblockS', '_busy_unblock'),
            ('BUSY', 'UnblockX', '_busy_unblock'),
            ('EV_ACK', 'CopyBack', '_ev_ack_copyback'),
            ('EV_ACK', 'InvAck', '_ev_ack'),
            ('EV_DATA', 'CopyBackInv', '_ev_data'),
            ('IV', 'MemData', '_iv_mem_data'),
            ('NP', 'GetM', '_np_get'),
            ('NP', 'GetS', '_np_get'),
            ('NP', 'GetS_Only', '_np_get'),
            ('NP', 'PutStale', '_put_stale'),
            ('V', 'GetM', '_v_getm'),
            ('V', 'GetS', '_v_gets'),
            ('V', 'GetS_Only', '_v_gets_only'),
            ('V', 'PutS', '_v_puts'),
            ('V', 'PutStale', '_put_stale'),
            ('V', 'Replacement', '_v_repl'),
            ('X', 'GetM', '_x_getm'),
            ('X', 'GetS', '_x_gets'),
            ('X', 'GetS_Only', '_x_gets'),
            ('X', 'PutE', '_x_put'),
            ('X', 'PutM', '_x_put'),
            ('X', 'PutStale', '_put_stale'),
            ('X', 'Replacement', '_x_repl'),
        ),
        (
            ('EV_ACK', 'CopyBack'),
        ),
    ),
    'MesifCrossingGuard': ((), ()),
    'MesifL1': (
        (
            ('E', 'Fwd_GetM', '_owner_fwd_getm'),
            ('E', 'Fwd_GetS', '_owner_fwd_gets'),
            ('E', 'Load', '_hit_load'),
            ('E', 'Recall', '_owner_recall'),
            ('E', 'Replacement', '_e_repl'),
            ('E', 'Store', '_e_store'),
            ('EI_A', 'Fwd_GetM', '_replacing_fwd_getm'),
            ('EI_A', 'Fwd_GetS', '_replacing_fwd_gets'),
            ('EI_A', 'Recall', '_replacing_recall'),
            ('EI_A', 'WBAck', '_wb_done'),
            ('F', 'Fwd_GetS_F', '_serve_f'),
            ('F', 'Inv', '_shared_inv'),
            ('F', 'Load', '_hit_load'),
            ('F', 'Replacement', '_silent_evict'),
            ('F', 'Store', '_shared_store'),
            ('I', 'Fwd_GetS_F', '_fnack'),
            ('I', 'Inv', '_stale_inv'),
            ('I', 'Load', '_i_load'),
            ('I', 'Store', '_i_store'),
            ('II_A', 'Inv', '_iia_inv'),
            ('II_A', 'WBNack', '_wb_done'),
            ('IM_A', 'Fwd_GetS_F', '_fnack'),
            ('IM_A', 'Inv', '_stale_inv'),
            ('IM_A', 'InvAck', '_ack_maybe_done'),
            ('IM_AD', 'DataM', '_getm_data'),
            ('IM_AD', 'Fwd_GetS_F', '_fnack'),
            ('IM_AD', 'Inv', '_stale_inv'),
            ('IM_AD', 'InvAck', '_count_ack'),
            ('IS_D', 'DataE', '_fill_e'),
            ('IS_D', 'DataF', '_fill_f'),
            ('IS_D', 'DataM', '_fill_m'),
            ('IS_D', 'DataS', '_fill_s'),
            ('IS_D', 'Fwd_GetS_F', '_fnack'),
            ('IS_D', 'Inv', '_stale_inv'),
            ('M', 'Fwd_GetM', '_owner_fwd_getm'),
            ('M', 'Fwd_GetS', '_owner_fwd_gets'),
            ('M', 'Load', '_hit_load'),
            ('M', 'Recall', '_owner_recall'),
            ('M', 'Replacement', '_m_repl'),
            ('M', 'Store', '_m_store'),
            ('MI_A', 'Fwd_GetM', '_replacing_fwd_getm'),
            ('MI_A', 'Fwd_GetS', '_replacing_fwd_gets'),
            ('MI_A', 'Recall', '_replacing_recall'),
            ('MI_A', 'WBAck', '_wb_done'),
            ('S', 'Fwd_GetS_F', '_fnack'),
            ('S', 'Inv', '_shared_inv'),
            ('S', 'Load', '_hit_load'),
            ('S', 'Replacement', '_silent_evict'),
            ('S', 'Store', '_shared_store'),
            ('SM_A', 'InvAck', '_ack_maybe_done'),
            ('SM_AD', 'DataM', '_getm_data'),
            ('SM_AD', 'Fwd_GetS_F', '_serve_f'),
            ('SM_AD', 'Inv', '_smad_inv'),
            ('SM_AD', 'InvAck', '_count_ack'),
        ),
        (
            ('IS_D', 'DataS'),
            ('S', 'Fwd_GetS_F'),
        ),
    ),
    'MesifL2': (
        (
            ('BUSY', 'CopyBack', '_busy_copyback'),
            ('BUSY', 'FNack', '_busy_fnack'),
            ('BUSY', 'UnblockF', '_busy_unblock'),
            ('BUSY', 'UnblockS', '_busy_unblock'),
            ('BUSY', 'UnblockX', '_busy_unblock'),
            ('EV_ACK', 'CopyBack', '_ev_ack_copyback'),
            ('EV_ACK', 'InvAck', '_ev_ack'),
            ('EV_DATA', 'CopyBackInv', '_ev_data'),
            ('IV', 'MemData', '_iv_mem_data'),
            ('NP', 'GetM', '_np_get'),
            ('NP', 'GetS', '_np_get'),
            ('NP', 'GetS_Only', '_np_get'),
            ('NP', 'PutStale', '_put_stale'),
            ('V', 'GetM', '_v_getm'),
            ('V', 'GetS', '_v_gets'),
            ('V', 'GetS_Only', '_v_gets_only'),
            ('V', 'PutStale', '_put_stale'),
            ('V', 'Replacement', '_v_repl'),
            ('X', 'GetM', '_x_getm'),
            ('X', 'GetS', '_x_gets'),
            ('X', 'GetS_Only', '_x_gets'),
            ('X', 'PutE', '_x_put'),
            ('X', 'PutM', '_x_put'),
            ('X', 'PutStale', '_put_stale'),
            ('X', 'Replacement', '_x_repl'),
        ),
        (
            ('EV_ACK', 'CopyBack'),
        ),
    ),
}

# the prefetching cache overrides handlers, never the table itself
DECLARED_TABLES["StreamingAccelL1"] = DECLARED_TABLES["AccelL1"]


def _name(x):
    return getattr(x, "name", str(x))


def _one_instance_per_class():
    seen = {}
    configs = [
        SystemConfig(host=host, org=org, accel_levels=levels)
        for host, org, levels in itertools.product(HostProtocol, AccelOrg, (1, 2))
    ]
    configs.append(SystemConfig(accel_prefetch_depth=2))
    for config in configs:
        for ctrl in build_system(config).controllers():
            seen.setdefault(type(ctrl).__name__, ctrl)
    return seen


@pytest.fixture(scope="module")
def instances():
    return _one_instance_per_class()


def test_every_instantiated_class_is_pinned(instances):
    assert set(instances) == set(DECLARED_TABLES)


@pytest.mark.parametrize("cls_name", sorted(DECLARED_TABLES))
def test_declared_table_matches_pin(instances, cls_name):
    ctrl = instances[cls_name]
    rows = tuple(sorted(
        (_name(s), _name(e), handler.__name__)
        for (s, e), handler in ctrl.transitions.items()
    ))
    exempt = tuple(sorted(
        (_name(s), _name(e))
        for s, e in set(ctrl.transitions) - ctrl.possible_transitions()
    ))
    assert (rows, exempt) == DECLARED_TABLES[cls_name]


def test_instances_share_one_class_table():
    system = build_system(SystemConfig(host=HostProtocol.MESI, n_cpus=2))
    a, b = system.cpu_caches
    assert type(a) is type(b)
    assert a._dispatch is b._dispatch
    assert a.transitions is b.transitions is type(a).transitions
    with pytest.raises(TypeError):
        a.transitions[next(iter(a.transitions))] = None
    # each instance still owns its fire closure and coverage counters
    assert a.fire is not b.fire
    assert a.coverage is not b.coverage


def test_coverage_exempt_pairs_are_declared(instances):
    for ctrl in instances.values():
        assert ctrl.COVERAGE_EXEMPT <= set(ctrl.transitions), type(ctrl).__name__


def test_streaming_rows_resolve_to_its_overrides():
    table = StreamingAccelL1.transitions
    assert table[(AL1State.I, AL1Event.Load)] is StreamingAccelL1._i_load
    for state in (AL1State.M, AL1State.E, AL1State.S):
        assert table[(state, AL1Event.Load)] is StreamingAccelL1._hit_load
        assert AccelL1.transitions[(state, AL1Event.Load)] is AccelL1._hit_load
    assert StreamingAccelL1._hit_load is not AccelL1._hit_load
    # rows the subclass does not override keep the base handler
    assert table[(AL1State.I, AL1Event.Store)] is AccelL1._i_store
