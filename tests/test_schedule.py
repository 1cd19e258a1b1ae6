import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartsolve.sampling import substream
from smartsolve.schedule import (
    MAX_BLOCKS,
    MAX_DELAY,
    DelaySchedule,
    HistoryBuffer,
    ReplayLog,
    ReplayRecord,
    delayed_read,
    inconsistency,
)


def _rows(*states):
    """Rows of single-block states for readability."""
    return [(np.array([float(s)]),) for s in states]


def test_history_buffer_indexing_and_eviction():
    rows = _rows(0, 1, 2, 3)
    buf = HistoryBuffer(3, rows[0])
    for r in rows[1:]:
        buf.push(r)
    assert buf.latest() is rows[3]
    assert buf.read(2) is rows[2]
    assert buf.read(1) is rows[1]
    with pytest.raises(IndexError):
        buf.read(0)  # evicted
    with pytest.raises(IndexError):
        buf.read(4)  # not produced yet


def test_history_clamps_prehistory_to_initial():
    rows = _rows(0, 1)
    buf = HistoryBuffer(4, rows[0])
    buf.push(rows[1])
    assert buf.read(-3) is rows[0]


def test_delayed_read_zero_is_bit_identical():
    buf = HistoryBuffer(3, (np.array([1.0, 2.0]), np.array([3.0])))
    buf.push((np.array([4.0, 5.0]), np.array([6.0])))
    got = delayed_read(buf, 1, np.zeros(2, dtype=int))
    assert got[0] is buf.latest()[0] and got[1] is buf.latest()[1]


def test_delayed_read_mixed_ages_example():
    # states x^0=(0|0), x^1=(1|1), x^2=(2|2); delays (0, 2) at k=2 -> (2|0)
    buf = HistoryBuffer(3, (np.array([0.0]), np.array([0.0])))
    buf.push((np.array([1.0]), np.array([1.0])))
    buf.push((np.array([2.0]), np.array([2.0])))
    got = delayed_read(buf, 2, np.array([0, 2]))
    assert got[0][0] == 2.0 and got[1][0] == 0.0


def test_cyclic_mode_reaches_initial_state():
    tau_p = 3
    sched = DelaySchedule(tau_p=tau_p, tau_d=0, mode="cyclic", m=2, n=1)
    buf = HistoryBuffer(tau_p + 1, (np.array([0.0]), np.array([10.0])))
    for s in range(1, tau_p + 1):
        buf.push((np.array([float(s)]), np.array([10.0 + s])))
    d = sched.primal_delays(tau_p)
    np.testing.assert_array_equal(d, [tau_p, tau_p])
    got = delayed_read(buf, tau_p, d)
    assert got[0][0] == 0.0 and got[1][0] == 10.0


def test_delay_bounds_respected_by_all_modes():
    rng = substream(3, "delays")
    for mode in ("zero", "constant-max", "cyclic", "uniform-random"):
        sched = DelaySchedule(tau_p=5, tau_d=4, mode=mode, m=3, n=2,
                              rng=rng if mode == "uniform-random" else None)
        for k in range(50):
            d = sched.primal_delays(k)
            assert np.all((0 <= d) & (d <= 5))
            e = np.asarray(sched.dual_delays(k))
            assert np.all((0 <= e) & (e <= 4))


def test_cyclic_dual_reads_are_the_states_it_declares():
    # iteration k reads state k - k mod (tau_d + 1); exactly the multiples of
    # tau_d + 1 are declared readable, every other mode declares all states
    for tau_d in range(5):
        sched = DelaySchedule(tau_p=0, tau_d=tau_d, mode="cyclic", m=1, n=3)
        np.testing.assert_array_equal(
            [sched.dual_delays(k) for k in range(2 * tau_d + 3)],
            [k % (tau_d + 1) for k in range(2 * tau_d + 3)],
        )
        read = {k - sched.dual_delays(k) for k in range(60)}
        declared = {t for t in range(60) if sched.reads_dual_state(t)}
        assert read == declared == set(range(0, 60, tau_d + 1))
    rng = substream(2, "delays")
    for mode in ("zero", "constant-max", "uniform-random"):
        sched = DelaySchedule(tau_p=2, tau_d=3, mode=mode, m=1, n=2,
                              rng=rng if mode == "uniform-random" else None)
        assert all(sched.reads_dual_state(t) for t in range(20))


def test_delay_caps_above_log_field_width_rejected():
    # the log stores delays as uint8: before this check a constant-max run
    # with tau_p = 300 came back from dump/loads as d = 44
    for tau_p, tau_d in ((MAX_DELAY + 1, 0), (0, MAX_DELAY + 1), (300, 300)):
        with pytest.raises(ValueError, match=str(MAX_DELAY)):
            DelaySchedule(tau_p=tau_p, tau_d=tau_d, mode="constant-max", m=2, n=1)
    sched = DelaySchedule(tau_p=MAX_DELAY, tau_d=MAX_DELAY, mode="constant-max",
                          m=2, n=1)
    log = ReplayLog(m=2, n=1, tau_p=MAX_DELAY, tau_d=MAX_DELAY)
    log.append(ReplayRecord((0,), 0, 1, sched.primal_delays(0), sched.dual_delays(0)))
    back = ReplayLog.loads(log.dumps()).records[0]
    np.testing.assert_array_equal(back.d, [MAX_DELAY, MAX_DELAY])
    assert back.e == MAX_DELAY


def test_delayed_read_rejects_over_capacity():
    buf = HistoryBuffer(2, (np.array([0.0]),))
    with pytest.raises(ValueError):
        delayed_read(buf, 0, np.array([2]))


def test_inconsistency_examples():
    assert inconsistency([np.array([2, 2, 2]), np.array([1, 1, 1])]) == 0
    assert inconsistency([np.array([0, 1, 3])]) == 3
    with pytest.raises(ValueError):
        inconsistency([])


def test_inconsistency_bounded_by_cap_under_uniform_random():
    sched = DelaySchedule(tau_p=5, tau_d=5, mode="uniform-random", m=4, n=1,
                          rng=substream(4, "delays"))
    ds = [sched.primal_delays(k) for k in range(1000)]
    assert inconsistency(ds) <= 5


def test_replay_log_round_trip():
    log = ReplayLog(m=3, n=2, tau_p=4, tau_d=2)
    rng = np.random.default_rng(0)
    for k in range(57):
        blocks = tuple(sorted(rng.choice(3, size=rng.integers(0, 3), replace=False)))
        rec = ReplayRecord(
            blocks=tuple(int(b) for b in blocks),
            op_index=None if not blocks else int(rng.integers(0, 2)),
            eps=int(rng.integers(0, 2)),
            d=rng.integers(0, 5, size=3),
            e=int(rng.integers(0, 3)) if rng.random() < 0.5
            else rng.integers(0, 3, size=2),
        )
        log.append(rec)
    blob = log.dumps()
    back = ReplayLog.loads(blob)
    assert (back.m, back.n, back.tau_p, back.tau_d) == (3, 2, 4, 2)
    assert len(back) == len(log)
    for a, b in zip(log, back):
        assert a.blocks == b.blocks and a.op_index == b.op_index and a.eps == b.eps
        np.testing.assert_array_equal(a.d, b.d)
        np.testing.assert_array_equal(np.asarray(a.e), np.asarray(b.e))


def test_replay_log_rejects_values_its_fields_cannot_hold():
    # block indices are uint16: m = 70000 used to fail only inside dump
    for m in (MAX_BLOCKS + 1, 70_000):
        with pytest.raises(ValueError, match=str(MAX_BLOCKS)):
            ReplayLog(m=m, n=1, tau_p=0, tau_d=0)
    ReplayLog(m=MAX_BLOCKS, n=1, tau_p=0, tau_d=0)
    # delays are uint8: d = 300 and e = 256 used to come back as 44 and 0
    for d, e in ((300, 0), (0, 256), (-1, 0), (0, np.array([0, MAX_DELAY + 1]))):
        log = ReplayLog(m=1, n=2, tau_p=0, tau_d=0)
        log.append(ReplayRecord((0,), 0, 1, np.zeros(1, dtype=np.int64), 0))
        log.append(ReplayRecord((0,), 1, 1, np.array([d]), e))
        buf = io.BytesIO()
        with pytest.raises(ValueError, match=str(MAX_DELAY)):
            log.dump(buf)
        assert buf.getvalue() == b""


def _five_record_log():
    log = ReplayLog(m=2, n=3, tau_p=2, tau_d=2)
    for k in range(5):
        log.append(ReplayRecord((k % 2,), k % 3, 1, np.array([k % 3, 0]), np.array([1, 2, k % 3])))
    return log


def test_replay_log_load_rejects_a_truncated_log():
    # a cut of 1 or 3 bytes used to load with a short last e, 4 bytes as struct.error
    blob = _five_record_log().dumps()
    for cut in range(1, len(blob)):
        with pytest.raises(ValueError):
            ReplayLog.loads(blob[:-cut])


def test_replay_log_dump_rejects_indices_outside_the_log():
    # blocks=(5,) in an m = 2 log used to dump and load back unchanged
    for blocks, op in (((5,), 0), ((2,), 0), ((-1,), 0), ((0,), 3), ((0,), -1)):
        log = _five_record_log()
        log.append(ReplayRecord(blocks, op, 1, np.zeros(2, dtype=np.int64), 0))
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="indices"):
            log.dump(buf)
        assert buf.getvalue() == b""


def test_replay_log_load_rejects_indices_outside_the_log():
    blob = _five_record_log().dumps()
    (hlen,) = struct.unpack("<I", blob[4:8])
    first = 12 + hlen           # the first record: op index + 1, eps, block count, blocks
    for offset, field in ((first, struct.pack("<I", 4)), (first + 7, struct.pack("<H", 2))):
        bad = blob[:offset] + field + blob[offset + len(field):]
        with pytest.raises(ValueError, match="outside"):
            ReplayLog.loads(bad)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_replay_log_round_trip_at_the_field_limits(data):
    m = data.draw(st.sampled_from((1, 3, MAX_BLOCKS)))
    n = data.draw(st.integers(1, 4))
    delay = st.integers(0, MAX_DELAY)
    log = ReplayLog(m=m, n=n, tau_p=MAX_DELAY, tau_d=MAX_DELAY)
    for _ in range(data.draw(st.integers(0, 5))):
        blocks = tuple(sorted(data.draw(
            st.sets(st.sampled_from((0, m // 2, m - 1)), max_size=3))))
        e = data.draw(st.one_of(delay, st.lists(delay, min_size=n, max_size=n)))
        log.append(ReplayRecord(
            blocks=blocks,
            op_index=data.draw(st.integers(0, n - 1)) if blocks else None,
            eps=data.draw(st.integers(0, 1)),
            d=(np.array(data.draw(st.lists(delay, min_size=m, max_size=m))) if m < 8
               else np.full(m, data.draw(delay))),
            e=e if isinstance(e, int) else np.array(e),
        ))
    back = ReplayLog.loads(log.dumps())
    assert (back.m, back.n, len(back)) == (m, n, len(log))
    for a, b in zip(log, back):
        assert (a.blocks, a.op_index, a.eps) == (b.blocks, b.op_index, b.eps)
        np.testing.assert_array_equal(a.d, b.d)
        np.testing.assert_array_equal(np.asarray(a.e), np.asarray(b.e))


def test_recorded_mode_replays_bit_identically():
    log = ReplayLog(m=2, n=1, tau_p=3, tau_d=3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        log.append(ReplayRecord((0,), 0, 1, rng.integers(0, 4, size=2), int(rng.integers(0, 4))))
    sched = DelaySchedule(tau_p=3, tau_d=3, mode="recorded", m=2, n=1, log=log)
    for k in range(20):
        np.testing.assert_array_equal(sched.primal_delays(k), log.records[k].d)
        assert sched.dual_delays(k) == log.records[k].e


def test_bad_log_rejected():
    with pytest.raises(ValueError):
        ReplayLog.load(io.BytesIO(b"nope"))
    with pytest.raises(ValueError):
        DelaySchedule(tau_p=1, tau_d=1, mode="recorded", m=1, n=1)  # no log
    with pytest.raises(ValueError):
        DelaySchedule(tau_p=1, tau_d=1, mode="uniform-random", m=1, n=1)  # no rng
