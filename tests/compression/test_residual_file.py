"""The residual store's row file: I/O failures, descriptor hygiene and the
heap it no longer holds.  (Results against the in-RAM oracle are in
``test_error_comp.py``.)"""

import gc
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest

from repro.compression.error_comp import (
    ErrorCompMode,
    ResidualStore,
    ResidualStoreError,
)
from repro.core import make_gluefl
from repro.fl import FLServer, RunConfig, run_training


@pytest.fixture
def private_tmpdir(tmp_path, monkeypatch):
    """``tempfile.gettempdir()`` is an empty directory of the test's own."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def open_fds():
    return sorted(os.listdir("/proc/self/fd"), key=int)


def file_rows(store, d):
    return os.fstat(store._file.fileno()).st_size // (4 * d)


# -- rows ----------------------------------------------------------------------
def test_unbounded_file_holds_one_row_per_client_and_bounded_reuses_rows():
    d = 5
    store = ResidualStore(ErrorCompMode.EC)
    for cid in range(7):
        store.record(cid, np.full(d, cid), 1.0)
        store.record(cid, np.full(d, cid), 2.0)  # re-recording rewrites in place
    assert file_rows(store, d) == len(store) == 7
    store.bound(3)  # evicts 0..3, whose rows are the next four written
    for cid in range(10, 14):
        store.record(cid, np.full(d, cid), 1.0)
    assert file_rows(store, d) == 7 and len(store) == 3 and store.evictions == 8
    for cid in (11, 12, 13):
        np.testing.assert_array_equal(store.peek(cid)[0], np.full(d, cid, np.float32))
    store.close()

    bounded = ResidualStore(ErrorCompMode.EC, max_clients=2)
    for cid in range(20):
        bounded.record(cid, np.full(d, cid), 1.0)
        assert file_rows(bounded, d) <= 2
    bounded.close()


# -- I/O edge ------------------------------------------------------------------
def unusable_dirs(tmp_path):
    """Directories no file can be created in: one that is gone, and a
    read-only one (mode bits do not bind root; sysfs does)."""
    read_only = tmp_path / "read-only"
    read_only.mkdir(mode=0o500)
    return [
        str(tmp_path / "gone"),
        "/sys" if os.access(read_only, os.W_OK) else str(read_only),
    ]


def test_unusable_tmpdir_is_a_typed_error_naming_it(tmp_path, monkeypatch):
    for unusable in unusable_dirs(tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", unusable)
        store = ResidualStore(ErrorCompMode.REC)
        with pytest.raises(ResidualStoreError, match=re.escape(repr(unusable))) as err:
            store.record(0, np.ones(4), 1.0)
        assert err.value.errno is not None and isinstance(err.value, OSError)
        assert len(store) == 0 and store.peek(0) is None
        # a NONE-mode store never creates a file, so it cannot fail here
        off = ResidualStore(ErrorCompMode.NONE)
        off.record(0, np.ones(4), 1.0)
        assert off._file is None


def test_short_write_is_a_typed_error_and_leaves_no_torn_row(monkeypatch):
    store = ResidualStore(ErrorCompMode.EC)
    store.record(0, np.ones(4), 1.0)
    real_pwrite = os.pwrite
    monkeypatch.setattr(
        os, "pwrite", lambda fd, data, at: real_pwrite(fd, bytes(data)[:5], at)
    )
    for cid in (0, 1):  # an overwrite, then a first write (into the freed row)
        with pytest.raises(
            ResidualStoreError,
            match=r"ResidualStore: short write .* row 0 took 5 of 16 bytes",
        ):
            store.record(cid, np.full(4, 2.0), 1.0)
        assert store.peek(cid) is None
    assert len(store) == 0
    delta = np.arange(4.0)
    np.testing.assert_array_equal(store.compensate(0, delta, 1.0), delta)
    monkeypatch.undo()
    store.record(2, np.full(4, 3.0), 1.0)
    store.record(3, np.full(4, 4.0), 1.0)
    assert file_rows(store, 4) == 2  # the failed row was handed back both times
    store.close()


def test_short_read_is_a_typed_error():
    store = ResidualStore(ErrorCompMode.EC)
    store.record(0, np.ones(4), 1.0)
    store.record(1, np.ones(4), 1.0)
    os.ftruncate(store._file.fileno(), 20)
    with pytest.raises(
        ResidualStoreError,
        match=r"ResidualStore: short read .* row 1 gave 4 of 16 bytes",
    ):
        store.compensate(1, np.zeros(4), 1.0)
    store.close()


# -- hygiene -------------------------------------------------------------------
def gluefl_config(dataset, **overrides):
    strategy, sampler = make_gluefl(6, q=0.25, q_shr=0.18)
    return RunConfig(
        dataset=dataset, model_name="mlp", model_kwargs={"hidden": (8,)},
        strategy=strategy, sampler=sampler, rounds=3, local_steps=1,
        **overrides,
    )


def test_a_run_leaves_no_descriptor_and_no_directory_entry(tiny_dataset, private_tmpdir):
    before = open_fds()
    run_training(gluefl_config(tiny_dataset))
    assert open_fds() == before

    server = FLServer(gluefl_config(tiny_dataset))
    server.run_round()
    assert len(server.strategy.residuals) > 0
    assert len(open_fds()) == len(before) + 1  # the one row file ...
    assert os.listdir(private_tmpdir) == []  # ... which has no name
    server.close()
    assert open_fds() == before
    server.close()  # idempotent
    server.run_round()  # and the store reopens on demand
    assert len(server.strategy.residuals) > 0
    server.close()
    assert open_fds() == before and os.listdir(private_tmpdir) == []


def test_a_dropped_unclosed_server_closes_its_row_file(tiny_dataset, private_tmpdir):
    before = open_fds()

    def drive_and_drop():
        server = FLServer(gluefl_config(tiny_dataset))
        server.run_round()
        assert len(open_fds()) == len(before) + 1

    drive_and_drop()
    gc.collect()
    assert open_fds() == before
    assert os.listdir(private_tmpdir) == []


def test_a_fedavg_run_opens_no_file(tiny_dataset, private_tmpdir):
    from repro.compression import FedAvgStrategy
    from repro.fl import UniformSampler

    before = open_fds()
    server = FLServer(
        RunConfig(
            dataset=tiny_dataset, model_name="mlp", model_kwargs={"hidden": (8,)},
            strategy=FedAvgStrategy(), sampler=UniformSampler(6), rounds=1,
            local_steps=1, residual_max_clients=4,
        )
    )
    server.run_round()
    assert open_fds() == before
    server.close()


# -- memory --------------------------------------------------------------------
def test_recording_holds_no_row_in_the_heap():
    """64 residuals at d = 250k are 64 MB in the in-RAM store; the file
    store's heap is its one scratch row (float64 input stages through it)."""
    d, clients = 250_000, 64
    residual = np.random.default_rng(5).normal(size=d)
    store = ResidualStore(ErrorCompMode.REC)
    tracemalloc.start()
    try:
        for cid in range(clients):
            store.record(cid, residual, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == clients and file_rows(store, d) == clients
    assert peak < 4 * d * 4
    np.testing.assert_array_equal(store.peek(63)[0], residual.astype(np.float32))
    store.close()
