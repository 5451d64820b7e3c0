"""Simulated machines free their memory deterministically.

Each record attempt and each client device owns a ``PhysicalMemory``
sized for the workload (hundreds of MiB of zero-filled pages for the big
networks).  These tests run with the cyclic garbage collector disabled,
so they pass only if the memory goes when its owner ends: a record
attempt releases both of its stores, and a dropped ``ClientDevice`` is
freed by reference counting alone.
"""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.core.testbed import ClientDevice
from repro.hw.memory import PhysicalMemory
from repro.ml.models import build_model
from repro.ml.runner import generate_weights


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def stores(monkeypatch):
    """Weak references to the backing store of every PhysicalMemory
    built while the test runs."""
    refs = []
    init = PhysicalMemory.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self._store))

    monkeypatch.setattr(PhysicalMemory, "__init__", tracking_init)
    return refs


def test_record_frees_every_store(no_cyclic_gc, stores):
    result = repro.record("mnist", warm=1)
    assert result.stats.recording_digest
    assert len(stores) == 4          # client + cloud, per record run
    assert [ref() for ref in stores] == [None] * len(stores)


def test_dropped_client_device_is_freed(no_cyclic_gc):
    graph = build_model("mnist")
    device = ClientDevice.for_workload(graph)
    mem, gpu = weakref.ref(device.mem), weakref.ref(device.gpu)
    del device
    assert mem() is None and gpu() is None


def test_client_device_freed_after_replay(no_cyclic_gc):
    graph = build_model("mnist")
    result = repro.record(graph, warm=0)
    device = ClientDevice.for_workload(graph)
    replayer = repro.Replayer(device.optee, device.gpu, device.mem,
                              device.clock, verify_key=result.verify_key)
    session = replayer.open(result.recording, generate_weights(graph, 0))
    session.run(np.zeros(graph.input_shape, np.float32))
    mem = weakref.ref(device.mem)
    del device, replayer, session
    assert mem() is None
