"""Fault injection against a running prediction server.

Two failure families, both required to leave the service healthy:

* **Damaged store tier.**  An entry corrupted or truncated on disk under
  a live server must read as a miss (the store's self-healing contract)
  and be recomputed bit-identically — never crash a request, never serve
  garbage.
* **Crash mid-batch.**  A cost model that detonates on one block size
  fails its whole batch: every waiting future gets the error as a 500
  document, nothing poisons the cache or the single-flight table, and
  points persisted before the crash are resumed from the store by the
  next (healthy) service — the sweep engine's crash-resume pattern
  (`tests/test_sweep_executor.py`) surfacing through the serve layer.
"""

import json
import threading
import time

import pytest

from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.core.loggp import LogGPParameters
from repro.experiments import ExperimentStore
from repro.kernel import clear_all_caches
from repro.serve import PredictionService, ServeConfig
from repro.serve.protocol import _MACHINE_NAME

CM = CalibratedCostModel()

#: the machine as the serve layer resolves it (constant display label)
SERVE_MACHINE = LogGPParameters(
    L=MEIKO_CS2.L, o=MEIKO_CS2.o, g=MEIKO_CS2.g, G=MEIKO_CS2.G,
    P=MEIKO_CS2.P, name=_MACHINE_NAME,
)

BOOM_B = 30

DOC_OK = {"n": 120, "b": 20, "layout": "diagonal"}
DOC_BOOM = {"n": 120, "b": BOOM_B, "layout": "diagonal"}


class ExplodingCostModel(CalibratedCostModel):
    """Detonates on one block size; same fingerprint as the clean model.

    Inheriting the calibrated table keeps :meth:`fingerprint` identical,
    so entries persisted before the crash are store hits for the clean
    model that takes over — the crash-resume pattern of the sweep
    executor suite.
    """

    def cost(self, op: str, b: int) -> float:
        if b == BOOM_B:
            raise RuntimeError("boom: injected mid-batch crash")
        return super().cost(op, b)


@pytest.fixture(autouse=True)
def _cold_kernel_caches():
    # The exploding model shares the clean model's fingerprint, so a cost
    # memoised by an earlier test would answer for it without detonating.
    clear_all_caches()
    yield
    clear_all_caches()


def entry_path(store_dir, doc):
    """The on-disk store entry of one request document."""
    store = ExperimentStore(store_dir, SERVE_MACHINE, CM)
    return store_dir / store.key(
        doc["n"], doc["b"], doc["layout"], seed=0, with_measured=False
    )


class TestDamagedStore:
    @pytest.mark.parametrize("damage", ["corrupt", "truncate"])
    def test_self_healing_recompute_under_live_server(self, tmp_path, damage):
        store_dir = tmp_path / "store"
        config = ServeConfig(
            store_dir=str(store_dir), cache_size=1, batch_window_s=0.002
        )
        with PredictionService(config) as service:
            original = service.handle(DOC_OK)
            assert original["cache"]["tier"] == "computed"
            path = entry_path(store_dir, DOC_OK)
            assert path.exists()
            # push the entry out of the LRU so the next read goes to disk
            service.handle({**DOC_OK, "b": 40})
            # damage the entry under the running server
            if damage == "corrupt":
                path.write_text('{"n": 120, "pred_standard_total": "gar')
            else:
                path.write_text("")
            healed = service.handle(DOC_OK)
            # the damaged entry read as a miss and was recomputed,
            # bit-identically, with the file rewritten valid
            assert healed["status"] == "ok"
            assert healed["cache"]["tier"] == "computed"
            assert healed["digest"] == original["digest"]
            assert healed["result"] == original["result"]
            rewritten = json.loads(path.read_text())
            assert rewritten["pred_standard_total"] == (
                original["result"]["pred_standard_total"]
            )
            # and the service keeps answering normally afterwards
            assert service.handle(DOC_OK)["cache"]["tier"] == "memory"

    def test_deleted_entry_recomputes(self, tmp_path):
        store_dir = tmp_path / "store"
        config = ServeConfig(
            store_dir=str(store_dir), cache_size=1, batch_window_s=0.002
        )
        with PredictionService(config) as service:
            original = service.handle(DOC_OK)
            service.handle({**DOC_OK, "b": 40})  # evict from memory
            entry_path(store_dir, DOC_OK).unlink()
            again = service.handle(DOC_OK)
        assert again["cache"]["tier"] == "computed"
        assert again["digest"] == original["digest"]


class TestCrashMidBatch:
    def test_crash_fails_batch_cleanly_and_store_resumes(self, tmp_path):
        store_dir = tmp_path / "store"
        config = ServeConfig(store_dir=str(store_dir), batch_window_s=0.3)
        responses = {}
        with PredictionService(config, cost_model=ExplodingCostModel()) as service:
            # submission order inside the window is load-bearing: the
            # serial group evaluates b=20 first (persisting it) before
            # b=30 detonates — partial progress survives the crash
            def ask(name, doc, delay):
                time.sleep(delay)
                responses[name] = service.handle(doc)

            threads = [
                threading.Thread(target=ask, args=("ok", DOC_OK, 0.0)),
                threading.Thread(target=ask, args=("boom", DOC_BOOM, 0.1)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            # the whole batch failed: both waiters got the error document
            for response in responses.values():
                assert response["status"] == "error"
                assert response["code"] == 500
                assert "boom" in response["error"]

            # nothing was cached and nothing is stuck in flight —
            # a retry of the surviving point recomputes cleanly... from
            # the store, because the serial sweep persisted it pre-crash
            assert len(service.cache) == 0
            assert service.stats()["inflight"] == 0
            retry = service.handle(DOC_OK)
            assert retry["status"] == "ok"
            assert retry["cache"]["tier"] == "store"
            # while the detonating point still fails, cleanly, every time
            assert service.handle(DOC_BOOM)["code"] == 500
            assert service.stats()["inflight"] == 0

        # a healthy service over the same store finishes the batch:
        # the pre-crash point resumes from disk, the rest computes fresh
        with PredictionService(
            ServeConfig(store_dir=str(store_dir), batch_window_s=0.002)
        ) as clean:
            resumed = clean.handle(DOC_OK)
            completed = clean.handle(DOC_BOOM)
        assert resumed["cache"]["tier"] == "store"
        assert resumed["digest"] == retry["digest"]
        assert completed["status"] == "ok"
        assert completed["cache"]["tier"] == "computed"

    def test_error_does_not_poison_other_keys(self, tmp_path):
        config = ServeConfig(
            store_dir=str(tmp_path / "store"), batch_window_s=0.002
        )
        with PredictionService(config, cost_model=ExplodingCostModel()) as service:
            assert service.handle(DOC_BOOM)["status"] == "error"
            ok = service.handle(DOC_OK)
            assert ok["status"] == "ok"
            assert service.stats()["requests"]["error"] == 1
