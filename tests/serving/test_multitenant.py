"""The multi-tenant SLA serving contract, end to end.

Two models registered on one shared ``WorkerPool`` + ``DieCache`` serve
interleaved mixed-class traffic; every served output must be
**bit-identical** to a serial per-model single-image forward — read noise
on and off — and scheduling outcomes (deadline sheds, latency-bound
sheds, admission refusals) must never perturb the bits of surviving
requests.
"""

import time

import numpy as np
import pytest

from repro.perf.load import (SHED, mixed_policy, plan_traffic,
                             serial_references, submit_open_loop,
                             tenant_models, verify)
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits
from repro.reram.nonideal import ReadNoise
from repro.reram.nonideal_engine import NonidealEngine
from repro.runtime import run_network_serial
from repro.serving import (SHED_ADMISSION, SHED_DEADLINE,
                           AdmissionController, InferenceServer,
                           ModelRegistry, PriorityClass, RequestShed,
                           SlaPolicy)

TWO_CLASS = SlaPolicy((PriorityClass("hi", max_batch=2, max_wait_s=0.001),
                       PriorityClass("lo", max_batch=4, max_wait_s=0.004)))


@pytest.fixture(scope="module")
def tenants():
    models, config, images = tenant_models(seed=0)
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    return models, config, images, device, adc


def make_registry(tenants, *, noise=False, workers=2):
    models, config, _, device, adc = tenants
    build = dict(adc=adc, activation_bits=12)
    if noise:
        spec = DeviceSpec()
        build.update(engine_cls=NonidealEngine,
                     read_noise=ReadNoise.for_fragment(
                         config.fragment_size, spec.g_max, spec.read_voltage,
                         relative_sigma=0.05, seed=3))
    registry = ModelRegistry(workers=workers)
    for name in ("fast", "batch"):
        registry.register(name, models[name], config, device, **build)
    return registry


def serial_per_model(registry, images):
    return {name: run_network_serial(registry.get(name).network, images,
                                     tile_size=1)
            for name in registry.names()}


class TestMixedTrafficBitIdentity:
    @pytest.mark.parametrize("noise", [False, True],
                             ids=["ideal", "read_noise"])
    def test_interleaved_classes_and_models(self, tenants, noise):
        """The acceptance matrix: two tenants, two classes, interleaved
        submissions — every output equals the serial per-model forward."""
        images = tenants[2]
        registry = make_registry(tenants, noise=noise)
        with registry, InferenceServer(registry=registry,
                                       policy=TWO_CLASS) as server:
            futures = []
            for i, image in enumerate(images):
                model = "fast" if i % 2 == 0 else "batch"
                priority = "hi" if i % 3 == 0 else "lo"
                deadline = 30.0 if priority == "hi" else None
                futures.append((model, i, server.submit_async(
                    image, model=model, priority=priority,
                    deadline_s=deadline)))
            results = [(m, i, f.result(timeout=30.0)) for m, i, f in futures]
            serial = serial_per_model(registry, images)
        for model, i, served in results:
            np.testing.assert_array_equal(served.output, serial[model][i])
            assert served.stats.model == model

    def test_batch_is_single_model(self, tenants):
        """Requests of different tenants never share a batch."""
        images = tenants[2]
        registry = make_registry(tenants)
        with registry, InferenceServer(registry=registry,
                                       policy=TWO_CLASS) as server:
            results = []
            for i, image in enumerate(images):
                model = "fast" if i % 2 == 0 else "batch"
                results.append((model, server.submit_async(image,
                                                           model=model)))
            resolved = [(m, f.result(timeout=30.0)) for m, f in results]
        batch_models = {}
        for model, served in resolved:
            batch_models.setdefault(served.stats.batch_id, set()).add(model)
        assert all(len(models) == 1 for models in batch_models.values())

    def test_mixed_driver_with_read_noise(self, tenants):
        """The load driver's bit-identity assertion holds under read
        noise (keyed substreams survive the multi-tenant scheduler)."""
        images = tenants[2]
        traffic = {"images": images,
                   "cases": [("fast", "interactive", 50.0),
                             ("batch", "bulk", None)]}
        registry = make_registry(tenants, noise=True)
        with registry, InferenceServer(registry=registry,
                                       policy=mixed_policy()) as server:
            plan, offsets = plan_traffic(traffic, 300.0, 10, seed=1)
            references = serial_references(server, images,
                                           ("fast", "batch"))
            outcomes, _ = submit_open_loop(server, plan, offsets)
        verify(plan, outcomes, references, (SHED,))
        assert sum(o["result"] is not None for o in outcomes) >= 1


class TestSheddingIsolation:
    def test_deadline_miss_is_shed_never_dispatched(self, tenants):
        """A request whose deadline expires in queue gets the correct
        receipt and never reaches the dispatch path."""
        images = tenants[2]
        registry = make_registry(tenants, workers=1)
        policy = SlaPolicy((PriorityClass("only", max_batch=1,
                                          max_wait_s=0.0),))
        with registry, InferenceServer(registry=registry,
                                       policy=policy) as server:
            blockers = [server.submit_async(images[i % 8], model="batch")
                        for i in range(10)]
            time.sleep(0.02)        # the first dispatch is now in flight
            victim = server.submit_async(images[0], model="fast",
                                         deadline_s=1e-4)
            with pytest.raises(RequestShed) as info:
                victim.result(timeout=30.0)
            receipt = info.value.receipt
            assert receipt.reason == SHED_DEADLINE
            assert receipt.model == "fast"
            assert receipt.deadline_s == 1e-4
            assert receipt.queue_wait_s > 0.0
            served = [f.result(timeout=30.0) for f in blockers]
            snapshot = server.server_stats()
        # never dispatched: every completed receipt belongs to a blocker
        assert snapshot["requests_completed"] == len(blockers)
        assert snapshot["requests_shed"] == 1
        assert snapshot["shed_by_reason"] == {"deadline": 1}
        victim_id = receipt.request_id
        assert all(s.stats.request_id != victim_id for s in served)

    def test_shedding_one_class_never_perturbs_survivors(self, tenants):
        """Aggressively shedding the low class leaves the surviving
        requests' outputs bit-identical to serial forwards (and to a run
        with no shedding at all)."""
        images = tenants[2]
        requests = 20                      # enough backlog on one worker
        shedding = SlaPolicy((
            PriorityClass("hi", max_batch=2, max_wait_s=0.001),
            PriorityClass("lo", max_batch=4, max_wait_s=0.004,
                          shed_after_s=0.008),))

        def run(policy):
            registry = make_registry(tenants, workers=1)
            outcomes = {}
            with registry, InferenceServer(registry=registry,
                                           policy=policy) as server:
                futures = []
                for i in range(requests):
                    model = "fast" if i % 3 == 0 else "batch"
                    priority = "hi" if i % 3 == 0 else "lo"
                    futures.append((model, i, server.submit_async(
                        images[i % images.shape[0]], model=model,
                        priority=priority)))
                for model, i, future in futures:
                    try:
                        outcomes[i] = (model, future.result(timeout=30.0))
                    except RequestShed as exc:
                        outcomes[i] = (model, exc.receipt)
                serial = serial_per_model(registry, images)
            return outcomes, serial

        no_shed, serial = run(TWO_CLASS)
        shed_run, serial2 = run(shedding)
        assert all(hasattr(v[1], "output") for v in no_shed.values())
        survivors = {i: v for i, v in shed_run.items()
                     if hasattr(v[1], "output")}
        assert len(survivors) < requests   # the bound really shed traffic
        # every survivor is bit-identical to the serial forward and to
        # the run where nothing was shed
        for i, (model, served) in survivors.items():
            img = i % images.shape[0]
            np.testing.assert_array_equal(served.output, serial2[model][img])
            unshed_model, unshed = no_shed[i]
            np.testing.assert_array_equal(served.output, unshed.output)
        # the hi class is never shed by the lo class's bound
        for i, (model, outcome) in shed_run.items():
            if not hasattr(outcome, "output"):
                assert outcome.priority_class == "lo"

    def test_admission_refusal_is_immediate_and_isolated(self, tenants):
        images = tenants[2]
        registry = make_registry(tenants, workers=1)
        policy = SlaPolicy((PriorityClass("only", max_batch=1,
                                          max_wait_s=0.0),))
        admission = AdmissionController(max_queue_depth=2)
        with registry, InferenceServer(registry=registry, policy=policy,
                                       admission=admission) as server:
            futures = [server.submit_async(images[i % 8], model="batch")
                       for i in range(10)]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=30.0))
                except RequestShed as exc:
                    outcomes.append(exc.receipt)
            serial = serial_per_model(registry, images)
        refused = [o for o in outcomes if not hasattr(o, "output")]
        served = [(i, o) for i, o in enumerate(outcomes)
                  if hasattr(o, "output")]
        assert refused and served
        assert all(r.reason == SHED_ADMISSION for r in refused)
        assert all(r.queue_wait_s == 0.0 for r in refused)
        for i, result in served:
            np.testing.assert_array_equal(result.output,
                                          serial["batch"][i % 8])


class TestStatsAndLifecycle:
    def test_per_class_and_per_model_stats(self, tenants):
        images = tenants[2]
        registry = make_registry(tenants)
        with registry, InferenceServer(registry=registry,
                                       policy=TWO_CLASS) as server:
            for i, image in enumerate(images[:6]):
                server.submit(image, model="fast" if i % 2 else "batch",
                              priority="hi" if i % 2 else "lo")
            snapshot = server.server_stats()
        assert snapshot["per_class"]["hi"]["completed"] == 3
        assert snapshot["per_class"]["lo"]["completed"] == 3
        assert snapshot["per_model"]["fast"]["completed"] == 3
        assert snapshot["per_model"]["batch"]["completed"] == 3
        assert snapshot["per_class"]["hi"]["latency_p95_s"] > 0.0

    def test_unregister_never_fails_inflight_requests(self, tenants):
        """A request accepted before its tenant is unregistered is still
        served — dispatch uses the entry resolved at submit time."""
        images = tenants[2]
        registry = make_registry(tenants, workers=1)
        policy = SlaPolicy((PriorityClass("only", max_batch=1,
                                          max_wait_s=0.0),))
        with registry, InferenceServer(registry=registry,
                                       policy=policy) as server:
            network = registry.get("fast").network
            blockers = [server.submit_async(images[i % 8], model="batch")
                        for i in range(4)]
            victim = server.submit_async(images[0], model="fast")
            registry.unregister("fast")
            with pytest.raises(KeyError):
                server.submit_async(images[0], model="fast")  # new intake
            result = victim.result(timeout=30.0)
            for blocker in blockers:
                blocker.result(timeout=30.0)
        serial = run_network_serial(network, images[:1], tile_size=1)
        np.testing.assert_array_equal(result.output, serial[0])

    def test_caller_owned_registry_left_open(self, tenants):
        images = tenants[2]
        registry = make_registry(tenants, workers=2)
        with registry:
            with InferenceServer(registry=registry,
                                 policy=TWO_CLASS) as server:
                server.submit(images[0], model="fast")
            # the server is gone; the registry (and its pool) live on
            assert registry.pool.map(lambda x: x * 2, [1, 2]) == [2, 4]
            assert "fast" in registry

    def test_single_model_server_accepts_sla_kwargs(self, tenants):
        """The FIFO special case still understands deadlines: a lone
        request with a generous deadline is served normally."""
        models, config, images, device, adc = tenants
        with InferenceServer.from_model(models["fast"], config, device,
                                        adc=adc, activation_bits=12,
                                        workers=1) as server:
            result = server.submit(images[0], deadline_s=30.0)
            serial = run_network_serial(server.model, images[:1],
                                        tile_size=1)
        np.testing.assert_array_equal(result.output, serial[0])
        assert result.stats.priority_class == "default"
        assert result.stats.deadline_s == 30.0

    def test_registry_and_pool_conflict_rejected(self, tenants):
        registry = make_registry(tenants, workers=1)
        with registry:
            with pytest.raises(ValueError, match="travel with the registry"):
                InferenceServer(registry=registry, workers=4)
        with pytest.raises(ValueError, match="exactly one"):
            InferenceServer()

    def test_unknown_model_and_class_rejected_at_submit(self, tenants):
        images = tenants[2]
        registry = make_registry(tenants, workers=1)
        with registry, InferenceServer(registry=registry,
                                       policy=TWO_CLASS) as server:
            with pytest.raises(KeyError, match="not registered"):
                server.submit_async(images[0], model="ghost")
            with pytest.raises(KeyError, match="unknown priority class"):
                server.submit_async(images[0], model="fast",
                                    priority="platinum")
            with pytest.raises(ValueError, match="deadline_s"):
                server.submit_async(images[0], model="fast", deadline_s=0.0)
