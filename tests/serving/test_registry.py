"""ModelRegistry: tenant table, shared pool, cross-model die dedup."""

import numpy as np
import pytest

from repro.perf.load import tenant_models
from repro.reram import (ADCSpec, DeviceSpec, DieCache, ReRAMDevice,
                         paper_adc_bits)
from repro.runtime import WorkerPool, run_network_serial
from repro.serving import ModelRegistry


@pytest.fixture(scope="module")
def tenants():
    models, config, images = tenant_models(seed=0)
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    return models, config, images, device, adc


def register(registry, name, tenants, model_key="fast"):
    models, config, _, device, adc = tenants
    return registry.register(name, models[model_key], config, device,
                             adc=adc, activation_bits=12)


class TestTenantTable:
    def test_register_get_unregister(self, tenants):
        with ModelRegistry(workers=1) as registry:
            entry = register(registry, "a", tenants)
            assert entry.name == "a"
            assert len(entry.engines) > 0
            assert registry.get("a") is entry
            assert registry.get(None) is entry          # sole model
            assert "a" in registry
            assert registry.names() == ["a"]
            assert len(registry) == 1
            assert registry.unregister("a") is entry
            assert "a" not in registry

    def test_duplicate_name_rejected(self, tenants):
        with ModelRegistry(workers=1) as registry:
            register(registry, "a", tenants)
            with pytest.raises(ValueError, match="already registered"):
                register(registry, "a", tenants)

    def test_lookup_errors(self, tenants):
        with ModelRegistry(workers=1) as registry:
            with pytest.raises(KeyError, match="not registered"):
                registry.get("ghost")
            with pytest.raises(KeyError):
                registry.unregister("ghost")
            register(registry, "a", tenants)
            register(registry, "b", tenants, model_key="batch")
            with pytest.raises(ValueError, match="name one explicitly"):
                registry.get(None)                      # ambiguous

    def test_register_network_adopts_callable(self):
        with ModelRegistry(workers=1) as registry:
            entry = registry.register_network("fn", lambda t: t,
                                              image_shape=(2, 3))
            assert registry.get("fn") is entry
            assert entry.engines == {}
            assert entry.image_shape == (2, 3)

    def test_empty_name_rejected(self):
        with ModelRegistry(workers=1) as registry:
            with pytest.raises(ValueError, match="non-empty"):
                registry.register_network("", lambda t: t)


class TestShapesAndWarmup:
    def test_warm_up_pins_shape_and_matches_serial(self, tenants):
        models, config, images, device, adc = tenants
        with ModelRegistry(workers=1) as registry:
            entry = register(registry, "a", tenants)
            out = registry.warm_up("a", images[0])
            assert entry.warmed
            assert entry.image_shape == images[0].shape
            serial = run_network_serial(entry.network, images[:1],
                                        tile_size=1)
            np.testing.assert_array_equal(out, serial[0])

    def test_pin_shape_mismatch_rejected(self, tenants):
        images = tenants[2]
        with ModelRegistry(workers=1) as registry:
            entry = register(registry, "a", tenants)
            registry.pin_shape(entry, images[0].shape)
            with pytest.raises(ValueError, match="does not match"):
                registry.pin_shape(entry, images[0].shape + (1,))

    def test_per_model_shapes_are_independent(self, tenants):
        with ModelRegistry(workers=1) as registry:
            a = register(registry, "a", tenants)
            b = register(registry, "b", tenants, model_key="batch")
            registry.pin_shape(a, (1, 16, 16))
            registry.pin_shape(b, (1, 8, 8))      # other tenant, other shape
            assert a.image_shape != b.image_shape


class TestDieDedup:
    def test_replica_tenant_hits_the_cache(self, tenants):
        """Two tenants over identical weights program dies once — the
        cross-model dedup the registry exists to exercise."""
        with ModelRegistry(workers=1) as registry:
            register(registry, "a", tenants)
            stats = registry.stats()
            misses = stats["die_cache"]["misses"]
            assert stats["die_cache"]["hits"] == 0
            register(registry, "a-replica", tenants)
            stats = registry.stats()
            assert stats["die_cache"]["misses"] == misses     # no new dies
            assert stats["die_cache"]["hits"] > 0
            assert stats["die_cache"]["unique_dies"] < stats["engines_total"]

    def test_distinct_tenants_do_not_alias(self, tenants):
        with ModelRegistry(workers=1) as registry:
            register(registry, "a", tenants)
            misses = registry.stats()["die_cache"]["misses"]
            register(registry, "b", tenants, model_key="batch")
            assert registry.stats()["die_cache"]["misses"] > misses

    def test_shared_cache_across_registries(self, tenants):
        cache = DieCache()
        with ModelRegistry(workers=1, die_cache=cache) as first:
            register(first, "a", tenants)
        misses = cache.misses
        with ModelRegistry(workers=1, die_cache=cache) as second:
            register(second, "a", tenants)
        assert cache.misses == misses
        assert cache.hits >= misses

    def test_stats_shape(self, tenants):
        with ModelRegistry(workers=2) as registry:
            register(registry, "a", tenants)
            stats = registry.stats()
            assert stats["workers"] == 2
            assert stats["models"]["a"]["layers"] == len(
                registry.get("a").engines)
            assert stats["models"]["a"]["warmed"] is False


class TestPoolOwnership:
    def test_borrowed_pool_left_open(self):
        with WorkerPool(2) as pool:
            registry = ModelRegistry(pool=pool)
            registry.register_network("fn", lambda t: t)
            registry.close()
            assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_owned_pool_closed(self):
        registry = ModelRegistry(workers=2)
        assert registry.pool.workers == 2
        registry.close()
        assert registry.pool._executor is None
