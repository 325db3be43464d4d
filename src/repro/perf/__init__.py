"""Performance instrumentation, the engine perf suite and the load driver.

* :mod:`repro.perf.instrument` — reusable wall-clock timing
  (:func:`time_callable`) and engine conversion-count metering
  (:class:`EngineMeter`) with no dependency on what is being measured;
* :mod:`repro.perf.suite` — the micro-benchmark definitions behind
  ``benchmarks/run_perf_suite.py``, which records the fused-engine speedup
  trajectory to ``BENCH_engine.json`` at the repo root, plus the BENCH
  file I/O every recorder shares (records of other kinds are preserved,
  a corrupt file is refused rather than overwritten);
* :mod:`repro.perf.load` — the one open-loop load driver: seeded Poisson
  plans, the in-process / wire / connection-crowd targets, the
  bit-identity and documented-receipt contract, and the serving, chaos,
  cluster and observability-overhead records that
  ``benchmarks/bench_load.py`` merges into the same file;
* :mod:`repro.perf.demo` — the self-checking ``python -m repro serve``
  demos, built on the driver.
"""

from .instrument import EngineMeter, TimingResult, time_callable
from .load import SCENARIOS, record_name, run_point
from .suite import (BENCH_SCHEMA, default_suite, merge_records,
                    merge_records_into_file, run_suite, write_payload)

__all__ = [
    "TimingResult", "time_callable", "EngineMeter",
    "BENCH_SCHEMA", "default_suite", "run_suite", "write_payload",
    "merge_records", "merge_records_into_file",
    "SCENARIOS", "record_name", "run_point",
]
