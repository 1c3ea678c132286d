"""The four workloads, in the order ``BENCHMARK.json`` declares them."""

from wl_engine import EngineScalar
from wl_live import LiveAppend
from wl_service import ServiceClosed
from wl_sharded import UdfSharded

WORKLOADS = {
    workload.name: workload
    for workload in (EngineScalar, UdfSharded, ServiceClosed, LiveAppend)
}
