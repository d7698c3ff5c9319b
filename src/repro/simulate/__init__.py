"""Hybrid-platform simulation substrate: DES, PE models, load, traces."""

from .des import (
    HybridSimulator,
    PESpec,
    ServiceArrival,
    ServiceSimReport,
    ServiceSimulator,
    SimReport,
    TaskInterval,
    service_arrivals,
)
from .events import EventHandle, EventQueue
from .loadgen import (
    competing_process,
    os_jitter,
    poisson_arrivals,
    step_load,
    uniform_arrivals,
)
from .pe_models import FPGAModel, GPUModel, PEModel, SSECoreModel, UniformModel
from .platform import (
    CONFIGURATIONS,
    fpgas,
    gpus,
    hybrid_platform,
    paper_platform,
    sse_cores,
)
from .network import (
    GIGABIT_ETHERNET,
    SHARED_MEMORY,
    LinkModel,
    MessageSizes,
    NetworkModel,
)
from .svg import gantt_svg, render_gantt_svg, write_gantt_svg
from .trace import binned_rate_series, gantt, rate_series

__all__ = [
    "HybridSimulator",
    "PESpec",
    "SimReport",
    "TaskInterval",
    "EventQueue",
    "EventHandle",
    "ServiceArrival",
    "ServiceSimReport",
    "ServiceSimulator",
    "service_arrivals",
    "step_load",
    "competing_process",
    "os_jitter",
    "poisson_arrivals",
    "uniform_arrivals",
    "PEModel",
    "SSECoreModel",
    "GPUModel",
    "FPGAModel",
    "UniformModel",
    "gpus",
    "sse_cores",
    "fpgas",
    "hybrid_platform",
    "paper_platform",
    "CONFIGURATIONS",
    "gantt",
    "gantt_svg",
    "render_gantt_svg",
    "write_gantt_svg",
    "rate_series",
    "binned_rate_series",
    "LinkModel",
    "NetworkModel",
    "MessageSizes",
    "GIGABIT_ETHERNET",
    "SHARED_MEMORY",
]
