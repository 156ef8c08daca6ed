"""Machine models: per-architecture compute rates and GPUs.

``rates`` holds calibrated sustained rates per processor architecture
and kernel class; ``node``/``gpu`` assemble them into node-level
capability objects.
"""

from repro.machine.gpu import GpuModel, V100
from repro.machine.node import NodeModel
from repro.machine.rates import ARCH_RATES, KernelClass, node_rate

__all__ = [
    "ARCH_RATES",
    "GpuModel",
    "KernelClass",
    "NodeModel",
    "V100",
    "node_rate",
]
