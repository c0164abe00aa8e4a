"""GPU core model: SMs, warps, translation pipeline, full-GPU assembly."""

from repro.gpu.faults import FaultBuffer, FaultRecord, UVMFaultHandler
from repro.gpu.gpu import GPUSimulator, SimulationResult
from repro.gpu.sm import SM
from repro.gpu.translation import TranslationService
from repro.gpu.warp import LINE_BYTES, Warp, compile_trace, group_by_page

__all__ = [
    "FaultBuffer",
    "FaultRecord",
    "UVMFaultHandler",
    "GPUSimulator",
    "SimulationResult",
    "SM",
    "TranslationService",
    "LINE_BYTES",
    "Warp",
    "compile_trace",
    "group_by_page",
]
