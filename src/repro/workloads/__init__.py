"""Synthetic workload suite.

One workload per benchmark in the paper's Table 1 (bzip, gcc, go, gzip,
ijpeg, li, mcf, parser, twolf, vortex, vpr).  Each is a hand-written
assembly kernel that mimics the dominant behaviour of its SPEC namesake
(see DESIGN.md §2 for the substitution rationale).  All workloads are
deterministic, self-checking (they print a checksum) and parameterized
by an iteration count so trace lengths can be scaled to the available
simulation budget.
"""

from repro.workloads.suite import (
    BENCHMARK_NAMES,
    Workload,
    build_program,
    get_workload,
    iter_workloads,
    resolve_iters,
)

__all__ = [
    "BENCHMARK_NAMES",
    "Workload",
    "build_program",
    "get_workload",
    "iter_workloads",
    "resolve_iters",
]
