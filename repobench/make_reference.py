"""Regenerate ``reference.json``, the outputs every operation is checked against.

    python3 repobench/make_reference.py            # full and smoke sizes

The exact workloads record a digest of one operation's outputs (SimStats,
CPI stacks and the fidelity report), which any correct speed-up must
reproduce bit for bit.  The sampled workload records, per guest, the
exact IPC of full detailed simulation over the same horizon, iteration
count and skip that the sampled cell covers; a sampled cell passes when
it lands within 2% of that value with its 95% CI covering it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run


def exact_ipc(name: str, iters: int, horizon: int) -> float:
    from repro.core.config import baseline_config
    from repro.emulator.machine import Machine
    from repro.timing.simulator import TimingSimulator
    from repro.workloads import get_workload

    workload = get_workload(name)
    machine = Machine(workload.build(iters), dispatch="fast")
    machine.run(workload.skip_hint)
    return TimingSimulator(baseline_config()).run(machine.trace(horizon)).ipc


def main() -> int:
    workdir = run.ROOT / ".bench_work" / f"reference-{os.getpid()}"
    run.isolate(workdir)
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import layers
    import ops

    reference: dict = {}
    try:
        for size in ("full", "smoke"):
            for name in ops.WORKLOADS:
                acct = layers.Accountant()
                wl = ops.make(name, size, 0, workdir / size / name, acct)
                wl.prepare()
                patches = layers.install(acct)
                try:
                    wl.setup()
                    entry = reference.setdefault(name, {})
                    if name == "sweep-sampled":
                        known = entry.setdefault(wl.ref_key(), {})
                        for guest in wl.benchmarks:
                            if guest not in known:
                                known[guest] = exact_ipc(guest, wl.iters, wl.horizon)
                    else:
                        wl.reset()
                        entry[wl.size_key()] = wl.output_digest(wl.op())
                finally:
                    patches.undo()
                print(f"{size} {name}: {entry}", flush=True)
    finally:
        run.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    ops.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
