"""Block-compiled execution: the emulator's third tier.

Pre-bound dispatch (:mod:`repro.emulator.dispatch`) made each retired
instruction one indirect call; this module removes even that.  At
decode time the text segment is partitioned into basic blocks (leaders
= the entry point, every branch/jump target, every index after a
control transfer or system instruction).  A lightweight execution-count
profile — a per-leader countdown in the dispatch table — triggers
compilation of hot leaders into specialized Python functions:

* guest registers live in host locals for the whole block (registers
  are loaded from ``R[n]`` only if read before written, and stored
  back once per exit),
* immediates, branch targets, PCs and next-PC values are
  constant-folded into the source,
* adjacent same-base contiguous ``lw``/``sw`` runs are batched through
  the vectorized :meth:`SparseMemory.read_words` /
  :meth:`SparseMemory.write_words` helpers,
* superblocks extend through unconditional ``j``/``jal`` *and* through
  conditional branches: backward branches continue along the taken
  edge (unrolling tight loops up to ``MAX_BLOCK_LEN`` instructions),
  forward branches continue along the fallthrough edge, and the cold
  direction becomes a side exit that commits and returns early.

Each block compiles to two variants.  The *run* variant returns a
packed ``(next_leader_index + 1) << 8 | retired_count`` so the
machine's chain loop can jump compiled-block-to-compiled-block without
re-deriving the PC.  The *trace* variant builds the exact
:class:`~repro.emulator.trace.TraceRecord` list the reference
interpreter would emit — byte-identical traces, so the SHA-256 trace
cache, packed transport and all downstream timing machinery are
untouched.

Fault discipline — replay on exception.  A compiled body mutates no
architectural state (registers, PC, instret) until a commit point (a
side exit or the block end); mid-block memory *writes* are the only
side effect and are idempotent under deterministic re-execution from
the entry state.  If anything raises inside a compiled body (alignment
trap, illegal access), the machine re-executes the block
per-instruction through the pre-bound handlers, reproducing the
reference fault semantics exactly: same partial trace, same exception,
same architectural state at the faulting instruction.

Everything that is not a hot compiled block — cold code, syscalls,
``break``, undecodable words, the tail of a bounded run — falls back
to pre-bound dispatch, instruction by instruction.

``cross_check_blocks`` is the differential harness: a blocks-mode
machine and the golden reference run in lockstep (states align at
block exits) and any record or final-state mismatch raises
:class:`DispatchDivergence`.
"""

from __future__ import annotations

import math
import os
import time
import weakref

from repro.emulator.dispatch import (
    DispatchDivergence,
    _fp_cvt_w_s,
    _fp_sqrt,
    bits_from_f32,
    f32_from_bits,
)
from repro.emulator.trace import TraceRecord
from repro.isa.instructions import BRANCH_OPS
from repro.isa.registers import FCC, FP_BASE, HI, LO
from repro.obs.tracing import active_tracer

_M = 0xFFFFFFFF

#: Fetch-line granularity of the warm variant's I-side touches (64-byte
#: lines, matching the Table 2 L1I).  ``warm_instruction`` deduplicates
#: by its own line size, so a mismatch only costs extra calls.
_ILINE_SHIFT = 6

#: Environment knob: executions of a leader before its block compiles.
#: 0 compiles on first entry (what tests and cross_check use).
THRESHOLD_ENV = "REPRO_BLOCKS_THRESHOLD"
DEFAULT_THRESHOLD = 8

#: Superblock growth cap (instructions per compiled function).  Must
#: stay below 256: the run variant packs the retired count into the
#: low byte of its return value.
MAX_BLOCK_LEN = 64

#: Blocks shorter than this stay on pre-bound dispatch: the per-block
#: call + commit overhead eats the per-instruction saving (see the
#: host-op cost table in docs/performance.md).  Two instructions is the
#: break-even point; hot 2-instruction chunks (e.g. the argument setup
#: before a syscall) are common enough to matter.
MIN_BLOCK_LEN = 2

#: Minimum adjacent lw/sw run length routed through read_words /
#: write_words; below this the scalar accessors are cheaper.
BATCH_MIN = 4

_BRANCHES = frozenset(BRANCH_OPS)
_LINKS = frozenset({"j", "jal"})
_INDIRECT = frozenset({"jr", "jalr"})
_UNSUPPORTED = frozenset({"syscall", "break"})

_R3_EXPR = {
    "addu": "(({a} + {b}) & 4294967295)",
    "add": "(({a} + {b}) & 4294967295)",
    "subu": "(({a} - {b}) & 4294967295)",
    "sub": "(({a} - {b}) & 4294967295)",
    "and": "({a} & {b})",
    "or": "({a} | {b})",
    "xor": "({a} ^ {b})",
    "nor": "(~({a} | {b}) & 4294967295)",
    "slt": "(1 if {sa} < {sb} else 0)",
    "sltu": "(1 if {a} < {b} else 0)",
    "sllv": "((({b}) << ({a} & 31)) & 4294967295)",
    "srlv": "(({b}) >> ({a} & 31))",
    "srav": "(({sb} >> ({a} & 31)) & 4294967295)",
}

_FP_CMP_OP = {"c.eq.s": "==", "c.lt.s": "<", "c.le.s": "<="}

_FP_ARITH = frozenset({
    "add.s", "sub.s", "mul.s", "div.s",
    "mov.s", "neg.s", "abs.s", "sqrt.s", "cvt.w.s", "cvt.s.w",
    "c.eq.s", "c.lt.s", "c.le.s",
})

#: Mnemonics whose run-variant code never reads rs (resp. rt) — the
#: trace variant always reads both for the record's rs_val/rt_val.
#: Wrong membership fails loudly: the placeholder is an undefined local,
#: so any stray use raises NameError, which replay turns into
#: DispatchDivergence under the differential tests.
_RS_UNUSED_RUN = _FP_ARITH | frozenset({
    "lui", "sll", "srl", "sra", "mfhi", "mflo", "mfc1", "mtc1", "j", "jal",
    "bc1t", "bc1f",
})
_RT_UNUSED_RUN = _FP_ARITH | frozenset({
    "lw", "lb", "lbu", "lh", "lhu", "lui", "lwc1", "swc1",
    "mfhi", "mflo", "mfc1", "mthi", "mtlo", "j", "jal", "jr", "jalr",
    "blez", "bgtz", "bltz", "bgez", "bc1t", "bc1f",
})

_BRANCH2_OP = {"beq": "==", "bne": "!="}

_BRANCH1_OP = {"blez": "<= 0", "bgtz": "> 0", "bltz": "< 0", "bgez": ">= 0"}


def default_block_threshold() -> int:
    """Compile threshold from the environment (non-negative int)."""
    raw = os.environ.get(THRESHOLD_ENV, "")
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_THRESHOLD


# ------------------------------------------------------------------- stats

_STATS = {
    "blocks_compiled": 0,
    "superblocks": 0,
    "compile_seconds": 0.0,
    "block_execs": 0,
    "block_insts": 0,
    "fallback_insts": 0,
    "replays": 0,
    # JIT-tier telemetry (this PR): how the compiled tier behaved, not
    # just how much it ran.
    "side_exits": 0,       # compiled execs that left a superblock early
    "cache_binds": 0,      # compile_block calls served by the code cache
    "mem_run_sites": 0,    # batched lw/sw runs in compiled blocks (static)
    "mem_run_words": 0,    # words covered by those runs (static)
}

#: Per-compile telemetry events (pc, shape, cost); bounded so a
#: pathological workload cannot grow memory without bound.
_COMPILE_EVENTS: list[dict] = []
_COMPILE_EVENT_CAP = 4096

#: Span lane for JIT compile instants in the Perfetto timeline — far
#: from the low lane numbers the sweep orchestrator assigns to cells,
#: so compile marks always render on their own track.
JIT_LANE = 90


def stats() -> dict:
    """Process-wide block-engine counters (for manifests / metrics)."""
    return dict(_STATS)


def compile_events() -> list[dict]:
    """Per-compile telemetry events recorded since the last reset."""
    return [dict(e) for e in _COMPILE_EVENTS]


def reset_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0.0 if key == "compile_seconds" else 0
    _COMPILE_EVENTS.clear()


def publish_stats(registry) -> None:
    """Export the engine counters as ``emu.blocks.*`` metrics."""
    s = stats()
    registry.counter("emu.blocks.compiled", help="blocks compiled").inc(s["blocks_compiled"])
    registry.counter("emu.blocks.superblocks", help="superblocks among compiled").inc(
        s["superblocks"]
    )
    registry.timer("emu.blocks.compile_wall", help="block compile wall time").add(
        s["compile_seconds"]
    )
    registry.counter("emu.blocks.execs", help="compiled-block executions").inc(
        s["block_execs"]
    )
    registry.counter("emu.blocks.insts", help="instructions retired in blocks").inc(
        s["block_insts"]
    )
    registry.counter(
        "emu.blocks.fallback_insts", help="instructions retired on fallback dispatch"
    ).inc(s["fallback_insts"])
    registry.counter("emu.blocks.replays", help="fault replays of compiled blocks").inc(
        s["replays"]
    )
    registry.counter("emu.blocks.side_exits", help="early superblock exits").inc(
        s["side_exits"]
    )
    registry.counter(
        "emu.blocks.cache_binds", help="compiles served by the per-program code cache"
    ).inc(s["cache_binds"])
    registry.counter(
        "emu.blocks.mem_run_sites", help="batched lw/sw runs in compiled blocks"
    ).inc(s["mem_run_sites"])
    registry.counter(
        "emu.blocks.mem_run_words", help="words covered by batched lw/sw runs"
    ).inc(s["mem_run_words"])
    registry.gauge(
        "emu.blocks.code_cache_programs", help="programs with live code caches"
    ).set(len(_CODE_CACHE))
    registry.gauge(
        "emu.blocks.code_cache_entries", help="cached code objects (all programs)"
    ).set(sum(len(c) for c in _CODE_CACHE.values()))


def telemetry() -> dict | None:
    """Manifest-ready "Compiler telemetry" block, or ``None``.

    ``None`` when the blocks tier never compiled anything this process —
    manifests and ``FidelityReport.to_dict()`` gate the block on data
    presence.
    """
    if not _STATS["blocks_compiled"] and not _COMPILE_EVENTS:
        return None
    s = stats()
    execs = s["block_execs"]
    total_insts = s["block_insts"] + s["fallback_insts"]
    return {
        "stats": s,
        "side_exit_rate": s["side_exits"] / execs if execs else 0.0,
        "block_inst_fraction": s["block_insts"] / total_insts if total_insts else 0.0,
        "code_cache": {
            "programs": len(_CODE_CACHE),
            "entries": sum(len(c) for c in _CODE_CACHE.values()),
        },
        "compile_events": compile_events(),
    }


def _note_compile(
    pc: int, n_inst: int, superblock: bool, seconds: float, cache_hit: bool, variant: str
) -> None:
    """Record one compile/bind event and its Perfetto instant."""
    if len(_COMPILE_EVENTS) < _COMPILE_EVENT_CAP:
        _COMPILE_EVENTS.append(
            {
                "pc": pc,
                "n_inst": n_inst,
                "superblock": superblock,
                "seconds": seconds,
                "cache_hit": cache_hit,
                "variant": variant,
            }
        )
    tracer = active_tracer()
    if tracer is not None:
        tracer.mark(
            f"jit.compile {pc:#x}",
            category="jit",
            lane=JIT_LANE,
            pc=pc,
            n_inst=n_inst,
            superblock=superblock,
            seconds=seconds,
            cache_hit=cache_hit,
            variant=variant,
        )


#: Per-program cache of compiled code objects, keyed ``id(program)``
#: then ``(leader_index, trace)`` → ``(n_inst, code, insts, superblock)``
#: or ``None`` (rejected).  CPython's ``compile`` dominates
#: block-compilation cost; the code object is machine-independent
#: (machine state binds at ``exec`` time), so every later Machine over
#: the same Program — repeat bench iterations, sweep cells, workers —
#: skips straight to the cheap bind.  Entries die with their Program
#: (``weakref.finalize``); Program is an unhashable dataclass, hence
#: the id key.
_CODE_CACHE: dict[int, dict] = {}


def _program_code_cache(program) -> dict:
    key = id(program)
    cache = _CODE_CACHE.get(key)
    if cache is None:
        cache = _CODE_CACHE[key] = {}
        weakref.finalize(program, _CODE_CACHE.pop, key, None)
    return cache


def _sgn(name: str) -> str:
    """Signed-interpretation expression for a simple operand name."""
    if name == "0":
        return "0"
    return f"({name} - 4294967296 if {name} & 2147483648 else {name})"


class _Block:
    __slots__ = ("items", "superblock")

    def __init__(self, items, superblock):
        # items: list of (text_index, Instruction, continue_direction)
        # where continue_direction is "taken"/"fall" for control
        # transfers the superblock extends through, None otherwise.
        self.items = items
        self.superblock = superblock


class BlockEngine:
    """Per-machine block discovery, profiling, and lazy compilation.

    The engine owns two dispatch tables indexed like the machine's
    bound-handler list.  A table entry is ``None`` (never compile —
    not a leader, or block rejected), an ``int`` countdown (leader
    profile: executions left before compiling), or a ``(max_inst, fn)``
    tuple once compiled.  ``run_table`` holds the index-chaining
    variants, ``trace_table`` the record-building variants.
    """

    def __init__(self, machine, threshold: int | None = None) -> None:
        self.m = machine
        self.decoded = machine.decoded
        self.base = machine.program.text_base
        self.threshold = default_block_threshold() if threshold is None else max(0, threshold)
        self.max_len = MAX_BLOCK_LEN
        self.min_len = MIN_BLOCK_LEN
        self._compiled: dict[tuple, tuple | None] = {}
        self._extents: dict[int, _Block | None] = {}
        self._counted: set[int] = set()
        # instance-local counters, folded into module _STATS by flush_stats()
        self.compiled = 0
        self.superblocks = 0
        self.compile_seconds = 0.0
        self.execs = 0
        self.insts = 0
        self.fallback = 0
        self.replays = 0
        self.side_exits = 0
        self.cache_binds = 0
        self.mem_run_sites = 0
        self.mem_run_words = 0

        size = len(self.decoded)
        initial = max(1, self.threshold)
        run_table: list = [None] * size
        trace_table: list = [None] * size
        warm_table: list = [None] * size
        for idx in self._leaders():
            inst = self.decoded[idx]
            if inst is not None and inst.mnemonic not in _UNSUPPORTED:
                run_table[idx] = initial
                trace_table[idx] = initial
                warm_table[idx] = initial
        self.run_table = run_table
        self.trace_table = trace_table
        self.warm_table = warm_table
        self.tables = {"run": run_table, "trace": trace_table, "warm": warm_table}

    # -------------------------------------------------------------- discovery

    def _leaders(self) -> set:
        decoded = self.decoded
        base = self.base
        size = len(decoded)
        leaders = set()
        entry_idx = (self.m.program.entry - base) >> 2
        if 0 <= entry_idx < size:
            leaders.add(entry_idx)
        for idx, inst in enumerate(decoded):
            if inst is None:
                continue
            mn = inst.mnemonic
            if mn in _BRANCHES:
                pc = base + 4 * idx
                ti = (((pc + 4 + (inst.imm << 2)) & _M) - base) >> 2
                if 0 <= ti < size:
                    leaders.add(ti)
            elif mn in _LINKS:
                pc = base + 4 * idx
                ti = ((((pc + 4) & 0xF000_0000) | (inst.target << 2)) - base) >> 2
                if 0 <= ti < size:
                    leaders.add(ti)
            elif mn not in _INDIRECT and mn not in _UNSUPPORTED:
                continue
            if idx + 1 < size:
                leaders.add(idx + 1)
        return leaders

    def _extent(self, index: int) -> _Block | None:
        """Trace-style superblock growth from leader *index*.

        Follows straight-line code, unconditional jumps, and the
        likely-hot edge of conditional branches (taken for backward —
        loop back-edges, so tight loops unroll — fallthrough for
        forward), until an indirect jump, a system instruction, an
        undecodable word, or the length cap.
        """
        decoded = self.decoded
        size = len(decoded)
        base = self.base
        max_len = self.max_len
        items: list = []
        superblock = False
        idx = index
        while 0 <= idx < size and len(items) < max_len:
            inst = decoded[idx]
            if inst is None:
                break
            mn = inst.mnemonic
            if mn in _UNSUPPORTED:
                break
            if mn in _INDIRECT:
                items.append((idx, inst, None))
                break
            if mn in _BRANCHES:
                pc = base + 4 * idx
                ti = (((pc + 4 + (inst.imm << 2)) & _M) - base) >> 2
                if len(items) < max_len - 1:
                    if ti <= idx and 0 <= ti:  # backward: loop edge, follow taken
                        items.append((idx, inst, "taken"))
                        superblock = True
                        idx = ti
                        continue
                    if ti > idx and idx + 1 < size:  # forward: follow fallthrough
                        items.append((idx, inst, "fall"))
                        superblock = True
                        idx += 1
                        continue
                items.append((idx, inst, None))
                break
            if mn in _LINKS:
                pc = base + 4 * idx
                ti = ((((pc + 4) & 0xF000_0000) | (inst.target << 2)) - base) >> 2
                if 0 <= ti < size and len(items) < max_len - 1:
                    items.append((idx, inst, "taken"))
                    superblock = True
                    idx = ti
                    continue
                items.append((idx, inst, None))
                break
            items.append((idx, inst, None))
            idx += 1
        if len(items) < self.min_len:
            return None
        return _Block(items, superblock)

    def items(self, index: int) -> list:
        """Static items of the compiled block at leader *index*.

        A compiled execution that retired ``k`` instructions retired
        exactly ``items[:k]`` — the guest profiler's per-PC key.
        Code-cache binds skip extent discovery; :meth:`_extent` is pure
        static analysis, so it runs here on first use.
        """
        block = self._extents.get(index)
        if block is None:
            block = self._extents[index] = self._extent(index)
        return block.items

    # ------------------------------------------------------------ compilation

    def compile_block(self, index: int, variant) -> None:
        """Compile (or reject) one variant of the block at *index*.

        *variant* is ``"run"``, ``"trace"``, or ``"warm"`` (legacy bools
        map to run/trace).  Variants compile lazily and independently —
        a pure :meth:`run` workload never pays for trace-variant
        compilation (CPython's ``compile`` dominates the cost) — and
        code objects are shared across machines through the per-program
        cache, so only the first machine over a program pays ``compile``
        at all.
        """
        if variant is True:
            variant = "trace"
        elif variant is False:
            variant = "run"
        key = (index, variant)
        if key not in self._compiled:
            t0 = time.perf_counter()
            code_cache = _program_code_cache(self.m.program)
            cached = code_cache.get(key, False)
            from_code_cache = cached is not False
            if cached is False:
                if index in self._extents:
                    block = self._extents[index]
                else:
                    block = self._extents[index] = self._extent(index)
                if block is None:
                    cached = None
                else:
                    code, insts = self._codegen(block, variant)
                    sites, words = self._batch_shape(block.items)
                    cached = (
                        len(block.items), code, insts, block.superblock, sites, words
                    )
                code_cache[key] = cached
            if cached is None:
                entry = None
                superblock = False
            else:
                n_inst, code, insts, superblock, sites, words = cached
                entry = (n_inst, self._bind(code, insts))
                if from_code_cache:
                    self.cache_binds += 1
                if index not in self._counted:  # once per block, not per variant
                    self._counted.add(index)
                    self.compiled += 1
                    if superblock:
                        self.superblocks += 1
                    self.mem_run_sites += sites
                    self.mem_run_words += words
            seconds = time.perf_counter() - t0
            self.compile_seconds += seconds
            self._compiled[key] = entry
            if entry is not None:
                _note_compile(
                    pc=self.base + 4 * index,
                    n_inst=entry[0],
                    superblock=superblock,
                    seconds=seconds,
                    cache_hit=from_code_cache,
                    variant=variant,
                )
        self.tables[variant][index] = self._compiled[key]

    def reset_variant(self, variant: str) -> None:
        """Drop compiled entries of *variant* so they rebind on next use.

        Needed when the bindings a variant closes over change — e.g.
        attaching a new functional-warming sink to the machine: warm
        bodies bind the sink's methods directly, so previously bound
        entries would keep warming the old one.
        """
        table = self.tables[variant]
        for index in list(self._compiled):
            if index[1] == variant:
                del self._compiled[index]
        for idx, entry in enumerate(table):
            if entry is not None:
                # 1, not the profiling threshold: the leader is already
                # known-hot, so recompile on its next execution.
                table[idx] = 1

    def _batch_shape(self, items) -> tuple[int, int]:
        """Static batching shape of a block: (mem-run sites, words covered)."""
        sites = 0
        words = 0
        k = 0
        n = len(items)
        while k < n:
            run = self._mem_run(items, k)
            if run >= BATCH_MIN:
                sites += 1
                words += run
                k += run
            else:
                k += 1
        return sites, words

    def _mem_run(self, items, k: int) -> int:
        """Length of the batchable lw/sw run starting at position *k*."""
        _, first, cont = items[k]
        mn = first.mnemonic
        if cont is not None or mn not in ("lw", "sw"):
            return 1
        base_reg = first.rs
        if mn == "lw" and first.rt == base_reg:
            return 1
        count = 1
        off = first.imm
        while k + count < len(items):
            _, nxt, ncont = items[k + count]
            if (
                ncont is not None
                or nxt.mnemonic != mn
                or nxt.rs != base_reg
                or nxt.imm != off + 4
            ):
                break
            count += 1
            off += 4
            if mn == "lw" and nxt.rt == base_reg:
                break  # this load clobbers the base: last member of the run
        return count

    def _codegen(self, block: _Block, variant: str):
        """Emit and exec-compile one variant of *block*.

        The generated function loads every register that is read
        before being written into a local, executes the superblock
        with all constants folded in, and commits registers / PC /
        instret only at exit points (side exits and the block end) —
        the invariant the replay-on-exception fault path relies on.

        The ``warm`` variant is the run variant plus functional-warming
        hooks: every memory operand touches the data cache (``_wd`` /
        ``_wds``), fetch-line transitions touch the I-cache (``_wi``),
        and control transfers train the branch predictor (``_gsu`` /
        ``_btu`` / ``_rpu`` / ``_rpo``) — so statistical-sampling
        fast-forward spans keep the microarchitectural state a detailed
        window adopts continuously warm, at block-compiled speed.
        """
        trace = variant == "trace"
        warm = variant == "warm"
        base = self.base
        size = len(self.decoded)
        items = block.items
        n = len(items)
        defined: set = set()     # registers with a local already assigned
        commits: list = []       # written registers, in first-write order
        body: list = []
        warm_iline = [-1]        # static fetch line of the previous item

        def wd(indent: str = "    ") -> None:
            if warm:
                body.append(f"{indent}_wd(_ma)")

        def wi(pc: int) -> None:
            if warm:
                iline = pc >> _ILINE_SHIFT
                if iline != warm_iline[0]:
                    warm_iline[0] = iline
                    body.append(f"    _wi({pc})")

        def reg(rn: int) -> str:
            if rn == 0:
                return "0"
            if rn not in defined:
                defined.add(rn)
                # Load at first use (always generated at top level, before
                # the consuming line) rather than at function entry, so a
                # side exit skips the loads of everything past it.
                body.append(f"    r{rn} = R[{rn}]")
            return f"r{rn}"

        def wreg(rn: int, expr: str, indent: str = "    ") -> None:
            if rn not in defined:
                defined.add(rn)
            if rn not in commits:
                commits.append(rn)
            body.append(f"{indent}r{rn} = {expr}")

        def rec(pc, k, a, b, res, addr, taken, npc, indent: str = "    ") -> None:
            if trace:
                body.append(
                    f"{indent}_ap(_TR({pc}, _I[{k}], {a}, {b}, {res}, {addr}, {taken}, {npc}))"
                )

        def enc(ni: int, cnt: int) -> int:
            if not 0 <= ni < size:
                ni = -1
            return ((ni + 1) << 8) | cnt

        def exit_lines(npc, cnt: int, ni, indent: str = "    ") -> None:
            """Commit and return at an exit point.

            *npc* is an int or expression string for the next PC; *ni*
            is the constant next leader index (or -1) or an expression
            string producing the packed return value.
            """
            for rn in commits:
                body.append(f"{indent}R[{rn}] = r{rn}")
            body.append(f"{indent}m.pc = {npc}")
            body.append(f"{indent}m.instret += {cnt}")
            if trace:
                body.append(f"{indent}return _rec")
            elif isinstance(ni, str):
                body.append(f"{indent}return {ni}")
            else:
                body.append(f"{indent}return {enc(ni, cnt)}")

        k = 0
        while k < n:
            idx, inst, cont = items[k]
            pc = base + 4 * idx
            mn = inst.mnemonic
            npc = (pc + 4) & _M
            a = reg(inst.rs) if trace or mn not in _RS_UNUSED_RUN else "_unused_rs"
            b = reg(inst.rt) if trace or mn not in _RT_UNUSED_RUN else "_unused_rt"
            last = k == n - 1
            wi(pc)

            run = self._mem_run(items, k)
            if run >= BATCH_MIN:
                body.append(f"    _ma = (({a}) + {inst.imm}) & 4294967295")
                if warm:
                    body.append(f"    _wds(_ma, {4 * run})")
                    for i in range(1, run):
                        wi(base + 4 * items[k + i][0])
                if mn == "lw":
                    body.append(f"    _vs = _rws(_ma, {run})")
                    for i in range(run):
                        midx, minst, _ = items[k + i]
                        mpc = base + 4 * midx
                        addr = "_ma" if i == 0 else f"((_ma + {4 * i}) & 4294967295)"
                        rec(mpc, k + i, a, reg(minst.rt), f"_vs[{i}]", addr,
                            False, (mpc + 4) & _M)
                        if minst.rt:
                            wreg(minst.rt, f"_vs[{i}]")
                else:
                    vals = ", ".join(reg(minst.rt) for _, minst, _ in items[k : k + run])
                    body.append(f"    _wws(_ma, ({vals},))")
                    for i in range(run):
                        midx, minst, _ = items[k + i]
                        mpc = base + 4 * midx
                        addr = "_ma" if i == 0 else f"((_ma + {4 * i}) & 4294967295)"
                        bi = reg(minst.rt)
                        rec(mpc, k + i, a, bi, bi, addr, False, (mpc + 4) & _M)
                k += run
                if k == n:
                    lidx = items[n - 1][0]
                    lpc = (base + 4 * lidx + 4) & _M
                    exit_lines(lpc, n, lidx + 1)
                continue

            if mn in _BRANCHES:
                tk_pc = (pc + 4 + (inst.imm << 2)) & _M
                ti = (tk_pc - base) >> 2
                fi = idx + 1
                if mn in _BRANCH2_OP:
                    cond = f"{a} {_BRANCH2_OP[mn]} {b}"
                elif mn in _BRANCH1_OP:
                    cond = f"{_sgn(a)} {_BRANCH1_OP[mn]}"
                else:  # bc1t / bc1f
                    fcc = reg(FCC)
                    cond = f"{fcc} == {1 if mn == 'bc1t' else 0}"
                body.append(f"    _tk = {cond}")
                if warm:
                    body.append(f"    _gsu({pc}, _tk)")
                if last or cont is None:
                    # terminal branch: return on both edges
                    if trace:
                        body.append(f"    _npc = {tk_pc} if _tk else {npc}")
                        rec(pc, k, a, b, 0, -1, "_tk", "_npc")
                        exit_lines("_npc", k + 1, -1)
                    else:
                        exit_lines(
                            f"{tk_pc} if _tk else {npc}",
                            k + 1,
                            f"{enc(ti, k + 1)} if _tk else {enc(fi, k + 1)}",
                        )
                elif cont == "taken":
                    body.append("    if not _tk:")
                    rec(pc, k, a, b, 0, -1, False, npc, indent="        ")
                    exit_lines(npc, k + 1, fi, indent="        ")
                    rec(pc, k, a, b, 0, -1, True, tk_pc)
                else:  # cont == "fall"
                    body.append("    if _tk:")
                    rec(pc, k, a, b, 0, -1, True, tk_pc, indent="        ")
                    exit_lines(tk_pc, k + 1, ti, indent="        ")
                    rec(pc, k, a, b, 0, -1, False, npc)
                k += 1
                continue

            if mn in _LINKS:
                target = (((pc + 4) & 0xF000_0000) | (inst.target << 2)) & _M
                ti = (target - base) >> 2
                rec(pc, k, a, b, pc + 4 if mn == "jal" else 0, -1, True, target)
                if mn == "jal":
                    if warm:
                        body.append(f"    _rpu({(pc + 4) & _M})")
                    wreg(31, str(pc + 4))
                if last or cont is None:
                    exit_lines(target, k + 1, ti)
                k += 1
                continue

            if mn in _INDIRECT:
                body.append(f"    _npc = {a}")
                if warm:
                    if mn == "jalr":
                        body.append(f"    _btu({pc}, _npc)")
                        body.append(f"    _rpu({(pc + 4) & _M})")
                    elif inst.rs == 31:  # return: maintain the RAS
                        body.append("    _rpo()")
                    else:
                        body.append(f"    _btu({pc}, _npc)")
                rec(pc, k, a, b, pc + 4 if mn == "jalr" else 0, -1, True, "_npc")
                if mn == "jalr" and inst.rd:
                    wreg(inst.rd, str(pc + 4))
                if trace:
                    exit_lines("_npc", k + 1, -1)
                else:
                    for rn in commits:
                        body.append(f"    R[{rn}] = r{rn}")
                    body.append("    m.pc = _npc")
                    body.append(f"    m.instret += {k + 1}")
                    body.append(f"    _t = _npc - {base}")
                    body.append(
                        f"    return ((((_t >> 2) + 1) << 8) | {k + 1})"
                        f" if (0 <= _t < {4 * size} and not _t & 3) else {k + 1}"
                    )
                k += 1
                continue

            if mn in _R3_EXPR:
                expr = _R3_EXPR[mn].format(a=a, b=b, sa=_sgn(a), sb=_sgn(b))
                if trace:
                    body.append(f"    _v = {expr}")
                    rec(pc, k, a, b, "_v", -1, False, npc)
                    if inst.rd:
                        wreg(inst.rd, "_v")
                elif inst.rd:
                    wreg(inst.rd, expr)
            elif mn in ("addiu", "addi"):
                self._rt_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"(({a} + {inst.imm}) & 4294967295)")
            elif mn == "andi":
                self._rt_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"({a} & {inst.imm & 0xFFFF})")
            elif mn == "ori":
                self._rt_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"({a} | {inst.imm & 0xFFFF})")
            elif mn == "xori":
                self._rt_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"({a} ^ {inst.imm & 0xFFFF})")
            elif mn == "slti":
                self._rt_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"(1 if {_sgn(a)} < {inst.imm} else 0)")
            elif mn == "sltiu":
                self._rt_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"(1 if {a} < {inst.imm & _M} else 0)")
            elif mn == "lui":
                self._rt_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             str((inst.imm & 0xFFFF) << 16))
            elif mn == "sll":
                self._rd_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"((({b}) << {inst.shamt}) & 4294967295)")
            elif mn == "srl":
                self._rd_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"(({b}) >> {inst.shamt})")
            elif mn == "sra":
                self._rd_alu(body, rec, wreg, trace, inst, k, pc, npc, a, b,
                             f"((({_sgn(b)}) >> {inst.shamt}) & 4294967295)")
            elif mn in ("lw", "lb", "lbu", "lh", "lhu"):
                body.append(f"    _ma = (({a}) + {inst.imm}) & 4294967295")
                wd()
                if trace:
                    if mn == "lw":
                        load = "_rw(_ma)"
                    elif mn == "lbu":
                        load = "_rb(_ma)"
                    elif mn == "lhu":
                        load = "_rh(_ma)"
                    elif mn == "lb":
                        body.append("    _t = _rb(_ma)")
                        load = "((_t - 256) if _t & 128 else _t) & 4294967295"
                    else:  # lh
                        body.append("    _t = _rh(_ma)")
                        load = "((_t - 65536) if _t & 32768 else _t) & 4294967295"
                    body.append(f"    _v = {load}")
                    rec(pc, k, a, b, "_v", "_ma", False, npc)
                    if inst.rt:
                        wreg(inst.rt, "_v")
                else:
                    # Run variant: the page store is accessed inline (an
                    # aligned word/half never crosses a 4 KiB page).  A
                    # misaligned address calls the scalar accessor, which
                    # raises AlignmentError and triggers block replay; a
                    # load into $zero keeps only its alignment fault.
                    if mn == "lw":
                        body.append("    if _ma & 3:")
                        body.append("        _rw(_ma)")
                        if inst.rt:
                            body.append("    _pg = _pgs.get(_ma >> 12)")
                            body.append("    _o = _ma & 4095")
                            wreg(inst.rt,
                                 "(_pg[_o] | (_pg[_o + 1] << 8) | (_pg[_o + 2] << 16)"
                                 " | (_pg[_o + 3] << 24)) if _pg is not None else 0")
                    elif mn in ("lh", "lhu"):
                        body.append("    if _ma & 1:")
                        body.append("        _rh(_ma)")
                        if inst.rt:
                            body.append("    _pg = _pgs.get(_ma >> 12)")
                            body.append("    _o = _ma & 4095")
                            half = "(_pg[_o] | (_pg[_o + 1] << 8)) if _pg is not None else 0"
                            if mn == "lhu":
                                wreg(inst.rt, half)
                            else:
                                body.append(f"    _t = {half}")
                                wreg(inst.rt, "((_t - 65536) if _t & 32768 else _t) & 4294967295")
                    else:  # lb / lbu: byte loads cannot fault
                        if inst.rt:
                            body.append("    _pg = _pgs.get(_ma >> 12)")
                            byte = "_pg[_ma & 4095] if _pg is not None else 0"
                            if mn == "lbu":
                                wreg(inst.rt, byte)
                            else:
                                body.append(f"    _t = {byte}")
                                wreg(inst.rt, "((_t - 256) if _t & 128 else _t) & 4294967295")
            elif mn == "sw":
                body.append(f"    _ma = (({a}) + {inst.imm}) & 4294967295")
                wd()
                if trace:
                    body.append(f"    _ww(_ma, {b})")
                    rec(pc, k, a, b, b, "_ma", False, npc)
                else:
                    body.append("    if _ma & 3:")
                    body.append(f"        _ww(_ma, {b})")
                    body.append("    _pg = _pgs.get(_ma >> 12)")
                    body.append("    if _pg is None:")
                    body.append(f"        _ww(_ma, {b})")  # allocates the page
                    body.append("    else:")
                    body.append("        _o = _ma & 4095")
                    body.append(f"        _pg[_o] = {b} & 255")
                    body.append(f"        _pg[_o + 1] = ({b} >> 8) & 255")
                    body.append(f"        _pg[_o + 2] = ({b} >> 16) & 255")
                    body.append(f"        _pg[_o + 3] = ({b} >> 24) & 255")
            elif mn == "sb":
                body.append(f"    _ma = (({a}) + {inst.imm}) & 4294967295")
                wd()
                if trace:
                    body.append(f"    _wb(_ma, {b})")
                    rec(pc, k, a, b, f"({b} & 255)", "_ma", False, npc)
                else:
                    body.append("    _pg = _pgs.get(_ma >> 12)")
                    body.append("    if _pg is None:")
                    body.append(f"        _wb(_ma, {b})")  # allocates the page
                    body.append("    else:")
                    body.append(f"        _pg[_ma & 4095] = {b} & 255")
            elif mn == "sh":
                body.append(f"    _ma = (({a}) + {inst.imm}) & 4294967295")
                wd()
                if trace:
                    body.append(f"    _wh(_ma, {b})")
                    rec(pc, k, a, b, f"({b} & 65535)", "_ma", False, npc)
                else:
                    body.append("    if _ma & 1:")
                    body.append(f"        _wh(_ma, {b})")
                    body.append("    _pg = _pgs.get(_ma >> 12)")
                    body.append("    if _pg is None:")
                    body.append(f"        _wh(_ma, {b})")  # allocates the page
                    body.append("    else:")
                    body.append("        _o = _ma & 4095")
                    body.append(f"        _pg[_o] = {b} & 255")
                    body.append(f"        _pg[_o + 1] = ({b} >> 8) & 255")
            elif mn == "lwc1":
                body.append(f"    _ma = (({a}) + {inst.imm}) & 4294967295")
                wd()
                body.append("    _v = _rw(_ma)")
                rec(pc, k, a, b, "_v", "_ma", False, npc)
                wreg(FP_BASE + inst.rt, "_v")
            elif mn == "swc1":
                ft = reg(FP_BASE + inst.rt)
                body.append(f"    _ma = (({a}) + {inst.imm}) & 4294967295")
                wd()
                body.append(f"    _ww(_ma, {ft})")
                rec(pc, k, a, b, ft, "_ma", False, npc)
            elif mn in ("mult", "multu"):
                if mn == "mult":
                    body.append(f"    _p = {_sgn(a)} * {_sgn(b)}")
                else:
                    body.append(f"    _p = {a} * {b}")
                wreg(HI, "(_p >> 32) & 4294967295")
                wreg(LO, "_p & 4294967295")
                rec(pc, k, a, b, f"r{LO}", -1, False, npc)
            elif mn == "div":
                body.append(f"    _sa = {_sgn(a)}")
                body.append(f"    _sb = {_sgn(b)}")
                body.append("    if _sb == 0:")
                body.append(f"        r{HI} = r{LO} = 0")
                body.append("    else:")
                body.append("        _q = _abs(_sa) // _abs(_sb)")
                body.append("        if (_sa < 0) != (_sb < 0):")
                body.append("            _q = -_q")
                body.append(f"        r{LO} = _q & 4294967295")
                body.append(f"        r{HI} = (_sa - _q * _sb) & 4294967295")
                self._mark_write(defined, commits, HI)
                self._mark_write(defined, commits, LO)
                rec(pc, k, a, b, f"r{LO}", -1, False, npc)
            elif mn == "divu":
                body.append(f"    if {b} == 0:")
                body.append(f"        r{HI} = r{LO} = 0")
                body.append("    else:")
                body.append(f"        r{LO} = {a} // {b}")
                body.append(f"        r{HI} = {a} % {b}")
                self._mark_write(defined, commits, HI)
                self._mark_write(defined, commits, LO)
                rec(pc, k, a, b, f"r{LO}", -1, False, npc)
            elif mn in ("mfhi", "mflo"):
                src = reg(HI if mn == "mfhi" else LO)
                rec(pc, k, a, b, src, -1, False, npc)
                if inst.rd:
                    wreg(inst.rd, src)
            elif mn in ("mthi", "mtlo"):
                rec(pc, k, a, b, a, -1, False, npc)
                wreg(HI if mn == "mthi" else LO, a)
            elif mn in ("add.s", "sub.s", "mul.s", "div.s"):
                fs = reg(FP_BASE + inst.rd)
                ft = reg(FP_BASE + inst.rt)
                body.append(f"    _fa = _f32({fs})")
                body.append(f"    _fb = _f32({ft})")
                if mn == "div.s":
                    body.append("    if _fb == 0.0:")
                    body.append(
                        "        _fv = _nan if _fa == 0.0 or _isnan(_fa)"
                        " else _cs(_inf, _fa) * _cs(1.0, _fb)"
                    )
                    body.append("    else:")
                    body.append("        _fv = _fa / _fb")
                else:
                    op = {"add.s": "+", "sub.s": "-", "mul.s": "*"}[mn]
                    body.append(f"    _fv = _fa {op} _fb")
                body.append("    _v = _b32(_fv)")
                rec(pc, k, a, b, "_v", -1, False, npc)
                wreg(FP_BASE + inst.shamt, "_v")
            elif mn in ("mov.s", "neg.s", "abs.s", "sqrt.s", "cvt.w.s", "cvt.s.w"):
                fs = reg(FP_BASE + inst.rd)
                if mn == "mov.s":
                    expr = fs
                elif mn == "neg.s":
                    expr = f"({fs} ^ 2147483648)"
                elif mn == "abs.s":
                    expr = f"({fs} & 2147483647)"
                elif mn == "sqrt.s":
                    expr = f"_fsqrt({fs})"
                elif mn == "cvt.w.s":
                    expr = f"_fcvtws({fs})"
                else:  # cvt.s.w
                    expr = f"_b32(_flt({_sgn(fs)}))"
                body.append(f"    _v = {expr}")
                rec(pc, k, a, b, "_v", -1, False, npc)
                wreg(FP_BASE + inst.shamt, "_v")
            elif mn in _FP_CMP_OP:
                fs = reg(FP_BASE + inst.rd)
                ft = reg(FP_BASE + inst.rt)
                body.append(f"    _fa = _f32({fs})")
                body.append(f"    _fb = _f32({ft})")
                body.append(
                    "    _v = 0 if _isnan(_fa) or _isnan(_fb)"
                    f" else (1 if _fa {_FP_CMP_OP[mn]} _fb else 0)"
                )
                rec(pc, k, a, b, "_v", -1, False, npc)
                wreg(FCC, "_v")
            elif mn == "mfc1":
                fs = reg(FP_BASE + inst.rd)
                rec(pc, k, a, b, fs, -1, False, npc)
                if inst.rt:
                    wreg(inst.rt, fs)
            elif mn == "mtc1":
                rec(pc, k, a, b, b, -1, False, npc)
                wreg(FP_BASE + inst.rd, b)
            else:  # pragma: no cover - _extent admits only the mnemonics above
                raise DispatchDivergence(f"block codegen cannot handle {mn!r}")
            if last:
                exit_lines(npc, n, idx + 1)
            k += 1

        params = (
            "R", "_pgs", "_rw", "_ww", "_rh", "_wh", "_rb", "_wb", "_rws", "_wws",
            "_TR", "_I", "_f32", "_b32", "_fsqrt", "_fcvtws",
            "_isnan", "_cs", "_nan", "_inf", "_abs", "_flt",
            "_wd", "_wds", "_wi", "_gsu", "_btu", "_rpu", "_rpo",
        )
        lines = ["def _blk(m, " + ", ".join(f"{p}={p}" for p in params) + "):"]
        if trace:
            lines.append("    _rec = []")
            lines.append("    _ap = _rec.append")
        lines.extend(body)
        src = "\n".join(lines) + "\n"

        entry_pc = base + 4 * items[0][0]
        return compile(src, f"<block:{variant}@{entry_pc:#x}>", "exec"), tuple(
            inst for _, inst, _ in items
        )

    def _bind(self, code, insts) -> object:
        """Exec a cached block code object against this machine's state.

        Binding is ~100x cheaper than compiling, which is what makes
        the per-program code cache pay off across machines.
        """
        machine = self.m
        mem = machine.memory
        env = {
            "R": machine.regs,
            "_pgs": mem._pages,
            "_rw": mem.read_word, "_ww": mem.write_word,
            "_rh": mem.read_half, "_wh": mem.write_half,
            "_rb": mem.read_byte, "_wb": mem.write_byte,
            "_rws": mem.read_words, "_wws": mem.write_words,
            "_TR": TraceRecord,
            "_I": insts,
            "_f32": f32_from_bits, "_b32": bits_from_f32,
            "_fsqrt": _fp_sqrt, "_fcvtws": _fp_cvt_w_s,
            "_isnan": math.isnan, "_cs": math.copysign,
            "_nan": math.nan, "_inf": math.inf,
            "_abs": abs, "_flt": float,
        }
        sink = machine._warm_sink
        if sink is not None:
            hierarchy, predictor = sink
            env.update({
                "_wd": hierarchy.warm_data,
                "_wds": hierarchy.warm_data_span,
                "_wi": hierarchy.warm_instruction,
                "_gsu": predictor.gshare.update,
                "_btu": predictor.btb.update,
                "_rpu": predictor.ras.push,
                "_rpo": predictor.ras.pop,
            })
        else:
            # Run/trace variants never call the warming hooks; warm
            # variants only compile once a sink is attached, so binding
            # None here keeps a missing hook loudly visible.
            env.update(dict.fromkeys(("_wd", "_wds", "_wi", "_gsu", "_btu", "_rpu", "_rpo")))
        exec(code, env)
        return env["_blk"]

    @staticmethod
    def _mark_write(defined: set, commits: list, rn: int) -> None:
        if rn not in defined:
            defined.add(rn)
        if rn not in commits:
            commits.append(rn)

    def _rt_alu(self, body, rec, wreg, trace, inst, k, pc, npc, a, b, expr) -> None:
        if trace:
            body.append(f"    _v = {expr}")
            rec(pc, k, a, b, "_v", -1, False, npc)
            if inst.rt:
                wreg(inst.rt, "_v")
        elif inst.rt:
            wreg(inst.rt, expr)

    def _rd_alu(self, body, rec, wreg, trace, inst, k, pc, npc, a, b, expr) -> None:
        if trace:
            body.append(f"    _v = {expr}")
            rec(pc, k, a, b, "_v", -1, False, npc)
            if inst.rd:
                wreg(inst.rd, "_v")
        elif inst.rd:
            wreg(inst.rd, expr)

    # ----------------------------------------------------------------- replay

    def replay(self, machine, n_inst: int, original):
        """Re-execute a faulted block per-instruction from entry state.

        Compiled bodies commit nothing before raising, so the machine
        still holds the block-entry state; stepping the pre-bound
        handlers from here reproduces the reference fault exactly —
        the generator yields each retired record, then the faulting
        handler re-raises the real exception.  If replay finishes all
        ``n_inst`` steps cleanly the compiled body disagreed with the
        handlers, which is a divergence, not a guest fault.
        """
        self.replays += 1
        bound = machine._bound
        base = self.base
        for _ in range(n_inst):
            index = (machine.pc - base) >> 2
            yield bound[index](machine, True)
        raise DispatchDivergence(
            f"compiled block raised {original!r} but per-instruction replay succeeded"
        ) from original

    def flush_stats(self) -> None:
        """Fold instance counters into the module totals."""
        _STATS["blocks_compiled"] += self.compiled
        _STATS["superblocks"] += self.superblocks
        _STATS["compile_seconds"] += self.compile_seconds
        _STATS["block_execs"] += self.execs
        _STATS["block_insts"] += self.insts
        _STATS["fallback_insts"] += self.fallback
        _STATS["replays"] += self.replays
        _STATS["side_exits"] += self.side_exits
        _STATS["cache_binds"] += self.cache_binds
        _STATS["mem_run_sites"] += self.mem_run_sites
        _STATS["mem_run_words"] += self.mem_run_words
        self.compiled = 0
        self.superblocks = 0
        self.compile_seconds = 0.0
        self.execs = 0
        self.insts = 0
        self.fallback = 0
        self.replays = 0
        self.side_exits = 0
        self.cache_binds = 0
        self.mem_run_sites = 0
        self.mem_run_words = 0


# ------------------------------------------------------------- cross-check

def cross_check_blocks(program, max_steps: int = 100_000, threshold: int = 0):
    """Differentially execute *program*: blocks tier vs golden reference.

    The blocks machine streams records through its trace generator
    (architecturally it runs ahead to the next block exit); the
    reference machine steps one instruction per record.  Every
    :class:`TraceRecord` and the final architectural state must match.

    Returns the number of instructions compared.

    Raises:
        DispatchDivergence: first record (or final state) mismatch.
    """
    from repro.emulator.machine import Machine

    fast = Machine(program, dispatch="blocks", block_threshold=threshold)
    gold = Machine(program, dispatch="reference")
    stream = fast.trace(max_steps)
    n = 0
    while not gold.halted and n < max_steps:
        want = gold.step_reference()
        got = next(stream, None)
        if want != got:
            raise DispatchDivergence(
                f"step {n}: blocks tier produced {got!r}, reference produced {want!r}"
            )
        n += 1
    stream.close()
    if fast.regs != gold.regs:
        raise DispatchDivergence("final register files differ")
    if fast.pc != gold.pc or fast.halted != gold.halted or fast.output != gold.output:
        raise DispatchDivergence("final machine state differs")
    return n


__all__ = [
    "BlockEngine",
    "compile_events",
    "cross_check_blocks",
    "default_block_threshold",
    "publish_stats",
    "reset_stats",
    "stats",
    "telemetry",
    "DEFAULT_THRESHOLD",
    "JIT_LANE",
    "MAX_BLOCK_LEN",
    "MIN_BLOCK_LEN",
    "THRESHOLD_ENV",
]
