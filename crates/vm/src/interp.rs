//! The IR interpreter: executes a [`Module`] over simulated memory,
//! charging cycles from a [`CostModel`], a [`MemoryTiming`] implementation
//! (the cache hierarchy), and a [`ProfilingRuntime`] (the instrumentation
//! runtime of the paper).

use crate::cost::CostModel;
use crate::memory::{layout_globals, Heap, Memory};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use stride_ir::{BlockId, EdgeId, FuncId, InstrId, Module, Op, Operand, Reg, Terminator};

/// Whether a memory access is a load or a store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A store.
    Store,
}

/// Provides memory-system timing: how many cycles an access stalls beyond
/// its base cost, and what a prefetch does.
pub trait MemoryTiming {
    /// Returns stall cycles for a demand access of `addr` at time `cycle`.
    fn access(&mut self, addr: u64, cycle: u64, kind: AccessKind) -> u64;
    /// Issues a non-blocking prefetch of `addr` at time `cycle`.
    fn prefetch(&mut self, addr: u64, cycle: u64);

    /// Opt-in for the VM's last-line load fast path. `Some(line)` promises
    /// that a demand **load** of the same `line`-aligned block as the
    /// immediately preceding demand access — with no other access or
    /// prefetch in between — would return 0 stall from [`Self::access`]
    /// and change no observable state beyond what
    /// [`Self::note_line_repeats`] applies. Implementations that must see
    /// every access (tracers) keep the `None` default.
    fn repeat_line_size(&self) -> Option<u64> {
        None
    }

    /// Applies the statistics of `n` batched same-line repeat loads of
    /// `addr` (see [`Self::repeat_line_size`]). Default: nothing.
    fn note_line_repeats(&mut self, _addr: u64, _n: u64) {}
}

/// A memory system with no stalls (used for functional tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct FlatTiming;

impl MemoryTiming for FlatTiming {
    fn access(&mut self, _addr: u64, _cycle: u64, _kind: AccessKind) -> u64 {
        0
    }
    fn prefetch(&mut self, _addr: u64, _cycle: u64) {}
    /// Stateless and stall-free: every access is trivially a repeat hit.
    fn repeat_line_size(&self) -> Option<u64> {
        Some(64)
    }
}

/// The profiling runtime invoked by the profiling pseudo-instructions.
///
/// Each hook returns the cycle cost of the instruction sequence it stands
/// for, so instrumented runs pay a realistic overhead (Fig. 20 of the
/// paper is a ratio of such costs).
pub trait ProfilingRuntime {
    /// `ProfileEdge`: increment the counter of `edge` in `func`.
    fn profile_edge(&mut self, func: FuncId, edge: EdgeId) -> u64;
    /// `TripCountCheck`: evaluate `(entry_freq >> shift) > prehead_freq`
    /// from the current counters (Figs. 11–14). Returns the predicate and
    /// the cost.
    fn trip_count_check(
        &mut self,
        func: FuncId,
        incoming: &[EdgeId],
        outgoing: &[EdgeId],
        shift: u32,
    ) -> (bool, u64);
    /// `ProfileStride`: feed `addr` to the `strideProf` routine for load
    /// `site` (Figs. 6/7/9). Returns the cost.
    fn stride_prof(&mut self, func: FuncId, site: InstrId, slot: u32, addr: u64) -> u64;
}

/// A runtime that ignores every hook (used for uninstrumented runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRuntime;

impl ProfilingRuntime for NullRuntime {
    fn profile_edge(&mut self, _func: FuncId, _edge: EdgeId) -> u64 {
        0
    }
    fn trip_count_check(
        &mut self,
        _func: FuncId,
        _incoming: &[EdgeId],
        _outgoing: &[EdgeId],
        _shift: u32,
    ) -> (bool, u64) {
        (false, 0)
    }
    fn stride_prof(&mut self, _func: FuncId, _site: InstrId, _slot: u32, _addr: u64) -> u64 {
        0
    }
}

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Cycle costs per opcode.
    pub cost: CostModel,
    /// Maximum dynamic instructions before aborting with
    /// [`VmError::OutOfFuel`].
    pub fuel: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Exclusive upper bound of the simulated address space. Demand
    /// accesses at or above it abort with
    /// [`VmError::InvalidMemoryAccess`]; prefetches of such addresses are
    /// dropped silently (prefetch is non-faulting, as on Itanium).
    pub addr_limit: u64,
    /// Execute through the superinstruction-fused clone of the module
    /// (`stride_ir::fuse_module`). Fusion is a pure dispatch optimization:
    /// every logical output — return value, cycles, instruction/load/store
    /// counts, per-site load counts — is byte-identical with it on or off.
    pub fuse: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cost: CostModel::itanium(),
            fuel: 4_000_000_000,
            max_call_depth: 1 << 14,
            addr_limit: 1 << 40,
            fuse: true,
        }
    }
}

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// The instruction budget was exhausted.
    OutOfFuel {
        /// Instructions executed before aborting.
        executed: u64,
    },
    /// The call stack exceeded the configured depth.
    CallDepthExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A demand load or store touched an address outside the simulated
    /// address space (`addr >= VmConfig::addr_limit`).
    InvalidMemoryAccess {
        /// The faulting address.
        addr: u64,
    },
    /// The entry point or a call named a function id the module does not
    /// define.
    UnknownFunction {
        /// The out-of-range function index.
        func: u32,
    },
    /// A function was invoked with the wrong number of arguments.
    ArityMismatch {
        /// The function index invoked.
        func: u32,
        /// Parameters the function declares.
        expected: u32,
        /// Arguments actually supplied.
        got: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfFuel { executed } => {
                write!(
                    f,
                    "instruction budget exhausted after {executed} instructions"
                )
            }
            VmError::CallDepthExceeded { limit } => {
                write!(f, "call depth exceeded limit of {limit}")
            }
            VmError::InvalidMemoryAccess { addr } => {
                write!(f, "invalid memory access at {addr:#x}")
            }
            VmError::UnknownFunction { func } => {
                write!(f, "unknown function f{func}")
            }
            VmError::ArityMismatch {
                func,
                expected,
                got,
            } => {
                write!(
                    f,
                    "function f{func} expects {expected} arguments, got {got}"
                )
            }
        }
    }
}

impl Error for VmError {}

/// Everything a run produced: the return value, cycle accounting, and
/// per-load-site dynamic reference counts.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Value returned by the entry function, if any.
    pub return_value: Option<i64>,
    /// Total simulated cycles (base + memory stalls + profiling runtime).
    pub cycles: u64,
    /// Dynamic instruction count (including terminators).
    pub instructions: u64,
    /// Dynamic load count.
    pub loads: u64,
    /// Dynamic store count.
    pub stores: u64,
    /// Dynamic prefetch count (predicated-off prefetches excluded).
    pub prefetches: u64,
    /// Cycles stalled in the memory hierarchy.
    pub mem_stall_cycles: u64,
    /// Cycles spent in the profiling runtime.
    pub profiling_cycles: u64,
    /// Dynamic execution count per load site: `load_site_counts[func][instr]`.
    pub load_site_counts: Vec<Vec<u64>>,
    /// Superinstructions dispatched (meta-counter: measures how much
    /// dispatch work fusion saved; not a logical output — it differs
    /// between fused and unfused runs by design).
    pub fused_dispatch: u64,
    /// Demand accesses (loads and stores) served by the VM's last-line
    /// fast path without calling into the memory timing model
    /// (meta-counter; depends on the timing model's
    /// [`MemoryTiming::repeat_line_size`] opt-in).
    pub fastpath_load_hits: u64,
    /// Dispatch probes recorded by the `vm-selfprof` feature (meta-counter;
    /// always 0 when the feature is off).
    pub selfprof_overhead_cycles: u64,
}

impl RunResult {
    /// Dynamic count for one load site.
    pub fn load_count(&self, func: FuncId, site: InstrId) -> u64 {
        self.load_site_counts
            .get(func.index())
            .and_then(|v| v.get(site.index()))
            .copied()
            .unwrap_or(0)
    }
}

struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<i64>,
    ret_reg: Option<Reg>,
}

/// Operand evaluation, hoisted out of the dispatch loop.
#[inline]
fn eval(regs: &[i64], o: Operand) -> i64 {
    match o {
        Operand::Reg(r) => regs[r.index()],
        Operand::Imm(v) => v,
    }
}

/// The virtual machine. Owns the simulated memory and heap; borrows the
/// module, timing model and profiling runtime for the duration of a run.
pub struct Vm<'a> {
    module: &'a Module,
    config: VmConfig,
    /// Superinstruction-fused clone of `module`, shared through the
    /// process-wide decode cache (None when `config.fuse` is off).
    fused: Option<std::sync::Arc<Module>>,
    /// Simulated memory, exposed so harnesses can pre-initialize data.
    pub mem: Memory,
    /// Simulated heap.
    pub heap: Heap,
    global_bases: Vec<u64>,
    alloc_sizes: HashMap<u64, u64>,
    /// Dispatch profile accumulated across runs (`vm-selfprof` builds).
    #[cfg(feature = "vm-selfprof")]
    pub selfprof: crate::selfprof::SelfProfile,
}

impl<'a> Vm<'a> {
    /// Creates a VM for `module` with globals laid out and zeroed.
    pub fn new(module: &'a Module, config: VmConfig) -> Self {
        let sizes: Vec<u64> = module.globals.iter().map(|g| g.size).collect();
        let global_bases = layout_globals(&sizes);
        let fused = config.fuse.then(|| decode_cache::fused(module));
        Vm {
            module,
            config,
            fused,
            mem: Memory::new(),
            heap: Heap::new(),
            global_bases,
            alloc_sizes: HashMap::new(),
            #[cfg(feature = "vm-selfprof")]
            selfprof: crate::selfprof::SelfProfile::new(),
        }
    }

    /// Base address of a global.
    ///
    /// # Panics
    ///
    /// Panics if the global id is out of range.
    pub fn global_base(&self, g: stride_ir::GlobalId) -> u64 {
        self.global_bases[g.index()]
    }

    /// Runs the module entry function with `args`, using `timing` for
    /// memory-system delays and `profiling` for instrumentation hooks.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfFuel`] or [`VmError::CallDepthExceeded`].
    pub fn run(
        &mut self,
        args: &[i64],
        timing: &mut dyn MemoryTiming,
        profiling: &mut dyn ProfilingRuntime,
    ) -> Result<RunResult, VmError> {
        let entry = self.module.entry;
        self.run_function(entry, args, timing, profiling)
    }

    /// Runs an arbitrary function (used by unit tests and examples).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfFuel`] or [`VmError::CallDepthExceeded`].
    pub fn run_function(
        &mut self,
        func: FuncId,
        args: &[i64],
        timing: &mut dyn MemoryTiming,
        profiling: &mut dyn ProfilingRuntime,
    ) -> Result<RunResult, VmError> {
        // Execute from the fused clone when fusion is on. The clone has
        // the same functions, ids and register files; the fused arms below
        // keep all accounting byte-identical to sequential execution.
        let fused_arc = self.fused.clone();
        let module: &Module = fused_arc.as_deref().unwrap_or(self.module);

        let mut result = RunResult {
            load_site_counts: module
                .functions
                .iter()
                .map(|f| vec![0u64; f.next_instr as usize])
                .collect(),
            ..RunResult::default()
        };

        let Some(f) = module.functions.get(func.index()) else {
            return Err(VmError::UnknownFunction {
                func: func.index() as u32,
            });
        };
        if args.len() != f.num_params as usize {
            return Err(VmError::ArityMismatch {
                func: func.index() as u32,
                expected: f.num_params,
                got: args.len(),
            });
        }
        let mut entry_regs = vec![0i64; f.num_regs as usize];
        entry_regs[..args.len()].copy_from_slice(args);
        // The running frame lives in a local; `stack` holds only suspended
        // callers, so dispatch never re-indexes the stack.
        let mut cur = Frame {
            func,
            block: f.entry,
            idx: 0,
            regs: entry_regs,
            ret_reg: None,
        };
        let mut stack: Vec<Frame> = Vec::new();

        // Loop-invariant configuration, hoisted out of dispatch.
        let cost = self.config.cost;
        let fuel = self.config.fuel;
        let addr_limit = self.config.addr_limit;
        let max_depth = self.config.max_call_depth;
        // Register files of returned frames, reused by later calls so the
        // call-heavy workloads do not allocate per dynamic call. Bounded by
        // the deepest call stack seen.
        let mut reg_pool: Vec<Vec<i64>> = Vec::new();

        // Last-line load fast path (see MemoryTiming::repeat_line_size):
        // demand loads and stores of the line touched by the immediately
        // preceding demand access skip the timing model; their statistics
        // are batched into the model at the next slow event or at run exit.
        let repeat_mask = timing.repeat_line_size().map(|s| !(s - 1));
        let mut last_line: u64 = u64::MAX; // sentinel: no MRU line known
        let mut last_addr: u64 = 0;
        let mut pending_repeats: u64 = 0;

        #[cfg(feature = "vm-selfprof")]
        let mut prev_kind: Option<crate::selfprof::OpKind> = None;

        let mut error: Option<VmError> = None;

        'outer: loop {
            let function = &module.functions[cur.func.index()];
            'blocks: loop {
                let block = &function.blocks[cur.block.index()];
                let instrs = &block.instrs;
                while cur.idx < instrs.len() {
                    let instr = &instrs[cur.idx];
                    cur.idx += 1;
                    result.instructions += 1;
                    if result.instructions > fuel {
                        error = Some(VmError::OutOfFuel {
                            executed: result.instructions,
                        });
                        break 'outer;
                    }

                    #[cfg(feature = "vm-selfprof")]
                    {
                        let k = crate::selfprof::OpKind::of_op(&instr.op);
                        self.selfprof.record(prev_kind, k);
                        prev_kind = Some(k);
                        result.selfprof_overhead_cycles += 1;
                    }

                    // Qualifying predicate: a squashed instruction still
                    // costs its issue slot on an in-order machine? On
                    // Itanium a predicated-off instruction occupies the
                    // slot but completes without effect; charge 1 cycle.
                    if let Some(p) = instr.pred {
                        if cur.regs[p.index()] == 0 {
                            result.cycles += 1;
                            continue;
                        }
                    }

                    result.cycles += cost.base_cost(&instr.op);
                    let regs = &mut cur.regs;

                    // Arms ordered hottest-first per the vm-selfprof
                    // opcode/digram profile of the Fig. 15 workloads.
                    match &instr.op {
                        Op::FusedBinBin {
                            a_dst,
                            a_op,
                            a_lhs,
                            a_rhs,
                            b_dst,
                            b_op,
                            b_lhs,
                            b_rhs,
                            b_id: _,
                        } => {
                            result.fused_dispatch += 1;
                            // base_cost above charged the sum of both
                            // halves; each half keeps its own dynamic
                            // instruction slot and fuel check.
                            regs[a_dst.index()] = a_op.eval(eval(regs, *a_lhs), eval(regs, *a_rhs));
                            result.instructions += 1;
                            if result.instructions > fuel {
                                error = Some(VmError::OutOfFuel {
                                    executed: result.instructions,
                                });
                                break 'outer;
                            }
                            regs[b_dst.index()] = b_op.eval(eval(regs, *b_lhs), eval(regs, *b_rhs));
                        }
                        Op::FusedBinLoad {
                            bin_dst,
                            op,
                            lhs,
                            rhs,
                            load_dst,
                            offset,
                            site,
                        } => {
                            result.fused_dispatch += 1;
                            // Bin half (base_cost above charged the sum of
                            // both halves' base costs).
                            let av = op.eval(eval(regs, *lhs), eval(regs, *rhs));
                            regs[bin_dst.index()] = av;
                            // Load half: its own dynamic-instruction slot
                            // and fuel check, so OutOfFuel aborts at the
                            // same point as unfused execution.
                            result.instructions += 1;
                            if result.instructions > fuel {
                                error = Some(VmError::OutOfFuel {
                                    executed: result.instructions,
                                });
                                break 'outer;
                            }
                            let a = av.wrapping_add(*offset) as u64;
                            if a >= addr_limit {
                                error = Some(VmError::InvalidMemoryAccess { addr: a });
                                break 'outer;
                            }
                            result.loads += 1;
                            result.load_site_counts[cur.func.index()][site.index()] += 1;
                            if let Some(mask) = repeat_mask {
                                if a & mask == last_line {
                                    pending_repeats += 1;
                                    result.fastpath_load_hits += 1;
                                } else {
                                    if pending_repeats != 0 {
                                        timing.note_line_repeats(last_addr, pending_repeats);
                                        pending_repeats = 0;
                                    }
                                    let stall = timing.access(a, result.cycles, AccessKind::Load);
                                    result.cycles += stall;
                                    result.mem_stall_cycles += stall;
                                    last_line = a & mask;
                                    last_addr = a;
                                }
                            } else {
                                let stall = timing.access(a, result.cycles, AccessKind::Load);
                                result.cycles += stall;
                                result.mem_stall_cycles += stall;
                            }
                            regs[load_dst.index()] = self.mem.read_u64(a) as i64;
                        }
                        Op::Bin { dst, op, lhs, rhs } => {
                            regs[dst.index()] = op.eval(eval(regs, *lhs), eval(regs, *rhs));
                        }
                        Op::Load { dst, addr, offset } => {
                            let a = (eval(regs, *addr)).wrapping_add(*offset) as u64;
                            if a >= addr_limit {
                                error = Some(VmError::InvalidMemoryAccess { addr: a });
                                break 'outer;
                            }
                            result.loads += 1;
                            result.load_site_counts[cur.func.index()][instr.id.index()] += 1;
                            if let Some(mask) = repeat_mask {
                                if a & mask == last_line {
                                    pending_repeats += 1;
                                    result.fastpath_load_hits += 1;
                                } else {
                                    if pending_repeats != 0 {
                                        timing.note_line_repeats(last_addr, pending_repeats);
                                        pending_repeats = 0;
                                    }
                                    let stall = timing.access(a, result.cycles, AccessKind::Load);
                                    result.cycles += stall;
                                    result.mem_stall_cycles += stall;
                                    last_line = a & mask;
                                    last_addr = a;
                                }
                            } else {
                                let stall = timing.access(a, result.cycles, AccessKind::Load);
                                result.cycles += stall;
                                result.mem_stall_cycles += stall;
                            }
                            regs[dst.index()] = self.mem.read_u64(a) as i64;
                        }
                        Op::Cmp { dst, op, lhs, rhs } => {
                            regs[dst.index()] = op.eval(eval(regs, *lhs), eval(regs, *rhs));
                        }
                        Op::Mov { dst, src } => regs[dst.index()] = eval(regs, *src),
                        Op::Const { dst, value } => regs[dst.index()] = *value,
                        Op::Store {
                            value,
                            addr,
                            offset,
                        } => {
                            let a = (eval(regs, *addr)).wrapping_add(*offset) as u64;
                            if a >= addr_limit {
                                error = Some(VmError::InvalidMemoryAccess { addr: a });
                                break 'outer;
                            }
                            result.stores += 1;
                            // The hierarchy's hit path is kind-agnostic, so
                            // a same-line store repeats exactly like a load.
                            if let Some(mask) = repeat_mask {
                                if a & mask == last_line {
                                    pending_repeats += 1;
                                    result.fastpath_load_hits += 1;
                                } else {
                                    if pending_repeats != 0 {
                                        timing.note_line_repeats(last_addr, pending_repeats);
                                        pending_repeats = 0;
                                    }
                                    let stall = timing.access(a, result.cycles, AccessKind::Store);
                                    result.cycles += stall;
                                    result.mem_stall_cycles += stall;
                                    last_line = a & mask;
                                    last_addr = a;
                                }
                            } else {
                                let stall = timing.access(a, result.cycles, AccessKind::Store);
                                result.cycles += stall;
                                result.mem_stall_cycles += stall;
                            }
                            let v = eval(regs, *value) as u64;
                            self.mem.write_u64(a, v);
                        }
                        Op::Select {
                            dst,
                            cond,
                            on_true,
                            on_false,
                        } => {
                            regs[dst.index()] = if eval(regs, *cond) != 0 {
                                eval(regs, *on_true)
                            } else {
                                eval(regs, *on_false)
                            };
                        }
                        Op::GlobalAddr { dst, global } => {
                            regs[dst.index()] = self.global_bases[global.index()] as i64;
                        }
                        Op::Prefetch { addr, offset } => {
                            let a = (eval(regs, *addr)).wrapping_add(*offset) as u64;
                            // Prefetch is non-faulting: a wild address (e.g.
                            // from a degraded profile) is dropped, not an
                            // error.
                            if a < addr_limit {
                                if pending_repeats != 0 {
                                    timing.note_line_repeats(last_addr, pending_repeats);
                                    pending_repeats = 0;
                                }
                                // Prefetch installs can displace the MRU
                                // hint; drop the repeat guarantee.
                                last_line = u64::MAX;
                                timing.prefetch(a, result.cycles);
                                result.prefetches += 1;
                            }
                        }
                        Op::Call {
                            dst,
                            callee,
                            args: call_args,
                        } => {
                            if stack.len() + 1 >= max_depth {
                                error = Some(VmError::CallDepthExceeded { limit: max_depth });
                                break 'outer;
                            }
                            let Some(cf) = module.functions.get(callee.index()) else {
                                error = Some(VmError::UnknownFunction {
                                    func: callee.index() as u32,
                                });
                                break 'outer;
                            };
                            if call_args.len() > cf.num_regs as usize {
                                error = Some(VmError::ArityMismatch {
                                    func: callee.index() as u32,
                                    expected: cf.num_params,
                                    got: call_args.len(),
                                });
                                break 'outer;
                            }
                            let mut new_regs = reg_pool.pop().unwrap_or_default();
                            new_regs.clear();
                            new_regs.resize(cf.num_regs as usize, 0);
                            for (i, a) in call_args.iter().enumerate() {
                                new_regs[i] = eval(regs, *a);
                            }
                            let new_frame = Frame {
                                func: *callee,
                                block: cf.entry,
                                idx: 0,
                                regs: new_regs,
                                ret_reg: *dst,
                            };
                            stack.push(std::mem::replace(&mut cur, new_frame));
                            continue 'outer;
                        }
                        Op::ProfileStride {
                            site,
                            addr,
                            offset,
                            slot,
                        } => {
                            let a = (eval(regs, *addr)).wrapping_add(*offset) as u64;
                            let c = profiling.stride_prof(cur.func, *site, *slot, a);
                            result.cycles += c;
                            result.profiling_cycles += c;
                        }
                        Op::ProfileEdge { edge } => {
                            let c = profiling.profile_edge(cur.func, *edge);
                            result.cycles += c;
                            result.profiling_cycles += c;
                        }
                        Op::TripCountCheck {
                            dst,
                            incoming,
                            outgoing,
                            shift,
                            ..
                        } => {
                            let (pred, c) =
                                profiling.trip_count_check(cur.func, incoming, outgoing, *shift);
                            result.cycles += c;
                            result.profiling_cycles += c;
                            cur.regs[dst.index()] = pred as i64;
                        }
                        Op::Alloc { dst, size } => {
                            let sz = eval(regs, *size).max(0) as u64;
                            let a = self.heap.alloc(sz);
                            self.alloc_sizes.insert(a, sz);
                            regs[dst.index()] = a as i64;
                        }
                        Op::Free { addr } => {
                            let a = eval(regs, *addr) as u64;
                            if let Some(sz) = self.alloc_sizes.remove(&a) {
                                self.heap.free(a, sz);
                            }
                        }
                    }
                }

                // Terminator.
                result.instructions += 1;
                if result.instructions > fuel {
                    error = Some(VmError::OutOfFuel {
                        executed: result.instructions,
                    });
                    break 'outer;
                }

                #[cfg(feature = "vm-selfprof")]
                {
                    let k = crate::selfprof::OpKind::of_term(&block.term);
                    self.selfprof.record(prev_kind, k);
                    prev_kind = Some(k);
                    result.selfprof_overhead_cycles += 1;
                }

                match &block.term {
                    Terminator::FusedCmpBr {
                        dst,
                        op,
                        lhs,
                        rhs,
                        then_,
                        else_,
                        ..
                    } => {
                        result.fused_dispatch += 1;
                        // Cmp half.
                        result.cycles += cost.alu;
                        let c = op.eval(eval(&cur.regs, *lhs), eval(&cur.regs, *rhs));
                        cur.regs[dst.index()] = c;
                        // Branch half: its own dynamic-instruction slot and
                        // fuel check.
                        result.instructions += 1;
                        if result.instructions > fuel {
                            error = Some(VmError::OutOfFuel {
                                executed: result.instructions,
                            });
                            break 'outer;
                        }
                        result.cycles += cost.branch;
                        cur.block = if c != 0 { *then_ } else { *else_ };
                        cur.idx = 0;
                        continue 'blocks;
                    }
                    Terminator::Br { target } => {
                        result.cycles += cost.branch;
                        cur.block = *target;
                        cur.idx = 0;
                        continue 'blocks;
                    }
                    Terminator::CondBr { cond, then_, else_ } => {
                        result.cycles += cost.branch;
                        let c = eval(&cur.regs, *cond);
                        cur.block = if c != 0 { *then_ } else { *else_ };
                        cur.idx = 0;
                        continue 'blocks;
                    }
                    Terminator::Ret { value } => {
                        result.cycles += cost.branch;
                        let v = value.map(|o| eval(&cur.regs, o));
                        match stack.pop() {
                            Some(caller) => {
                                let finished = std::mem::replace(&mut cur, caller);
                                reg_pool.push(finished.regs);
                                if let (Some(dst), Some(v)) = (finished.ret_reg, v) {
                                    cur.regs[dst.index()] = v;
                                }
                                continue 'outer;
                            }
                            None => {
                                result.return_value = v;
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }

        // Settle batched fast-path hits so the timing model's statistics
        // cover the whole run (including error aborts).
        if pending_repeats != 0 {
            timing.note_line_repeats(last_addr, pending_repeats);
        }
        match error {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }
}

/// Process-wide fusion decode cache: module → superinstruction-fused clone
/// (`stride_ir::fuse_module`), so harnesses that build many short-lived
/// [`Vm`]s over the same module pay the fusion pass once. Keyed by
/// [`stride_ir::fingerprint_module`], with full structural equality
/// verification (each entry keeps a clone of the unfused module) so hash
/// collisions cannot alias distinct modules. Bounded: past capacity, new
/// modules are fused but not retained.
mod decode_cache {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    use stride_ir::Module;

    const CAPACITY: usize = 64;

    type Shelf = HashMap<u64, Vec<(Module, Arc<Module>)>>;

    static CACHE: OnceLock<Mutex<Shelf>> = OnceLock::new();

    pub(crate) fn fused(module: &Module) -> Arc<Module> {
        let key = stride_ir::fingerprint_module(module);
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Ok(shelf) = cache.lock() {
            if let Some(bucket) = shelf.get(&key) {
                for (stored, fused) in bucket {
                    if stored == module {
                        return Arc::clone(fused);
                    }
                }
            }
        }
        let (fused, _stats) = stride_ir::fuse_module(module);
        let fused = Arc::new(fused);
        if let Ok(mut shelf) = cache.lock() {
            if shelf.len() < CAPACITY || shelf.contains_key(&key) {
                let bucket = shelf.entry(key).or_default();
                if !bucket.iter().any(|(stored, _)| stored == module) {
                    bucket.push((module.clone(), Arc::clone(&fused)));
                }
            }
        }
        fused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_ir::{BinOp, CmpOp, ModuleBuilder, Operand};

    fn run_entry(module: &Module, args: &[i64]) -> RunResult {
        let mut vm = Vm::new(module, VmConfig::default());
        vm.run(args, &mut FlatTiming, &mut NullRuntime)
            .expect("run")
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 2);
        let mut fb = mb.function(f);
        let s = fb.add(fb.param(0), fb.param(1));
        let d = fb.mul(s, 10i64);
        fb.ret(Some(Operand::Reg(d)));
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[3, 4]).return_value, Some(70));
    }

    #[test]
    fn counted_loop_sums() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 1);
        let mut fb = mb.function(f);
        let sum = fb.const_(0);
        fb.counted_loop(fb.param(0), |fb, i| {
            fb.bin_to(sum, BinOp::Add, sum, i);
        });
        fb.ret(Some(Operand::Reg(sum)));
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[10]).return_value, Some(45));
    }

    #[test]
    fn memory_round_trip_and_counters() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 64);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        fb.store(41i64, base, 8);
        let (v, _) = fb.load(base, 8);
        let w = fb.add(v, 1i64);
        fb.ret(Some(Operand::Reg(w)));
        mb.set_entry(f);
        let m = mb.finish();
        let r = run_entry(&m, &[]);
        assert_eq!(r.return_value, Some(42));
        assert_eq!(r.loads, 1);
        assert_eq!(r.stores, 1);
    }

    #[test]
    fn alloc_produces_usable_sequential_memory() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let a = fb.alloc(16i64);
        let b = fb.alloc(16i64);
        fb.store(7i64, a, 0);
        fb.store(8i64, b, 0);
        let (va, _) = fb.load(a, 0);
        let (vb, _) = fb.load(b, 0);
        let diff = fb.sub(b, a);
        let s = fb.add(va, vb);
        let out = fb.add(s, diff);
        fb.ret(Some(Operand::Reg(out)));
        mb.set_entry(f);
        let m = mb.finish();
        // 7 + 8 + 16-byte stride
        assert_eq!(run_entry(&m, &[]).return_value, Some(31));
    }

    #[test]
    fn calls_pass_arguments_and_return() {
        let mut mb = ModuleBuilder::new();
        let sq = mb.declare_function("square", 1);
        {
            let mut fb = mb.function(sq);
            let x = fb.param(0);
            let y = fb.mul(x, x);
            fb.ret(Some(Operand::Reg(y)));
        }
        let f = mb.declare_function("main", 1);
        {
            let mut fb = mb.function(f);
            let r = fb.call(sq, &[Operand::Reg(fb.param(0))]);
            fb.ret(Some(Operand::Reg(r)));
        }
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[9]).return_value, Some(81));
    }

    #[test]
    fn recursion_counts_depth() {
        // f(n) = n <= 0 ? 0 : n + f(n-1)
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("tri", 1);
        {
            let mut fb = mb.function(f);
            let n = fb.param(0);
            let base = fb.new_block();
            let rec = fb.new_block();
            let c = fb.cmp(CmpOp::Le, n, 0i64);
            fb.cond_br(c, base, rec);
            fb.switch_to(base);
            fb.ret(Some(Operand::Imm(0)));
            fb.switch_to(rec);
            let n1 = fb.sub(n, 1i64);
            let r = fb.call(f, &[Operand::Reg(n1)]);
            let s = fb.add(n, r);
            fb.ret(Some(Operand::Reg(s)));
        }
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[100]).return_value, Some(5050));
    }

    #[test]
    fn call_depth_limit_enforced() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("inf", 0);
        {
            let mut fb = mb.function(f);
            fb.call_void(f, &[]);
            fb.ret(None);
        }
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(
            &m,
            VmConfig {
                max_call_depth: 64,
                ..VmConfig::default()
            },
        );
        let err = vm.run(&[], &mut FlatTiming, &mut NullRuntime).unwrap_err();
        assert_eq!(err, VmError::CallDepthExceeded { limit: 64 });
    }

    #[test]
    fn fuel_limit_enforced() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("spin", 0);
        {
            let mut fb = mb.function(f);
            let b = fb.new_block();
            fb.br(b);
            fb.switch_to(b);
            fb.br(b);
        }
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(
            &m,
            VmConfig {
                fuel: 1000,
                ..VmConfig::default()
            },
        );
        let err = vm.run(&[], &mut FlatTiming, &mut NullRuntime).unwrap_err();
        assert!(matches!(err, VmError::OutOfFuel { .. }));
    }

    #[test]
    fn predicated_off_instruction_is_squashed() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let p0 = fb.const_(0);
        let p1 = fb.const_(1);
        let out = fb.const_(5);
        fb.emit_pred(
            p0,
            Op::Mov {
                dst: out,
                src: Operand::Imm(100),
            },
        );
        fb.emit_pred(
            p1,
            Op::Bin {
                dst: out,
                op: BinOp::Add,
                lhs: Operand::Reg(out),
                rhs: Operand::Imm(1),
            },
        );
        fb.ret(Some(Operand::Reg(out)));
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[]).return_value, Some(6));
    }

    #[test]
    fn predicated_prefetch_not_counted_when_off() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let p0 = fb.const_(0);
        let a = fb.const_(0x2000_0000);
        fb.emit_pred(
            p0,
            Op::Prefetch {
                addr: Operand::Reg(a),
                offset: 0,
            },
        );
        fb.prefetch(a, 64);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let r = run_entry(&m, &[]);
        assert_eq!(r.prefetches, 1);
    }

    #[test]
    fn load_site_counts_are_per_site() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 1024);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let mut hot_site = None;
        fb.counted_loop(10i64, |fb, i| {
            let off = fb.mul(i, 8i64);
            let a = fb.add(base, off);
            let (_, site) = fb.load(a, 0);
            hot_site = Some(site);
        });
        let (_, cold_site) = fb.load(base, 0);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let r = run_entry(&m, &[]);
        assert_eq!(r.load_count(f, hot_site.unwrap()), 10);
        assert_eq!(r.load_count(f, cold_site), 1);
        assert_eq!(r.loads, 11);
    }

    #[test]
    fn profiling_hooks_receive_addresses_and_charge_cycles() {
        #[derive(Default)]
        struct Recorder {
            edges: Vec<(FuncId, EdgeId)>,
            strides: Vec<(InstrId, u64)>,
        }
        impl ProfilingRuntime for Recorder {
            fn profile_edge(&mut self, func: FuncId, edge: EdgeId) -> u64 {
                self.edges.push((func, edge));
                2
            }
            fn trip_count_check(
                &mut self,
                _f: FuncId,
                _i: &[EdgeId],
                _o: &[EdgeId],
                _s: u32,
            ) -> (bool, u64) {
                (true, 4)
            }
            fn stride_prof(&mut self, _f: FuncId, site: InstrId, _slot: u32, addr: u64) -> u64 {
                self.strides.push((site, addr));
                10
            }
        }

        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 64);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let (_, site) = fb.load(base, 16);
        // hand-emit profiling pseudo-instructions
        let pr = fb.new_reg();
        let one = fb.const_(1);
        fb.emit_pred(
            one,
            Op::ProfileEdge {
                edge: EdgeId::new(3),
            },
        );
        fb.emit_pred(
            one,
            Op::TripCountCheck {
                dst: pr,
                header: BlockId::new(0),
                incoming: vec![],
                outgoing: vec![],
                shift: 7,
            },
        );
        fb.emit_pred(
            pr,
            Op::ProfileStride {
                site,
                addr: Operand::Reg(base),
                offset: 16,
                slot: 0,
            },
        );
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();

        let mut vm = Vm::new(&m, VmConfig::default());
        let mut rec = Recorder::default();
        let r = vm.run(&[], &mut FlatTiming, &mut rec).expect("run");
        assert_eq!(rec.edges, vec![(f, EdgeId::new(3))]);
        assert_eq!(rec.strides.len(), 1);
        assert_eq!(rec.strides[0].0, site);
        // the stride hook saw the load's address: global base + 16
        let vm2 = Vm::new(&m, VmConfig::default());
        let gb = vm2.global_base(g);
        assert_eq!(rec.strides[0].1, gb + 16);
        assert_eq!(r.profiling_cycles, 2 + 4 + 10);
    }

    #[test]
    fn memory_stalls_accumulate() {
        struct TenCycle;
        impl MemoryTiming for TenCycle {
            fn access(&mut self, _a: u64, _c: u64, _k: AccessKind) -> u64 {
                10
            }
            fn prefetch(&mut self, _a: u64, _c: u64) {}
        }
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 64);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let _ = fb.load(base, 0);
        let _ = fb.load(base, 8);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(&m, VmConfig::default());
        let r = vm.run(&[], &mut TenCycle, &mut NullRuntime).expect("run");
        assert_eq!(r.mem_stall_cycles, 20);
        assert!(r.cycles >= 20);
    }

    #[test]
    fn wild_demand_access_is_an_error_not_a_panic() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let a = fb.const_(1i64 << 50);
        let _ = fb.load(a, 0);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(&m, VmConfig::default());
        let err = vm.run(&[], &mut FlatTiming, &mut NullRuntime).unwrap_err();
        assert_eq!(err, VmError::InvalidMemoryAccess { addr: 1u64 << 50 });
    }

    #[test]
    fn wild_prefetch_is_dropped_silently() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let a = fb.const_(1i64 << 50);
        fb.prefetch(a, 0);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let r = run_entry(&m, &[]);
        assert_eq!(r.prefetches, 0);
    }

    #[test]
    fn unknown_entry_function_is_an_error() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(&m, VmConfig::default());
        let err = vm
            .run_function(FuncId::new(7), &[], &mut FlatTiming, &mut NullRuntime)
            .unwrap_err();
        assert_eq!(err, VmError::UnknownFunction { func: 7 });
    }

    #[test]
    fn entry_arity_mismatch_is_an_error() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 2);
        let mut fb = mb.function(f);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(&m, VmConfig::default());
        let err = vm.run(&[1], &mut FlatTiming, &mut NullRuntime).unwrap_err();
        assert_eq!(
            err,
            VmError::ArityMismatch {
                func: 0,
                expected: 2,
                got: 1
            }
        );
    }

    /// Strided sum + pointer-ish reloads + a call: exercises FusedBinLoad,
    /// FusedCmpBr, and plain ops in one workload.
    fn fusible_workload() -> Module {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("arr", 1 << 12);
        let helper = mb.declare_function("helper", 1);
        {
            let mut fb = mb.function(helper);
            let x = fb.param(0);
            let y = fb.mul(x, 3i64);
            fb.ret(Some(Operand::Reg(y)));
        }
        let f = mb.declare_function("main", 1);
        {
            let mut fb = mb.function(f);
            let base = fb.global_addr(g);
            let sum = fb.mov(0i64);
            fb.counted_loop(fb.param(0), |fb, i| {
                let off = fb.mul(i, 8i64);
                let a = fb.add(base, off);
                let (v, _) = fb.load(a, 0);
                fb.store(v, a, 64);
                let h = fb.call(helper, &[Operand::Reg(v)]);
                fb.bin_to(sum, BinOp::Add, sum, h);
            });
            fb.ret(Some(Operand::Reg(sum)));
        }
        mb.set_entry(f);
        mb.finish()
    }

    /// Asserts every logical output of two runs matches (meta-counters like
    /// fused_dispatch are intentionally excluded — they describe the
    /// interpreter, not the program).
    fn assert_logical_identity(a: &RunResult, b: &RunResult) {
        assert_eq!(a.return_value, b.return_value);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.stores, b.stores);
        assert_eq!(a.prefetches, b.prefetches);
        assert_eq!(a.mem_stall_cycles, b.mem_stall_cycles);
        assert_eq!(a.profiling_cycles, b.profiling_cycles);
        assert_eq!(a.load_site_counts, b.load_site_counts);
    }

    #[test]
    fn fused_and_unfused_runs_are_byte_identical() {
        let m = fusible_workload();
        let mut fused_vm = Vm::new(&m, VmConfig::default());
        let fused = fused_vm
            .run(&[50], &mut FlatTiming, &mut NullRuntime)
            .expect("fused run");
        let mut plain_vm = Vm::new(
            &m,
            VmConfig {
                fuse: false,
                ..VmConfig::default()
            },
        );
        let plain = plain_vm
            .run(&[50], &mut FlatTiming, &mut NullRuntime)
            .expect("unfused run");
        assert!(fused.fused_dispatch > 0, "fusion must actually engage");
        assert_eq!(plain.fused_dispatch, 0);
        assert_logical_identity(&fused, &plain);
    }

    #[test]
    fn fused_out_of_fuel_aborts_at_identical_instruction() {
        // Sweep fuel across the whole run, including values that land
        // between the two halves of a superinstruction.
        let m = fusible_workload();
        let full = Vm::new(&m, VmConfig::default())
            .run(&[6], &mut FlatTiming, &mut NullRuntime)
            .expect("full run")
            .instructions;
        for fuel in 1..=full {
            let mut fused_vm = Vm::new(
                &m,
                VmConfig {
                    fuel,
                    ..VmConfig::default()
                },
            );
            let fused = fused_vm.run(&[6], &mut FlatTiming, &mut NullRuntime);
            let mut plain_vm = Vm::new(
                &m,
                VmConfig {
                    fuel,
                    fuse: false,
                    ..VmConfig::default()
                },
            );
            let plain = plain_vm.run(&[6], &mut FlatTiming, &mut NullRuntime);
            match (&fused, &plain) {
                (Err(a), Err(b)) => assert_eq!(a, b, "fuel {fuel}"),
                (Ok(a), Ok(b)) => assert_logical_identity(a, b),
                _ => panic!("fuel {fuel}: one run aborted, the other finished"),
            }
        }
    }

    #[test]
    fn decode_cache_shares_fused_modules() {
        let m = fusible_workload();
        let a = Vm::new(&m, VmConfig::default());
        let b = Vm::new(&m, VmConfig::default());
        let (fa, fb) = (a.fused.as_ref().unwrap(), b.fused.as_ref().unwrap());
        assert!(std::sync::Arc::ptr_eq(fa, fb), "same module fuses once");
        let off = Vm::new(
            &m,
            VmConfig {
                fuse: false,
                ..VmConfig::default()
            },
        );
        assert!(off.fused.is_none());
    }

    #[test]
    fn last_line_fast_path_batches_exactly() {
        // A timing model that counts its calls and knows its line size.
        #[derive(Default)]
        struct Counting {
            accesses: u64,
            noted: u64,
        }
        impl MemoryTiming for Counting {
            fn access(&mut self, _a: u64, _c: u64, _k: AccessKind) -> u64 {
                self.accesses += 1;
                0
            }
            fn prefetch(&mut self, _a: u64, _c: u64) {}
            fn repeat_line_size(&self) -> Option<u64> {
                Some(64)
            }
            fn note_line_repeats(&mut self, _addr: u64, n: u64) {
                self.noted += n;
            }
        }

        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 256);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        // Four loads and a store of one line, then a load of another line.
        let _ = fb.load(base, 0);
        let _ = fb.load(base, 8);
        let _ = fb.load(base, 16);
        let _ = fb.load(base, 24);
        fb.store(1i64, base, 32);
        let _ = fb.load(base, 128);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();

        let mut vm = Vm::new(&m, VmConfig::default());
        let mut t = Counting::default();
        let r = vm.run(&[], &mut t, &mut NullRuntime).expect("run");
        assert_eq!(r.loads, 5);
        assert_eq!(r.stores, 1);
        assert_eq!(r.fastpath_load_hits, 4, "same-line loads and stores batch");
        assert_eq!(t.accesses, 2, "only line-changing accesses reach the model");
        assert_eq!(t.noted, 4, "batched repeats are settled");
        assert_eq!(t.accesses + t.noted, r.loads + r.stores, "no access lost");
    }

    #[test]
    fn fast_path_flushes_before_stores_and_prefetches() {
        #[derive(Default)]
        struct Ordered {
            events: Vec<(char, u64)>,
        }
        impl MemoryTiming for Ordered {
            fn access(&mut self, a: u64, _c: u64, k: AccessKind) -> u64 {
                self.events.push((
                    match k {
                        AccessKind::Load => 'l',
                        AccessKind::Store => 's',
                    },
                    a,
                ));
                0
            }
            fn prefetch(&mut self, a: u64, _c: u64) {
                self.events.push(('p', a));
            }
            fn repeat_line_size(&self) -> Option<u64> {
                Some(64)
            }
            fn note_line_repeats(&mut self, addr: u64, n: u64) {
                self.events.push(('r', addr));
                self.events.push(('n', n));
            }
        }

        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 256);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let _ = fb.load(base, 0);
        let _ = fb.load(base, 8); // pending repeat
        fb.store(1i64, base, 128); // different line: must flush first
        let _ = fb.load(base, 136); // store's line is MRU: repeat
        fb.prefetch(base, 192); // must flush before the prefetch
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();

        let mut vm = Vm::new(&m, VmConfig::default());
        let mut t = Ordered::default();
        vm.run(&[], &mut t, &mut NullRuntime).expect("run");
        let tags: Vec<char> = t.events.iter().map(|e| e.0).collect();
        assert_eq!(tags, vec!['l', 'r', 'n', 's', 'r', 'n', 'p']);
    }

    #[test]
    fn free_and_reuse_through_vm() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let a = fb.alloc(32i64);
        fb.free(a);
        let b = fb.alloc(32i64);
        let same = fb.cmp(CmpOp::Eq, a, b);
        fb.ret(Some(Operand::Reg(same)));
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[]).return_value, Some(1));
    }
}
