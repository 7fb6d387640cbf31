//! Simulator-layer attribution by counterfactual reruns.
//!
//! The VM loop calls into memsim and the profiling runtime on every
//! access, so per-access timers would cost more than the work they time.
//! Instead each distinct simulation is rerun through `Vm::run` with the
//! layers swapped out:
//!
//! | rerun                              | time              |
//! |------------------------------------|-------------------|
//! | `FlatTiming` + `NullRuntime`       | vm self           |
//! | `CacheHierarchy` + `NullRuntime`   | vm + memsim       |
//! | `CacheHierarchy` + `ProfilerRuntime` | vm + memsim + profiling |
//!
//! Differences between consecutive rows are memsim's and profiling's self
//! times. Uninstrumented simulations have no profiling row. Work counts
//! come from the last row, which is the configuration the figures use.

use std::time::Instant;

use stride_core::{
    apply_prefetching, classify, fingerprint_module, instrument, instrument_edges_only,
    parallel_map, PipelineConfig, ProfilingVariant,
};
use stride_ir::Module;
use stride_memsim::{CacheHierarchy, HierarchyStats};
use stride_profiling::{EdgeProfile, FreqSource, ProfilerRuntime, StrideProfStats, StrideProfile};
use stride_vm::{FlatTiming, MemoryTiming, NullRuntime, ProfilingRuntime, RunResult, Vm};

use crate::report::{ratio, Report};
use crate::spans::Spans;
use crate::JOBS;

/// What a simulation runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SimKind {
    /// The module as is (baselines and prefetching binaries).
    Plain,
    /// Edge-frequency instrumentation only (the Figs. 20–22 baseline).
    EdgeOnly,
    /// Integrated profiling under a variant.
    Profiling(ProfilingVariant),
}

/// One distinct simulation.
pub struct Sim {
    /// The original (uninstrumented) module.
    pub module: Module,
    /// Entry arguments.
    pub args: Vec<i64>,
    /// What runs.
    pub kind: SimKind,
}

impl Sim {
    /// Identity of the simulation: module content, arguments and kind.
    pub fn key(&self) -> (u64, Vec<i64>, SimKind) {
        (
            fingerprint_module(&self.module),
            self.args.clone(),
            self.kind,
        )
    }
}

/// The profiles an instrumented rerun collected.
pub struct Collected {
    /// Frequency profile.
    pub edge: EdgeProfile,
    /// Stride profile.
    pub stride: StrideProfile,
    /// Counter space of `edge`.
    pub source: FreqSource,
}

/// One simulation's counterfactual timings and work counts.
pub struct Rerun {
    flat_s: f64,
    flat_instructions: u64,
    hier_s: f64,
    prof_s: Option<f64>,
    run: RunResult,
    mem: HierarchyStats,
    stats: StrideProfStats,
    instrument_s: f64,
    /// Profiles from the profiling rerun (`None` for plain simulations).
    pub collected: Option<Collected>,
}

fn timed_run(
    module: &Module,
    args: &[i64],
    config: &PipelineConfig,
    timing: &mut dyn MemoryTiming,
    runtime: &mut dyn ProfilingRuntime,
) -> Result<(RunResult, f64), String> {
    let mut vm = Vm::new(module, config.vm);
    let start = Instant::now();
    let run = vm.run(args, timing, runtime).map_err(|e| e.to_string())?;
    Ok((run, start.elapsed().as_secs_f64()))
}

/// Reruns one simulation the two or three ways described above.
pub fn rerun(
    sim: &Sim,
    config: &PipelineConfig,
    spans: &Spans,
    parent: u64,
) -> Result<Rerun, String> {
    let start = Instant::now();
    let (instrumented, mut runtime, instrument_s) = match sim.kind {
        SimKind::Plain => (None, None, 0.0),
        SimKind::EdgeOnly => {
            let ((m, rt), s) = spans.time("core.instrument", parent, || {
                (
                    instrument_edges_only(&sim.module),
                    ProfilerRuntime::edge_only(&sim.module),
                )
            });
            (Some(m), Some(rt), s)
        }
        SimKind::Profiling(v) => {
            let ((m, rt), s) = spans.time("core.instrument", parent, || {
                let inst = instrument(&sim.module, v.method(), &config.prefetch);
                let rt = ProfilerRuntime::new(
                    &sim.module,
                    inst.selection.slot_sites(),
                    v.stride_config(),
                );
                (inst.module, rt)
            });
            (Some(m), Some(rt), s)
        }
    };
    let module = instrumented.as_ref().unwrap_or(&sim.module);
    let args = &sim.args;
    let (flat, flat_s) = timed_run(module, args, config, &mut FlatTiming, &mut NullRuntime)?;
    let mut hierarchy = CacheHierarchy::new(config.hierarchy);
    let (null_run, hier_s) = timed_run(module, args, config, &mut hierarchy, &mut NullRuntime)?;
    let (run, mem, prof_s, stats, collected) = match runtime.take() {
        None => (
            null_run,
            hierarchy.stats(),
            None,
            StrideProfStats::default(),
            None,
        ),
        Some(mut rt) => {
            let mut hierarchy = CacheHierarchy::new(config.hierarchy);
            let (run, prof_s) = timed_run(module, args, config, &mut hierarchy, &mut rt)?;
            let (edge, stride, stats) = rt.finish();
            let source = match sim.kind {
                SimKind::Profiling(v) => v.freq_source(),
                _ => FreqSource::Edges,
            };
            let collected = Collected {
                edge,
                stride,
                source,
            };
            (run, hierarchy.stats(), Some(prof_s), stats, Some(collected))
        }
    };
    spans.record("attrib.rerun", parent, 0, start, Instant::now());
    Ok(Rerun {
        flat_s,
        flat_instructions: flat.instructions,
        hier_s,
        prof_s,
        run,
        mem,
        stats,
        instrument_s,
        collected,
    })
}

/// Reruns `sims` over the job pool; failures are counted in `report`.
pub fn rerun_all(
    sims: &[Sim],
    config: &PipelineConfig,
    spans: &Spans,
    parent: u64,
    report: &mut Report,
) -> Vec<Option<Rerun>> {
    let results = parallel_map(sims, JOBS, |_, s| rerun(s, config, spans, parent));
    results
        .into_iter()
        .map(|r| {
            let ok = r.is_ok();
            report.check(ok, || {
                format!("attribution rerun failed: {:?}", r.as_ref().err())
            });
            r.ok()
        })
        .collect()
}

/// The feedback passes over collected profiles: classify, then insert
/// prefetches. Returns the transformed module.
pub fn feedback(
    module: &Module,
    c: (&EdgeProfile, FreqSource, &StrideProfile),
    config: &PipelineConfig,
    spans: &Spans,
    parent: u64,
    totals: &mut Totals,
) -> Module {
    let (classification, classify_s) = spans.time("core.classify", parent, || {
        classify(module, c.2, c.0, c.1, &config.prefetch)
    });
    let ((transformed, _), prefetch_s) = spans.time("core.prefetch", parent, || {
        apply_prefetching(module, &classification, &config.prefetch)
    });
    totals.classify_s += classify_s;
    totals.prefetch_s += prefetch_s;
    transformed
}

/// Sums over every rerun simulation.
#[derive(Default)]
pub struct Totals {
    sims: u64,
    instructions: u64,
    flat_instructions: u64,
    fused: u64,
    fastpath: u64,
    vm_s: f64,
    memsim_s: f64,
    profiling_s: f64,
    mem: HierarchyStats,
    stats: StrideProfStats,
    instrument_s: f64,
    classify_s: f64,
    prefetch_s: f64,
}

impl Totals {
    /// Adds one simulation's rerun.
    pub fn add(&mut self, r: &Rerun) {
        self.sims += 1;
        self.instructions += r.run.instructions;
        self.flat_instructions += r.flat_instructions;
        self.fused += r.run.fused_dispatch;
        self.fastpath += r.run.fastpath_load_hits;
        self.vm_s += r.flat_s;
        self.memsim_s += r.hier_s - r.flat_s;
        if let Some(p) = r.prof_s {
            self.profiling_s += p - r.hier_s;
        }
        let (m, t) = (&mut self.mem, &r.mem);
        m.l1_hits += t.l1_hits;
        m.l2_hits += t.l2_hits;
        m.l3_hits += t.l3_hits;
        m.mem_accesses += t.mem_accesses;
        m.prefetches_issued += t.prefetches_issued;
        m.prefetches_dropped += t.prefetches_dropped;
        m.prefetch_timely += t.prefetch_timely;
        m.way_hint_hits += t.way_hint_hits;
        self.stats.calls += r.stats.calls;
        self.stats.processed += r.stats.processed;
        self.stats.lfu_inserts += r.stats.lfu_inserts;
        self.instrument_s += r.instrument_s;
    }

    /// Writes the vm, memsim, profiling and core-pass metrics.
    pub fn report(&self, report: &mut Report) {
        let n = Some(self.sims as usize);
        let demand = self.mem.demand_accesses() as f64;
        let m = &self.mem;
        let s = &self.stats;
        let set = |report: &mut Report, name: &str, v: f64| report.set(name, v, n);
        set(report, "core.distinct_sims", self.sims as f64);
        set(report, "core.instrument_s", self.instrument_s);
        set(report, "core.classify_s", self.classify_s);
        set(report, "core.prefetch_s", self.prefetch_s);
        set(report, "vm.instructions", self.instructions as f64);
        set(report, "vm.self_s", self.vm_s);
        let rate = ratio(self.flat_instructions as f64, self.vm_s) / 1e6;
        set(report, "vm.minstr_per_s", rate);
        set(report, "vm.fused_dispatch", self.fused as f64);
        set(report, "vm.fastpath_load_hits", self.fastpath as f64);
        set(report, "memsim.accesses", demand);
        set(report, "memsim.self_s", self.memsim_s);
        set(
            report,
            "memsim.l1_hit_ratio",
            ratio(m.l1_hits as f64, demand),
        );
        set(
            report,
            "memsim.way_hint_ratio",
            ratio(m.way_hint_hits as f64, demand),
        );
        let issued = m.prefetches_issued as f64;
        let timely = ratio(m.prefetch_timely as f64, issued);
        set(report, "memsim.prefetch_timely_ratio", timely);
        let dropped = m.prefetches_dropped as f64;
        set(
            report,
            "memsim.prefetch_dropped_ratio",
            ratio(dropped, issued + dropped),
        );
        set(report, "profiling.stride_calls", s.calls as f64);
        set(report, "profiling.processed", s.processed as f64);
        set(report, "profiling.lfu_inserts", s.lfu_inserts as f64);
        let lfu = ratio(s.lfu_inserts as f64, s.processed as f64);
        set(report, "profiling.lfu_ratio", lfu);
        set(report, "profiling.self_s", self.profiling_s);
        let share = ratio(self.memsim_s, self.vm_s + self.memsim_s + self.profiling_s);
        report.note(format!(
            "attribution: {} simulations; memsim is {:.1}% of simulator time",
            self.sims,
            share * 100.0
        ));
    }
}

/// Times the set-up layers on `modules`: text round trip through the IR
/// parser and superinstruction fusion.
pub fn ir_layers(modules: &[&Module], spans: &Spans, parent: u64, report: &mut Report) {
    let texts: Vec<String> = modules
        .iter()
        .map(|m| stride_ir::module_to_string(m))
        .collect();
    let (parsed, parse_s) = spans.time("ir.parse", parent, || {
        texts
            .iter()
            .map(|t| stride_ir::module_from_string(t).is_ok())
            .collect::<Vec<_>>()
    });
    for ok in parsed {
        report.check(ok, || "a printed module failed to parse".to_string());
    }
    let (_, fuse_s) = spans.time("ir.fuse", parent, || {
        for m in modules {
            std::hint::black_box(stride_ir::fuse_module(m));
        }
    });
    let n = Some(modules.len());
    report.set("ir.parse_s", parse_s, n);
    report.set("ir.fuse_s", fuse_s, n);
}
