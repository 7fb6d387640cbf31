//! Metric table, result bookkeeping and the final JSON line.

use std::collections::BTreeMap;

use crate::Opts;

/// Which run reports a metric.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Untraced runs: what a user of the system sees.
    EndToEnd,
    /// Traced runs: one layer's work, time or waste.
    Layer,
}

/// Every metric the benchmark prints, with its unit. `BENCHMARK.json`
/// declares the same names and units (the self-test checks that).
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("throughput_ops", "1/s", Kind::EndToEnd),
    ("latency_p50_ms", "ms", Kind::EndToEnd),
    ("latency_p90_ms", "ms", Kind::EndToEnd),
    ("setup_s", "s", Kind::EndToEnd),
    ("peak_rss_mb", "MB", Kind::EndToEnd),
    ("bench.fig16_s", "s", Kind::Layer),
    ("bench.fig18_19_s", "s", Kind::Layer),
    ("bench.fig20_22_s", "s", Kind::Layer),
    ("bench.fig23_25_s", "s", Kind::Layer),
    ("bench.trace_overhead_s", "s", Kind::Layer),
    ("core.runcache_hits", "count", Kind::Layer),
    ("core.runcache_misses", "count", Kind::Layer),
    ("core.runcache_hit_ratio", "ratio", Kind::Layer),
    ("core.exec_busy_s", "s", Kind::Layer),
    ("core.exec_imbalance", "ratio", Kind::Layer),
    ("core.instrument_s", "s", Kind::Layer),
    ("core.classify_s", "s", Kind::Layer),
    ("core.prefetch_s", "s", Kind::Layer),
    ("core.distinct_sims", "count", Kind::Layer),
    ("vm.instructions", "count", Kind::Layer),
    ("vm.self_s", "s", Kind::Layer),
    ("vm.minstr_per_s", "Minstr/s", Kind::Layer),
    ("vm.fused_dispatch", "count", Kind::Layer),
    ("vm.fastpath_load_hits", "count", Kind::Layer),
    ("memsim.accesses", "count", Kind::Layer),
    ("memsim.self_s", "s", Kind::Layer),
    ("memsim.l1_hit_ratio", "ratio", Kind::Layer),
    ("memsim.way_hint_ratio", "ratio", Kind::Layer),
    ("memsim.prefetch_timely_ratio", "ratio", Kind::Layer),
    ("memsim.prefetch_dropped_ratio", "ratio", Kind::Layer),
    ("profiling.stride_calls", "count", Kind::Layer),
    ("profiling.processed", "count", Kind::Layer),
    ("profiling.lfu_inserts", "count", Kind::Layer),
    ("profiling.lfu_ratio", "ratio", Kind::Layer),
    ("profiling.self_s", "s", Kind::Layer),
    ("workloads.build_s", "s", Kind::Layer),
    ("ir.parse_s", "s", Kind::Layer),
    ("ir.fuse_s", "s", Kind::Layer),
    ("server.handler_ms.read", "ms", Kind::Layer),
    ("server.handler_ms.write", "ms", Kind::Layer),
    ("server.wire_ms", "ms", Kind::Layer),
    ("server.ping_rtt_ms", "ms", Kind::Layer),
    ("profdb.merge_ms", "ms", Kind::Layer),
    ("profdb.get_p50_ms", "ms", Kind::Layer),
    ("profdb.write_p50_ms", "ms", Kind::Layer),
    ("profdb.write_p90_ms", "ms", Kind::Layer),
    ("server.shed", "count", Kind::Layer),
    ("client.retries", "count", Kind::Layer),
    ("router.frontend_ms", "ms", Kind::Layer),
    ("router.forwarded", "count/1k", Kind::Layer),
    ("router.probes", "count/1k", Kind::Layer),
    ("router.repair_rounds", "count/1k", Kind::Layer),
    ("router.repair_resent", "count/1k", Kind::Layer),
    ("repl.deltas_applied", "count", Kind::Layer),
    ("repl.deltas_deduped", "count", Kind::Layer),
    ("repl.useful_ratio", "ratio", Kind::Layer),
];

/// One run's outcome: correctness tallies plus the measured metrics.
pub struct Report {
    trace: bool,
    /// Operations attempted (figure units, requests, readback checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    notes: Vec<String>,
}

/// Sorted-sample quantile by nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts and returns the median.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Peak resident set size of this process, from the kernel's high-water
/// mark.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Report {
    /// An empty report for `opts`'s mode.
    pub fn new(opts: &Opts) -> Report {
        Report {
            trace: opts.trace,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: vec![format!(
                "workload {} seed {} seconds {} trace {}",
                opts.workload, opts.seed, opts.seconds, opts.trace as u8
            )],
        }
    }

    /// Records a metric measured over `samples` observations.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`METRICS`] (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let (name, _, _) = METRICS
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name, (value, samples));
    }

    /// Adds a free-form line to the human-readable summary.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                let line = format!("FAILED: {}", what());
                eprintln!("perfbench: {line}");
                self.notes.push(line);
            }
        }
    }

    /// The summary lines and, last, the JSON result line. Per-layer
    /// metrics a workload does not exercise print as 0; a missing
    /// end-to-end metric marks the run incorrect.
    pub fn finish(mut self) -> String {
        let kind = if self.trace {
            Kind::Layer
        } else {
            Kind::EndToEnd
        };
        let mut complete = true;
        let mut json = Vec::new();
        for &(name, unit, k) in METRICS.iter().filter(|m| m.2 == kind) {
            let (value, samples) = match self.values.get(name) {
                Some(v) => *v,
                None if k == Kind::Layer => (0.0, None),
                None => {
                    complete = false;
                    self.notes
                        .push(format!("FAILED: metric {name} was not measured"));
                    (0.0, None)
                }
            };
            let n = samples.map_or(String::new(), |n| format!(" (n={n})"));
            self.notes
                .push(format!("metric {name} = {value} {unit}{n}"));
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let failed_frac = ratio(self.failed as f64, self.attempted.max(1) as f64);
        self.notes.push(format!(
            "failed_frac = {failed_frac} ({} of {} attempted)",
            self.failed, self.attempted
        ));
        let correct = complete && self.failed == 0 && self.attempted > 0;
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        ));
        out
    }
}
