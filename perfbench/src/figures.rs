//! The `figures` workload: Figs. 15–25 at paper scale over the twelve
//! hand-built workloads, exactly as `repro --jobs 2` produces them, with a
//! fresh run cache per pass. The output is byte-compared with the golden
//! `repro_output.txt`. The inputs are the paper's fixed suite, so the seed
//! is ignored.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use stride_bench::{
    fig15_table, fig16_speedups, fig17_load_mix, fig18_19_distributions, fig20_22_overheads,
    fig23_25_sensitivity, render_diagnostics, render_distribution, render_overheads,
    render_sensitivity, render_speedups, FigureCtx,
};
use stride_core::{
    class_distribution, load_mix, parallel_map, prefetch_with_profiles, LoadPopulation,
    PipelineConfig, ProfilingVariant, RunCache, RunCacheStats,
};
use stride_workloads::{all_workloads, Scale, Workload};

use crate::attrib::{feedback, rerun_all, Rerun, Sim, SimKind, Totals};
use crate::report::{median, peak_rss_mb, quantile, ratio, Report};
use crate::spans::Spans;
use crate::{Opts, GOLDEN, JOBS};

/// Suite builds per set-up sample. One build takes well under a
/// millisecond, so a sample times a batch (about 0.1 s) and reports the
/// time per build.
const BUILDS: usize = 1000;

/// One figure pass: the rendered output and what it cost.
struct Pass {
    text: String,
    /// The figure calls' time, without the calls to `before_figure`.
    wall_s: f64,
    units: u64,
    failures: u64,
    /// `(figure, seconds)` per figure call.
    figures: Vec<(&'static str, f64)>,
    cache: RunCacheStats,
}

/// One set-up sample: the time to build the suite, per build.
fn setup_sample(scale: Scale, spans: &Spans) -> f64 {
    let (_, secs) = spans.time("workloads.build", 0, || {
        for _ in 0..BUILDS {
            std::hint::black_box(all_workloads(scale));
        }
    });
    secs / BUILDS as f64
}

/// Runs Figs. 15–25 once, rendering them as `repro` prints them, and
/// calls `before_figure` ahead of each figure call, outside its timing.
fn pass(
    suite: &mut Vec<Workload>,
    scale: Scale,
    config: &PipelineConfig,
    spans: &Spans,
    before_figure: &mut dyn FnMut(),
) -> Pass {
    let cache = RunCache::new();
    let ctx = FigureCtx {
        scale,
        config,
        cache: &cache,
        jobs: JOBS,
        workloads: std::mem::take(suite),
        injector: None,
    };
    let variants = &ProfilingVariant::EVALUATED;
    let n = ctx.workloads.len() as u64;
    let mut out = String::new();
    let mut failures = 0u64;
    let mut figures = Vec::new();
    let pass_id = spans.open();
    let start = Instant::now();
    let mut wall_s = 0.0;
    let mut figure = |label: &'static str, body: &mut dyn FnMut() -> String| {
        before_figure();
        let (text, s) = spans.time(label, pass_id, body);
        out.push_str(&text);
        wall_s += s;
        figures.push((label, s));
    };
    figure("bench.fig15", &mut || {
        format!(
            "== Figure 15: SPECINT2000 benchmarks ==\n{}\n",
            fig15_table(scale)
        )
    });
    figure("bench.fig16", &mut || {
        let p = fig16_speedups(&ctx, variants);
        failures += p.failures.len() as u64;
        format!(
            "== Figure 16: speedup of stride prefetching ==\n{}{}\n",
            render_speedups(&p.rows),
            render_diagnostics(&p.failures)
        )
    });
    figure("bench.fig17", &mut || {
        let p = fig17_load_mix(&ctx);
        failures += p.failures.len() as u64;
        let mut s = String::from("== Figure 17: in-loop vs out-loop load references ==\n");
        s.push_str(&format!(
            "{:<14}{:>10}{:>10}\n",
            "benchmark", "in-loop", "out-loop"
        ));
        let rows = p.rows.len().max(1) as f64;
        let mut avg = (0.0, 0.0);
        for (name, inf, outf) in &p.rows {
            s.push_str(&format!(
                "{name:<14}{:>9.1}%{:>9.1}%\n",
                inf * 100.0,
                outf * 100.0
            ));
            avg.0 += inf;
            avg.1 += outf;
        }
        s.push_str(&format!(
            "{:<14}{:>9.1}%{:>9.1}%\n",
            "average",
            avg.0 / rows * 100.0,
            avg.1 / rows * 100.0
        ));
        s.push_str(&render_diagnostics(&p.failures));
        s.push('\n');
        s
    });
    figure("bench.fig18_19", &mut || {
        let p = fig18_19_distributions(&ctx);
        failures += p.failures.len() as u64;
        let diag = render_diagnostics(&p.failures);
        let out_rows: Vec<_> = p.rows.iter().map(|(n, o, _)| (*n, *o)).collect();
        let in_rows: Vec<_> = p.rows.iter().map(|(n, _, i)| (*n, *i)).collect();
        format!(
            "== Figure 18: out-loop loads by stride property ==\n{}{diag}\n\
             == Figure 19: in-loop loads by stride property ==\n{}{diag}\n",
            render_distribution(&out_rows),
            render_distribution(&in_rows)
        )
    });
    figure("bench.fig20_22", &mut || {
        let p = fig20_22_overheads(&ctx, variants);
        failures += p.failures.len() as u64;
        let diag = render_diagnostics(&p.failures);
        let titles = [
            "== Figure 20: profiling overhead over edge profiling alone ==",
            "== Figure 21: % load references processed by strideProf ==",
            "== Figure 22: % load references processed by LFU ==",
        ];
        titles
            .iter()
            .enumerate()
            .map(|(field, title)| format!("{title}\n{}{diag}\n", render_overheads(&p.rows, field)))
            .collect()
    });
    figure("bench.fig23_25", &mut || {
        let p = fig23_25_sensitivity(&ctx);
        failures += p.failures.len() as u64;
        format!(
            "== Figures 23-25: sensitivity to input data sets (sample-edge-check) ==\n{}{}\n",
            render_sensitivity(&p.rows),
            render_diagnostics(&p.failures)
        )
    });
    spans.close(pass_id, "bench.figures_pass", 0, start);
    *suite = ctx.workloads;
    Pass {
        text: out,
        wall_s,
        units: n * (2 * variants.len() as u64 + 3),
        failures,
        figures,
        cache: cache.stats(),
    }
}

/// Checks a pass's units and its output against the golden bytes.
fn check(p: &Pass, golden: &[u8], report: &mut Report) {
    report.attempted += p.units;
    report.failed += p.failures;
    let same = p.text.as_bytes() == golden;
    report.check(same, || {
        let golden = String::from_utf8_lossy(golden);
        let line = p
            .text
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        format!("figure output differs from the golden file at {line}")
    });
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let golden = std::fs::read(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))?;
    measure(opts, Scale::Paper, &golden, report)
}

/// Runs the workload at `scale` against the expected output `golden`.
pub fn measure(
    opts: &Opts,
    scale: Scale,
    golden: &[u8],
    report: &mut Report,
) -> Result<(), String> {
    let config = PipelineConfig::default();
    let spans = Spans::new(opts.trace);
    let mut suite = all_workloads(scale);
    // Set-up is sampled before every figure call rather than once at the
    // start: the machine's speed shifts over seconds, and samples spread
    // over the run see the same mix of fast and slow spells as the passes.
    let mut builds = Vec::new();
    let mut sample = || builds.push(setup_sample(scale, &spans));

    if !opts.trace {
        let mut walls = Vec::new();
        let mut units = 0;
        let start = Instant::now();
        // Start another pass only if it should end within the budget.
        let last = |walls: &[f64]| walls.last().copied().unwrap_or(0.0);
        while walls.is_empty() || start.elapsed().as_secs_f64() + last(&walls) <= opts.seconds {
            let p = pass(&mut suite, scale, &config, &spans, &mut sample);
            check(&p, golden, report);
            walls.push(p.wall_s);
            units += p.units;
        }
        let total: f64 = walls.iter().sum();
        let n = Some(walls.len());
        report.set("throughput_ops", ratio(units as f64, total), n);
        // One operation per pass: its latency is the pass's wall time.
        report.set("latency_p50_ms", median(&mut walls) * 1e3, n);
        report.set("latency_p90_ms", quantile(&walls, 0.9) * 1e3, n);
        let samples = Some(builds.len());
        report.set("setup_s", median(&mut builds), samples);
        report.set("peak_rss_mb", peak_rss_mb(), None);
        return Ok(());
    }

    // Traced run: an untraced pass and a traced pass give the tracing
    // overhead; the attribution pass after them is excluded from it.
    let quiet = Spans::new(false);
    let untraced = pass(&mut suite, scale, &config, &quiet, &mut sample);
    check(&untraced, golden, report);
    let traced = pass(&mut suite, scale, &config, &spans, &mut sample);
    check(&traced, golden, report);
    report.set(
        "bench.trace_overhead_s",
        traced.wall_s - untraced.wall_s,
        Some(1),
    );
    for (label, secs) in &traced.figures {
        if *label != "bench.fig15" && *label != "bench.fig17" {
            report.set(&format!("{label}_s"), *secs, Some(1));
        }
    }
    let c = traced.cache;
    let n = Some((c.hits + c.misses) as usize);
    report.set("core.runcache_hits", c.hits as f64, n);
    report.set("core.runcache_misses", c.misses as f64, n);
    report.set(
        "core.runcache_hit_ratio",
        ratio(c.hits as f64, (c.hits + c.misses) as f64),
        n,
    );
    let samples = Some(builds.len());
    report.set("workloads.build_s", median(&mut builds), samples);

    let attrib = spans.open();
    let start = Instant::now();
    exec_layer(&suite, &config, &spans, attrib, report);
    let mut totals = Totals::default();
    let sims = counterfactual(&suite, &config, &spans, attrib, report, &mut totals);
    // The attribution enumerates the figures' simulations by hand; it must
    // find exactly the ones the run cache simulated.
    report.check(sims as u64 == c.misses, || {
        format!(
            "attribution reran {sims} simulations; the run cache missed {}",
            c.misses
        )
    });
    totals.report(report);
    let modules: Vec<_> = suite.iter().map(|w| &w.module).collect();
    crate::attrib::ir_layers(&modules, &spans, attrib, report);
    spans.close(attrib, "bench.attribution", 0, start);
    spans.write_trace(opts, report)
}

/// Replays each figure's units through the job pool on a fresh run cache
/// with a span per unit: busy time is the sum of unit spans, imbalance is
/// makespan × jobs ÷ busy.
fn exec_layer(
    suite: &[Workload],
    config: &PipelineConfig,
    spans: &Spans,
    parent: u64,
    report: &mut Report,
) {
    let cache = RunCache::new();
    let cache = &cache;
    let variants = ProfilingVariant::EVALUATED;
    let per_variant: Vec<(&Workload, ProfilingVariant)> = suite
        .iter()
        .flat_map(|w| variants.iter().map(move |&v| (w, v)))
        .collect();
    let per_workload: Vec<&Workload> = suite.iter().collect();
    let mut busy = 0.0;
    let mut makespan = 0.0;
    let mut units = 0usize;
    let mut fan = |units_of: &dyn Fn() -> Vec<f64>| {
        let start = Instant::now();
        let spans_s = units_of();
        makespan += start.elapsed().as_secs_f64();
        units += spans_s.len();
        busy += spans_s.iter().sum::<f64>();
    };
    let unit = |name: &str, f: &dyn Fn()| spans.time(name, parent, f).1;
    fan(&|| {
        parallel_map(&per_variant, JOBS, |_, (w, v)| {
            unit("exec.fig16", &|| {
                let _ = cache.speedup(&w.module, &w.train_args, &w.ref_args, *v, config);
            })
        })
    });
    fan(&|| {
        parallel_map(&per_workload, JOBS, |_, w| {
            unit("exec.fig17", &|| {
                if let Ok(run) = cache.plain_run(&w.module, &w.ref_args, config) {
                    std::hint::black_box(load_mix(&w.module, &run.0));
                }
            })
        })
    });
    fan(&|| {
        parallel_map(&per_workload, JOBS, |_, w| {
            unit("exec.fig18_19", &|| {
                let v = ProfilingVariant::NaiveAll;
                let (Ok(p), Ok(run)) = (
                    cache.profiling(&w.module, v, &w.train_args, config),
                    cache.plain_run(&w.module, &w.train_args, config),
                ) else {
                    return;
                };
                for pop in [LoadPopulation::OutLoop, LoadPopulation::InLoop] {
                    std::hint::black_box(class_distribution(
                        &w.module,
                        &p.stride,
                        &run.0,
                        pop,
                        &config.prefetch,
                    ));
                }
            })
        })
    });
    fan(&|| {
        parallel_map(&per_variant, JOBS, |_, (w, v)| {
            unit("exec.fig20_22", &|| {
                let _ = cache.overhead(&w.module, &w.train_args, *v, config);
            })
        })
    });
    fan(&|| {
        parallel_map(&per_workload, JOBS, |_, w| {
            unit("exec.fig23_25", &|| {
                let v = ProfilingVariant::SampleEdgeCheck;
                let (Ok(train), Ok(refp)) = (
                    cache.profiling(&w.module, v, &w.train_args, config),
                    cache.profiling(&w.module, v, &w.ref_args, config),
                ) else {
                    return;
                };
                let _ = cache.plain_run(&w.module, &w.ref_args, config);
                for (edge, stride) in [
                    (&train.edge, &train.stride),
                    (&refp.edge, &refp.stride),
                    (&refp.edge, &train.stride),
                    (&train.edge, &refp.stride),
                ] {
                    let (m, _, _) =
                        prefetch_with_profiles(&w.module, edge, train.source, stride, config);
                    let _ = cache.plain_run(&m, &w.ref_args, config);
                }
            })
        })
    });
    let n = Some(units);
    report.set("core.exec_busy_s", busy, n);
    report.set(
        "core.exec_imbalance",
        ratio(makespan * JOBS as f64, busy),
        n,
    );
}

/// Enumerates the figures' distinct simulations and reruns each one
/// counterfactually. The prefetching binaries depend on the profiles, so
/// they are derived from the first round's profiling reruns. Returns the
/// number of simulations.
fn counterfactual(
    suite: &[Workload],
    config: &PipelineConfig,
    spans: &Spans,
    parent: u64,
    report: &mut Report,
    totals: &mut Totals,
) -> usize {
    let sec = ProfilingVariant::SampleEdgeCheck;
    let mut seen = HashSet::new();
    let mut first = Vec::new();
    // (workload, variant, on the reference input) → index into `first`.
    let mut profiles: HashMap<(usize, ProfilingVariant, bool), usize> = HashMap::new();
    let mut add = |sims: &mut Vec<Sim>, sim: Sim| {
        let fresh = seen.insert(sim.key());
        if fresh {
            sims.push(sim);
        }
        fresh
    };
    for (wi, w) in suite.iter().enumerate() {
        let sim = |args: &[i64], kind| Sim {
            module: w.module.clone(),
            args: args.to_vec(),
            kind,
        };
        add(&mut first, sim(&w.ref_args, SimKind::Plain));
        add(&mut first, sim(&w.train_args, SimKind::Plain));
        add(&mut first, sim(&w.train_args, SimKind::EdgeOnly));
        for (v, is_ref) in ProfilingVariant::EVALUATED
            .iter()
            .map(|&v| (v, false))
            .chain([(ProfilingVariant::NaiveAll, false), (sec, true)])
        {
            let args = if is_ref { &w.ref_args } else { &w.train_args };
            let idx = first.len();
            if add(&mut first, sim(args, SimKind::Profiling(v))) {
                profiles.insert((wi, v, is_ref), idx);
            }
        }
    }
    let first_runs = rerun_all(&first, config, spans, parent, report);

    let mut second = Vec::new();
    let profile = |wi: usize, v, is_ref| {
        profiles
            .get(&(wi, v, is_ref))
            .and_then(|&i| first_runs[i].as_ref())
            .and_then(|r: &Rerun| r.collected.as_ref())
    };
    for (wi, w) in suite.iter().enumerate() {
        let mut derive = |c: (&_, _, &_)| {
            let module = feedback(&w.module, c, config, spans, parent, totals);
            let sim = Sim {
                module,
                args: w.ref_args.clone(),
                kind: SimKind::Plain,
            };
            add(&mut second, sim);
        };
        for v in ProfilingVariant::EVALUATED {
            if let Some(c) = profile(wi, v, false) {
                derive((&c.edge, c.source, &c.stride));
            }
        }
        if let (Some(t), Some(r)) = (profile(wi, sec, false), profile(wi, sec, true)) {
            derive((&t.edge, t.source, &t.stride));
            derive((&r.edge, t.source, &r.stride));
            derive((&r.edge, t.source, &t.stride));
            derive((&t.edge, t.source, &r.stride));
        }
    }
    let second_runs = rerun_all(&second, config, spans, parent, report);
    for r in first_runs.iter().chain(&second_runs).flatten() {
        totals.add(r);
    }
    first.len() + second.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_golden_file_is_caught() {
        let golden = crate::selftest::TEST_GOLDEN;
        let config = PipelineConfig::default();
        let mut suite = all_workloads(Scale::Test);
        let p = pass(
            &mut suite,
            Scale::Test,
            &config,
            &Spans::new(false),
            &mut || {},
        );
        let mut report = crate::selftest::report("figures", false);
        check(&p, golden, &mut report);
        assert_eq!(report.failed, 0, "the test-scale golden file is stale");
        let mut corrupted = golden.to_vec();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x01;
        let mut report = crate::selftest::report("figures", false);
        check(&p, &corrupted, &mut report);
        assert_eq!(report.failed, 1);
        assert!(report.finish().contains("differs from the golden file"));
    }
}
