//! The `serve` and `cluster` workloads: two clients send seeded request
//! sequences over the twelve test-scale modules. The classifier is a
//! closed loop of `classify` requests: it waits for each reply before it
//! sends the next. The store client sends the requests that go to the
//! profile database (`get-profile`, `merge-profile`, `profile`) on a
//! fixed schedule. `serve` talks to one in-process `strided`; `cluster`
//! goes through `strided-router` over an in-process 3×2 loopback cluster.
//!
//! Every `classify` answer is compared with `render_classification` of a
//! direct in-process classify, every `profile` answer with the entry the
//! set-up received, and a final `get-profile` readback must count every
//! acknowledged write.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use stride_core::{
    classify, run_profiling, Counter, FaultRng, PipelineConfig, ProfilingVariant, Registry,
};
use stride_ir::Module;
use stride_profdb::{ProfileDb, ProfileEntry};
use stride_server::{
    render_classification, Client, Request, RequestMeta, Response, Router, RouterConfig,
    RouterServer, Server, ServerConfig, Service, ServiceConfig,
};
use stride_workloads::{all_workloads, Scale};

use crate::attrib::{feedback, rerun_all, Sim, SimKind, Totals};
use crate::report::{median, peak_rss_mb, quantile, ratio, Report};
use crate::spans::Spans;
use crate::{scratch_dir, Opts, JOBS};

/// Set-ups per run: the measured deployment's before the window, the rest
/// after it, so that their allocations do not stand in the RSS reading.
/// `setup_s` is their median. The machine's speed shifts over seconds, and
/// samples from both ends of the run see more of its mix of fast and slow
/// spells than samples from one end.
const SETUPS: usize = 5;
/// Variants the request keys range over.
const VARIANTS: [ProfilingVariant; 2] = [
    ProfilingVariant::EdgeCheck,
    ProfilingVariant::SampleEdgeCheck,
];
/// Requests per client replayed in-process for the handler timings.
const REPLAY_PER_CLIENT: usize = 1000;
/// The store client's schedule. Its writes wait for an fsync, whose cost
/// on a shared disk swings by 2–3× over minutes, and its `get-profile`
/// requests wait for the database lock the writes hold. On a fixed
/// schedule every run makes the same number of writes (and the cluster
/// the same repair work), and the classifier, which takes no database
/// lock, does not slow down when the disk does.
const STORE_OPS_PER_S: u32 = 50;
/// The closed-loop client; the other one is the store client.
const CLASSIFIER: usize = 0;
/// Requests completed, over both clients, when `peak_rss_mb` is read. A
/// fixed point in the traffic includes what serving allocates (buffers,
/// WAL, hint spools, the replicas' retained delta windows) without
/// making the reading grow with throughput.
const RSS_AFTER_REQUESTS: usize = 6000;
/// Shards × replicas of the `cluster` workload.
const SHARDS: usize = 3;
const REPLICAS: usize = 2;

/// The submitted modules and the answers a correct service gives.
struct Suite {
    names: Vec<String>,
    texts: Vec<String>,
    modules: Vec<Module>,
    train: Vec<Vec<i64>>,
    /// Expected `classify` body per key.
    classify: Vec<String>,
    /// Expected `profile` body per key (the first set-up's answer).
    profile: Vec<String>,
}

impl Suite {
    fn keys(&self) -> usize {
        self.names.len() * VARIANTS.len()
    }

    fn key(&self, key: usize) -> (usize, ProfilingVariant) {
        (key / VARIANTS.len(), VARIANTS[key % VARIANTS.len()])
    }
}

/// One client operation: a verb and its key.
#[derive(Clone, Copy, Debug)]
enum Op {
    Classify(usize),
    GetProfile(usize),
    Merge(usize),
    Profile(usize),
}

impl Op {
    fn is_read(self) -> bool {
        matches!(self, Op::Classify(_) | Op::GetProfile(_))
    }

    /// The workload a write adds a run to.
    fn written(self) -> Option<usize> {
        match self {
            Op::Merge(w) => Some(w),
            Op::Profile(k) => Some(k / VARIANTS.len()),
            _ => None,
        }
    }

    fn request(self, s: &Suite) -> Request {
        match self {
            Op::Classify(k) => {
                let (w, variant) = s.key(k);
                Request::Classify {
                    workload: s.names[w].clone(),
                    variant,
                    args: s.train[w].clone(),
                }
            }
            Op::Profile(k) => {
                let (w, variant) = s.key(k);
                Request::Profile {
                    workload: s.names[w].clone(),
                    variant,
                    args: s.train[w].clone(),
                }
            }
            Op::GetProfile(w) => Request::GetProfile {
                workload: s.names[w].clone(),
            },
            // The first variant's entry carries runs=1 for this module.
            Op::Merge(w) => Request::MergeProfile {
                entry_text: s.profile[w * VARIANTS.len()].clone(),
            },
        }
    }

    /// Whether `resp` is the correct answer.
    fn check(self, s: &Suite, resp: &Response) -> bool {
        let Response::Ok(body) = resp else {
            return false;
        };
        match self {
            Op::Classify(k) => *body == s.classify[k],
            Op::Profile(k) => *body == s.profile[k],
            Op::GetProfile(w) => {
                ProfileEntry::from_text(body).is_ok_and(|e| e.workload == s.names[w])
            }
            Op::Merge(_) => true,
        }
    }
}

/// Client `client`'s request sequence under `seed`, keys uniform over
/// the suite: the classifier's are `classify`; the store client's are
/// half `get-profile`, a quarter `merge-profile`, a quarter `profile`.
fn ops(seed: u64, client: usize, suite: &Suite) -> impl Iterator<Item = Op> {
    let mut rng = FaultRng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let keys = suite.keys();
    std::iter::repeat_with(move || {
        let r = rng.next_u64();
        let key = ((r >> 32) % keys as u64) as usize;
        let w = key / VARIANTS.len();
        match (client == CLASSIFIER, r % 4) {
            (true, _) => Op::Classify(key),
            (false, 0 | 1) => Op::GetProfile(w),
            (false, 2) => Op::Merge(w),
            (false, _) => Op::Profile(key),
        }
    })
}

/// Builds the suite and the classify oracle: a direct in-process
/// profiling run and classify per key, on the module parsed from the text
/// the service receives. The service workloads always use the test-scale
/// modules, which keep simulation out of the request path.
fn suite() -> Result<Suite, String> {
    let config = PipelineConfig::default();
    let mut s = Suite {
        names: Vec::new(),
        texts: Vec::new(),
        modules: Vec::new(),
        train: Vec::new(),
        classify: Vec::new(),
        profile: Vec::new(),
    };
    for w in all_workloads(Scale::Test) {
        let text = stride_ir::module_to_string(&w.module);
        let module = stride_ir::module_from_string(&text).map_err(|e| e.render(&text))?;
        s.names.push(w.name.to_string());
        s.texts.push(text);
        s.modules.push(module);
        s.train.push(w.train_args);
    }
    for key in 0..s.keys() {
        let (w, variant) = s.key(key);
        let m = &s.modules[w];
        let out = run_profiling(m, &s.train[w], variant, &config).map_err(|e| e.to_string())?;
        let c = classify(m, &out.stride, &out.edge, out.source, &config.prefetch);
        s.classify.push(render_classification(&c));
    }
    Ok(s)
}

/// A running deployment: one daemon, or a router over a 3×2 cluster.
struct Deployment {
    backends: Vec<Server>,
    router: Option<RouterServer>,
    topology: Vec<Vec<String>>,
    dir: PathBuf,
    addr: SocketAddr,
}

impl Deployment {
    fn start(cluster: bool, dir: &Path) -> Result<Deployment, String> {
        let err = |e: std::io::Error| e.to_string();
        let (shards, replicas) = if cluster { (SHARDS, REPLICAS) } else { (1, 1) };
        let mut backends = Vec::new();
        let mut topology = Vec::new();
        for k in 0..shards {
            let mut row = Vec::new();
            for r in 0..replicas {
                let db = dir.join(format!("s{k}r{r}"));
                let server = Server::start(ServerConfig::loopback(ServiceConfig::new(db)));
                let server = server.map_err(err)?;
                row.push(server.addr().to_string());
                backends.push(server);
            }
            topology.push(row);
        }
        let router = if cluster {
            let config = RouterConfig {
                hint_root: Some(dir.join("hints")),
                ..RouterConfig::loopback(topology.clone())
            };
            Some(RouterServer::start(config).map_err(err)?)
        } else {
            None
        };
        let addr = router
            .as_ref()
            .map_or_else(|| backends[0].addr(), RouterServer::addr);
        Ok(Deployment {
            backends,
            router,
            topology,
            dir: dir.to_path_buf(),
            addr,
        })
    }

    /// Sum of one counter over every daemon's registry.
    fn counter(&self, name: &str) -> u64 {
        let router = self.router.as_ref().map(|r| r.router().obs());
        self.backends
            .iter()
            .map(|b| b.service().obs())
            .chain(router)
            .map(|obs| obs.counter(name).get())
            .sum()
    }

    /// Stops the router, then the replicas, and removes their files. Every
    /// client connection must be closed first: a worker serves one
    /// connection until EOF, so an open one would stall the join.
    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown_and_join();
        }
        for b in self.backends {
            b.shutdown_and_join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn call(client: &mut Client, req: &Request) -> Response {
    client
        .call(req)
        .unwrap_or_else(|e| Response::err(stride_server::ErrorKind::Unavailable, e.to_string()))
}

/// Keeps this thread, and every thread it starts from now on (the
/// daemons' and the clients'), on one CPU: the lowest it may use. The
/// classifier has one request in flight, so a second core adds only
/// cross-core wake-ups, and on a virtual machine each of those is an
/// interrupt through the host, whose cost swings with the host's load
/// (over ten-second runs, the classifier's throughput spread 0.26 across
/// two cores and 0.10 on one). Returns the CPU, or `None` if the affinity
/// could not be read or set.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1,024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes that outlives
    // the call; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes that outlives
    // the call.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Starts a deployment, submits the modules and warms every key, so the
/// measured phase sees no first-run simulation. Returns the deployment and
/// the runs each workload's entry holds.
fn set_up(
    cluster: bool,
    dir: &Path,
    suite: &mut Suite,
    report: &mut Report,
) -> Result<(Deployment, Vec<u64>), String> {
    let d = Deployment::start(cluster, dir)?;
    let mut client = Client::connect(d.addr).map_err(|e| e.to_string())?;
    for (name, text) in suite.names.iter().zip(&suite.texts) {
        let req = Request::SubmitModule {
            workload: name.clone(),
            text: text.clone(),
        };
        let ok = matches!(call(&mut client, &req), Response::Ok(_));
        report.check(ok, || format!("submit {name} failed"));
    }
    let mut runs = vec![0u64; suite.names.len()];
    for key in 0..suite.keys() {
        let resp = call(&mut client, &Op::Profile(key).request(suite));
        match (&resp, suite.profile.get(key)) {
            (Response::Ok(body), None) => suite.profile.push(body.clone()),
            (Response::Ok(body), Some(first)) => {
                report.check(body == first, || format!("set-up profile {key} changed"));
            }
            _ => report.check(false, || format!("set-up profile {key}: {resp:?}")),
        }
        runs[suite.key(key).0] += 1;
    }
    for key in 0..suite.keys() {
        let resp = call(&mut client, &Op::Classify(key).request(suite));
        report.check(Op::Classify(key).check(suite, &resp), || {
            format!("set-up classify {key}: wrong answer")
        });
    }
    Ok((d, runs))
}

/// One completed request.
struct Sample {
    op: Op,
    /// From when the request was due (the reader's are due when the
    /// previous reply arrives) to its reply.
    rtt_s: f64,
    /// How long after it was due the request was sent.
    late_s: f64,
    /// Completion time, from the start of the window.
    end_s: f64,
    ok: bool,
}

/// What one window of traffic produced.
struct Window {
    wall_s: f64,
    /// Per client, in issue order.
    samples: Vec<Vec<Sample>>,
    /// Clients that could not connect or whose thread failed.
    errors: Vec<String>,
    /// Peak RSS once the clients had completed the requested number of
    /// requests, if they got that far.
    rss_mb: Option<f64>,
}

impl Window {
    fn requests(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Round trips in ms of the requests `keep` selects, sorted.
    fn rtts_ms(&self, keep: impl Fn(Op) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .flatten()
            .filter(|s| keep(s.op))
            .map(|s| s.rtt_s * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Requests completed in each whole second of the window.
    fn per_second(&self) -> Vec<f64> {
        let mut counts = vec![0.0; (self.wall_s.floor() as usize).max(1)];
        for s in self.samples.iter().flatten() {
            if let Some(n) = counts.get_mut(s.end_s as usize) {
                *n += 1.0;
            }
        }
        counts
    }
}

/// Runs the classifier and the store client against `addr` for
/// `seconds`, and reads the peak RSS when they have completed `rss_after`
/// requests. Each client closes its connection before returning.
fn traffic(
    addr: SocketAddr,
    suite: &Suite,
    seed: u64,
    seconds: f64,
    rss_after: usize,
    spans: &Spans,
    retries: &Counter,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let period = Duration::from_secs(1) / STORE_OPS_PER_S;
    let window = spans.open();
    let completed = AtomicUsize::new(0);
    let rss = OnceLock::new();
    let (completed, rss_ref) = (&completed, &rss);
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..JOBS)
            .map(|c| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut client = Client::connect(addr)
                        .map_err(|e| format!("client {c} could not connect: {e}"))?;
                    client.set_retry_counter(Some(retries.clone()));
                    for (i, op) in ops(seed, c, suite).enumerate() {
                        let due = if c == CLASSIFIER {
                            Instant::now()
                        } else {
                            start + period * i as u32
                        };
                        if due >= deadline {
                            break;
                        }
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let t0 = Instant::now();
                        let resp = call(&mut client, &op.request(suite));
                        let t1 = Instant::now();
                        // Odd seconds only: the even ones give the
                        // untraced rate for the tracing overhead.
                        if t0.duration_since(start).as_secs() % 2 == 1 {
                            spans.record("client.call", window, req_id(c, i), t0, t1);
                        }
                        samples.push(Sample {
                            op,
                            rtt_s: t1.duration_since(due).as_secs_f64(),
                            late_s: t0.duration_since(due).as_secs_f64(),
                            end_s: t1.duration_since(start).as_secs_f64(),
                            ok: op.check(suite, &resp),
                        });
                        if completed.fetch_add(1, Ordering::Relaxed) + 1 == rss_after {
                            let _ = rss_ref.set(peak_rss_mb());
                        }
                    }
                    drop(client);
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(c, h)| {
                h.join()
                    .unwrap_or_else(|_| Err(format!("client {c} thread panicked")))
            })
            .collect()
    });
    spans.close(window, "bench.traffic", 0, start);
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(s) => samples.push(s),
            Err(e) => {
                samples.push(Vec::new());
                errors.push(e);
            }
        }
    }
    Window {
        wall_s: start.elapsed().as_secs_f64(),
        samples,
        errors,
        rss_mb: rss.into_inner(),
    }
}

/// The id every span of one request carries.
fn req_id(client: usize, index: usize) -> u64 {
    ((client as u64 + 1) << 32) | index as u64
}

/// Counts a window's requests and acknowledged writes; a client that
/// could not run counts as a failure.
fn tally(w: &Window, runs: &mut [u64], report: &mut Report) {
    for e in &w.errors {
        report.check(false, || e.clone());
    }
    for (c, samples) in w.samples.iter().enumerate() {
        for (i, s) in samples.iter().enumerate() {
            report.check(s.ok, || {
                format!("client {c} request {i} ({:?}) failed", s.op)
            });
            if let (true, Some(wl)) = (s.ok, s.op.written()) {
                runs[wl] += 1;
            }
        }
    }
}

/// Reads every entry back: its run count must include every acknowledged
/// write.
fn readback(addr: SocketAddr, suite: &Suite, runs: &[u64], report: &mut Report) {
    let Ok(mut client) = Client::connect(addr) else {
        report.check(false, || "readback connect failed".to_string());
        return;
    };
    for (w, want) in runs.iter().enumerate() {
        let got = match call(&mut client, &Op::GetProfile(w).request(suite)) {
            Response::Ok(body) => ProfileEntry::from_text(&body).map(|e| e.runs).ok(),
            Response::Err { .. } => None,
        };
        report.check(got == Some(*want), || {
            format!(
                "readback {}: runs {got:?}, acknowledged {want}",
                suite.names[w]
            )
        });
    }
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    measure(opts, RSS_AFTER_REQUESTS, report)
}

/// Runs the workload, reading the peak RSS after `rss_after` requests.
pub fn measure(opts: &Opts, rss_after: usize, report: &mut Report) -> Result<(), String> {
    report.note(match pin_to_one_cpu() {
        Some(cpu) => format!("daemons and clients pinned to CPU {cpu}"),
        None => "daemons and clients not pinned: the CPU affinity could not be set".to_string(),
    });
    let cluster = opts.workload == "cluster";
    let mut suite = suite()?;
    let spans = Spans::new(opts.trace);
    let mut setups = Vec::new();
    let mut timed_set_up = |suite: &mut Suite, report: &mut Report| {
        let dir = scratch_dir(&opts.workload);
        let start = Instant::now();
        let up = set_up(cluster, &dir, suite, report);
        setups.push(start.elapsed().as_secs_f64());
        spans.record("bench.setup", 0, 0, start, Instant::now());
        up
    };
    let (d, mut runs) = timed_set_up(&mut suite, report)?;
    let retries = Registry::new().counter("client.retries");
    // A traced run keeps spans in odd seconds only, so the tracing
    // overhead compares interleaved seconds (the cluster slows as its
    // retained deltas grow).
    let before: Vec<u64> = COUNTERS.iter().map(|c| d.counter(c)).collect();
    let w = traffic(
        d.addr,
        &suite,
        opts.seed,
        opts.seconds,
        rss_after,
        &spans,
        &retries,
    );
    let after: Vec<u64> = COUNTERS.iter().map(|c| d.counter(c)).collect();
    tally(&w, &mut runs, report);
    report.check(w.rss_mb.is_some(), || {
        format!(
            "the window ended after {} requests, before the RSS reading at {rss_after}",
            w.requests()
        )
    });
    readback(d.addr, &suite, &runs, report);
    store_latencies(&w, report);

    if !opts.trace {
        d.shutdown();
        for _ in 1..SETUPS {
            timed_set_up(&mut suite, report)?.0.shutdown();
        }
        let classify = w.rtts_ms(|op| matches!(op, Op::Classify(_)));
        let n = Some(classify.len());
        report.set("throughput_ops", ratio(classify.len() as f64, w.wall_s), n);
        report.set("latency_p50_ms", quantile(&classify, 0.5), n);
        report.set("latency_p90_ms", quantile(&classify, 0.9), n);
        report.note(format!("classify p99 {} ms", quantile(&classify, 0.99)));
        let n = Some(setups.len());
        report.set("setup_s", median(&mut setups), n);
        report.set("peak_rss_mb", w.rss_mb.unwrap_or(0.0), Some(rss_after));
        return Ok(());
    }

    // Traced run: the tracing overhead and the registries' counters, then
    // the in-process replays, which are excluded from the overhead.
    // Each traced second against the mean of the untraced seconds on
    // either side, which cancels a linear drift in the rate.
    let counts = w.per_second();
    let diffs: Vec<f64> = counts
        .windows(3)
        .step_by(2)
        .map(|c| ratio(1e3, c[1]) - ratio(2e3, c[0] + c[2]))
        .collect();
    report.set(
        "bench.trace_overhead_s",
        ratio(diffs.iter().sum(), diffs.len() as f64),
        Some(diffs.len()),
    );
    let delta: Vec<f64> = before
        .iter()
        .zip(&after)
        .map(|(x, y)| y.saturating_sub(*x) as f64)
        .collect();
    let n = w.requests();
    let per_1k = |v: f64| v / (n as f64 / 1e3);
    let [forwarded, probes, rounds, resent, applied, deduped, shed, limiter_shed, r_shed, unavailable, r_retries] =
        delta[..]
    else {
        unreachable!("one delta per counter")
    };
    report.set("router.forwarded", per_1k(forwarded), Some(n));
    report.set("router.probes", per_1k(probes), Some(n));
    report.set("router.repair_rounds", per_1k(rounds), Some(n));
    report.set("router.repair_resent", per_1k(resent), Some(n));
    report.set("repl.deltas_applied", applied, Some(n));
    report.set("repl.deltas_deduped", deduped, Some(n));
    report.set(
        "repl.useful_ratio",
        ratio(applied, applied + deduped),
        Some(n),
    );
    report.set(
        "server.shed",
        shed + limiter_shed + r_shed + unavailable,
        Some(n),
    );
    report.set("client.retries", retries.get() as f64 + r_retries, Some(n));

    let ping = ping_rtt(d.addr);
    report.set("server.ping_rtt_ms", ping.0, Some(ping.1));
    let replay = replay_stream(&w, &suite, opts.seed);
    let dir = scratch_dir(&format!("{}-replay", opts.workload));
    if let Err(e) = handler_layer(&w, &replay, &suite, &dir, &spans, report) {
        report.check(false, || format!("handler replay: {e}"));
    }
    if cluster {
        router_layer(&replay, &suite, &d, &spans, report);
    }
    if let Err(e) = merge_layer(&suite, &dir.join("merge-db"), report) {
        report.check(false, || format!("scratch merges: {e}"));
    }
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let start = Instant::now();
    let attrib = spans.open();
    let config = PipelineConfig::default();
    let sims: Vec<Sim> = (0..suite.keys())
        .map(|k| {
            let (w, v) = suite.key(k);
            Sim {
                module: suite.modules[w].clone(),
                args: suite.train[w].clone(),
                kind: SimKind::Profiling(v),
            }
        })
        .collect();
    let mut totals = Totals::default();
    for (sim, r) in sims
        .iter()
        .zip(rerun_all(&sims, &config, &spans, attrib, report))
    {
        if let Some(r) = r {
            if let Some(c) = &r.collected {
                feedback(
                    &sim.module,
                    (&c.edge, c.source, &c.stride),
                    &config,
                    &spans,
                    attrib,
                    &mut totals,
                );
            }
            totals.add(&r);
        }
    }
    totals.report(report);
    let (_, build_s) = spans.time("workloads.build", attrib, || all_workloads(Scale::Test));
    report.set("workloads.build_s", build_s, Some(1));
    let modules: Vec<&Module> = suite.modules.iter().collect();
    crate::attrib::ir_layers(&modules, &spans, attrib, report);
    spans.close(attrib, "bench.attribution", 0, start);
    spans.write_trace(opts, report)
}

/// The store client's round trips, and how late its schedule ran. The
/// round trips are per-layer metrics: they follow the disk's fsync rate,
/// so the untraced run prints them as notes.
fn store_latencies(w: &Window, report: &mut Report) {
    let gets = w.rtts_ms(|op| matches!(op, Op::GetProfile(_)));
    let writes = w.rtts_ms(|op| op.written().is_some());
    let n = Some(gets.len());
    report.set("profdb.get_p50_ms", quantile(&gets, 0.5), n);
    let n = Some(writes.len());
    report.set("profdb.write_p50_ms", quantile(&writes, 0.5), n);
    report.set("profdb.write_p90_ms", quantile(&writes, 0.9), n);
    let mut late: Vec<f64> = w.samples[1 - CLASSIFIER]
        .iter()
        .map(|s| s.late_s * 1e3)
        .collect();
    report.note(format!(
        "store client: get-profile p50 {} ms, write p50 {} ms, p90 {} ms; late by median {} ms, at most {} ms",
        quantile(&gets, 0.5),
        quantile(&writes, 0.5),
        quantile(&writes, 0.9),
        median(&mut late),
        late.last().copied().unwrap_or(0.0)
    ));
}

/// Counters read from the daemons' registries, in the order the traced
/// run destructures them.
const COUNTERS: [&str; 11] = [
    "router.forwarded",
    "router.probes",
    "router.repair_rounds",
    "router.repair_resent",
    "repl.deltas_applied",
    "repl.deltas_deduped",
    "server.shed",
    "server.limiter.shed",
    "router.limiter.shed",
    "router.shed_unavailable",
    "client.retries",
];

/// Median round trip of `ping`, the floor the front end sets.
fn ping_rtt(addr: SocketAddr) -> (f64, usize) {
    let Ok(mut client) = Client::connect(addr) else {
        return (0.0, 0);
    };
    let mut rtts: Vec<f64> = (0..300)
        .map(|_| {
            let t0 = Instant::now();
            let _ = call(&mut client, &Request::Ping);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (median(&mut rtts), rtts.len())
}

/// The first requests of each client of window `w`, with the index of
/// their sample: all the classifier's first, so that no fsync of the store
/// client's writes lands between the `classify` timings, as almost none
/// does in the window.
fn replay_stream(w: &Window, suite: &Suite, seed: u64) -> Vec<(usize, usize, Op)> {
    (0..JOBS)
        .flat_map(|c| {
            ops(seed, c, suite)
                .take(REPLAY_PER_CLIENT.min(w.samples[c].len()))
                .enumerate()
                .map(move |(i, op)| (c, i, op))
        })
        .collect()
}

/// Median client round trip of the replayed `classify` requests: they
/// wait for no disk, so the front end's share of them is not lost in the
/// fsync's swings.
fn median_rtt_ms(w: &Window, replay: &[(usize, usize, Op)]) -> f64 {
    let mut rtts: Vec<f64> = replay
        .iter()
        .filter(|&&(c, _, _)| c == CLASSIFIER)
        .map(|&(c, i, _)| w.samples[c][i].rtt_s * 1e3)
        .collect();
    median(&mut rtts)
}

/// Times `Service::handle` on a separate service with its own database,
/// over the same request stream the clients sent.
fn handler_layer(
    w: &Window,
    replay: &[(usize, usize, Op)],
    suite: &Suite,
    dir: &Path,
    spans: &Spans,
    report: &mut Report,
) -> Result<(), String> {
    let service =
        Service::new(ServiceConfig::new(dir.join("handler-db"))).map_err(|e| e.to_string())?;
    for (name, text) in suite.names.iter().zip(&suite.texts) {
        service.handle(&Request::SubmitModule {
            workload: name.clone(),
            text: text.clone(),
        });
    }
    for key in 0..suite.keys() {
        service.handle(&Op::Profile(key).request(suite));
    }
    let (mut reads, mut writes, mut classify) = (Vec::new(), Vec::new(), Vec::new());
    for &(c, i, op) in replay {
        let req = op.request(suite);
        let t0 = Instant::now();
        let resp = service.handle(&req);
        let t1 = Instant::now();
        spans.record("service.handle", 0, req_id(c, i), t0, t1);
        report.check(op.check(suite, &resp), || {
            format!("in-process {op:?} failed")
        });
        let ms = t1.duration_since(t0).as_secs_f64() * 1e3;
        if c == CLASSIFIER {
            classify.push(ms);
        }
        if op.is_read() {
            reads.push(ms)
        } else {
            writes.push(ms)
        }
    }
    report.set(
        "server.handler_ms.read",
        median(&mut reads),
        Some(reads.len()),
    );
    report.set(
        "server.handler_ms.write",
        median(&mut writes),
        Some(writes.len()),
    );
    report.set(
        "server.wire_ms",
        median_rtt_ms(w, replay) - median(&mut classify),
        Some(classify.len()),
    );
    Ok(())
}

/// Times `Router::handle` on a second, in-process router over the same
/// replicas, each replayed `classify` right after the same request went
/// through the measured router: the difference of their medians is the
/// router's front end. Both sides are timed at the same moment, so the
/// cluster's state, which grows through the window, is the same for both.
/// This router does not probe, so no repair round lands in its timings;
/// the medians keep the measured router's repair rounds out of the round
/// trips.
fn router_layer(
    replay: &[(usize, usize, Op)],
    suite: &Suite,
    d: &Deployment,
    spans: &Spans,
    report: &mut Report,
) {
    let config = RouterConfig {
        hint_root: Some(d.dir.join("hints-replay")),
        probe_every: 0,
        ..RouterConfig::loopback(d.topology.clone())
    };
    let Ok(router) = Router::new(&config) else {
        report.check(false, || "in-process router failed to start".to_string());
        return;
    };
    let meta = RequestMeta::default();
    for (name, text) in suite.names.iter().zip(&suite.texts) {
        router.handle(
            &meta,
            &Request::SubmitModule {
                workload: name.clone(),
                text: text.clone(),
            },
        );
    }
    let Ok(mut client) = Client::connect(d.addr) else {
        report.check(false, || "router replay connect failed".to_string());
        return;
    };
    let (mut rtts, mut times) = (Vec::new(), Vec::new());
    for &(c, i, op) in replay {
        let req = op.request(suite);
        if c == CLASSIFIER {
            let t0 = Instant::now();
            let resp = call(&mut client, &req);
            rtts.push(t0.elapsed().as_secs_f64() * 1e3);
            report.check(op.check(suite, &resp), || format!("router {op:?} failed"));
        }
        let t0 = Instant::now();
        let resp = router.handle(&meta, &req);
        let t1 = Instant::now();
        spans.record("router.handle", 0, req_id(c, i), t0, t1);
        // Writes through this router add runs the readback no longer
        // checks; only the answers are compared.
        report.check(op.check(suite, &resp), || {
            format!("in-process router {op:?} failed")
        });
        if c == CLASSIFIER {
            times.push(t1.duration_since(t0).as_secs_f64() * 1e3);
        }
    }
    drop(client);
    report.set(
        "router.frontend_ms",
        median(&mut rtts) - median(&mut times),
        Some(times.len()),
    );
    drop(router);
}

/// Times `ProfileDb::merge_store` (WAL append, fsync and rewrite) on a
/// scratch database.
fn merge_layer(suite: &Suite, dir: &Path, report: &mut Report) -> Result<(), String> {
    let db = ProfileDb::open(dir).map_err(|e| e.to_string())?;
    let entry = ProfileEntry::from_text(&suite.profile[0]).map_err(|e| e.to_string())?;
    let mut times: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let ok = db.merge_store(&entry).is_ok();
            report.check(ok, || "scratch merge_store failed".to_string());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set("profdb.merge_ms", median(&mut times), Some(times.len()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report::new(&Opts {
            workload: "serve".to_string(),
            seed: 7,
            seconds: 1.0,
            trace: false,
        })
    }

    #[test]
    fn a_wrong_classify_answer_is_caught() {
        let s = suite().expect("suite");
        let op = Op::Classify(0);
        let right = Response::Ok(s.classify[0].clone());
        let wrong = Response::Ok(format!("{}tampered\n", s.classify[0]));
        assert!(op.check(&s, &right));
        assert!(!op.check(&s, &wrong));
        let sample = |resp: &Response| Sample {
            op,
            rtt_s: 0.001,
            late_s: 0.0,
            end_s: 0.001,
            ok: op.check(&s, resp),
        };
        let w = Window {
            wall_s: 1.0,
            samples: vec![vec![sample(&right), sample(&wrong)]],
            errors: Vec::new(),
            rss_mb: None,
        };
        let mut report = report();
        tally(&w, &mut vec![0; s.names.len()], &mut report);
        assert_eq!((report.attempted, report.failed), (2, 1));
    }

    #[test]
    fn a_client_that_cannot_connect_is_caught() {
        let s = suite().expect("suite");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        let retries = Registry::new().counter("client.retries");
        let w = traffic(addr, &s, 7, 0.2, 10, &Spans::new(false), &retries);
        assert_eq!(w.errors.len(), JOBS);
        assert_eq!(w.rss_mb, None);
        let mut report = report();
        tally(&w, &mut vec![0; s.names.len()], &mut report);
        assert_eq!(report.failed, JOBS as u64);
    }
}
