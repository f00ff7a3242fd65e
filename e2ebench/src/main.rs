//! End-to-end and per-layer benchmark of the `repro` CLI and the
//! `served` daemon. See README.md beside this crate for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! e2ebench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! e2ebench --bin-dir DIR --record-digests PATH
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`). Any set-up error exits nonzero
//! without printing it.

mod digest;
mod layers;
mod load;
mod repro;
mod schedule;
mod served;
mod stats;
mod trace;

use digest::{exact_counts, prometheus, DigestTable};
use load::{closed_loop, open_loop, ClosedRun};
use schedule::{poisson, Rng};
use served::{Daemon, Route, Verdict};
use stats::{median, tail, windowed_tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 5;
/// Open-loop arrival rate, well below `served`'s capacity.
const OPEN_RATE: f64 = 100.0;
/// Share of a serve-warm run spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.7;
/// Open-loop sender threads: enough that a slow answer never holds up
/// the schedule at this rate.
const OPEN_SENDERS: usize = 4;
/// Requests per route in the traced socket probe (41 routes, so at
/// least 1000 samples and a true p99).
const PROBE_PASSES: usize = 25;
/// Arrival rate of the socket probe, per second.
const PROBE_RATE: f64 = 200.0;
/// `repro --help` runs per traced run.
const HELP_REPS: usize = 20;
/// The latency charged to a failed operation: it misses every limit.
const FAILED_MS: f64 = served::IO_TIMEOUT.as_millis() as f64;
/// Series whose value depends on timing, not on the work done: bytes
/// out counts `/metrics` bodies, whose length varies, and the occupancy
/// gauges, sampled at scrape time, count a previous request whose
/// worker is still closing its connection.
const TIMING_DEPENDENT: [&str; 3] = [
    "ucore_serve_bytes_out",
    "ucore_serve_inflight",
    "ucore_serve_queue_depth",
];

/// Metrics in report order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Operations attempted and failed, and checks that did not hold.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    mismatched: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Tally {
    /// Counts one operation; returns whether it succeeded.
    pub fn verdict(&self, v: &Verdict) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match v {
            Verdict::Ok => return true,
            Verdict::Failed(why) => self.note(why.clone()),
            Verdict::Mismatch(why) => {
                self.mismatched.fetch_add(1, Ordering::Relaxed);
                self.note(why.clone());
            }
        }
        self.failed.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Records a correctness check that is not an operation.
    pub fn check(&self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.mismatched.fetch_add(1, Ordering::Relaxed);
            self.note(why());
        }
    }

    fn note(&self, why: String) {
        let mut notes = self.notes.lock().expect("a tally holder panicked");
        if notes.len() < 20 {
            notes.push(why);
        }
    }
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReproCold,
    ServeWarm,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "repro-cold" => Ok(Workload::ReproCold),
            "serve-warm" => Ok(Workload::ServeWarm),
            other => Err(format!(
                "unknown workload {other:?} (repro-cold, serve-warm)"
            )),
        }
    }
}

struct Args {
    bin_dir: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        bin_dir: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--bin-dir" => a.bin_dir = PathBuf::from(value()?),
            "--workload" => a.workload = Some(Workload::parse(&value()?)?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is not 0 or 1")),
                }
            }
            "--record-digests" => a.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

/// Everything a workload needs.
struct Ctx {
    repro: PathBuf,
    served: PathBuf,
    digests: DigestTable,
    tally: Tally,
    seed: u64,
    seconds: f64,
    work: PathBuf,
    routes: Vec<Route>,
    requests: Vec<Vec<u8>>,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // The in-process layers run at the program's default settings too.
    for var in repro::SETTINGS_ENV {
        std::env::remove_var(var);
    }
    let bin = |name: &str| {
        let path = args.bin_dir.join(name);
        path.is_file()
            .then_some(path.clone())
            .ok_or_else(|| format!("{} is not built", path.display()))
    };
    let (repro_bin, served_bin) = (bin("repro")?, bin("served")?);
    if let Some(out) = &args.record {
        return record_digests(&repro_bin, &served_bin, out);
    }
    let workload = args.workload.ok_or("--workload is required")?;
    let work = PathBuf::from(".bench_out").join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let routes = served::routes();
    let ctx = Ctx {
        repro: repro_bin,
        served: served_bin,
        digests: DigestTable::recorded()?,
        tally: Tally::default(),
        seed: args.seed,
        seconds: args.seconds,
        requests: routes.iter().map(Route::request).collect(),
        routes,
        work,
    };
    let tracer = Tracer::new(args.seed, args.trace);
    let result = match workload {
        Workload::ServeWarm => serve_warm(&ctx, &tracer),
        Workload::ReproCold => repro_cold(&ctx, &tracer),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let metrics = result?;
    if tracer.enabled() {
        write_trace(&tracer, &args, workload)?;
    }
    print_result(&ctx.tally, &metrics);
    Ok(())
}

/// Writes the spans as JSON lines under `.bench_out/` and prints each
/// span name's self time to stderr.
fn write_trace(tracer: &Tracer, args: &Args, workload: Workload) -> Result<(), String> {
    let name = format!("{workload:?}").to_lowercase();
    let path = PathBuf::from(".bench_out").join(format!("trace-{name}-seed{}.jsonl", args.seed));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("spans written to {}; self time per span:", path.display());
    for (name, (total, count)) in trace::self_times(&tracer.spans()) {
        eprintln!(
            "  {name:<22} {count:>6} spans {:>10.3} ms self",
            total.as_secs_f64() * 1e3
        );
    }
    Ok(())
}

fn print_result(tally: &Tally, metrics: &Metrics) {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        tally.check(value.is_finite(), || format!("metric {name} is not finite"));
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    let notes = tally.notes.lock().expect("a tally holder panicked");
    for note in notes.iter() {
        eprintln!("e2ebench: {note}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        tally.mismatched.load(Ordering::Relaxed) == 0,
        tally.attempted.load(Ordering::Relaxed).max(1),
        tally.failed.load(Ordering::Relaxed),
    );
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Operation latencies in ms, a failure charged as missing every limit.
fn op_ms(ops: &[(Duration, bool)]) -> Vec<f64> {
    ops.iter()
        .map(|(d, ok)| {
            if *ok {
                d.as_secs_f64() * 1e3
            } else {
                FAILED_MS
            }
        })
        .collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(setup: &[f64], closed: &ClosedRun, ops_ms: &[f64], rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let t = windowed_tail(ops_ms);
    eprintln!(
        "op latency: {} samples; p{} = {:.3} ms (reported by the traced run, not gated)",
        t.count, t.percentile, t.value
    );
    m.push("setup_s", median(setup), "s");
    m.push("pass_s", closed.pass_s(), "s");
    m.push("op_p50_ms", median(ops_ms), "ms");
    m.push("ops_per_s", closed.ok_per_s(), "1/s");
    m.push("peak_rss_mb", rss_mb, "MB");
    m
}

// ---------------------------------------------------------------------
// repro-cold, and the journal steps of the traced run
// ---------------------------------------------------------------------

/// One `repro` invocation of a pass.
struct ReproOp {
    args: Vec<String>,
    /// The journal a write step starts from empty.
    fresh_journal: Option<PathBuf>,
}

/// The 36 rendering commands.
fn cold_ops() -> Vec<ReproOp> {
    repro::render_commands()
        .into_iter()
        .map(|args| ReproOp {
            args,
            fresh_journal: None,
        })
        .collect()
}

/// For each journaled figure, a write step on a fresh journal and then a
/// resume step that replays it.
fn durable_ops(work: &Path) -> Vec<ReproOp> {
    repro::JOURNALED_FIGURES
        .iter()
        .flat_map(|&n| {
            let j = work.join(format!("figure-{n}.journal"));
            [
                ReproOp {
                    args: repro::durable_args(&j, n, false),
                    fresh_journal: Some(j.clone()),
                },
                ReproOp {
                    args: repro::durable_args(&j, n, true),
                    fresh_journal: None,
                },
            ]
        })
        .collect()
}

/// `0..n` in seeded order.
fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Durable steps in seeded figure order, each write before its resume.
fn durable_order(rng: &mut Rng, n: usize) -> Vec<usize> {
    shuffled(rng, n / 2)
        .into_iter()
        .flat_map(|k| [2 * k, 2 * k + 1])
        .collect()
}

fn repro_op(ctx: &Ctx, tr: &Tracer, parent: Option<u32>, op: &ReproOp, extra: &[String]) -> bool {
    if let Some(j) = &op.fresh_journal {
        let _ = std::fs::remove_file(j);
    }
    let args: Vec<String> = op.args.iter().chain(extra).cloned().collect();
    let (out, _) = tr.span("repro.process", parent, |_| repro::run(&ctx.repro, &args));
    let verdict = match out {
        Ok(stdout) => Verdict::from(ctx.digests.check(&repro::digest_key(&args), &stdout)),
        Err(e) => Verdict::Failed(e),
    };
    ctx.tally.verdict(&verdict)
}

fn repro_loop(
    ctx: &Ctx,
    tr: &Tracer,
    parent: Option<u32>,
    ops: &[ReproOp],
    budget: Duration,
    order: impl FnMut() -> Vec<usize>,
) -> ClosedRun {
    closed_loop(tr, parent, 1, budget, order, |i, span| {
        repro_op(ctx, tr, span, &ops[i], &[])
    })
}

/// One untimed pass with `--metrics`, summing each process's exact
/// counters (and the journals' sizes) over the pass.
fn repro_counters(ctx: &Ctx, ops: &[ReproOp]) -> BTreeMap<String, f64> {
    let file = ctx.work.join("metrics.prom");
    let extra = ["--metrics".to_string(), file.display().to_string()];
    let off = Tracer::new(0, false);
    let mut sum = BTreeMap::new();
    for op in ops {
        let _ = std::fs::remove_file(&file);
        if !repro_op(ctx, &off, None, op, &extra) {
            continue;
        }
        let parsed = std::fs::read_to_string(&file)
            .map_err(|e| e.to_string())
            .and_then(|t| prometheus(&t));
        match parsed {
            Ok(samples) => {
                for (k, v) in exact_counts(&samples) {
                    *sum.entry(k).or_insert(0.0) += v;
                }
            }
            Err(e) => ctx
                .tally
                .check(false, || format!("repro --metrics output: {e}")),
        }
        if let Some(j) = &op.fresh_journal {
            let bytes = std::fs::metadata(j).map_or(0, |m| m.len());
            *sum.entry("journal_bytes".into()).or_insert(0.0) += bytes as f64;
        }
    }
    sum
}

/// Collects the exact counters twice and checks they repeat.
fn repeated_counters(
    ctx: &Ctx,
    collect: impl Fn() -> BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let first = collect();
    let second = collect();
    for (k, v) in &first {
        let again = second.get(k).copied();
        ctx.tally.check(again == Some(*v), || {
            format!("counter {k} was {v}, then {again:?}")
        });
    }
    first
}

fn repro_cold(ctx: &Ctx, tr: &Tracer) -> Result<Metrics, String> {
    let ops = cold_ops();
    let mut rng = Rng::new(ctx.seed, 0);
    let off = Tracer::new(0, false);
    let mut pass = |tr: &Tracer, parent: Option<u32>, budget: Duration| {
        repro_loop(ctx, tr, parent, &ops, budget, || {
            shuffled(&mut rng, ops.len())
        })
    };
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| pass(&off, None, Duration::ZERO).elapsed.as_secs_f64())
        .collect();
    if !tr.enabled() {
        let run = pass(&off, None, secs(ctx.seconds));
        let rss = repro::children_peak_rss_mb();
        repeated_counters(ctx, || repro_counters(ctx, &ops));
        return Ok(end_to_end(&setup, &run, &op_ms(&run.ops), rss));
    }
    let ((mut m, counters), _) = tr.span("run", None, |root| {
        let budget = secs(ctx.seconds / 4.0);
        let plain = pass(&off, root, budget);
        let traced = pass(tr, root, budget);
        let mut m = Metrics::default();
        m.push(
            "trace.overhead_pct",
            overhead_pct(&plain.ops, &traced.ops),
            "pct",
        );
        m.push(
            "loop.op_tail_ms",
            windowed_tail(&op_ms(&plain.ops)).value,
            "ms",
        );
        m.push("gen.late_tail_ms", 0.0, "ms");
        let (counters, _) = tr.span("counters", root, |_| {
            repeated_counters(ctx, || repro_counters(ctx, &ops))
        });
        (m, counters)
    });
    let daemon = Daemon::boot(&ctx.served)?;
    warm_pass(ctx, &off, None, &daemon, &mut rng);
    traced_layers(ctx, tr, &daemon, &counters, &mut m)?;
    Ok(m)
}

/// How much slower an operation ran with spans recorded, in percent.
fn overhead_pct(plain: &[(Duration, bool)], traced: &[(Duration, bool)]) -> f64 {
    (median(&op_ms(traced)) / median(&op_ms(plain)) - 1.0) * 100.0
}

// ---------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------

fn serve_op(
    ctx: &Ctx,
    tr: &Tracer,
    parent: Option<u32>,
    addr: std::net::SocketAddr,
    route: usize,
) -> bool {
    let verdict = served::call(
        tr,
        parent,
        addr,
        &ctx.routes[route],
        &ctx.requests[route],
        &ctx.digests,
    );
    ctx.tally.verdict(&verdict)
}

/// One pass over every route, in seeded order, one request at a time.
fn warm_pass(ctx: &Ctx, tr: &Tracer, parent: Option<u32>, d: &Daemon, rng: &mut Rng) {
    let order = shuffled(rng, ctx.routes.len());
    closed_loop(
        tr,
        parent,
        1,
        Duration::ZERO,
        || order.clone(),
        |r, span| serve_op(ctx, tr, span, d.addr, r),
    );
}

/// The daemon's `/metrics`, parsed.
fn scrape(d: &Daemon) -> Result<BTreeMap<String, f64>, String> {
    let req = b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
    match served::fetch(&Tracer::new(0, false), None, d.addr, req)? {
        (200, body) => prometheus(std::str::from_utf8(&body).map_err(|e| e.to_string())?),
        (status, _) => Err(format!("/metrics answered {status}")),
    }
}

fn serve_warm(ctx: &Ctx, tr: &Tracer) -> Result<Metrics, String> {
    let off = Tracer::new(0, false);
    let mut rng = Rng::new(ctx.seed, 0);
    let (mut setup, mut counts, mut daemon) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUP_REPS {
        drop(daemon.take());
        let start = Instant::now();
        let d = Daemon::boot(&ctx.served)?;
        warm_pass(ctx, &off, None, &d, &mut rng);
        setup.push(start.elapsed().as_secs_f64());
        let mut exact = exact_counts(&scrape(&d)?);
        exact.retain(|k, _| !TIMING_DEPENDENT.contains(&k.as_str()));
        counts.push(exact);
        daemon = Some(d);
    }
    for c in &counts[1..] {
        for (k, v) in c {
            let first = counts[0].get(k);
            ctx.tally.check(first == Some(v), || {
                format!("counter {k} was {first:?} after one warm pass, {v} after another")
            });
        }
    }
    let d = daemon.expect("set-up boots at least one daemon");
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !tr.enabled() {
        let n = (OPEN_RATE * OPEN_SHARE * ctx.seconds).round() as usize;
        let arrivals = poisson(ctx.seed, OPEN_RATE, n.max(1), ctx.routes.len());
        let timings = open_loop(&off, None, &arrivals, OPEN_SENDERS, |i, span| {
            serve_op(ctx, &off, span, d.addr, arrivals[i].route)
        });
        let order = || shuffled(&mut rng, ctx.routes.len());
        let budget = secs(ctx.seconds * (1.0 - OPEN_SHARE));
        let closed = closed_loop(&off, None, conns, budget, order, |r, span| {
            serve_op(ctx, &off, span, d.addr, r)
        });
        let after = scrape(&d)?;
        for counter in ["ucore_serve_shed", "ucore_serve_responses_error"] {
            let v = after.get(counter).copied();
            ctx.tally
                .check(v == Some(0.0), || format!("{counter} is {v:?}, expected 0"));
        }
        let latency: Vec<(Duration, bool)> = timings.iter().map(|t| (t.latency(), t.ok)).collect();
        return Ok(end_to_end(
            &setup,
            &closed,
            &op_ms(&latency),
            d.peak_rss_mb()?,
        ));
    }
    let (mut m, _) = tr.span("run", None, |root| {
        let n = (OPEN_RATE * ctx.seconds / 4.0).round() as usize;
        let arrivals = poisson(ctx.seed, OPEN_RATE, n.max(1), ctx.routes.len());
        let phase = |tracer: &Tracer| {
            tr.span("open_loop", root, |p| {
                open_loop(tracer, p, &arrivals, OPEN_SENDERS, |i, span| {
                    serve_op(ctx, tracer, span, d.addr, arrivals[i].route)
                })
            })
            .0
        };
        let plain = phase(&off);
        let traced = phase(tr);
        let ops = |t: &[load::Timing]| t.iter().map(|t| (t.latency(), t.ok)).collect::<Vec<_>>();
        let late: Vec<f64> = traced
            .iter()
            .map(|t| t.late().as_secs_f64() * 1e3)
            .collect();
        let mut m = Metrics::default();
        m.push(
            "trace.overhead_pct",
            overhead_pct(&ops(&plain), &ops(&traced)),
            "pct",
        );
        m.push(
            "loop.op_tail_ms",
            windowed_tail(&op_ms(&ops(&plain))).value,
            "ms",
        );
        m.push("gen.late_tail_ms", tail(&late).value, "ms");
        m
    });
    let counters = exact_counts(&scrape(&d)?);
    traced_layers(ctx, tr, &d, &counters, &mut m)?;
    Ok(m)
}

// ---------------------------------------------------------------------
// The traced run's per-layer metrics
// ---------------------------------------------------------------------

/// Everything the traced run reports besides the workload's own loop:
/// process start, the in-process layers, the socket probe against a
/// warm `served`, the workload's exact counters, and the journal steps.
fn traced_layers(
    ctx: &Ctx,
    tr: &Tracer,
    d: &Daemon,
    counters: &BTreeMap<String, f64>,
    m: &mut Metrics,
) -> Result<(), String> {
    let help: Vec<f64> = (0..HELP_REPS)
        .map(|_| {
            let (out, took) = tr.span("process.start", None, |_| {
                repro::run(&ctx.repro, &["--help".to_string()])
            });
            ctx.tally
                .verdict(&out.map_or_else(Verdict::Failed, |_| Verdict::Ok));
            took.as_secs_f64() * 1e3
        })
        .collect();
    m.push("process.start_ms", median(&help), "ms");
    let (profile, _) = tr.span("layers", None, |p| {
        layers::profile(tr, p, &ctx.digests, &ctx.tally, &ctx.routes, &ctx.work)
    });
    let profile = profile?;
    m.0.extend(profile.metrics.0);
    tr.span("probe", None, |p| {
        socket_probe(ctx, tr, p, d, &profile.handle, m)
    });
    cache_metrics(counters, m);
    tr.span("journal.steps", None, |p| journal_steps(ctx, tr, p, m));
    let served = exact_counts(&scrape(d)?);
    for (name, counter) in [
        ("serve.accepted", "accepted"),
        ("serve.shed", "shed"),
        ("serve.responses_error", "responses_error"),
    ] {
        m.push(
            name,
            served
                .get(&format!("ucore_serve_{counter}"))
                .copied()
                .unwrap_or(0.0),
            "count",
        );
    }
    Ok(())
}

/// Requests every route the same number of times and splits each
/// answer's socket latency (send to last byte) into the in-process
/// handle time and the rest: the server's own wait (accept poll, queue,
/// parse, write, socket).
fn socket_probe(
    ctx: &Ctx,
    tr: &Tracer,
    p: Option<u32>,
    d: &Daemon,
    handle: &[Duration],
    m: &mut Metrics,
) {
    // Every route PROBE_PASSES times in seeded order, on Poisson arrivals
    // so that no request phase-locks to the acceptor's poll.
    let mut routes: Vec<usize> = (0..PROBE_PASSES)
        .flat_map(|_| 0..ctx.routes.len())
        .collect();
    Rng::new(ctx.seed, 3).shuffle(&mut routes);
    let mut arrivals = poisson(ctx.seed, PROBE_RATE, routes.len(), ctx.routes.len());
    for (a, &r) in arrivals.iter_mut().zip(&routes) {
        a.route = r;
    }
    let timings = open_loop(tr, p, &arrivals, OPEN_SENDERS, |i, span| {
        serve_op(ctx, tr, span, d.addr, arrivals[i].route)
    });
    let mut socket = vec![Vec::new(); ctx.routes.len()];
    let mut waits = Vec::new();
    for (a, t) in arrivals.iter().zip(&timings).filter(|(_, t)| t.ok) {
        let took = t.done - t.sent;
        socket[a.route].push(took.as_secs_f64() * 1e3);
        waits.push(took.saturating_sub(handle[a.route]).as_secs_f64() * 1e3);
    }
    for kind in served::KINDS {
        let of_kind: Vec<usize> = (0..ctx.routes.len())
            .filter(|&i| ctx.routes[i].kind == kind)
            .collect();
        let mean = |f: &dyn Fn(usize) -> f64| {
            of_kind.iter().map(|&i| f(i)).sum::<f64>() / of_kind.len().max(1) as f64
        };
        let sock = mean(&|i| median(&socket[i]));
        let wait = sock - mean(&|i| handle[i].as_secs_f64() * 1e3);
        m.push(format!("socket.p50_ms.{kind}"), sock, "ms");
        m.push(format!("server.wait_ms.{kind}"), wait, "ms");
    }
    let t = tail(&waits);
    m.push("server.wait_p50_ms", median(&waits), "ms");
    m.push("server.wait_p99_ms", t.value, "ms");
}

/// The cache and point counters of a run.
fn cache_metrics(c: &BTreeMap<String, f64>, m: &mut Metrics) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let (hits, misses) = (get("ucore_cache_hits"), get("ucore_cache_misses"));
    m.push("optimize.calls", misses, "count");
    m.push("cache.hits", hits, "count");
    m.push("cache.misses", misses, "count");
    m.push("cache.entries", get("ucore_cache_entries"), "count");
    m.push("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    m.push("points.submitted", get("ucore_points_submitted"), "count");
    m.push("points.ok", get("ucore_points_ok"), "count");
}

/// The journal as a user drives it: for each of figures 6-11, `repro
/// --journal J --json figure-N` on a fresh journal, then the same with
/// `--resume`. Each step is timed from spawn to exit, and one more pass
/// with `--metrics`, run twice, gives the journal's exact counters.
fn journal_steps(ctx: &Ctx, tr: &Tracer, p: Option<u32>, m: &mut Metrics) {
    let ops = durable_ops(&ctx.work);
    let mut rng = Rng::new(ctx.seed, 4);
    let steps = Mutex::new([Vec::new(), Vec::new()]);
    let budget = secs(ctx.seconds / 10.0);
    closed_loop(
        tr,
        p,
        1,
        budget,
        || durable_order(&mut rng, ops.len()),
        |i, span| {
            let (ok, took) = tr.span("journal.step", span, |s| repro_op(ctx, tr, s, &ops[i], &[]));
            if ok {
                steps.lock().expect("one connection")[i % 2].push(took.as_secs_f64() * 1e3);
            }
            ok
        },
    );
    let [write, resume] = steps.into_inner().expect("one connection");
    m.push("journal.write_step_ms", median(&write), "ms");
    m.push("journal.resume_step_ms", median(&resume), "ms");
    let c = repeated_counters(ctx, || repro_counters(ctx, &ops));
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    m.push("journal.appends", get("ucore_journal_appends"), "count");
    m.push("journal.syncs", get("ucore_journal_syncs"), "count");
    m.push("journal.hits", get("ucore_journal_hits"), "count");
    m.push("journal.bytes", get("journal_bytes"), "bytes");
    let hit_ratio = get("ucore_journal_hits") / get("ucore_points_submitted").max(1.0);
    m.push("journal.hit_ratio", hit_ratio, "ratio");
}

// ---------------------------------------------------------------------
// Recording the reference digests
// ---------------------------------------------------------------------

/// Records the digest of every command's stdout (and of `/healthz`).
fn record_digests(repro_bin: &Path, served_bin: &Path, out: &Path) -> Result<(), String> {
    let mut table = DigestTable::default();
    for args in repro::render_commands() {
        let stdout = repro::run(repro_bin, &args)?;
        table.insert(&repro::digest_key(&args), &stdout);
    }
    let d = Daemon::boot(served_bin)?;
    match served::fetch(
        &Tracer::new(0, false),
        None,
        d.addr,
        b"GET /healthz HTTP/1.1\r\n\r\n",
    )? {
        (200, body) => table.insert("healthz", &body),
        (status, _) => return Err(format!("/healthz answered {status}")),
    }
    let text = format!(
        "# Expected output of every rendering command: <bytes> <fnv1a-64> <repro arguments>.\n\
         # Recorded with `e2ebench --record-digests`; served bodies must match the same lines.\n{}",
        table.render()
    );
    std::fs::write(out, text).map_err(|e| format!("write {}: {e}", out.display()))
}
