//! The parallel design-space sweep engine.
//!
//! A projection figure is a batch of independent design-point
//! evaluations: every `(design, node, f)` cell of every panel runs the
//! same pure `r` sweep under its own budgets. This module fans such a
//! batch over scoped worker threads while keeping the output
//! **deterministic**. Spawning workers has a fixed cost that a
//! figure-sized batch cannot win back, so unless a thread count is
//! configured the batch runs inline on the caller's thread. Either
//! way, results are returned in the exact order
//! the [`SweepPoint`]s were submitted, and each point's value is
//! computed by the same code path the sequential engine uses, so a
//! parallel sweep is bit-identical to a sequential one regardless of
//! thread count or scheduling.
//!
//! # Determinism
//!
//! Two properties make this safe to parallelize:
//!
//! 1. **Purity** — evaluating a point reads only the point itself and
//!    the engine's immutable scenario/Table 5 state. The shared
//!    [`EvalCache`](ucore_core::EvalCache) memoizes `Result`s of a pure
//!    function keyed on every input, so a cache hit returns exactly what
//!    the evaluation would have computed.
//! 2. **Order restoration** — workers pull indices from an atomic
//!    counter and tag each outcome with its index; the engine merges the
//!    tagged outcomes back into submission slots before returning.
//!    Thread interleaving affects wall time only, never the result
//!    vector.
//!
//! # Fault containment
//!
//! Every point evaluates inside [`std::panic::catch_unwind`]: a panic —
//! a model bug on a pathological corner of the design space, or a fault
//! injected by [`faultinject`] — degrades that one
//! point to [`Outcome::Failed`] instead of aborting the sweep. The
//! containment guarantees are:
//!
//! * a fault at point *k* produces exactly one `Failed` outcome, at
//!   index *k*;
//! * every other outcome is bit-identical to an uninjected run, at any
//!   thread count;
//! * the shared memoization cache is never polluted by a failed point
//!   (a contained panic happens *before* the cache insert; an injected
//!   cache error bypasses the cache entirely).
//!
//! Failed points are counted in [`SweepStats`], surfaced in figure
//! exports, and policed by `repro --max-failures` (default 0: any
//! failure fails the run).
//!
//! # Observability
//!
//! Every sweep returns [`SweepStats`] alongside its results: points
//! evaluated, outcome counts (ok / infeasible / failed), threads used,
//! cache hit/miss deltas, and the wall time of the evaluation phase.
//! The `repro --stats` flag surfaces the global totals after rendering.

use crate::durability::{self, DurabilityContext};
use crate::engine::{DesignId, ProjectionEngine};
use crate::faultinject::{self, Fault, FaultPlan};
use crate::journal::{self, JournalRecord, ReplayLookup};
use crate::obs;
use crate::results::NodePoint;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, Once, PoisonError};
use std::time::{Duration, Instant};
use ucore_calibrate::WorkloadColumn;
use ucore_core::{Budgets, ParallelFraction};
use ucore_itrs::NodeParams;

/// One unit of sweep work: a fully specified design-point evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The chip design under evaluation.
    pub design: DesignId,
    /// The workload column supplying the U-core calibration.
    pub column: WorkloadColumn,
    /// The roadmap node supplying the physical budgets.
    pub node: NodeParams,
    /// The model budgets (already converted to BCE units, and already
    /// widened if the point is bandwidth-exempt).
    pub budgets: Budgets,
    /// The workload's parallel fraction.
    pub f: ParallelFraction,
}

/// How one design-point evaluation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A feasible optimum was found.
    Feasible(NodePoint),
    /// No feasible design exists at this cell (an *expected*, typed
    /// outcome under tight budgets — the sequential engine omits such
    /// nodes from its series).
    Infeasible,
    /// The evaluation failed: it panicked, or a fault was injected. The
    /// failure is contained to this point; the rest of the sweep is
    /// unaffected.
    Failed {
        /// The panic payload or injected-fault diagnostic.
        panic_msg: String,
    },
}

impl Outcome {
    /// The evaluated node point, when feasible.
    pub fn node_point(&self) -> Option<NodePoint> {
        match self {
            Outcome::Feasible(p) => Some(*p),
            _ => None,
        }
    }

    /// Whether this point failed (panicked or was fault-injected).
    pub fn is_failed(&self) -> bool {
        matches!(self, Outcome::Failed { .. })
    }

    /// Whether this point was infeasible under its budgets.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, Outcome::Infeasible)
    }

    /// The failure diagnostic, when failed.
    pub fn failure_message(&self) -> Option<&str> {
        match self {
            Outcome::Failed { panic_msg } => Some(panic_msg),
            _ => None,
        }
    }
}

/// The outcome of one [`SweepPoint`], tagged with its submission index.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Position of the point in the submitted batch.
    pub index: usize,
    /// The point that was evaluated.
    pub point: SweepPoint,
    /// How the evaluation ended.
    pub outcome: Outcome,
}

/// How a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Worker thread count. `None` means the `UCORE_SWEEP_THREADS`
    /// environment variable when set, otherwise one thread. One thread
    /// runs fully sequentially on the caller's thread. An explicit
    /// count is always honored (clamped to the batch size).
    pub threads: Option<usize>,
    /// Whether evaluations go through the engine's memoization cache.
    /// Disable for benchmarking the uncached path; results are identical
    /// either way.
    pub use_cache: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { threads: None, use_cache: true }
    }
}

impl SweepConfig {
    /// A sequential, cache-enabled configuration.
    pub fn sequential() -> Self {
        SweepConfig { threads: Some(1), use_cache: true }
    }

    /// The effective worker count for a batch of `jobs` points.
    ///
    /// Unconfigured sweeps run on one thread: spawning the scoped
    /// workers costs a fixed 100–300 µs in a fresh process, and every
    /// sweep `repro --all` runs (25–140 points) is too small to win it
    /// back (cold-sweep measurements in DESIGN.md §10).
    fn effective_threads(&self, jobs: usize) -> usize {
        let requested = self.threads.or_else(env_thread_override).unwrap_or(1);
        requested.max(1).min(jobs.max(1))
    }
}

fn env_thread_override() -> Option<usize> {
    std::env::var("UCORE_SWEEP_THREADS")
        .ok()?
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// Counters from one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Points in the batch (evaluated or answered from cache).
    pub points: usize,
    /// Points that produced a feasible optimum.
    pub points_ok: usize,
    /// Points with no feasible design under their budgets.
    pub points_infeasible: usize,
    /// Points whose evaluation failed (contained panic or injected
    /// fault).
    pub points_failed: usize,
    /// Points outside this process's shard lease, skipped without
    /// evaluation or journaling. Always 0 unless a `--shard I/N` lease
    /// is active; skipped points are excluded from
    /// `points_infeasible`.
    pub points_skipped: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Cache hits during this sweep.
    pub cache_hits: u64,
    /// Cache misses (optimizer runs) during this sweep. Zero when the
    /// sweep ran with the cache disabled.
    pub cache_misses: u64,
    /// Points answered by replaying a run journal (`--resume`) instead
    /// of re-evaluating.
    pub journal_hits: u64,
    /// Retry attempts consumed by this sweep's points. Replayed points
    /// contribute the retry count recorded in the journal, so a
    /// resumed run's health accounting matches the uninterrupted run
    /// exactly.
    pub retries: u64,
    /// Wall time of the evaluation phase.
    pub wall: Duration,
}

/// Process-wide outcome totals across every sweep so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeTotals {
    /// Feasible points.
    pub ok: u64,
    /// Infeasible points.
    pub infeasible: u64,
    /// Failed (contained) points.
    pub failed: u64,
}

/// The process-wide outcome totals (the `repro --stats` /
/// `--max-failures` counters) — since ISSUE 5 a typed view of the
/// `points.ok` / `points.infeasible` / `points.failed` registry
/// counters (see `crate::obs` for the metric-name contract).
pub fn outcome_totals() -> OutcomeTotals {
    let m = obs::metrics();
    OutcomeTotals {
        ok: m.ok.get(),
        infeasible: m.infeasible.get(),
        failed: m.failed.get(),
    }
}

/// A retained failure diagnostic (the first
/// [`MAX_RETAINED_FAILURES`] per process are kept for reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureDiagnostic {
    /// Submission index of the failed point within its sweep.
    pub index: usize,
    /// The contained panic payload or injected-fault message.
    pub panic_msg: String,
}

/// Retention cap for per-process failure diagnostics: enough to
/// diagnose, bounded so a pathological sweep cannot balloon memory.
pub const MAX_RETAINED_FAILURES: usize = 64;

static FAILURE_LOG: Mutex<Vec<FailureDiagnostic>> = Mutex::new(Vec::new());

fn record_failures<'a>(results: impl Iterator<Item = (usize, &'a Outcome)>) {
    let m = obs::metrics();
    let mut log = FAILURE_LOG
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    for (index, outcome) in results {
        if let Outcome::Failed { panic_msg } = outcome {
            if log.len() >= MAX_RETAINED_FAILURES {
                // Keep counting what the bounded log cannot hold, so a
                // flood of failures is visible (`--stats`), not silent.
                m.failures_dropped.inc();
            } else {
                log.push(FailureDiagnostic { index, panic_msg: panic_msg.clone() });
                m.failures_retained.inc();
            }
        }
    }
}

/// Failure diagnostics discarded because the bounded log
/// ([`MAX_RETAINED_FAILURES`]) was already full (the
/// `failures.dropped` registry counter).
pub fn failures_dropped() -> u64 {
    obs::metrics().failures_dropped.get()
}

/// A snapshot of the retained per-process failure diagnostics.
pub fn failure_diagnostics() -> Vec<FailureDiagnostic> {
    FAILURE_LOG
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Evaluates a batch of points, fanning over worker threads.
///
/// Results come back in submission order with their indices, so callers
/// can reassemble figures deterministically. With one thread, the
/// default when no count is configured, the batch runs on the calling
/// thread; the produced results are identical in either mode.
///
/// Evaluation is fault-contained: a panicking point (or one poisoned by
/// the active [`faultinject`] plan) yields [`Outcome::Failed`] for that
/// index while every other point completes normally.
pub fn sweep(
    engine: &ProjectionEngine,
    points: Vec<SweepPoint>,
    config: &SweepConfig,
) -> (Vec<SweepResult>, SweepStats) {
    let threads = config.effective_threads(points.len());
    let plan = faultinject::current_plan();
    let plan = plan.as_deref();
    let dur = durability::current();
    let dur = dur.as_deref();
    // Sweeps execute in a deterministic order for a given command, so
    // the sequence number lines a resumed run's sweeps up with the
    // journaled ones.
    let sweep_seq = dur.map(|d| d.next_sweep_seq()).unwrap_or(0);
    let _span = ucore_obs::span!("project.sweep", sweep_seq, points.len());
    // A shard worker owns only its lease of the batch; everything else
    // is skipped before evaluation, journaling, or fault injection.
    let lease = dur.and_then(|d| d.shard()).map(|spec| spec.lease(points.len()));
    let lease = lease.as_ref();
    let cache_before = engine.cache().stats();
    // ucore-lint: allow(determinism): wall-clock feeds only the SweepStats elapsed field, which is observability metadata excluded from output bytes
    let start = Instant::now();

    let resolutions: Vec<PointResolution> = if threads <= 1 || points.len() <= 1 {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                resolve_point(engine, p, i, config.use_cache, plan, dur, sweep_seq, lease)
            })
            .collect()
    } else {
        parallel_resolutions(
            engine, &points, threads, config.use_cache, plan, dur, sweep_seq, lease,
        )
    };
    // One batch-final fsync bounds journal loss to the in-flight tail.
    if let Some(d) = dur {
        d.sync();
    }

    let wall = start.elapsed();
    let cache_after = engine.cache().stats();
    let points_ok = resolutions
        .iter()
        .filter(|r| r.outcome.node_point().is_some())
        .count();
    let points_skipped = resolutions.iter().filter(|r| r.skipped).count();
    let points_infeasible = resolutions
        .iter()
        .filter(|r| r.outcome.is_infeasible() && !r.skipped)
        .count();
    let points_failed = resolutions.iter().filter(|r| r.outcome.is_failed()).count();
    let journal_hits = resolutions.iter().filter(|r| r.replayed).count() as u64;
    let retries: u64 = resolutions.iter().map(|r| u64::from(r.retries)).sum();
    let m = obs::metrics();
    m.sweep_batches.inc();
    m.submitted.add(points.len() as u64);
    m.ok.add(points_ok as u64);
    m.infeasible.add(points_infeasible as u64);
    m.failed.add(points_failed as u64);
    if points_skipped > 0 {
        m.shard_points_skipped.add(points_skipped as u64);
    }
    // Feasible speedups are model outputs, so this histogram is part of
    // the deterministic snapshot (bucket counts are order-independent).
    for speedup in resolutions
        .iter()
        .filter_map(|r| r.outcome.node_point().map(|p| p.speedup))
    {
        m.speedup.observe(speedup);
    }
    durability::note_journal_hits(journal_hits);
    if points_failed > 0 {
        record_failures(
            resolutions.iter().enumerate().map(|(i, r)| (i, &r.outcome)),
        );
    }
    let stats = SweepStats {
        points: points.len(),
        points_ok,
        points_infeasible,
        points_failed,
        points_skipped,
        threads,
        cache_hits: cache_after.hits - cache_before.hits,
        cache_misses: cache_after.misses - cache_before.misses,
        journal_hits,
        retries,
        wall,
    };
    record_phase(stats);
    let results = points
        .into_iter()
        .zip(resolutions)
        .enumerate()
        .map(|(index, (point, resolution))| SweepResult {
            index,
            point,
            outcome: resolution.outcome,
        })
        .collect();
    (results, stats)
}

/// Retention cap for the per-process phase log: far above the sweeps
/// one `repro` command runs, and bounded so a long-lived `served`,
/// which never drains the log, does not grow with every request.
pub const MAX_RETAINED_PHASES: usize = 64;

/// The first [`MAX_RETAINED_PHASES`] completed sweeps since the last
/// drain, in completion order — the "wall time per phase" log behind
/// `repro --stats`.
static PHASE_LOG: Mutex<Vec<SweepStats>> = Mutex::new(Vec::new());

fn record_phase(stats: SweepStats) {
    let mut log = PHASE_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    if log.len() < MAX_RETAINED_PHASES {
        log.push(stats);
    }
}

/// Drains and returns the per-sweep phase log accumulated so far (at
/// most [`MAX_RETAINED_PHASES`] entries).
pub fn drain_phase_log() -> Vec<SweepStats> {
    std::mem::take(
        &mut *PHASE_LOG.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// How one point was resolved: the outcome, plus the durability
/// accounting the sweep folds into its stats.
#[derive(Debug, Clone)]
struct PointResolution {
    outcome: Outcome,
    /// Retry attempts consumed (journaled value when replayed).
    retries: u32,
    /// Whether the outcome came from the replayed journal.
    replayed: bool,
    /// Whether the point was outside this worker's shard lease and
    /// skipped without evaluation (its `Infeasible` outcome is a
    /// placeholder, not a model result).
    skipped: bool,
}

/// Resolves one point through the full durability pipeline:
///
/// 1. **Replay** — with a resumed journal active, a matching
///    `(sweep, index, fingerprint)` record answers the point without
///    re-evaluation (a journal hit). A record whose fingerprint does
///    not match the live point (stale journal) is ignored.
/// 2. **Kill fault** — `kill@i` aborts the process here, after an
///    fsync, modelling a `kill -9` between two completed points.
/// 3. **Evaluate + retry** — the contained evaluation runs; a `Failed`
///    outcome is retried up to the configured budget with
///    deterministic backoff ([`durability::backoff_delay`]).
/// 4. **Journal** — the settled outcome (and its retry count) is
///    appended to the run journal.
///
/// With a shard `lease` active, an out-of-lease point short-circuits
/// *before* any of the above: it is not evaluated, not journaled, and
/// no injected fault fires for it — only the worker that owns a point
/// can crash on it.
#[allow(clippy::too_many_arguments)]
fn resolve_point(
    engine: &ProjectionEngine,
    point: &SweepPoint,
    index: usize,
    use_cache: bool,
    plan: Option<&FaultPlan>,
    dur: Option<&DurabilityContext>,
    sweep_seq: u64,
    lease: Option<&Range<usize>>,
) -> PointResolution {
    if lease.is_some_and(|l| !l.contains(&index)) {
        return PointResolution {
            outcome: Outcome::Infeasible,
            retries: 0,
            replayed: false,
            skipped: true,
        };
    }
    let _span = ucore_obs::span!("engine.node_point", sweep_seq, index);
    let fingerprint = dur.map(|_| journal::point_fingerprint(point));
    if let (Some(d), Some(fp)) = (dur, fingerprint) {
        match d.lookup(sweep_seq, index, fp) {
            ReplayLookup::Hit(rec) => {
                return PointResolution {
                    outcome: rec.outcome.clone(),
                    retries: rec.retries,
                    replayed: true,
                    skipped: false,
                }
            }
            ReplayLookup::Stale => durability::note_journal_stale(1),
            ReplayLookup::Miss => {}
        }
    }
    if plan.and_then(|p| p.fault_at(index)) == Some(Fault::Kill) {
        // A deterministic crash for the durability suite: flush every
        // completed point, then die without unwinding — exactly what a
        // kill -9 between two points leaves behind.
        if let Some(d) = dur {
            d.sync();
        }
        std::process::abort();
    }
    let max_retries = dur.map(|d| d.retries()).unwrap_or(0);
    let timeout = dur.and_then(|d| d.timeout());
    let mut attempt: u32 = 0;
    // Wall time routed through the sanctioned obs clock: it feeds only
    // the `sweep.point_us` timing histogram, never output bytes.
    let eval_started_ns = ucore_obs::clock::wall_ns();
    let outcome = loop {
        let outcome = evaluate_contained(engine, point, index, use_cache, plan, attempt, timeout);
        if !outcome.is_failed() || attempt >= max_retries {
            break outcome;
        }
        std::thread::sleep(durability::backoff_delay(index, attempt));
        attempt += 1;
    };
    let elapsed_us = ucore_obs::clock::wall_ns().saturating_sub(eval_started_ns) / 1_000;
    obs::metrics().point_us.observe(elapsed_us as f64);
    if attempt > 0 {
        durability::note_retries(u64::from(attempt));
    }
    if let (Some(d), Some(fp)) = (dur, fingerprint) {
        if d.journaling() {
            d.append(&JournalRecord {
                sweep_seq,
                index,
                fingerprint: fp,
                retries: attempt,
                outcome: outcome.clone(),
            });
        }
    }
    PointResolution { outcome, retries: attempt, replayed: false, skipped: false }
}

/// How often the stall detector samples worker heartbeats, and how far
/// past the deadline a point must run before it is reported (the grace
/// leaves room for the cooperative checkpoint to fire first).
const STALL_DETECTOR_PERIOD: Duration = Duration::from_millis(10);
const STALL_DETECTOR_GRACE: Duration = Duration::from_millis(250);

/// Work-queue fan-out: workers claim indices from a shared atomic
/// counter, collect `(index, resolution)` pairs locally, and the merged
/// pairs are slotted back into submission order. A worker that dies
/// mid-batch (impossible while per-point containment holds, but the
/// join is defensive anyway) surfaces as `Failed` outcomes for the
/// points it never delivered — never as a whole-sweep abort.
///
/// When a watchdog deadline is configured, workers stamp a per-worker
/// heartbeat around each point, and one extra *stall detector* thread
/// samples those heartbeats and warns on stderr about any
/// point running well past its deadline. The detector is observability
/// only: results always come from the workers, so its scheduling can
/// never affect output bytes. It shuts down *promptly*: the sweep's
/// finish signal is a condvar notification, so the detector's join
/// never waits out a sampling period — a serving process can drain a
/// sweep without leaking (or stalling on) detector threads.
#[allow(clippy::too_many_arguments)]
fn parallel_resolutions(
    engine: &ProjectionEngine,
    points: &[SweepPoint],
    threads: usize,
    use_cache: bool,
    plan: Option<&FaultPlan>,
    dur: Option<&DurabilityContext>,
    sweep_seq: u64,
    lease: Option<&Range<usize>>,
) -> Vec<PointResolution> {
    let next = AtomicUsize::new(0);
    let signal = StallSignal::new();
    // Heartbeats exist only for the stall detector, which runs only
    // under a watchdog deadline; without one, workers take no locks.
    let watchdog = dur.and_then(|d| d.timeout());
    let heartbeats: Vec<Mutex<Option<(usize, Instant)>>> = match watchdog {
        Some(_) => (0..threads).map(|_| Mutex::new(None)).collect(),
        None => Vec::new(),
    };
    let (tagged, worker_panics) = std::thread::scope(|scope| {
        let detector = watchdog.map(|budget| {
            let signal = &signal;
            let heartbeats = &heartbeats;
            scope.spawn(move || {
                stall_detector(budget, STALL_DETECTOR_PERIOD, signal, heartbeats)
            })
        });
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let next = &next;
                let heartbeat = heartbeats.get(w);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(i) else {
                            break;
                        };
                        if let Some(heartbeat) = heartbeat {
                            // ucore-lint: allow(determinism): the heartbeat timestamp is watchdog observability only and never reaches serialized output
                            let stamp = Instant::now();
                            *heartbeat.lock().unwrap_or_else(PoisonError::into_inner) =
                                Some((i, stamp));
                        }
                        local.push((
                            i,
                            resolve_point(
                                engine, point, i, use_cache, plan, dur, sweep_seq, lease,
                            ),
                        ));
                        if let Some(heartbeat) = heartbeat {
                            *heartbeat.lock().unwrap_or_else(PoisonError::into_inner) = None;
                        }
                    }
                    local
                })
            })
            .collect();
        let mut tagged: Vec<(usize, PointResolution)> = Vec::with_capacity(points.len());
        let mut worker_panics: Vec<String> = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(local) => tagged.extend(local),
                Err(payload) => worker_panics.push(panic_message(payload.as_ref())),
            }
        }
        signal.finish();
        if let Some(detector) = detector {
            let _ = detector.join();
        }
        (tagged, worker_panics)
    });

    // Slot tagged resolutions into submission order; indices a dead
    // worker never delivered degrade to Failed.
    let mut slots: Vec<Option<PointResolution>> = vec![None; points.len()];
    for (i, resolution) in tagged {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(resolution);
        }
    }
    let worker_msg = if worker_panics.is_empty() {
        String::from("sweep worker terminated before delivering this point")
    } else {
        format!("sweep worker panicked: {}", worker_panics.join("; "))
    };
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| PointResolution {
                outcome: Outcome::Failed { panic_msg: worker_msg.clone() },
                retries: 0,
                replayed: false,
                skipped: false,
            })
        })
        .collect()
}

/// The sweep-finished signal the stall detector parks on. A condvar —
/// not a polled flag — so `finish()` wakes the detector mid-period and
/// its join is immediate rather than bounded by the sampling period
/// (the PR 3 detector slept out its period before noticing `done`,
/// which a draining server cannot afford).
struct StallSignal {
    done: Mutex<bool>,
    cv: Condvar,
}

impl StallSignal {
    fn new() -> Self {
        StallSignal { done: Mutex::new(false), cv: Condvar::new() }
    }

    /// Marks the sweep finished and wakes the detector immediately.
    fn finish(&self) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }

    /// Parks for up to `period` (or until [`StallSignal::finish`]);
    /// returns whether the sweep has finished.
    fn wait_finished(&self, period: Duration) -> bool {
        let guard = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        if *guard {
            return true;
        }
        let (guard, _timed_out) = self
            .cv
            .wait_timeout(guard, period)
            .unwrap_or_else(PoisonError::into_inner);
        *guard
    }
}

/// The stall-detector loop: samples worker heartbeats every `period`
/// until the sweep finishes, warning once per point that overstays its
/// deadline. Returns as soon as `signal` reports the sweep done.
fn stall_detector(
    budget: Duration,
    period: Duration,
    signal: &StallSignal,
    heartbeats: &[Mutex<Option<(usize, Instant)>>],
) {
    let mut warned: Vec<usize> = Vec::new();
    loop {
        if signal.wait_finished(period) {
            return;
        }
        for (worker, heartbeat) in heartbeats.iter().enumerate() {
            let sample = *heartbeat.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((index, started)) = sample {
                if started.elapsed() > budget + STALL_DETECTOR_GRACE
                    && !warned.contains(&index)
                {
                    warned.push(index);
                    eprintln!(
                        "warning: stall detector: point {index} on worker {worker} is \
                         {} ms past its {} ms deadline; waiting for cooperative \
                         cancellation",
                        (started.elapsed() - budget).as_millis(),
                        budget.as_millis(),
                    );
                }
            }
        }
    }
}

/// Evaluates one point inside a panic boundary, applying any injected
/// fault first. Injected parameter faults route the poisoned scalar
/// through the model's ingress validation, so the typed rejection —
/// never a raw NaN — becomes the contained failure. The injected
/// cache-layer error returns before any cache access, so the shared
/// memo table cannot be polluted by it.
///
/// With a watchdog `timeout` configured the deadline is armed for the
/// duration of the evaluation: [`durability::watchdog_checkpoint`]
/// calls inside the engine convert an overrunning point into a
/// contained panic, and an injected stall fault is released with a
/// deterministic `Failed{timeout}` as soon as the budget expires.
fn evaluate_contained(
    engine: &ProjectionEngine,
    point: &SweepPoint,
    index: usize,
    use_cache: bool,
    plan: Option<&FaultPlan>,
    attempt: u32,
    timeout: Option<Duration>,
) -> Outcome {
    let fault = plan.and_then(|p| p.fault_for_attempt(index, attempt));
    match fault {
        Some(Fault::NanParam) => return injected_param_fault(index, f64::NAN),
        Some(Fault::InfParam) => return injected_param_fault(index, f64::INFINITY),
        Some(Fault::CacheError) => {
            return Outcome::Failed {
                panic_msg: format!(
                    "injected cache-layer error at point {index}: memo lookup failed"
                ),
            }
        }
        Some(Fault::Stall) => return stalled_point(index, timeout),
        // Kill is handled (and aborts) in `resolve_point` before any
        // evaluation; reaching it here would mean a caller bypassed the
        // durability pipeline, so honor the crash semantics anyway.
        Some(Fault::Kill) => std::process::abort(),
        // Disk faults fire at the journal append, not the evaluation:
        // the point itself computes normally.
        Some(Fault::DiskEnospc | Fault::DiskEio) => {}
        Some(Fault::Panic) | None => {}
    }
    if let Some(budget) = timeout {
        durability::arm_watchdog(budget);
    }
    let caught = catch_unwind_quietly(|| {
        if matches!(fault, Some(Fault::Panic)) {
            // ucore-lint: allow(panic-reachability): deliberate fault injection exercising the containment boundary that catches it two lines down
            panic!("injected panic at point {index}");
        }
        evaluate(engine, point, use_cache)
    });
    durability::disarm_watchdog();
    match caught {
        Ok(Some(node_point)) => Outcome::Feasible(node_point),
        Ok(None) => Outcome::Infeasible,
        Err(panic_msg) => Outcome::Failed { panic_msg },
    }
}

/// Cap on an injected stall when no watchdog deadline is configured:
/// the stall still terminates (with a distinct diagnostic) instead of
/// hanging a run forever.
const UNWATCHED_STALL_CAP: Duration = Duration::from_secs(30);

/// An injected stall: the point hangs — sleeping in short slices, like
/// stuck evaluation code polling a dead resource — until the watchdog
/// budget expires and releases it as a deterministic `Failed{timeout}`.
fn stalled_point(index: usize, timeout: Option<Duration>) -> Outcome {
    // ucore-lint: allow(determinism): the injected stall's clock decides only *when* the deterministic timeout message is released, never its bytes
    let started = Instant::now();
    loop {
        match timeout {
            Some(budget) if started.elapsed() >= budget => {
                return Outcome::Failed {
                    panic_msg: durability::timeout_message(index, budget),
                }
            }
            None if started.elapsed() >= UNWATCHED_STALL_CAP => {
                return Outcome::Failed {
                    panic_msg: format!(
                        "injected stall at point {index} ran {} s with no watchdog \
                         deadline configured; releasing",
                        UNWATCHED_STALL_CAP.as_secs()
                    ),
                }
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// A poisoned scalar pushed through ingress validation: the typed
/// `ModelError` it earns is the point's failure diagnostic.
fn injected_param_fault(index: usize, bad: f64) -> Outcome {
    let rejection = match ParallelFraction::new(bad) {
        Err(e) => e.to_string(),
        Ok(_) => String::from("ingress validation unexpectedly accepted it"),
    };
    Outcome::Failed {
        panic_msg: format!("injected {bad} parameter at point {index}: {rejection}"),
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Runs `f` under [`std::panic::catch_unwind`] with the process panic
/// hook silenced on this thread, returning the panic's message if `f`
/// panics. Contained faults are reported through the caller's own
/// channel (an [`Outcome`], an HTTP error), not stderr noise.
///
/// Calls nest: on exit the quiet flag returns to its earlier value, so
/// a sweep inside a contained render leaves the render still silenced.
///
/// # Errors
///
/// Returns the panic payload's text (see `panic_message`) when `f`
/// panics.
pub fn catch_unwind_quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_panic_hook();
    let earlier = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let caught = std::panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(earlier));
    caught.map_err(|payload| panic_message(payload.as_ref()))
}

thread_local! {
    /// Set while [`catch_unwind_quietly`] runs on this thread, so the
    /// process panic hook stays silent for panics it is about to catch.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once) a panic hook that swallows output for panics raised
/// inside [`catch_unwind_quietly`] and delegates everything else to the
/// previous hook.
fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                previous(info);
            }
        }));
    });
}

fn evaluate(
    engine: &ProjectionEngine,
    point: &SweepPoint,
    use_cache: bool,
) -> Option<NodePoint> {
    // Portfolio designs have no single-U-core chip spec: they sweep the
    // Multi-Amdahl allocator instead of the cached optimizer.
    if let DesignId::Portfolio(design) = point.design {
        return engine.portfolio_point(design, &point.node, &point.budgets, point.f);
    }
    let spec = engine.chip_spec(point.design, point.column)?;
    engine.node_point(&spec, &point.node, &point.budgets, point.f, use_cache)
}

/// Builds the sweep batch for one figure: every `(f, design, node)`
/// combination in nesting order (`f` outermost, node innermost), with
/// budgets resolved per node and the bandwidth exemption applied.
///
/// # Errors
///
/// Propagates calibration errors from budget derivation and invalid
/// parallel fractions, exactly as the sequential figure builder does.
pub fn figure_points(
    engine: &ProjectionEngine,
    designs: &[DesignId],
    column: WorkloadColumn,
    f_values: &[f64],
) -> Result<Vec<SweepPoint>, crate::engine::ProjectionError> {
    let nodes = engine.scenario().roadmap().nodes().to_vec();
    let mut points = Vec::with_capacity(f_values.len() * designs.len() * nodes.len());
    for &fv in f_values {
        let f = ParallelFraction::new(fv).map_err(|e| {
            crate::engine::ProjectionError::Infeasible { reason: e.to_string() }
        })?;
        for &design in designs {
            let exempt = ProjectionEngine::bandwidth_exempt(design, column);
            for node in &nodes {
                let budgets = engine.budgets(node, column, exempt)?;
                points.push(SweepPoint { design, column, node: *node, budgets, f });
            }
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use std::sync::Arc;
    use ucore_core::EvalCache;

    fn engine() -> ProjectionEngine {
        // A private cache per test engine keeps stats assertions exact.
        ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
            .unwrap()
    }

    fn batch(e: &ProjectionEngine) -> Vec<SweepPoint> {
        let designs = DesignId::for_column(e.table5(), WorkloadColumn::Fft1024);
        figure_points(e, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9, 0.99]).unwrap()
    }

    #[test]
    fn parallel_equals_sequential() {
        let e = engine();
        let points = batch(&e);
        let (seq, _) = sweep(&e, points.clone(), &SweepConfig {
            threads: Some(1),
            use_cache: false,
        });
        for threads in [2, 4, 7] {
            let (par, stats) = sweep(&e, points.clone(), &SweepConfig {
                threads: Some(threads),
                use_cache: false,
            });
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.index, p.index);
                assert_eq!(s.outcome, p.outcome, "index {}", s.index);
            }
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.cache_misses, 0, "cache was disabled");
        }
    }

    #[test]
    fn cached_equals_uncached() {
        let _env = ThreadsEnv::lock();
        let e = engine();
        let points = batch(&e);
        let (plain, _) =
            sweep(&e, points.clone(), &SweepConfig { threads: Some(1), use_cache: false });
        let (cached_cold, cold) =
            sweep(&e, points.clone(), &SweepConfig { threads: None, use_cache: true });
        let (cached_warm, warm) =
            sweep(&e, points, &SweepConfig { threads: None, use_cache: true });
        for (a, b) in plain.iter().zip(&cached_cold) {
            assert_eq!(a.outcome, b.outcome, "cold index {}", a.index);
        }
        for (a, b) in plain.iter().zip(&cached_warm) {
            assert_eq!(a.outcome, b.outcome, "warm index {}", a.index);
        }
        assert!(cold.cache_misses > 0);
        assert_eq!(warm.cache_misses, 0, "second pass is fully memoized");
        assert_eq!(warm.cache_hits as usize, warm.points);
    }

    #[test]
    fn results_are_in_submission_order() {
        let _env = ThreadsEnv::lock();
        let e = engine();
        let points = batch(&e);
        let n = points.len();
        let (results, stats) = sweep(&e, points, &SweepConfig::default());
        assert_eq!(results.len(), n);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        assert_eq!(stats.points, n);
        assert_eq!(stats.points_ok + stats.points_infeasible + stats.points_failed, n);
        assert_eq!(stats.points_failed, 0, "healthy sweeps have no failures");
        assert!(stats.threads >= 1);
    }

    #[test]
    fn figure_points_cover_the_grid_in_nesting_order() {
        let e = engine();
        let designs = DesignId::for_column(e.table5(), WorkloadColumn::Fft1024);
        let nodes = e.scenario().roadmap().nodes().len();
        let points =
            figure_points(&e, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9]).unwrap();
        assert_eq!(points.len(), 2 * designs.len() * nodes);
        // f outermost, then design, then node.
        assert_eq!(points[0].f.get(), 0.5);
        assert_eq!(points[nodes].design, designs[1]);
        assert_eq!(points[designs.len() * nodes].f.get(), 0.9);
    }

    #[test]
    fn infeasible_cells_come_back_as_infeasible() {
        let _env = ThreadsEnv::lock();
        // The 10 W scenario starves power-hungry symmetric designs at
        // early nodes.
        let e = ProjectionEngine::with_cache(
            Scenario::s5_low_power(),
            Arc::new(EvalCache::new()),
        )
        .unwrap();
        let points =
            figure_points(&e, &[DesignId::SymCmp], WorkloadColumn::Fft1024, &[0.999])
                .unwrap();
        let (results, stats) = sweep(&e, points, &SweepConfig::default());
        assert!(stats.points_infeasible > 0, "10 W starves early nodes");
        assert_eq!(stats.points_failed, 0, "infeasible is not failed");
        // The sequential engine omits infeasible nodes; the sweep marks
        // them Infeasible. Both views must agree.
        let sequential = e
            .project(
                DesignId::SymCmp,
                WorkloadColumn::Fft1024,
                ParallelFraction::new(0.999).unwrap(),
            )
            .unwrap();
        let feasible: Vec<_> =
            results.iter().filter_map(|r| r.outcome.node_point()).collect();
        assert_eq!(feasible, sequential);
    }

    /// Serializes the tests that read or set `UCORE_SWEEP_THREADS`, the
    /// one piece of process state the thread resolution depends on.
    static THREADS_ENV: Mutex<()> = Mutex::new(());

    /// Holds [`THREADS_ENV`] and, when dropped, puts
    /// `UCORE_SWEEP_THREADS` back as it found it, so a pin set for the
    /// whole test run survives the tests that change it.
    struct ThreadsEnv {
        saved: Option<std::ffi::OsString>,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl ThreadsEnv {
        fn lock() -> Self {
            let lock = THREADS_ENV.lock().unwrap_or_else(PoisonError::into_inner);
            ThreadsEnv { saved: std::env::var_os("UCORE_SWEEP_THREADS"), _lock: lock }
        }

        fn set(&self, value: Option<&std::ffi::OsStr>) {
            match value {
                Some(v) => std::env::set_var("UCORE_SWEEP_THREADS", v),
                None => std::env::remove_var("UCORE_SWEEP_THREADS"),
            }
        }
    }

    impl Drop for ThreadsEnv {
        fn drop(&mut self) {
            self.set(self.saved.as_deref());
        }
    }

    /// Figure 6's batch: the FFT column at the figure's four `f` values.
    fn figure6_batch(e: &ProjectionEngine) -> Vec<SweepPoint> {
        let designs = DesignId::for_column(e.table5(), WorkloadColumn::Fft1024);
        figure_points(e, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9, 0.99, 0.999])
            .unwrap()
    }

    #[test]
    fn default_config_runs_a_figure_batch_inline() {
        let env = ThreadsEnv::lock();
        env.set(None);
        let e = engine();
        let (_, stats) = sweep(&e, figure6_batch(&e), &SweepConfig::default());
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn explicit_thread_counts_are_honored() {
        let env = ThreadsEnv::lock();
        let e = engine();
        let points = figure6_batch(&e);
        let (_, stats) =
            sweep(&e, points.clone(), &SweepConfig { threads: Some(3), use_cache: true });
        assert_eq!(stats.threads, 3, "SweepConfig.threads");
        env.set(Some("3".as_ref()));
        let (_, stats) = sweep(&e, points, &SweepConfig::default());
        assert_eq!(stats.threads, 3, "UCORE_SWEEP_THREADS");
    }

    #[test]
    fn stall_detector_joins_promptly_on_the_finish_signal() {
        // Regression: the PR 3 detector slept out its full sampling
        // period before checking `done`, so with a long period a join
        // would hang. The condvar signal must wake it immediately.
        let signal = StallSignal::new();
        let heartbeats: Vec<Mutex<Option<(usize, Instant)>>> = vec![Mutex::new(None)];
        let started = Instant::now();
        std::thread::scope(|scope| {
            let detector = scope.spawn(|| {
                stall_detector(
                    Duration::from_millis(50),
                    Duration::from_secs(3600), // one wait would outlive the test
                    &signal,
                    &heartbeats,
                )
            });
            std::thread::sleep(Duration::from_millis(20));
            signal.finish();
            detector.join().unwrap();
        });
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "detector must join on the signal, not the period ({:?})",
            started.elapsed()
        );
    }

    #[test]
    fn stall_signal_already_finished_returns_without_parking() {
        let signal = StallSignal::new();
        signal.finish();
        let started = Instant::now();
        assert!(signal.wait_finished(Duration::from_secs(3600)));
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn panic_message_extracts_both_payload_shapes() {
        let s: Box<dyn Any + Send> = Box::new("static str payload");
        assert_eq!(panic_message(s.as_ref()), "static str payload");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned payload"));
        assert_eq!(panic_message(owned.as_ref()), "owned payload");
        let other: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    #[test]
    fn nested_containment_leaves_the_outer_call_silenced() {
        let outer = catch_unwind_quietly(|| {
            assert_eq!(catch_unwind_quietly(|| 7), Ok(7));
            let inner_ok = SUPPRESS_PANIC_OUTPUT.with(Cell::get);
            let inner: Result<(), String> = catch_unwind_quietly(|| panic!("inner fault"));
            assert_eq!(inner, Err(String::from("inner fault")));
            (inner_ok, SUPPRESS_PANIC_OUTPUT.with(Cell::get))
        });
        assert_eq!(outer, Ok((true, true)));
        assert!(!SUPPRESS_PANIC_OUTPUT.with(Cell::get));
    }
}
