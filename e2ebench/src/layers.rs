//! The in-process half of the traced run: each layer's public entry
//! point called directly under a span, so its cost is measured without
//! process start, sockets or the layers above it.

use crate::digest::DigestTable;
use crate::served::{self, Route, Verdict};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Metrics, Tally};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use ucore_bench::render::{self, Target};
use ucore_calibrate::{Table5, WorkloadColumn};
use ucore_core::EvalCache;
use ucore_project::journal::{self, JournalRecord, JournalWriter};
use ucore_project::{
    figure_points, point_fingerprint, sweep, DesignId, ProjectionEngine, Scenario, SweepConfig,
    SweepPoint,
};

/// Repetitions of each cheap call; medians are taken over them.
const REPS: usize = 15;
/// Repetitions of each sweep configuration per figure.
const SWEEP_REPS: usize = 7;

/// The sweep batch behind one projection figure, mirroring
/// `ucore_project::figures`.
struct FigureBatch {
    name: &'static str,
    scenario: fn() -> Scenario,
    column: WorkloadColumn,
    f: &'static [f64],
    portfolio: bool,
}

const FIGURES: [FigureBatch; 6] = [
    FigureBatch {
        name: "figure-6",
        scenario: Scenario::baseline,
        column: WorkloadColumn::Fft1024,
        f: &[0.5, 0.9, 0.99, 0.999],
        portfolio: false,
    },
    FigureBatch {
        name: "figure-7",
        scenario: Scenario::baseline,
        column: WorkloadColumn::Mmm,
        f: &[0.5, 0.9, 0.99, 0.999],
        portfolio: false,
    },
    FigureBatch {
        name: "figure-8",
        scenario: Scenario::baseline,
        column: WorkloadColumn::Bs,
        f: &[0.5, 0.9],
        portfolio: false,
    },
    FigureBatch {
        name: "figure-9",
        scenario: Scenario::s2_high_bandwidth,
        column: WorkloadColumn::Fft1024,
        f: &[0.5, 0.9, 0.99, 0.999],
        portfolio: false,
    },
    FigureBatch {
        name: "figure-10",
        scenario: Scenario::baseline,
        column: WorkloadColumn::Mmm,
        f: &[0.5, 0.9, 0.99],
        portfolio: false,
    },
    FigureBatch {
        name: "figure-11",
        scenario: Scenario::baseline,
        column: WorkloadColumn::Mmm,
        f: &[0.9, 0.99, 0.999],
        portfolio: true,
    },
];

/// What the in-process profile hands back besides its metrics: the
/// median in-process `handle` time of each route, which the socket
/// probe subtracts to get the server's own wait.
pub struct Profile {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Median `ucore_serve::handle` time per route index.
    pub handle: Vec<Duration>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `reps` timed calls of `f` under spans named `name`.
fn timed<T>(
    tr: &Tracer,
    parent: Option<u32>,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> Duration {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            tr.span(name, parent, |_| std::hint::black_box(f()))
                .1
                .as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&samples))
}

fn fresh_engine(batch: &FigureBatch) -> Result<ProjectionEngine, String> {
    ProjectionEngine::with_cache((batch.scenario)(), Arc::new(EvalCache::new()))
        .map_err(|e| e.to_string())
}

fn batch_points(engine: &ProjectionEngine, batch: &FigureBatch) -> Result<Vec<SweepPoint>, String> {
    let designs = if batch.portfolio {
        DesignId::portfolio_designs()
    } else {
        DesignId::for_column(engine.table5(), batch.column)
    };
    figure_points(engine, &designs, batch.column, batch.f).map_err(|e| e.to_string())
}

/// Runs the whole in-process profile.
pub fn profile(
    tr: &Tracer,
    parent: Option<u32>,
    digests: &DigestTable,
    tally: &Tally,
    routes: &[Route],
    work: &Path,
) -> Result<Profile, String> {
    let mut m = Metrics::default();
    let ((), _) = tr.span("layer.calibrate", parent, |p| {
        m.push(
            "calibrate.table5_us",
            us(timed(tr, p, "calibrate.table5", REPS, Table5::derive)),
            "us",
        );
        m.push(
            "engine.new_us",
            us(timed(tr, p, "engine.new", REPS, || {
                ProjectionEngine::new(Scenario::baseline())
            })),
            "us",
        );
    });
    let (swept, _) = tr.span("layer.sweep", parent, |p| sweep_layer(tr, p, tally, &mut m));
    let first_batch = swept?;
    let (journaled, _) = tr.span("layer.journal", parent, |p| {
        journal_layer(tr, p, &first_batch, work, &mut m)
    });
    journaled?;
    let (rendered, _) = tr.span("layer.render", parent, |p| {
        render_layer(tr, p, digests, tally, &mut m)
    });
    rendered?;
    let (handle, _) = tr.span("layer.service", parent, |p| {
        service_layer(tr, p, digests, tally, routes, &mut m)
    });
    Ok(Profile { metrics: m, handle })
}

/// Sweeps every projection figure's batch cold and warm, at one thread
/// and at the default count, plus once uncached for the optimizer's
/// per-point cost. Returns figure 6's first cold results for the
/// journal layer.
fn sweep_layer(
    tr: &Tracer,
    p: Option<u32>,
    tally: &Tally,
    m: &mut Metrics,
) -> Result<Vec<ucore_project::SweepResult>, String> {
    let seq = SweepConfig {
        threads: Some(1),
        use_cache: true,
    };
    let par = SweepConfig {
        threads: None,
        use_cache: true,
    };
    let uncached = SweepConfig {
        threads: Some(1),
        use_cache: false,
    };
    let (mut points_us, mut points_total, mut optimize_us) = (0.0, 0usize, 0.0);
    let mut totals = [0.0f64; 4]; // cold seq, cold par, warm seq, warm par
    let mut first = Vec::new();
    for batch in &FIGURES {
        let engine = fresh_engine(batch)?;
        let points = batch_points(&engine, batch)?;
        points_us += us(timed(tr, p, "sweep.figure_points", REPS, || {
            batch_points(&engine, batch)
        }));
        points_total += points.len();
        let mut samples = [vec![], vec![], vec![], vec![]];
        for _ in 0..SWEEP_REPS {
            for (cold, warm, config) in [(0, 2, &seq), (1, 3, &par)] {
                let engine = fresh_engine(batch)?;
                let (a, t_cold) =
                    tr.span("sweep.cold", p, |_| sweep(&engine, points.clone(), config));
                let (b, t_warm) =
                    tr.span("sweep.warm", p, |_| sweep(&engine, points.clone(), config));
                for (x, y) in a.0.iter().zip(&b.0) {
                    // Debug text, so NaN fields (energy on speedup-only
                    // points) compare equal to themselves.
                    let same = format!("{:?}", x.outcome) == format!("{:?}", y.outcome);
                    let ok = same && !x.outcome.is_failed();
                    tally.check(ok, || {
                        format!(
                            "{}: point {} differs between cold and warm sweeps",
                            batch.name, x.index
                        )
                    });
                }
                samples[cold].push(t_cold.as_secs_f64());
                samples[warm].push(t_warm.as_secs_f64());
                if first.is_empty() {
                    first = a.0;
                }
            }
        }
        optimize_us += us(timed(tr, p, "sweep.uncached", 3, || {
            sweep(&engine, points.clone(), &uncached)
        }));
        let med: Vec<f64> = samples.iter().map(|s| median(s) * 1e6).collect();
        for (t, v) in totals.iter_mut().zip(&med) {
            *t += v;
        }
        m.push(
            format!("sweep.par_over_seq.cold.{}", batch.name),
            med[1] / med[0],
            "ratio",
        );
        m.push(
            format!("sweep.par_over_seq.warm.{}", batch.name),
            med[3] / med[2],
            "ratio",
        );
    }
    m.push("sweep.figure_points_us", points_us, "us");
    m.push("sweep.cold_seq_us", totals[0], "us");
    m.push("sweep.cold_par_us", totals[1], "us");
    m.push("sweep.warm_seq_us", totals[2], "us");
    m.push("sweep.warm_par_us", totals[3], "us");
    m.push("sweep.par_over_seq.cold", totals[1] / totals[0], "ratio");
    m.push("sweep.par_over_seq.warm", totals[3] / totals[2], "ratio");
    m.push(
        "sweep.threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    m.push(
        "optimize.point_us",
        optimize_us / points_total.max(1) as f64,
        "us",
    );
    Ok(first)
}

/// Appends figure 6's outcomes to a fresh journal, syncs it, and
/// replays it.
fn journal_layer(
    tr: &Tracer,
    p: Option<u32>,
    results: &[ucore_project::SweepResult],
    work: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let path = work.join("layer.journal");
    let records: Vec<JournalRecord> = results
        .iter()
        .map(|r| JournalRecord {
            sweep_seq: 0,
            index: r.index,
            fingerprint: point_fingerprint(&r.point),
            retries: 0,
            outcome: r.outcome.clone(),
        })
        .collect();
    let (mut appends, mut replays) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let _ = std::fs::remove_file(&path);
        let mut writer = JournalWriter::create(&path).map_err(|e| e.to_string())?;
        for record in &records {
            let (r, d) = tr.span("journal.append", p, |_| writer.append(record));
            r.map_err(|e| e.to_string())?;
            appends.push(d.as_secs_f64());
        }
        tr.span("journal.sync", p, |_| writer.sync())
            .0
            .map_err(|e| e.to_string())?;
        drop(writer);
        let (replayed, d) = tr.span("journal.replay", p, |_| journal::replay(&path));
        let (_, report) = replayed.map_err(|e| e.to_string())?;
        if report.records != records.len() {
            return Err(format!(
                "journal replayed {} of {} records",
                report.records,
                records.len()
            ));
        }
        replays.push(d.as_secs_f64());
    }
    let _ = std::fs::remove_file(&path);
    m.push("journal.append_us", median(&appends) * 1e6, "us");
    m.push("journal.replay_us", median(&replays) * 1e6, "us");
    Ok(())
}

/// Every render target, with its digest key and the projection it
/// contains (if any).
fn targets() -> Vec<(&'static str, Target, String, Option<String>)> {
    let mut t = Vec::new();
    for n in 1..=6 {
        t.push((
            "table",
            Target::Table(n.to_string()),
            format!("--table {n}"),
            None,
        ));
    }
    for n in 2..=11 {
        let projection = (n >= 6).then(|| format!("figure-{n}"));
        t.push((
            "figure",
            Target::Figure(n.to_string()),
            format!("--figure {n}"),
            projection,
        ));
    }
    for n in 1..=6 {
        t.push((
            "scenario",
            Target::Scenario(n.to_string()),
            format!("--scenario {n}"),
            None,
        ));
    }
    for n in 6..=11 {
        let which = format!("figure-{n}");
        t.push((
            "json",
            Target::Json(which.clone()),
            format!("--json {which}"),
            Some(which.clone()),
        ));
        t.push((
            "csv",
            Target::Csv(which.clone()),
            format!("--csv {which}"),
            Some(which),
        ));
    }
    t
}

/// Renders every target over the warm process cache. A target's self
/// time is its render time minus the projection it contains; the
/// serializers are timed on their own.
fn render_layer(
    tr: &Tracer,
    p: Option<u32>,
    digests: &DigestTable,
    tally: &Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let targets = targets();
    for (_, target, _, _) in &targets {
        render::render(target).map_err(|e| e.to_string())?;
    }
    let mut self_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (kind, target, key, projection) in &targets {
        let total = timed(tr, p, "render.render", 5, || render::render(target));
        let inner = projection.as_ref().map_or(Duration::ZERO, |which| {
            timed(tr, p, "render.projection", 5, || render::projection(which))
        });
        self_us
            .entry(kind)
            .or_default()
            .push(us(total.saturating_sub(inner)));
        let body = render::render(target).map_err(|e| e.to_string())?.body;
        tally.verdict(&Verdict::from(digests.check(key, body.as_bytes())));
    }
    for (kind, v) in &self_us {
        m.push(
            format!("render.self_us.{kind}"),
            v.iter().sum::<f64>() / v.len() as f64,
            "us",
        );
    }
    let (mut json_us, mut csv_us) = (0.0, 0.0);
    for batch in &FIGURES {
        let fig = render::projection(batch.name).map_err(|e| e.to_string())?;
        json_us += us(timed(tr, p, "render.serialize", REPS, || {
            serde_json::to_string_pretty(&fig)
        }));
        csv_us += us(timed(tr, p, "render.csv", REPS, || {
            ucore_bench::figures::figure_csv(&fig)
        }));
    }
    m.push("render.serialize_us", json_us / FIGURES.len() as f64, "us");
    m.push("render.csv_us", csv_us / FIGURES.len() as f64, "us");
    Ok(())
}

/// Parses, handles and writes every route in process, with sweeps
/// pinned to one thread as `served` pins them. Returns each route's
/// median handle time.
fn service_layer(
    tr: &Tracer,
    p: Option<u32>,
    digests: &DigestTable,
    tally: &Tally,
    routes: &[Route],
    m: &mut Metrics,
) -> Vec<Duration> {
    std::env::set_var("UCORE_SWEEP_THREADS", "1");
    let limits = ucore_serve::Limits::default();
    let (mut parse, mut write) = (Vec::new(), Vec::new());
    let mut handle = vec![Vec::new(); routes.len()];
    for _ in 0..REPS {
        for (i, route) in routes.iter().enumerate() {
            let bytes = route.request();
            let (request, d) = tr.span("http.parse", p, |_| {
                ucore_serve::http::read_request(&mut &bytes[..], &limits)
            });
            parse.push(d.as_secs_f64());
            let Ok(request) = request else {
                tally.verdict(&Verdict::Failed(format!("{} does not parse", route.path)));
                continue;
            };
            let (response, d) =
                tr.span("service.handle", p, |_| ucore_serve::handle(&request, None));
            handle[i].push(d.as_secs_f64());
            tally.verdict(&if response.status == 200 {
                served::verify(&route.expect, digests, &response.body)
            } else {
                Verdict::Failed(format!("{}: status {}", route.path, response.status))
            });
            let mut sink = Vec::with_capacity(response.body.len() + 128);
            let (_, d) = tr.span("http.write", p, |_| {
                ucore_serve::http::write_response(
                    &mut sink,
                    response.status,
                    "OK",
                    response.content_type,
                    &response.body,
                )
            });
            write.push(d.as_secs_f64());
        }
    }
    std::env::remove_var("UCORE_SWEEP_THREADS");
    let per_route: Vec<Duration> = handle
        .iter()
        .map(|s| Duration::from_secs_f64(median(s)))
        .collect();
    for kind in served::KINDS {
        let v: Vec<f64> = routes
            .iter()
            .zip(&per_route)
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, d)| us(*d))
            .collect();
        m.push(
            format!("service.handle_us.{kind}"),
            v.iter().sum::<f64>() / v.len().max(1) as f64,
            "us",
        );
    }
    m.push("http.parse_us", median(&parse) * 1e6, "us");
    m.push("http.write_us", median(&write) * 1e6, "us");
    per_route
}
