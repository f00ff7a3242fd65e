//! Load generation: an open loop that sends on a seeded schedule and a
//! closed loop that sends the next operation only when one completes.
//! Both take the operation as a closure, so the same loops run
//! `repro` processes, socket requests, or a fake in tests.

use crate::schedule::Arrival;
use crate::stats::median;
use crate::trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When one open-loop request was due, sent and answered, measured from
/// the start of the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When a sender actually sent it.
    pub sent: Duration,
    /// When its last response byte arrived.
    pub done: Duration,
    /// Whether it succeeded.
    pub ok: bool,
}

impl Timing {
    /// Latency from the *due* time: a stall charges every request that
    /// queued behind it, not only the one that stalled.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Sends `arrivals` on schedule from `senders` threads. Each sender
/// takes the next arrival in order and waits for its due time; if every
/// sender is busy the arrival goes out late, and its latency still
/// counts from when it was due. `send(i)` performs arrival `i` under
/// the span id it is given and reports success.
pub fn open_loop(
    tracer: &Tracer,
    parent: Option<u32>,
    arrivals: &[Arrival],
    senders: usize,
    send: impl Fn(usize, Option<u32>) -> bool + Sync,
) -> Vec<Timing> {
    let next = AtomicUsize::new(0);
    let timings = Mutex::new(vec![None; arrivals.len()]);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..senders.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(arrival) = arrivals.get(i) else {
                    break;
                };
                if let Some(wait) = arrival.due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let (ok, _) = tracer.span("op", parent, |id| send(i, id));
                let timing = Timing {
                    due: arrival.due,
                    sent,
                    done: start.elapsed(),
                    ok,
                };
                timings.lock().expect("a sender panicked")[i] = Some(timing);
            });
        }
    });
    timings
        .into_inner()
        .expect("a sender panicked")
        .into_iter()
        .map(|t| t.expect("every arrival is sent"))
        .collect()
}

/// What a closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct ClosedRun {
    /// Wall time of each complete pass, and how many of its operations
    /// succeeded.
    pub passes: Vec<(Duration, usize)>,
    /// Each operation's time and success, in completion order.
    pub ops: Vec<(Duration, bool)>,
    /// From the first pass's start to the last pass's end.
    pub elapsed: Duration,
}

impl ClosedRun {
    /// The median pass, in seconds.
    pub fn pass_s(&self) -> f64 {
        median(
            &self
                .passes
                .iter()
                .map(|(d, _)| d.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    }

    /// Successful operations per second: the median over passes, so a
    /// burst of outside interference during one pass does not move it.
    pub fn ok_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|(d, ok)| *ok as f64 / d.as_secs_f64().max(1e-9))
            .collect();
        median(&rates)
    }
}

/// Runs whole passes until `budget` has elapsed (at least one pass).
/// Each pass is the item list `order()` returns, shared among `conns`
/// connections that each start the next item as soon as their last one
/// completes; a pass ends when all its items have.
pub fn closed_loop(
    tracer: &Tracer,
    parent: Option<u32>,
    conns: usize,
    budget: Duration,
    mut order: impl FnMut() -> Vec<usize>,
    send: impl Fn(usize, Option<u32>) -> bool + Sync,
) -> ClosedRun {
    let mut run = ClosedRun::default();
    let start = Instant::now();
    while run.passes.is_empty() || start.elapsed() < budget {
        let items = order();
        let next = AtomicUsize::new(0);
        let ops = Mutex::new(Vec::with_capacity(items.len()));
        let (_, pass) = tracer.span("pass", parent, |pass_id| {
            std::thread::scope(|s| {
                for _ in 0..conns.max(1) {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&item) = items.get(i) else { break };
                        let (ok, took) = tracer.span("op", pass_id, |id| send(item, id));
                        ops.lock().expect("a connection panicked").push((took, ok));
                    });
                }
            });
        });
        let ops = ops.into_inner().expect("a connection panicked");
        run.passes
            .push((pass, ops.iter().filter(|(_, ok)| *ok).count()));
        run.ops.extend(ops);
    }
    run.elapsed = start.elapsed();
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Arrival;

    fn every(ms: u64, n: usize) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                due: Duration::from_millis(ms * i as u64),
                route: 0,
            })
            .collect()
    }

    #[test]
    fn a_stalled_response_charges_the_requests_queued_behind_it() {
        let tracer = Tracer::new(0, false);
        let arrivals = every(2, 6);
        // One sender; request 1 stalls for 60 ms, the rest are instant.
        let timings = open_loop(&tracer, None, &arrivals, 1, |i, _| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(60));
            }
            true
        });
        assert!(timings[0].latency() < Duration::from_millis(20));
        assert!(timings[1].latency() >= Duration::from_millis(60));
        for t in &timings[2..] {
            // Due at 4..10 ms, sent only after the stall ended at >= 62 ms.
            assert!(t.late() >= Duration::from_millis(50), "{t:?}");
            assert!(t.latency() >= Duration::from_millis(50), "{t:?}");
            assert!(t.latency() >= t.done - t.sent);
        }
    }

    #[test]
    fn open_loop_keeps_sending_while_a_request_is_outstanding() {
        let tracer = Tracer::new(0, false);
        let arrivals = every(2, 6);
        // Two senders: while one is stalled the other stays on schedule.
        let timings = open_loop(&tracer, None, &arrivals, 2, |i, _| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(60));
            }
            true
        });
        assert!(
            timings[2].late() < Duration::from_millis(30),
            "{:?}",
            timings[2]
        );
    }

    #[test]
    fn closed_loop_runs_whole_passes_and_counts_failures() {
        let tracer = Tracer::new(0, true);
        let run = closed_loop(
            &tracer,
            None,
            2,
            Duration::ZERO,
            || vec![0, 1, 2, 3],
            |item, _| item != 2,
        );
        assert_eq!(run.passes.len(), 1);
        assert_eq!(run.passes[0].1, 3);
        assert_eq!(run.ops.len(), 4);
        assert_eq!(run.ops.iter().filter(|(_, ok)| !ok).count(), 1);
        let spans = tracer.spans();
        let pass = spans.iter().find(|s| s.name == "pass").expect("pass span");
        assert_eq!(
            spans.iter().filter(|s| s.parent == Some(pass.id)).count(),
            4
        );
    }
}
