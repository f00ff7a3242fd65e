//! The benchmark's own span recorder. Spans are taken in this crate,
//! around calls into the program's public functions, kept in memory,
//! and written out once when the run ends. Nothing inside the program
//! is instrumented.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span this one ran inside of, if any.
    pub parent: Option<u32>,
    /// Layer boundary the span wraps, e.g. `sweep.cold_seq`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Records spans when enabled; when disabled it only times, so one code
/// path serves the untraced and the traced run.
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder for run `run_id`; `enabled = false` records nothing.
    pub fn new(run_id: u64, enabled: bool) -> Self {
        Tracer {
            run_id,
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent`, handing `f`
    /// the new span's id for its children. Returns `f`'s result and the
    /// span's duration.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> (T, Duration) {
        let id = self
            .enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            let span = Span {
                id,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            };
            self.spans
                .lock()
                .expect("a span recorder holder panicked")
                .push(span);
        }
        (out, end - start)
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder holder panicked")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        self.spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                    self.run_id, s.id, s.name, s.start_ns, s.end_ns
                )
            })
            .collect()
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover, summed over spans of that name,
/// with the span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (Duration, usize)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        // Union of the children's intervals, clipped to the parent.
        let (mut covered, mut reach) = (0, s.start_ns);
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.0 += Duration::from_nanos(s.end_ns - s.start_ns - covered);
        entry.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "op", 10, 30),
            span(3, Some(1), "op", 20, 50),
            span(4, Some(3), "recv", 25, 45),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], (Duration::from_nanos(60), 1));
        // op 2: 20 ns, op 3: 30 - 20 = 10 ns.
        assert_eq!(t["op"], (Duration::from_nanos(30), 2));
        assert_eq!(t["recv"], (Duration::from_nanos(20), 1));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let tr = Tracer::new(1, false);
        let (v, d) = tr.span("x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(tr.spans().is_empty());
        let tr = Tracer::new(1, true);
        tr.span("outer", None, |id| tr.span("inner", id, |_| ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("recorded");
        let inner = spans.iter().find(|s| s.name == "inner").expect("recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(tr.to_jsonl().lines().count() == 2);
    }
}
