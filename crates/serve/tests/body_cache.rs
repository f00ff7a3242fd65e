//! The per-server body cache: an artifact's first clean render is
//! stored and every later request for the same target is answered from
//! it, byte-identical to the render path, without evaluation. Faulted,
//! timed-out and unknown-target responses are never stored.
//!
//! The suite shares process-global state (the metrics registry, the
//! durability slot, the fault-injection slot), so every test runs under
//! one mutex (`common::serialized`).

mod common;

use common::{boot, counter, error_code, gauge, get, post_query, serialized, temp_path};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use ucore_bench::Target;
use ucore_project::durability::{self, DurabilityConfig};
use ucore_project::faultinject::{Fault, FaultPlan};

const HITS: &str = "serve.body_cache_hits";
const ENTRIES: &str = "serve.body_cache_entries";

/// The GET path that serves `target`.
fn path(target: &Target) -> String {
    match target {
        Target::Table(n) => format!("/table/{n}"),
        Target::Figure(n) => format!("/figure/{n}"),
        Target::Scenario(n) => format!("/scenario/{n}"),
        Target::Json(which) => format!("/json/{which}"),
        Target::Csv(which) => format!("/csv/{which}"),
    }
}

fn direct(target: &Target) -> Vec<u8> {
    ucore_bench::render::render(target)
        .expect("direct render")
        .body
        .into_bytes()
}

#[test]
fn every_artifact_renders_once_then_hits_byte_identically() {
    let _gate = serialized();
    let server = boot(|_| {});
    let all = Target::all();

    for pass in ["render", "hit"] {
        let hits_before = counter(HITS);
        for target in &all {
            let route = path(target);
            let (status, body) = get(server.addr, &route);
            assert_eq!(status, 200, "{pass} {route}");
            assert_eq!(
                body,
                direct(target),
                "{pass} {route} diverged from the render path"
            );
        }
        let expected_hits = if pass == "render" {
            0
        } else {
            all.len() as u64
        };
        assert_eq!(counter(HITS) - hits_before, expected_hits, "{pass} pass");
        assert_eq!(gauge(ENTRIES), all.len() as f64, "{pass} pass");
    }

    // A query that names a cached target is answered from the cache too.
    let hits_before = counter(HITS);
    let (status, body) = post_query(server.addr, r#"{"target":"figure-6","format":"json"}"#);
    assert_eq!(status, 200);
    assert_eq!(body, direct(&Target::Json("figure-6".into())));
    let (status, body) = post_query(server.addr, r#"{"target":"scenario-3"}"#);
    assert_eq!(status, 200);
    assert_eq!(body, direct(&Target::Scenario("3".into())));
    assert_eq!(counter(HITS) - hits_before, 2);

    // Neither /healthz nor /metrics is cached.
    let hits_before = counter(HITS);
    assert_eq!(get(server.addr, "/healthz").0, 200);
    assert_eq!(get(server.addr, "/metrics").0, 200);
    assert_eq!(counter(HITS), hits_before);
    assert_eq!(gauge(ENTRIES), all.len() as f64);
    assert!(server.stop().drained);
}

#[test]
fn non_canonical_keys_are_404_and_add_no_entries() {
    let _gate = serialized();
    let server = boot(|_| {});
    let (status, canonical) = get(server.addr, "/scenario/1");
    assert_eq!(status, 200);
    assert_eq!(gauge(ENTRIES), 1.0);

    let hits_before = counter(HITS);
    for alias in [
        "/scenario/01",
        "/scenario/+1",
        "/scenario/0001",
        "/scenario/7",
        "/figure/07",
        "/table/05",
        "/json/figure-06",
    ] {
        let (status, body) = get(server.addr, alias);
        assert_eq!(status, 404, "{alias}: {:?}", String::from_utf8_lossy(&body));
        assert_eq!(error_code(&body), "request.unknown_target", "{alias}");
    }
    assert_eq!(gauge(ENTRIES), 1.0, "an alias added a cache entry");
    assert_eq!(counter(HITS), hits_before);

    assert_eq!(get(server.addr, "/scenario/1"), (200, canonical));
    assert_eq!(counter(HITS) - hits_before, 1);
    assert!(server.stop().drained);
}

#[test]
fn concurrent_first_requests_agree_and_store_one_entry() {
    let _gate = serialized();
    const CLIENTS: usize = 8;
    let server = boot(|c| {
        c.workers = CLIENTS;
        c.queue_depth = CLIENTS;
    });
    let start = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let start = Arc::clone(&start);
            let addr = server.addr;
            std::thread::spawn(move || {
                start.wait();
                get(addr, "/json/figure-9")
            })
        })
        .collect();
    let expected = direct(&Target::Json("figure-9".into()));
    for client in clients {
        let (status, body) = client.join().expect("client thread");
        assert_eq!(status, 200);
        assert_eq!(body, expected);
    }
    assert_eq!(gauge(ENTRIES), 1.0);
    let hits_before = counter(HITS);
    assert_eq!(get(server.addr, "/json/figure-9"), (200, expected));
    assert_eq!(counter(HITS) - hits_before, 1);
    assert!(server.stop().drained);
}

#[test]
fn faulted_and_timed_out_renders_are_not_stored() {
    let _gate = serialized();
    let server = boot(|c| c.request_timeout = Some(Duration::from_millis(500)));

    // 500: a contained panic withholds the body; the next request
    // renders fresh rather than hitting.
    let guard = ucore_project::faultinject::activate(FaultPlan::new().with(3, Fault::Panic));
    let (status, body) = get(server.addr, "/figure/8");
    assert_eq!(status, 500);
    assert_eq!(error_code(&body), "request.failed");
    drop(guard);
    let hits_before = counter(HITS);
    assert_eq!(
        get(server.addr, "/figure/8"),
        (200, direct(&Target::Figure("8".into())))
    );
    assert_eq!(
        counter(HITS),
        hits_before,
        "the clean request hit a faulted entry"
    );

    // 504: point 0 stalls past the request deadline until the per-point
    // watchdog releases it.
    let (durability_guard, _) = durability::activate(DurabilityConfig {
        timeout: Some(Duration::from_millis(1500)),
        ..DurabilityConfig::default()
    })
    .expect("activate the per-point watchdog");
    let guard = ucore_project::faultinject::activate(FaultPlan::new().with(0, Fault::Stall));
    let (status, body) = get(server.addr, "/csv/figure-8");
    assert_eq!(status, 504, "{:?}", String::from_utf8_lossy(&body));
    assert_eq!(error_code(&body), "request.deadline");
    drop(guard);
    drop(durability_guard);
    let expected = direct(&Target::Csv("figure-8".into()));
    let hits_before = counter(HITS);
    assert_eq!(get(server.addr, "/csv/figure-8"), (200, expected.clone()));
    assert_eq!(
        counter(HITS),
        hits_before,
        "the clean request hit a timed-out entry"
    );

    // Once stored, a cached artifact is answered without evaluation, so
    // a fault armed later does not reach it.
    let guard = ucore_project::faultinject::activate(FaultPlan::new().with(3, Fault::Panic));
    assert_eq!(get(server.addr, "/csv/figure-8"), (200, expected));
    assert_eq!(counter(HITS) - hits_before, 1);
    drop(guard);
    assert!(server.stop().drained);
}

#[test]
fn cache_hits_append_no_journal_records() {
    let _gate = serialized();
    let journal = temp_path("body-cache");
    let _ = std::fs::remove_file(&journal);
    let (guard, _) = durability::activate(DurabilityConfig {
        journal: Some(journal.clone()),
        ..DurabilityConfig::default()
    })
    .expect("activate journaled durability");
    let server = boot(|_| {});

    let appends_before = counter("journal.appends");
    let (status, first) = get(server.addr, "/json/figure-6");
    assert_eq!(status, 200);
    let appended = counter("journal.appends") - appends_before;
    assert!(appended > 0, "the first render journaled nothing");
    let len = std::fs::metadata(&journal).expect("journal exists").len();

    for _ in 0..3 {
        assert_eq!(get(server.addr, "/json/figure-6"), (200, first.clone()));
    }
    assert_eq!(counter("journal.appends") - appends_before, appended);
    assert_eq!(
        std::fs::metadata(&journal).expect("journal exists").len(),
        len
    );

    assert!(server.stop().drained);
    drop(guard);
    let _ = std::fs::remove_file(&journal);
}
