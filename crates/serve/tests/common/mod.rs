//! Helpers shared by the serve integration suites: boot a `Server` on
//! a free loopback port, exchange one request with it, and read the
//! process-wide metrics registry.
//!
//! Each suite shares process-global state (the metrics registry, the
//! durability slot, the fault-injection slot), so every test in a
//! suite runs under [`serialized`].

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;
use ucore_serve::{DrainReport, Server, ServerConfig, ShutdownHandle};

/// Serializes tests around the process-global durability, fault, and
/// metrics state.
pub fn serialized() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A running server: its address, its shutdown handle, and the thread
/// that returns its drain report.
pub struct Running {
    pub addr: SocketAddr,
    pub shutdown: ShutdownHandle,
    pub handle: std::thread::JoinHandle<std::io::Result<DrainReport>>,
}

impl Running {
    /// Requests shutdown and waits for the drain.
    pub fn stop(self) -> DrainReport {
        self.shutdown.request();
        self.handle
            .join()
            .expect("server thread")
            .expect("server run")
    }
}

/// Boots a server on a free loopback port with small test defaults,
/// adjusted by `configure`.
pub fn boot(configure: impl FnOnce(&mut ServerConfig)) -> Running {
    let mut config = ServerConfig::new("127.0.0.1:0");
    config.workers = 2;
    config.queue_depth = 4;
    config.io_timeout = Duration::from_millis(800);
    config.drain = Duration::from_secs(10);
    configure(&mut config);
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());
    Running {
        addr,
        shutdown,
        handle,
    }
}

/// One full GET exchange; returns (status, body).
pub fn get(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
    exchange(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

/// One full `POST /query` exchange; returns (status, body).
pub fn post_query(addr: SocketAddr, body: &str) -> (u16, Vec<u8>) {
    let head = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    exchange(addr, [head.as_bytes(), body.as_bytes()].concat().as_slice())
}

/// Sends `request`, half-closes, and reads the whole response.
fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream.write_all(request).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    split_response(&raw)
}

fn split_response(raw: &[u8]) -> (u16, Vec<u8>) {
    let sep = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header separator in {:?}", String::from_utf8_lossy(raw)));
    let head = std::str::from_utf8(&raw[..sep]).expect("head is UTF-8");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, raw[sep + 4..].to_vec())
}

/// The `error.code` of a taxonomy-coded JSON error body.
pub fn error_code(body: &[u8]) -> String {
    let value: serde_json::Value = serde_json::from_slice(body)
        .unwrap_or_else(|e| panic!("body not JSON ({e}): {:?}", String::from_utf8_lossy(body)));
    value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(serde_json::Value::as_str)
        .expect("error.code")
        .to_string()
}

/// A counter's current value in the process registry.
pub fn counter(name: &str) -> u64 {
    ucore_obs::registry().snapshot().counter(name)
}

/// A gauge's current value in the process registry (0 if unset).
pub fn gauge(name: &str) -> f64 {
    ucore_obs::registry().snapshot().gauge(name).unwrap_or(0.0)
}

/// A per-process scratch file path in the temp directory.
pub fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir();
    dir.join(format!(
        "ucore-serve-e2e-{tag}-{}.jsonl",
        std::process::id()
    ))
}
