//! The `served` side: the route table, a one-request-per-connection
//! HTTP client, and the daemon's lifetime.

use crate::digest::{prometheus, DigestTable};
use crate::trace::Tracer;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Socket and boot timeout: an answer slower than this is a failure.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What a route's 200 body must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// The recorded digest under this key (`repro` arguments, or
    /// `healthz`).
    Digest(String),
    /// A Prometheus text exposition (the content varies by design).
    Prometheus,
}

/// One route that answers 200.
#[derive(Debug, Clone)]
pub struct Route {
    /// Route family, the unit of the per-kind metrics.
    pub kind: &'static str,
    /// `GET` or `POST`.
    pub method: &'static str,
    /// Request target.
    pub path: String,
    /// Request body (`POST /query` only).
    pub body: String,
    /// What the answer must be.
    pub expect: Expect,
}

impl Route {
    fn get(kind: &'static str, path: String, expect: Expect) -> Self {
        Route {
            kind,
            method: "GET",
            path,
            body: String::new(),
            expect,
        }
    }

    /// The raw request bytes.
    pub fn request(&self) -> Vec<u8> {
        let mut head = format!(
            "{} {} HTTP/1.1\r\nHost: localhost\r\n",
            self.method, self.path
        );
        if !self.body.is_empty() {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                self.body.len()
            ));
        }
        head.push_str("\r\n");
        head.push_str(&self.body);
        head.into_bytes()
    }
}

/// The route kinds, in report order.
pub const KINDS: [&str; 8] = [
    "healthz", "metrics", "table", "figure", "scenario", "json", "csv", "query",
];

/// Every route that answers 200, each paired with the `repro` output it
/// must equal (which is how the served == repro contract is enforced).
pub fn routes() -> Vec<Route> {
    let digest = Expect::Digest;
    let mut r = vec![
        Route::get("healthz", "/healthz".into(), digest("healthz".into())),
        Route::get("metrics", "/metrics".into(), Expect::Prometheus),
    ];
    for n in 1..=6 {
        r.push(Route::get(
            "table",
            format!("/table/{n}"),
            digest(format!("--table {n}")),
        ));
    }
    for n in 2..=11 {
        r.push(Route::get(
            "figure",
            format!("/figure/{n}"),
            digest(format!("--figure {n}")),
        ));
    }
    for n in 1..=6 {
        r.push(Route::get(
            "scenario",
            format!("/scenario/{n}"),
            digest(format!("--scenario {n}")),
        ));
    }
    for fmt in ["json", "csv"] {
        for n in 6..=11 {
            let path = format!("/{fmt}/figure-{n}");
            r.push(Route::get(fmt, path, digest(format!("--{fmt} figure-{n}"))));
        }
    }
    let queries = [
        (r#"{"target":"table-5"}"#, "--table 5"),
        (r#"{"target":"figure-6"}"#, "--figure 6"),
        (r#"{"target":"scenario-1"}"#, "--scenario 1"),
        (
            r#"{"target":"figure-6","format":"json"}"#,
            "--json figure-6",
        ),
        (
            r#"{"target":"figure-11","format":"csv"}"#,
            "--csv figure-11",
        ),
    ];
    for (body, key) in queries {
        r.push(Route {
            kind: "query",
            method: "POST",
            path: "/query".into(),
            body: body.into(),
            expect: digest(key.into()),
        });
    }
    r
}

/// How one operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Correct answer.
    Ok,
    /// No correct answer: I/O error, timeout, or non-200 status.
    Failed(String),
    /// A 200 whose bytes are wrong.
    Mismatch(String),
}

/// Checks a 200 body against what the route must return.
pub fn verify(expect: &Expect, digests: &DigestTable, body: &[u8]) -> Verdict {
    let checked = match expect {
        Expect::Digest(key) => digests.check(key, body),
        Expect::Prometheus => std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(prometheus)
            .and_then(|s| {
                if s.is_empty() {
                    Err("empty /metrics".into())
                } else {
                    Ok(())
                }
            }),
    };
    Verdict::from(checked)
}

impl From<Result<(), String>> for Verdict {
    /// A byte check's result: a wrong answer is a mismatch.
    fn from(checked: Result<(), String>) -> Self {
        checked.map_or_else(Verdict::Mismatch, |()| Verdict::Ok)
    }
}

/// Splits a complete `Connection: close` response into status and body,
/// checking `Content-Length` against what arrived.
pub fn parse_reply(raw: &[u8]) -> Result<(u16, &[u8]), String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|e| e.to_string())?;
    let body = &raw[split + 4..];
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or("response has no Content-Length")?;
    if length != body.len() {
        return Err(format!(
            "Content-Length {length} but {} body bytes",
            body.len()
        ));
    }
    Ok((status, body))
}

/// Sends one request on a fresh connection and reads the whole reply,
/// under spans for connect, send and receive.
pub fn fetch(
    tracer: &Tracer,
    parent: Option<u32>,
    addr: SocketAddr,
    request: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let (stream, _) = tracer.span("client.connect", parent, |_| {
        TcpStream::connect_timeout(&addr, IO_TIMEOUT)
    });
    let mut stream = stream.map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let (sent, _) = tracer.span("client.send", parent, |_| stream.write_all(request));
    sent.map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    let (read, _) = tracer.span("client.recv", parent, |_| stream.read_to_end(&mut raw));
    read.map_err(|e| format!("recv: {e}"))?;
    let (status, body) = parse_reply(&raw)?;
    Ok((status, body.to_vec()))
}

/// Fetches a route and judges the answer.
pub fn call(
    tracer: &Tracer,
    parent: Option<u32>,
    addr: SocketAddr,
    route: &Route,
    request: &[u8],
    digests: &DigestTable,
) -> Verdict {
    match fetch(tracer, parent, addr, request) {
        Ok((200, body)) => verify(&route.expect, digests, &body),
        Ok((status, _)) => {
            Verdict::Failed(format!("{} {}: status {status}", route.method, route.path))
        }
        Err(e) => Verdict::Failed(format!("{} {}: {e}", route.method, route.path)),
    }
}

/// A running `served`; dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Boots `served` on a free loopback port at its default settings
    /// and waits until it listens.
    pub fn boot(bin: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--serve", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for var in crate::repro::SETTINGS_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drain stderr for the daemon's whole life so it can never block
        // on a full pipe; the first line names the bound address.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("served: listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let addr = rx
            .recv_timeout(IO_TIMEOUT)
            .map_err(|_| "served never listened".to_string())?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("listen address {addr:?}: {e}"))?;
        Ok(daemon)
    }

    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read served status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in served status".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_route_kind_is_covered_and_requests_are_well_formed() {
        let routes = routes();
        assert_eq!(routes.len(), 41);
        for kind in KINDS {
            assert!(routes.iter().any(|r| r.kind == kind), "{kind}");
        }
        let limits = ucore_serve::Limits::default();
        for r in &routes {
            let bytes = r.request();
            let req = ucore_serve::http::read_request(&mut &bytes[..], &limits).expect("parses");
            assert_eq!(
                (req.method.as_str(), req.target.as_str()),
                (r.method, r.path.as_str())
            );
            assert_eq!(req.body, r.body.as_bytes());
        }
    }

    #[test]
    fn replies_are_split_and_length_checked() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\r\nok\n";
        assert_eq!(parse_reply(ok), Ok((200, &b"ok\n"[..])));
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok\n";
        assert!(parse_reply(short).is_err());
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
