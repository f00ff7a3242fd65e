//! Request routing and the contained request handler.
//!
//! [`handle`] maps one parsed [`Request`] to one [`Response`], and is
//! the robustness envelope around the model: the render runs under a
//! per-request cooperative deadline
//! ([`ucore_project::arm_request_deadline`]) and inside
//! [`ucore_project::catch_unwind_quietly`], so a pathological query
//! comes back as a `request.deadline` 504, a contained model failure as
//! a `request.failed` 500, and *nothing* a request does can take the
//! process down. Successful bodies are byte-identical to `repro`
//! stdout for the same target — both front ends render through
//! [`ucore_bench::render`].

use crate::error::ServeError;
use crate::http::Request;
use std::time::Duration;
use ucore_bench::Target;

/// One complete response, ready for [`crate::http::write_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response { status: 200, content_type, body: body.into() }
    }

    /// The response for a taxonomy-coded error: its status with the
    /// structured JSON body.
    pub fn from_error(e: &ServeError) -> Self {
        Response {
            status: e.status,
            content_type: "application/json",
            body: e.body().into_bytes(),
        }
    }
}

/// Where a request routes.
enum Route {
    /// Liveness probe.
    Healthz,
    /// Prometheus exposition of the process registry.
    Metrics,
    /// A model artifact rendered through [`ucore_bench::render`].
    Render(Target),
}

/// Handles one parsed request end to end. Infallible by construction:
/// every failure mode is a taxonomy-coded error response.
pub fn handle(request: &Request, request_timeout: Option<Duration>) -> Response {
    match route(request) {
        Ok(Route::Healthz) => Response::ok("text/plain; charset=utf-8", "ok\n"),
        Ok(Route::Metrics) => Response::ok(
            "text/plain; charset=utf-8",
            ucore_obs::registry().snapshot().render_prometheus(),
        ),
        Ok(Route::Render(target)) => render_contained(&target, request_timeout),
        Err(e) => Response::from_error(&e),
    }
}

/// Resolves a request to a route, or to the error describing why it
/// has none.
fn route(request: &Request) -> Result<Route, ServeError> {
    let target = request.target.as_str();
    match request.method.as_str() {
        "GET" => match target {
            "/healthz" => Ok(Route::Healthz),
            "/metrics" => Ok(Route::Metrics),
            "/query" => Err(ServeError::method_not_allowed("GET", target)),
            _ => artifact_route(target),
        },
        "POST" => match target {
            "/query" => query_route(&request.body),
            _ => Err(ServeError::method_not_allowed("POST", target)),
        },
        other => Err(ServeError::method_not_allowed(other, target)),
    }
}

/// Maps a GET path to its render target. Validation of the *value*
/// (`figure 12 is not one of 2-11`) belongs to the render layer; only
/// the path shape is decided here.
fn artifact_route(path: &str) -> Result<Route, ServeError> {
    let target = if let Some(n) = path.strip_prefix("/table/") {
        Target::Table(n.to_string())
    } else if let Some(n) = path.strip_prefix("/figure/") {
        Target::Figure(n.to_string())
    } else if let Some(n) = path.strip_prefix("/scenario/") {
        Target::Scenario(n.to_string())
    } else if let Some(which) = path.strip_prefix("/json/") {
        Target::Json(which.to_string())
    } else if let Some(which) = path.strip_prefix("/csv/") {
        Target::Csv(which.to_string())
    } else {
        return Err(ServeError::unknown_target(format!(
            "no artifact at {path}"
        )));
    };
    Ok(Route::Render(target))
}

/// Parses a `POST /query` body: `{"target":"figure-6","format":"json"}`
/// with `format` one of `text` (default), `json`, `csv`.
fn query_route(body: &[u8]) -> Result<Route, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| ServeError::invalid_json(format!("body is not UTF-8: {e}")))?;
    let value: serde_json::Value = serde_json::from_str(text)
        .map_err(|e| ServeError::invalid_json(format!("body is not JSON: {e}")))?;
    let target = value
        .get("target")
        .and_then(serde_json::Value::as_str)
        .ok_or_else(|| {
            ServeError::schema("query body needs a string \"target\" field")
        })?;
    let format = match value.get("format") {
        None => "text",
        Some(v) => v.as_str().ok_or_else(|| {
            ServeError::schema("query \"format\" must be a string")
        })?,
    };
    let route = match format {
        "json" => Route::Render(Target::Json(target.to_string())),
        "csv" => Route::Render(Target::Csv(target.to_string())),
        "text" => {
            let Some((kind, n)) = target.split_once('-') else {
                return Err(ServeError::unknown_target(format!(
                    "unknown query target {target:?} (expected e.g. \"figure-6\", \"table-5\", \"scenario-1\")"
                )));
            };
            let target = match kind {
                "table" => Target::Table(n.to_string()),
                "figure" => Target::Figure(n.to_string()),
                "scenario" => Target::Scenario(n.to_string()),
                _ => {
                    return Err(ServeError::unknown_target(format!(
                        "unknown query target kind {kind:?}"
                    )))
                }
            };
            Route::Render(target)
        }
        other => {
            return Err(ServeError::schema(format!(
                "query format {other:?} is not one of text, json, csv"
            )))
        }
    };
    Ok(route)
}

/// The `Content-Type` each target family serves.
fn content_type(target: &Target) -> &'static str {
    match target {
        Target::Table(_) | Target::Figure(_) | Target::Scenario(_) => {
            "text/plain; charset=utf-8"
        }
        Target::Json(_) => "application/json",
        Target::Csv(_) => "text/csv",
    }
}

/// Renders a target inside the full containment envelope: per-request
/// deadline armed, panics caught, partial data suppressed.
fn render_contained(target: &Target, request_timeout: Option<Duration>) -> Response {
    let _guard = request_timeout.map(ucore_project::arm_request_deadline);
    let caught = ucore_project::catch_unwind_quietly(|| ucore_bench::render::render(target));
    // Deadline first: an expired budget explains both a deadline panic
    // that escaped and a sweep whose tail points all failed at their
    // first cooperative checkpoint.
    if ucore_project::request_deadline_expired() {
        crate::obs::metrics().timeouts.inc();
        let budget_ms = request_timeout.map_or(0, |d| d.as_millis());
        return Response::from_error(&ServeError::deadline(budget_ms));
    }
    match caught {
        Err(panic_msg) => {
            crate::obs::metrics().panics.inc();
            Response::from_error(&ServeError::failed(format!(
                "handler panic (contained): {panic_msg}"
            )))
        }
        Ok(Err(e)) if e.is_bad_target() => {
            Response::from_error(&ServeError::unknown_target(e.to_string()))
        }
        Ok(Err(e)) => Response::from_error(&ServeError::failed(e.to_string())),
        Ok(Ok(rendered)) => match rendered.points_failed {
            Some(failed) if failed > 0 => {
                Response::from_error(&ServeError::failed(format!(
                    "{failed} design point(s) failed during the sweep; \
                     partial projection data withheld"
                )))
            }
            _ => Response::ok(content_type(target), rendered.body.into_bytes()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(target: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            body: Vec::new(),
        }
    }

    fn post_query(body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            target: "/query".to_string(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn error_code(resp: &Response) -> String {
        let value: serde_json::Value =
            serde_json::from_slice(&resp.body).expect("error body is JSON");
        value
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(serde_json::Value::as_str)
            .expect("error.code present")
            .to_string()
    }

    #[test]
    fn healthz_is_ok() {
        let resp = handle(&get("/healthz"), None);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok\n");
    }

    #[test]
    fn table_body_matches_the_shared_render_path() {
        let resp = handle(&get("/table/5"), None);
        assert_eq!(resp.status, 200);
        let direct = ucore_bench::render::render(&Target::Table("5".into()))
            .expect("table 5 renders");
        assert_eq!(resp.body, direct.body.into_bytes());
    }

    #[test]
    fn unknown_paths_and_values_are_404_with_the_code() {
        let resp = handle(&get("/nope"), None);
        assert_eq!(resp.status, 404);
        assert_eq!(error_code(&resp), "request.unknown_target");
        let resp = handle(&get("/table/7"), None);
        assert_eq!(resp.status, 404);
        assert_eq!(error_code(&resp), "request.unknown_target");
    }

    #[test]
    fn wrong_method_is_405() {
        let mut req = get("/table/5");
        req.method = "PUT".to_string();
        let resp = handle(&req, None);
        assert_eq!(resp.status, 405);
        assert_eq!(error_code(&resp), "http.method");
    }

    #[test]
    fn query_schema_violations_are_typed() {
        let resp = handle(&post_query("not json"), None);
        assert_eq!(error_code(&resp), "request.invalid_json");
        let resp = handle(&post_query("{\"format\":\"json\"}"), None);
        assert_eq!(error_code(&resp), "request.schema");
        let resp = handle(
            &post_query("{\"target\":\"figure-6\",\"format\":\"pdf\"}"),
            None,
        );
        assert_eq!(error_code(&resp), "request.schema");
    }

    #[test]
    fn query_text_table_matches_get_route() {
        let via_query = handle(&post_query("{\"target\":\"table-2\"}"), None);
        let via_get = handle(&get("/table/2"), None);
        assert_eq!(via_query.status, 200);
        assert_eq!(via_query.body, via_get.body);
    }

    #[test]
    fn metrics_exposition_contains_serve_names() {
        // Touch the serve instruments so they exist in the registry.
        let _ = crate::obs::metrics();
        let resp = handle(&get("/metrics"), None);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).expect("exposition is UTF-8");
        assert!(text.contains("ucore_serve_shed"), "{text}");
    }
}
