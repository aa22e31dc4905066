//! End-to-end tests over real sockets: a `trex-server` instance serving
//! the La Liga fixture, exercised by a hand-rolled HTTP client (the same
//! no-dependency discipline as the server itself).

use std::io::{Read, Write};
use std::net::TcpStream;
use trex::{ExecConfig, ExplainRequest, Players, Session};
use trex_datagen::laliga;
use trex_server::{json, serve, ServerConfig, ServerHandle};

fn start_server() -> ServerHandle {
    let table = laliga::dirty_table();
    let session = Session::new(Box::new(laliga::algorithm1()), table, laliga::constraints());
    serve(session, &ServerConfig::default()).expect("bind server")
}

/// One full request/response cycle: returns (status, headers, body).
fn request(handle: &ServerHandle, method: &str, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        decode_chunked(body)
    } else {
        body.to_string()
    };
    (status, head.to_string(), body)
}

fn get(handle: &ServerHandle, target: &str) -> (u16, String) {
    let (status, _, body) = request(handle, "GET", target);
    (status, body)
}

/// Decode a chunked transfer-encoded body back to the raw payload.
fn decode_chunked(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..]; // skip payload + CRLF
    }
    out
}

#[test]
fn health_answers_ok() {
    let server = start_server();
    let (status, body) = get(&server, "/health");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}");
}

#[test]
fn violations_render_as_valid_json() {
    let server = start_server();
    let (status, body) = get(&server, "/violations");
    assert_eq!(status, 200);
    json::validate(&body).expect("violations response is valid JSON");
    // The dirty fixture violates its constraints; rows are 1-based labels.
    assert!(body.contains("\"count\":"));
    assert!(body.contains("\"constraint\":"));
    assert!(!body.contains("\"count\":0,"));
}

#[test]
fn constraint_explanation_matches_direct_session() {
    let table = laliga::dirty_table();
    let cell = laliga::cell_of_interest(&table);
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        table.clone(),
        laliga::constraints(),
    );
    let direct = session
        .explain(
            &ExplainRequest {
                cell,
                players: Players::Constraints,
            },
            &session.config(),
        )
        .expect("direct explain");

    let server = serve(session, &ServerConfig::default()).expect("bind");
    let (status, body) = get(&server, "/explain?kind=constraints&cell=t5.Country");
    assert_eq!(status, 200);
    json::validate(&body).expect("constraint explanation is valid JSON");
    // The exact rationals from the paper's worked example survive the wire.
    for (label, value) in &direct.exact {
        let fragment = format!(
            "{{\"label\":{},\"value\":{}}}",
            json::string(label),
            json::string(&value.to_string())
        );
        assert!(body.contains(&fragment), "missing {fragment} in {body}");
    }
}

#[test]
fn batch_cell_explanation_is_valid_and_deterministic() {
    let server = start_server();
    let target = "/explain?cell=t5.Country&samples=200&seed=7&threads=2";
    let (status, first) = get(&server, target);
    assert_eq!(status, 200);
    json::validate(&first).expect("cell explanation is valid JSON");
    assert!(first.contains("\"ranking\":["));
    // Same knobs, second request: byte-identical (and a cache hit inside).
    let (_, second) = get(&server, target);
    assert_eq!(first, second);
    // The answer is the same at any thread count.
    for knobs in ["threads=1", "threads=3", "threads=4"] {
        let (status, body) = get(
            &server,
            &format!("/explain?cell=t5.Country&samples=200&seed=7&{knobs}"),
        );
        assert_eq!(status, 200, "{knobs}");
        assert_eq!(first, body, "{knobs}");
    }
}

#[test]
fn anytime_stream_lines_are_valid_and_final_matches_batch() {
    let server = start_server();
    let knobs = "cell=t5.Country&samples=200&seed=7&threads=2";
    let (status, head, stream_body) = request(
        &server,
        "GET",
        &format!("/explain?{knobs}&stream=1&checkpoint=50"),
    );
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "stream must be chunked: {head}"
    );

    let lines: Vec<&str> = stream_body.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected checkpoints + final: {stream_body}"
    );
    for line in &lines {
        json::validate(line).unwrap_or_else(|e| panic!("bad stream line {line}: {e}"));
        // Finite estimates only: a NaN/inf would serialize as null.
        assert!(!line.contains("null"), "non-finite value in {line}");
    }
    let (checkpoints, final_line) = lines.split_at(lines.len() - 1);
    for line in checkpoints {
        assert!(line.starts_with("{\"final\":false,"), "{line}");
        assert!(line.contains("\"estimates\":["));
        assert!(line.contains("\"ci95\":"));
    }
    let final_line = final_line[0];
    assert!(final_line.starts_with("{\"final\":true,\"finished\":true,"));

    // The determinism contract: the final line's payload is byte-identical
    // to the batch endpoint for the same seed.
    let (_, batch) = get(&server, &format!("/explain?{knobs}"));
    let payload = batch
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .expect("batch body is an object");
    assert!(
        final_line.contains(payload),
        "final stream line must embed the batch payload\nfinal: {final_line}\nbatch: {payload}"
    );
}

#[test]
fn zero_budget_stream_still_answers_with_a_final_line() {
    let server = start_server();
    let (status, _, body) = request(
        &server,
        "GET",
        "/explain?cell=t5.Country&samples=400&seed=3&budget_ms=0",
    );
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    let last = lines.last().expect("at least the final line");
    json::validate(last).expect("final line is valid JSON");
    assert!(
        last.starts_with("{\"final\":true,\"finished\":false,"),
        "{last}"
    );
}

#[test]
fn estimate_serialization_pins_finite_stats_form() {
    // Satellite: the serialized estimate form is pinned — degenerate
    // single-sample stats (variance clamp) must yield "std_error":0.0,
    // never null/NaN, and the JSON shape is exactly this.
    let server = start_server();
    let (status, _, body) = request(
        &server,
        "GET",
        "/explain?cell=t5.Country&samples=1&seed=1&stream=1&checkpoint=1",
    );
    assert_eq!(status, 200);
    for line in body.lines() {
        json::validate(line).expect("valid JSON");
        assert!(
            !line.contains("null"),
            "degenerate stats must stay finite: {line}"
        );
    }
    assert!(
        body.contains("\"std_error\":0.0"),
        "single-sample std_error serializes as 0.0: {body}"
    );
}

#[test]
fn mutations_over_http_keep_explanations_fresh() {
    // Satellite: mutate-then-re-explain through the HTTP surface. Removing
    // C3 changes the constraint game exactly as in the paper's example —
    // the stale cached answers must not survive the mutation.
    let server = start_server();
    let (_, before) = get(&server, "/explain?kind=constraints&cell=t5.Country");
    assert!(before.contains("\"value\":\"2/3\""), "{before}");

    let (status, _, body) = request(&server, "DELETE", "/constraint?name=C3");
    assert_eq!(status, 200, "{body}");

    let (_, after) = get(&server, "/explain?kind=constraints&cell=t5.Country");
    assert!(
        after.contains("\"value\":\"1/2\""),
        "post-removal exact values must be fresh: {after}"
    );
    assert!(!after.contains("\"label\":\"C3\""));
}

#[test]
fn cell_mutation_roundtrip() {
    let server = start_server();
    let (status, _, body) = request(&server, "POST", "/cell?cell=t1.Place&value=99");
    assert_eq!(status, 200, "{body}");
    json::validate(&body).expect("valid JSON");
    assert!(body.contains("\"value\":\"99\""));
    // The change is visible to subsequent reads of the shared session.
    let (_, _, again) = request(&server, "POST", "/cell?cell=t1.Place&value=77");
    assert!(again.contains("\"previous\":\"99\""), "{again}");
}

#[test]
fn constraint_upsert_roundtrip() {
    let server = start_server();
    let (status, _, body) = request(
        &server,
        "POST",
        "/constraint?name=C9&dc=%21(t1.Team%3Dt2.Team)",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"name\":\"C9\""));
    let (status, _, removed) = request(&server, "DELETE", "/constraint?name=C9");
    assert_eq!(status, 200, "{removed}");
    assert!(removed.contains("\"removed\":\"C9\""));
}

#[test]
fn unresolvable_constraint_upsert_is_rejected_and_the_server_keeps_working() {
    let server = start_server();
    let (status, _, body) = request(
        &server,
        "POST",
        "/constraint?name=C9&dc=!(t1.Nope%20=%20t2.Nope)",
    );
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("constraint C9: unknown attribute \\\"Nope\\\""),
        "{body}"
    );
    // The session is untouched: the repair still runs over the four
    // fixture constraints, and the worker that answered is alive.
    let (status, _, body) = request(&server, "POST", "/repair");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"count\":2,"), "{body}");
    let (status, body) = get(&server, "/health");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn session_exec_config_is_every_requests_default() {
    // The exec flags `trex serve` starts with are the defaults of every
    // request: a session seeded with 7 answers a request without `seed`
    // exactly as a default session answers `seed=7`.
    let plain = start_server();
    let (status, want) = get(&plain, "/explain?cell=t5.Country&samples=50&seed=7");
    assert_eq!(status, 200);
    let (_, unseeded) = get(&plain, "/explain?cell=t5.Country&samples=50");
    assert_ne!(want, unseeded, "the seed must matter for this pin to bite");

    let exec = ExecConfig::new()
        .with_seed(7)
        .with_threads(1)
        .with_oracle_batch(4);
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    )
    .with_config(exec);
    let seeded = serve(session, &ServerConfig::default()).expect("bind server");
    let (status, got) = get(&seeded, "/explain?cell=t5.Country&samples=50");
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, want);
    // A request's own knob still wins over the session's.
    let (_, reseeded) = get(&seeded, "/explain?cell=t5.Country&samples=50&seed=0");
    assert_eq!(reseeded, unseeded);
    // The session's inert batch bound is not the request asking for one.
    let (status, body) = get(&seeded, "/explain?cell=t5.Country&oracle-batch=16");
    assert_eq!(status, 400, "{body}");
}

#[test]
fn bad_requests_get_pinned_errors() {
    let server = start_server();

    // Unknown endpoint and wrong method.
    let (status, body) = get(&server, "/nope");
    assert_eq!(status, 404, "{body}");
    let (status, _, body) = request(&server, "POST", "/violations");
    assert_eq!(status, 405, "{body}");

    // Unknown query parameter (typo protection).
    let (status, body) = get(&server, "/explain?cell=t5.Country&shedule=player");
    assert_eq!(status, 400);
    assert!(body.contains("unknown parameter \\\"shedule\\\""), "{body}");

    // Exec knobs validate through the shared CLI path.
    let (status, body) = get(&server, "/explain?cell=t5.Country&threads=many");
    assert_eq!(status, 400);
    assert!(body.contains("--threads: cannot parse"), "{body}");

    // The retired knobs select nothing, so they are unknown like any typo.
    for knob in ["schedule=player", "prune-redundant=1"] {
        let (status, body) = get(&server, &format!("/violations?{knob}"));
        assert_eq!(status, 400, "{knob}");
        assert!(body.contains("unknown parameter"), "{knob}: {body}");
    }

    // Missing and malformed cells.
    let (status, body) = get(&server, "/explain");
    assert_eq!(status, 400);
    assert!(
        body.contains("missing required parameter \\\"cell\\\""),
        "{body}"
    );
    let (status, body) = get(&server, "/explain?cell=t999.Country");
    assert_eq!(status, 400);
    assert!(body.contains("out of range"), "{body}");

    // Satellite: oracle-batch with no backend attached is an error on the
    // server API (the CLI merely warns), with the one shared message.
    let (status, body) = get(&server, "/explain?cell=t5.Country&oracle-batch=16");
    assert_eq!(status, 400);
    assert!(
        body.contains("no oracle backend is attached"),
        "must reuse ExecConfig::ORACLE_BATCH_WITHOUT_BACKEND: {body}"
    );
}

#[test]
fn concurrent_clients_share_one_session() {
    let server = start_server();
    let url: Vec<String> = (0..3)
        .map(|seed| format!("/explain?cell=t5.Country&samples=120&seed={seed}&threads=2"))
        .collect();
    // Solo answers first, then the same requests hammered concurrently.
    let solo: Vec<String> = url.iter().map(|u| get(&server, u).1).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let url = &url[i % url.len()];
                let server = &server;
                scope.spawn(move || get(server, url).1)
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let body = h.join().expect("client thread");
            assert_eq!(
                body,
                solo[i % solo.len()],
                "request {i} must be bit-identical"
            );
        }
    });
}
