//! End-to-end tests for the `kmm serve` HTTP daemon, driven over real
//! sockets against an in-process server on an ephemeral port.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bwt_kmismatch::dna::genome::{markov, MarkovConfig};
use bwt_kmismatch::serve::{ServeConfig, Server};
use bwt_kmismatch::telemetry::events::{self, EventLog};
use bwt_kmismatch::telemetry::{Json, LogLevel};
use bwt_kmismatch::{KMismatchIndex, Method};

fn test_index() -> KMismatchIndex {
    KMismatchIndex::new(markov(8_000, &MarkovConfig::default(), 31))
}

/// All serve tests share one quiet JSON event log, installed by the
/// first test to start a server: server threads then never write to the
/// harness's stderr, and the access-log test can read the lines back.
fn event_log_path() -> &'static std::path::PathBuf {
    static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("kmm-serve-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        events::init_global(
            EventLog::new(LogLevel::Debug)
                .quiet()
                .with_json_sink(&path)
                .expect("json sink"),
        );
        path
    })
}

/// Minimal blocking HTTP/1.1 client: one request, one response.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path, "")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(addr, "POST", path, body)
}

/// Decode a 60 bp probe from the indexed text so searches actually hit.
fn probe(idx: &KMismatchIndex, at: usize) -> String {
    bwt_kmismatch::dna::decode_string(&idx.text()[at..at + 60])
}

fn start(config: ServeConfig) -> (Server, KMismatchIndex) {
    event_log_path();
    let idx = test_index();
    let server = Server::start(test_index(), config).expect("server start");
    (server, idx)
}

#[test]
fn serves_health_stats_and_metrics() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = get(addr, "/stats.json");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("stats.json parses");
    assert!(doc.get("schema").and_then(Json::as_str).is_some());

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.lines().any(|l| l.starts_with("# TYPE ")), "{body}");
    assert!(body.contains("kmm_http_requests_total"), "{body}");
    // The earlier requests in this test are already accounted for.
    assert!(
        body.contains("kmm_http_requests_total{endpoint=\"/healthz\"} 1"),
        "{body}"
    );

    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    let summary = server.join();
    assert!(summary.contains("served"), "{summary}");
}

#[test]
fn post_search_matches_direct_index_search() {
    let (server, idx) = start(ServeConfig {
        threads: 3,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    for at in [100usize, 500, 2000, 4000] {
        let pattern = probe(&idx, at);
        let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 2}}");
        let (status, response) = post(addr, "/search", &body);
        assert_eq!(status, 200, "{response}");
        let doc = Json::parse(&response).unwrap();

        let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
        let want = idx.search(&encoded, 2, Method::ALGORITHM_A);
        assert_eq!(
            doc.get("count").and_then(Json::as_u64),
            Some(want.occurrences.len() as u64)
        );
        let got: Vec<(u64, u64)> = doc
            .get("occurrences")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|o| {
                (
                    o.get("position").and_then(Json::as_u64).unwrap(),
                    o.get("mismatches").and_then(Json::as_u64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(u64, u64)> = want
            .occurrences
            .iter()
            .map(|o| (o.position as u64, o.mismatches as u64))
            .collect();
        assert_eq!(got, want, "HTTP /search diverged from the library at {at}");
    }

    // The served queries populated the flight recorder.
    let (status, body) = get(addr, "/slow.json");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    let queries = doc.get("slowest").and_then(Json::as_array).unwrap();
    assert!(!queries.is_empty(), "flight recorder saw no queries");

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn bidir_search_and_explain_default_over_mirrored_index() {
    event_log_path();
    let idx = test_index();
    let served = test_index();
    // Materialise the reverse-BWT mirror up front, as an index loaded
    // from a `kmm index --bidir` file would arrive.
    served.mirror();
    let server = Server::start(served, ServeConfig::default()).expect("server start");
    let addr = server.addr();

    // POST /search accepts method=bidir and matches the library.
    let pattern = probe(&idx, 700);
    let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 2, \"method\": \"bidir\"}}");
    let (status, response) = post(addr, "/search", &body);
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
    let want = idx.search(&encoded, 2, Method::Bidirectional);
    assert_eq!(
        doc.get("count").and_then(Json::as_u64),
        Some(want.occurrences.len() as u64)
    );

    // With the mirror resident, the default /explain comparison set
    // grows to include the bidirectional method.
    let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 2}}");
    let (status, response) = post(addr, "/explain", &body);
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    let labels: Vec<String> = doc
        .get("methods")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("method").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert!(labels.iter().any(|l| l == "Bidir"), "{labels:?}");

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn post_map_returns_alignments() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let read = probe(&idx, 1234);
    let (status, response) = post(addr, "/map", &format!("{{\"read\": \"{read}\"}}"));
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    // An error-free read sampled from the text maps uniquely to its origin.
    assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("unique"));
    let aligned = doc.get("alignments").and_then(Json::as_array).unwrap();
    assert!(aligned
        .iter()
        .any(|a| a.get("position").and_then(Json::as_u64) == Some(1234)));
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn bad_requests_get_4xx_not_a_wedge() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();
    assert_eq!(get(addr, "/no-such-route").0, 404);
    assert_eq!(get(addr, "/search").0, 405);
    assert_eq!(post(addr, "/search", "not json").0, 400);
    assert_eq!(post(addr, "/search", "{\"k\": 1}").0, 400);
    assert_eq!(
        post(addr, "/search", "{\"pattern\": \"QQQ\"}").0,
        400,
        "non-DNA pattern"
    );
    // The server is still healthy afterwards.
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn handler_panic_is_isolated_and_counted() {
    let (server, idx) = start(ServeConfig {
        threads: 2,
        panic_pattern: Some("ACGTACGT".to_string()),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // The injected fault panics inside the handler: the client sees a
    // 500 and the worker survives.
    let (status, body) = post(addr, "/search", "{\"pattern\": \"ACGTACGT\"}");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("panicked"), "{body}");

    // The very next request on the same server works.
    let pattern = probe(&idx, 300);
    let (status, _) = post(addr, "/search", &format!("{{\"pattern\": \"{pattern}\"}}"));
    assert_eq!(status, 200);
    assert_eq!(get(addr, "/healthz").0, 200);

    // The error is visible in both accounting layers.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("kmm_serve_errors_total 1"),
        "serve.errors missing: {metrics}"
    );
    assert!(
        metrics.contains("kmm_http_errors_total{endpoint=\"/search\"} 1"),
        "{metrics}"
    );
    let (_, stats) = get(addr, "/stats.json");
    let doc = Json::parse(&stats).unwrap();
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("serve.errors"))
            .and_then(Json::as_u64),
        Some(1)
    );

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn trace_json_exports_served_queries() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let pattern = probe(&idx, 600);
    post(addr, "/search", &format!("{{\"pattern\": \"{pattern}\"}}"));
    let (status, body) = get(addr, "/trace.json");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(!events.is_empty(), "no spans exported for served queries");
    post(addr, "/shutdown", "");
    server.join();
}

/// Raw request writer for malformed-framing tests the `http` helper
/// can't express (it always sends a Content-Length).
fn raw(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn post_without_content_length_gets_411() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();
    let (status, body) = raw(
        addr,
        "POST /search HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 411, "{body}");
    // GETs without a length are fine, and the server is still healthy.
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn unparseable_content_length_gets_400() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();
    let (status, body) = raw(
        addr,
        "POST /search HTTP/1.1\r\nHost: test\r\nContent-Length: banana\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn oversized_declared_body_gets_413_before_reading_it() {
    let (server, _idx) = start(ServeConfig {
        max_body_bytes: 1024,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    // Declare a 100 MB body but never send a byte of it: the refusal
    // must come from the declared length alone.
    let (status, body) = raw(
        addr,
        "POST /search HTTP/1.1\r\nHost: test\r\nContent-Length: 104857600\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("exceeds"), "{body}");
    // A request inside the cap still works.
    assert_eq!(get(addr, "/healthz").0, 200);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn expired_deadline_returns_504_with_truncated_marker() {
    let (server, idx) = start(ServeConfig::default());
    let addr = server.addr();
    let pattern = probe(&idx, 900);

    // timeout_ms 0 = already expired at entry: deterministic truncation.
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"pattern\": \"{pattern}\", \"k\": 2, \"timeout_ms\": 0}}"),
    );
    assert_eq!(status, 504, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(true));
    assert!(doc.get("occurrences").and_then(Json::as_array).is_some());

    // Same for /map.
    let (status, body) = post(
        addr,
        "/map",
        &format!("{{\"read\": \"{pattern}\", \"timeout_ms\": 0}}"),
    );
    assert_eq!(status, 504, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(true));

    // A generous budget completes with the marker set to false and the
    // exact no-deadline results.
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"pattern\": \"{pattern}\", \"k\": 2, \"timeout_ms\": 600000}}"),
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(false));
    let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
    let want = idx.search(&encoded, 2, Method::ALGORITHM_A);
    assert_eq!(
        doc.get("count").and_then(Json::as_u64),
        Some(want.occurrences.len() as u64)
    );

    // The timeout is visible in the metrics.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("kmm_search_timeouts_total"),
        "search.timeouts series missing: {metrics}"
    );
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn server_side_default_timeout_applies_without_body_field() {
    let (server, idx) = start(ServeConfig {
        timeout_ms: Some(600_000),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let pattern = probe(&idx, 1500);
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"pattern\": \"{pattern}\", \"k\": 1}}"),
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    // The deadline path ran (marker present) but the budget was ample.
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(false));
    post(addr, "/shutdown", "");
    server.join();
}

/// A `/search` error body carries a `request_id`, and the server's
/// access log has a `serve.access` line with the same id and status —
/// the client-quoted id is enough to find the server-side record.
#[test]
fn search_error_response_id_matches_access_log_line() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = post(addr, "/search", "{\"k\": 1}");
    assert_eq!(status, 400, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("missing \"pattern\"")
    );
    let req_id = doc
        .get("request_id")
        .and_then(Json::as_str)
        .expect("request_id in error body")
        .to_string();
    assert!(req_id.starts_with("req-"), "{req_id}");

    post(addr, "/shutdown", "");
    server.join();

    let logged = std::fs::read_to_string(event_log_path()).expect("event log file");
    let mut matched = false;
    for line in logged.lines() {
        let Ok(event) = Json::parse(line) else {
            continue;
        };
        if event.get("target").and_then(Json::as_str) != Some("serve.access") {
            continue;
        }
        let Some(fields) = event.get("fields") else {
            continue;
        };
        if fields.get("request_id").and_then(Json::as_str) == Some(req_id.as_str()) {
            assert_eq!(fields.get("status").and_then(Json::as_str), Some("400"));
            assert_eq!(event.get("level").and_then(Json::as_str), Some("warn"));
            matched = true;
        }
    }
    assert!(matched, "no serve.access line for {req_id}:\n{logged}");
}

/// `/metrics` is shape-stable: endpoints that have served nothing still
/// expose their window gauges (zeros, percentile 0), the allocator
/// families are present, and every `# TYPE`d family has a `# HELP`.
#[test]
fn metrics_expose_idle_endpoints_and_memory_families() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    // /map is idle, yet all its series are emitted.
    assert!(
        body.contains("kmm_http_window_requests{endpoint=\"/map\"} 0"),
        "{body}"
    );
    assert!(
        body.contains("kmm_http_window_errors{endpoint=\"/map\"} 0"),
        "{body}"
    );
    assert!(
        body.contains("kmm_http_latency_ns{endpoint=\"/map\",quantile=\"0.99\"} 0"),
        "{body}"
    );
    assert!(body.contains("# TYPE kmm_mem_live_bytes gauge"), "{body}");
    assert!(
        body.contains("kmm_mem_phase_allocated_bytes_total{mem_phase=\"serve\"}"),
        "{body}"
    );
    for line in body.lines().filter(|l| l.starts_with("# TYPE ")) {
        let name = line.split_whitespace().nth(2).unwrap();
        assert!(
            body.contains(&format!("# HELP {name} ")),
            "no HELP for {name}"
        );
    }

    post(addr, "/shutdown", "");
    server.join();
}

/// `kmm serve --mmap` end to end: the daemon opens the index zero-copy,
/// reports `index.load.mode = 2` (mmap) on `/stats.json`, and answers
/// searches identically to the in-memory path.
#[test]
fn serve_run_with_mmap_reports_load_mode_and_answers_match() {
    event_log_path();
    let idx = test_index();
    let dir = std::env::temp_dir().join(format!("kmm-serve-mmap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idx_path = dir.join("serve.idx");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&idx_path).unwrap());
    idx.fm().save(&mut w).unwrap();
    drop(w);
    let port_file = dir.join("serve.port");
    let _ = std::fs::remove_file(&port_file);

    let config = ServeConfig {
        prefer_mmap: true,
        port_file: Some(port_file.clone()),
        ..ServeConfig::default()
    };
    let handle = {
        let idx_path = idx_path.clone();
        std::thread::spawn(move || bwt_kmismatch::serve::run(&idx_path, config))
    };
    // `run` writes the ephemeral port once bound.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let port: u16 = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse() {
                break port;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "port file never appeared"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    let (status, stats) = get(addr, "/stats.json");
    assert_eq!(status, 200);
    let doc = Json::parse(&stats).expect("stats json");
    let counters = doc.get("counters").expect("counters object");
    // On linux/x86_64 the map succeeds and mode is 2 (mmap) with zero
    // read bytes; a platform without mmap support falls back to 1 (read).
    let mode = counters
        .get("index.load.mode")
        .and_then(Json::as_u64)
        .expect("index.load.mode counter");
    if mode == 2 {
        assert_eq!(
            counters.get("index.load.io_bytes").and_then(Json::as_u64),
            Some(0)
        );
        assert!(
            counters
                .get("index.load.bytes_mapped")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0
        );
    } else {
        assert_eq!(mode, 1, "mode must be read (1) or mmap (2)");
    }

    let pattern = probe(&idx, 400);
    let body = format!("{{\"pattern\": \"{pattern}\", \"k\": 1}}");
    let (status, response) = post(addr, "/search", &body);
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    let served: Vec<u64> = doc
        .get("occurrences")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|o| o.get("position").and_then(Json::as_u64))
        .collect();
    let direct: Vec<u64> = idx
        .search(
            &bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap(),
            1,
            Method::ALGORITHM_A,
        )
        .occurrences
        .iter()
        .map(|o| o.position as u64)
        .collect();
    assert_eq!(served, direct);

    post(addr, "/shutdown", "");
    handle.join().unwrap().unwrap();
}

/// Read exactly one `Content-Length`-framed response off a keep-alive
/// stream (the `http` helper reads to EOF, which keep-alive never hits).
/// `carry` holds bytes past the end of this response — the server may
/// coalesce pipelined responses into one write, so anything after the
/// framed body belongs to the NEXT response and must survive this call.
fn read_one_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response headers");
        assert!(n > 0, "EOF before response headers");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            if name.eq_ignore_ascii_case("content-length") {
                value.trim().parse().ok()
            } else {
                None
            }
        })
        .expect("content-length header");
    let total = header_end + 4 + content_length;
    while carry.len() < total {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "EOF mid response body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&carry[header_end + 4..total]).to_string();
    carry.drain(..total);
    (status, head, body)
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_socket() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    // No Connection header: HTTP/1.1 defaults to keep-alive.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut carry = Vec::new();
    let (status, head, body) = read_one_response(&mut stream, &mut carry);
    assert_eq!((status, body.as_str()), (200, "ok\n"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // Second request on the very same socket.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, head, body) = read_one_response(&mut stream, &mut carry);
    assert_eq!((status, body.as_str()), (200, "ok\n"), "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    // The close is real: the stream reaches EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();

    let (_, metrics) = get(addr, "/metrics");
    let reuses: u64 = metrics
        .lines()
        .find(|l| l.starts_with("kmm_serve_keepalive_reuses_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("kmm_serve_keepalive_reuses_total series");
    assert!(reuses >= 1, "no keep-alive reuse counted:\n{metrics}");

    post(addr, "/shutdown", "");
    server.join();
}

/// A client that sends at a fixed gap and acknowledges lazily (a plain
/// std socket: delayed ACKs, no `TCP_QUICKACK`) must get each response
/// at once. With Nagle's algorithm on the daemon's socket, a single
/// pipelined pair is enough to lock the connection into a state where
/// every response waits for the next request to carry the ACK of the
/// previous one, and latency reads as the gap.
#[test]
fn fixed_gap_keep_alive_responses_do_not_wait_for_the_next_request() {
    const GAP: Duration = Duration::from_millis(20);
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = stream.try_clone().unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let request = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";
    // 10 requests, then a back-to-back pair (the second response is
    // written while the first is unacknowledged), then 20 more.
    const PAIR_AT: usize = 10;
    const TOTAL: usize = 31;
    let receiver = std::thread::spawn(move || {
        let mut carry = Vec::new();
        (0..TOTAL)
            .map(|_| {
                let (status, _, _) = read_one_response(&mut reader, &mut carry);
                assert_eq!(status, 200);
                std::time::Instant::now()
            })
            .collect::<Vec<_>>()
    });
    let start = std::time::Instant::now();
    let mut sent = Vec::new();
    for i in 0..TOTAL - 1 {
        let due = start + GAP * i as u32;
        std::thread::sleep(due.saturating_duration_since(std::time::Instant::now()));
        let copies = if i == PAIR_AT { 2 } else { 1 };
        for _ in 0..copies {
            sent.push(std::time::Instant::now());
            stream.write_all(request).unwrap();
        }
    }
    let received = receiver.join().unwrap();
    let mut after_pair: Vec<Duration> = received[PAIR_AT + 2..]
        .iter()
        .zip(&sent[PAIR_AT + 2..])
        .map(|(r, s)| r.duration_since(*s))
        .collect();
    after_pair.sort();
    let median = after_pair[after_pair.len() / 2];
    assert!(
        median < GAP / 2,
        "responses wait for the next request: median {median:?} at a {GAP:?} gap"
    );
    drop(stream);
    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (server, idx) = start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let pattern = probe(&idx, 700);
    let search = format!("{{\"pattern\": \"{pattern}\", \"k\": 1}}");

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    // Three requests in a single write; the last one closes.
    let burst = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
         POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{search}\
         GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        search.len()
    );
    stream.write_all(burst.as_bytes()).unwrap();

    let mut carry = Vec::new();
    let (s1, _, b1) = read_one_response(&mut stream, &mut carry);
    let (s2, _, b2) = read_one_response(&mut stream, &mut carry);
    let (s3, _, b3) = read_one_response(&mut stream, &mut carry);
    assert_eq!((s1, b1.as_str()), (200, "ok\n"));
    assert_eq!(s2, 200, "{b2}");
    let doc = Json::parse(&b2).unwrap();
    let encoded = bwt_kmismatch::dna::encode(pattern.as_bytes()).unwrap();
    let want = idx.search(&encoded, 1, Method::ALGORITHM_A);
    assert_eq!(
        doc.get("count").and_then(Json::as_u64),
        Some(want.occurrences.len() as u64),
        "pipelined /search diverged"
    );
    assert_eq!((s3, b3.as_str()), (200, "ok\n"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the closing response");

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn tenant_rate_limit_sheds_with_429() {
    let (server, _idx) = start(ServeConfig {
        tenant_rate: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let as_tenant = |name: &str| {
        raw(
            addr,
            &format!(
                "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Kmm-Tenant: {name}\r\nConnection: close\r\n\r\n"
            ),
        )
    };

    // Burst of 3 as alice inside one second: the bucket holds 1 token
    // (burst = rate = 1), so at least one request must be shed.
    let alice: Vec<u16> = (0..3).map(|_| as_tenant("alice").0).collect();
    assert_eq!(alice[0], 200, "first request must be admitted: {alice:?}");
    assert!(
        alice.iter().any(|&s| s == 429),
        "burst of 3 at rate 1 never shed: {alice:?}"
    );
    // bob has his own bucket: admitted regardless of alice's burst.
    assert_eq!(as_tenant("bob").0, 200);

    let (_, metrics) = get(addr, "/metrics");
    let shed: u64 = metrics
        .lines()
        .find(|l| l.starts_with("kmm_serve_shed_tenant_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("kmm_serve_shed_tenant_total series");
    assert!(shed >= 1, "tenant shed not counted:\n{metrics}");

    // /shutdown is control-plane: exempt from admission.
    assert_eq!(post(addr, "/shutdown", "").0, 200);
    server.join();
}

#[test]
fn slow_loris_connection_is_evicted_with_408() {
    let (server, _idx) = start(ServeConfig {
        idle_timeout_ms: 150,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Half a request line, then silence: the idle deadline must evict.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(b"GET /healthz HTT").unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("eviction notice");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .unwrap();
    assert_eq!(status, 408, "{response}");

    let (_, metrics) = get(addr, "/metrics");
    let stalls: u64 = metrics
        .lines()
        .find(|l| l.starts_with("kmm_serve_shed_stall_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("kmm_serve_shed_stall_total series");
    assert!(stalls >= 1, "stall eviction not counted:\n{metrics}");

    post(addr, "/shutdown", "");
    server.join();
}

#[test]
fn connections_past_max_conns_get_429_without_being_read() {
    let (server, _idx) = start(ServeConfig {
        max_conns: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Two connections hold the cap without sending anything.
    let mut a = TcpStream::connect(addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let _b = TcpStream::connect(addr).unwrap();
    // Give the event loop a beat to accept both.
    std::thread::sleep(Duration::from_millis(50));

    // The third is refused before it sends a byte.
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut refusal = String::new();
    c.read_to_string(&mut refusal).expect("refusal response");
    assert!(refusal.starts_with("HTTP/1.1 429"), "{refusal}");
    assert!(refusal.contains("Retry-After:"), "{refusal}");

    // Connection `a` was admitted: it still works, and can shut down.
    a.write_all(
        b"POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut response = String::new();
    a.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    server.join();
}

/// The connection/shed series are emitted from startup (zeros included):
/// a dashboard or alert never sees a disappearing series.
#[test]
fn serve_connection_counters_are_emitted_at_zero_from_startup() {
    let (server, _idx) = start(ServeConfig::default());
    let addr = server.addr();

    // The very first request: every serve series already exists.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "kmm_serve_keepalive_reuses_total 0",
        "kmm_serve_shed_tenant_total 0",
        "kmm_serve_shed_stall_total 0",
        "kmm_serve_shed_conns_total 0",
        "kmm_serve_shed_total 0",
        // This request's own connection is the one open connection.
        "kmm_serve_open_connections 1",
        "kmm_serve_conns_opened_total 1",
    ] {
        assert!(metrics.contains(series), "missing '{series}':\n{metrics}");
    }

    post(addr, "/shutdown", "");
    server.join();
}
