//! Open-loop HTTP load against `kmm serve`.
//!
//! One process, two threads, one keep-alive connection: a sender writes
//! each `POST /search` at its scheduled time whether or not earlier
//! replies have arrived (requests pipeline), and a receiver reads the
//! replies in order. Latency runs from each request's *intended* send
//! time, so a stall is charged to every request queued behind it. When
//! the daemon closes a connection (`Connection: close` after its
//! keep-alive quota, or EOF), the receiver reconnects and re-sends the
//! unanswered requests; that time counts toward their latency.
//! `/metrics` is scraped before and after each rate.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use kmm_bwt::FmIndex;
use kmm_classic::Occurrence;
use kmm_core::KMismatchIndex;
use kmm_telemetry::Json;

use crate::args::Args;
use crate::check::diff;
use crate::tracer::Tracer;
use crate::{gen, parse_method};

/// `/metrics` series whose per-rate deltas the harness reports.
const SCRAPED: [&str; 9] = [
    "kmm_phase_seconds_total{phase=\"search.query\"}",
    "kmm_search_queries_total",
    "kmm_search_rank_blocks_touched_total",
    "kmm_serve_keepalive_reuses_total",
    "kmm_serve_conns_opened_total",
    "kmm_serve_shed_total",
    "kmm_serve_shed_tenant_total",
    "kmm_serve_shed_stall_total",
    "kmm_serve_shed_conns_total",
];

/// A request unanswered this long after its intended send time failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// One request's life on the wire.
#[derive(Clone, Copy)]
struct Pending {
    req: usize,
    intended: Instant,
    sent: Instant,
}

/// Write side shared by the sender and the receiver (which swaps in a
/// new connection and re-sends after a close).
struct Wire {
    stream: TcpStream,
    /// Request bytes due on the wire that the socket has not taken yet:
    /// the sender never blocks on a full socket, so it stays on schedule
    /// while the daemon applies backpressure.
    out: Vec<u8>,
    inflight: VecDeque<Pending>,
}

impl Wire {
    /// Hand the socket as much of `out` as it takes without blocking.
    /// A refused or failed write leaves the bytes queued: they go out on
    /// the next flush, or are rebuilt from `inflight` on reconnect.
    fn flush(&mut self) {
        while !self.out.is_empty() {
            match send_nowait(&self.stream, &self.out) {
                Ok(n) if n > 0 => drop(self.out.drain(..n)),
                _ => break,
            }
        }
    }
}

fn lock(wire: &Mutex<Wire>) -> MutexGuard<'_, Wire> {
    wire.lock()
        .expect("a client thread panicked while holding the wire")
}

/// What happened to one request.
#[derive(Clone, Copy, Default)]
struct Outcome {
    answered: bool,
    ok: bool,
    latency_ns: u64,
    late_ns: u64,
    ttfb_ns: u64,
    body_ns: u64,
    bytes: usize,
    sent_ns: u64,
    first_ns: u64,
    done_ns: u64,
}

/// One parsed response: status, whether the server closes after it,
/// body bounds and total length in the buffer.
struct Response {
    status: u16,
    close: bool,
    body: std::ops::Range<usize>,
    len: usize,
}

fn parse_response(buf: &[u8]) -> Result<Option<Response>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-utf8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let (mut length, mut close) = (None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => length = value.trim().parse().ok(),
            "connection" => close = value.trim().eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let length: usize = length.ok_or("response without Content-Length")?;
    let start = head_end + 4;
    Ok((buf.len() >= start + length).then(|| Response {
        status,
        close,
        body: start..start + length,
        len: start + length,
    }))
}

/// Parse a `/search` body into its occurrence list.
fn body_occurrences(body: &[u8]) -> Option<Vec<(usize, usize)>> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("occurrences")?
        .as_array()?
        .iter()
        .map(|o| {
            Some((
                o.get("position")?.as_u64()? as usize,
                o.get("mismatches")?.as_u64()? as usize,
            ))
        })
        .collect()
}

/// Acknowledge received data at once. The daemon's sockets keep Nagle's
/// algorithm on, so with the client's default delayed ACKs a response
/// can sit in the daemon's send buffer until the *next* request carries
/// the ACK for the previous one: latency then reads as the gap between
/// requests, not as the daemon's work. The flag is not sticky, so it is
/// set again after every read.
#[cfg(target_os = "linux")]
fn quickack(stream: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: `fd` is a live socket owned by `stream`, and `value`
    // points to an `i32` whose size is passed as `len`; the kernel only
    // reads it. A failure leaves the default ACK policy in place.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quickack(_stream: &TcpStream) {}

/// `send(2)` with `MSG_DONTWAIT`: what the socket takes now, or
/// `WouldBlock` when its buffer is full.
#[cfg(target_os = "linux")]
fn send_nowait(stream: &TcpStream, buf: &[u8]) -> std::io::Result<usize> {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
    }
    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_NOSIGNAL: i32 = 0x4000;
    // SAFETY: `fd` is a live socket owned by `stream`, and `buf` is a
    // live slice whose length is passed; the kernel only reads it.
    let n = unsafe {
        send(
            stream.as_raw_fd(),
            buf.as_ptr(),
            buf.len(),
            MSG_DONTWAIT | MSG_NOSIGNAL,
        )
    };
    match n {
        n if n < 0 => Err(std::io::Error::last_os_error()),
        n => Ok(n as usize),
    }
}

#[cfg(not(target_os = "linux"))]
fn send_nowait(mut stream: &TcpStream, buf: &[u8]) -> std::io::Result<usize> {
    stream.write(buf)
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    quickack(&stream);
    Ok(stream)
}

/// One `GET /metrics`, on its own connection, parsed into series.
fn scrape(addr: &str) -> Result<HashMap<String, f64>, String> {
    let mut s = connect(addr)?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| e.to_string())?;
    let resp = parse_response(&buf)?.ok_or("truncated /metrics response")?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    let text = String::from_utf8_lossy(&buf[resp.body]).into_owned();
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Settings shared by both rates.
struct Load<'a> {
    addr: String,
    bodies: Vec<Vec<u8>>,
    expected: Vec<Vec<(usize, usize)>>,
    timeout: Duration,
    tracer: Option<&'a mut Tracer>,
}

fn request_count(rate: f64, seconds: f64) -> usize {
    (rate * seconds).round() as usize
}

/// Run one rate for `seconds`, returning every request's outcome and
/// the number of reconnects.
fn run_rate(
    load: &mut Load,
    rate: f64,
    seconds: f64,
    first_req: usize,
) -> Result<(Vec<Outcome>, u64), String> {
    let count = request_count(rate, seconds);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let stream = connect(&load.addr)?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let wire = Mutex::new(Wire {
        stream,
        out: Vec::new(),
        inflight: VecDeque::new(),
    });
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + gap * count as u32 + load.timeout;
    let body = |req: usize| &load.bodies[(first_req + req) % load.bodies.len()];

    let (outcomes, reconnects) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            // Sleep until each request is due; while the socket holds
            // back queued bytes, wake every 200 µs to offer them again.
            let wait_until = |due: Instant| {
                while let Some(left) = due.checked_duration_since(Instant::now()) {
                    let pending = {
                        let mut w = lock(&wire);
                        w.flush();
                        !w.out.is_empty()
                    };
                    std::thread::sleep(match pending {
                        true => left.min(Duration::from_micros(200)),
                        false => left,
                    });
                }
            };
            for req in 0..count {
                let intended = start + gap * req as u32;
                wait_until(intended);
                let mut w = lock(&wire);
                let sent = Instant::now();
                w.out.extend_from_slice(body(req));
                w.inflight.push_back(Pending {
                    req,
                    intended,
                    sent,
                });
                w.flush();
            }
            while Instant::now() < deadline && !lock(&wire).out.is_empty() {
                wait_until(Instant::now() + Duration::from_micros(200));
            }
        });
        let receiver = scope.spawn(|| -> Result<(Vec<Outcome>, u64), String> {
            let mut outcomes = vec![Outcome::default(); count];
            let mut reader = reader;
            let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
            let mut chunk = vec![0u8; 1 << 16];
            let mut first_byte: Option<Instant> = None;
            let (mut answered, mut reconnects) = (0usize, 0u64);
            reader
                .set_read_timeout(Some(Duration::from_millis(20)))
                .map_err(|e| e.to_string())?;
            while answered < count && Instant::now() < deadline {
                let n = match reader.read(&mut chunk) {
                    Ok(n) => n,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        continue
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => 0,
                };
                let now = Instant::now();
                quickack(&reader);
                let mut reconnect = n == 0;
                if n > 0 {
                    first_byte.get_or_insert(now);
                    buf.extend_from_slice(&chunk[..n]);
                }
                while let Some(resp) = parse_response(&buf)? {
                    let p = lock(&wire)
                        .inflight
                        .pop_front()
                        .ok_or("response without a request")?;
                    let first = first_byte.unwrap_or(now).max(p.sent);
                    let got = body_occurrences(&buf[resp.body.clone()]);
                    // The answer is usable once the body is parsed.
                    let done = Instant::now();
                    let latency = done - p.intended;
                    outcomes[p.req] = Outcome {
                        answered: true,
                        ok: resp.status == 200
                            && latency <= load.timeout
                            && got.is_some_and(|g| {
                                diff(
                                    &g,
                                    &load.expected[(first_req + p.req) % load.expected.len()],
                                )
                                .is_clean()
                            }),
                        latency_ns: latency.as_nanos() as u64,
                        late_ns: (p.sent - p.intended).as_nanos() as u64,
                        ttfb_ns: (first - p.sent).as_nanos() as u64,
                        body_ns: (done - first).as_nanos() as u64,
                        bytes: resp.len,
                        sent_ns: (p.sent - start).as_nanos() as u64,
                        first_ns: (first - start).as_nanos() as u64,
                        done_ns: (done - start).as_nanos() as u64,
                    };
                    answered += 1;
                    buf.drain(..resp.len);
                    first_byte = (!buf.is_empty()).then_some(now);
                    if resp.close {
                        reconnect = true;
                        break;
                    }
                }
                if reconnect && answered < count {
                    reconnects += 1;
                    buf.clear();
                    first_byte = None;
                    let mut w = lock(&wire);
                    w.stream = connect(&load.addr)?;
                    let resend_at = Instant::now();
                    w.out.clear();
                    let pending: Vec<usize> = w.inflight.iter().map(|p| p.req).collect();
                    for req in pending {
                        w.out.extend_from_slice(body(req));
                    }
                    for p in w.inflight.iter_mut() {
                        p.sent = resend_at;
                    }
                    w.flush();
                    reader = w.stream.try_clone().map_err(|e| e.to_string())?;
                    reader
                        .set_read_timeout(Some(Duration::from_millis(20)))
                        .map_err(|e| e.to_string())?;
                } else if n > 0 {
                    lock(&wire).flush();
                }
            }
            // A request never answered reached at least the client
            // timeout; it counts as failed and as missing any limit.
            for o in outcomes.iter_mut().filter(|o| !o.answered) {
                o.latency_ns = load.timeout.as_nanos() as u64;
            }
            Ok((outcomes, reconnects))
        });
        sender.join().expect("sender thread panicked");
        receiver.join().expect("receiver thread panicked")
    })?;

    if let Some(t) = load.tracer.as_deref_mut() {
        for (req, o) in outcomes.iter().enumerate().filter(|(_, o)| o.answered) {
            let id = Some((first_req + req) as u64);
            let intended = start + gap * req as u32;
            let root = t.record_at(
                "client.request",
                intended,
                start + Duration::from_nanos(o.done_ns),
                None,
                id,
            );
            let at = |ns: u64| start + Duration::from_nanos(ns);
            t.record_at("client.send_wait", intended, at(o.sent_ns), Some(root), id);
            t.record_at("serve.ttfb", at(o.sent_ns), at(o.first_ns), Some(root), id);
            t.record_at("serve.body", at(o.first_ns), at(o.done_ns), Some(root), id);
        }
    }
    Ok((outcomes, reconnects))
}

fn us(ns: impl IntoIterator<Item = u64>) -> Json {
    Json::Arr(
        ns.into_iter()
            .map(|n| Json::Float(n as f64 / 1e3))
            .collect(),
    )
}

/// `client`: precompute every expected answer, then run the low and the
/// high rate in turn.
pub fn run(args: &Args) -> Result<Json, String> {
    let addr = format!("127.0.0.1:{}", args.num::<u16>("port")?);
    let k: usize = args.num("k")?;
    let method_name = args.str("method")?;
    let method = parse_method(method_name)?;
    let phase_seconds: f64 = args.num("phase-seconds")?;
    let rates: Vec<f64> = args
        .str("rates")?
        .split(',')
        .map(|r| r.parse().map_err(|_| format!("bad rate {r:?}")))
        .collect::<Result<_, _>>()?;
    let traced = args.flag("trace")?;
    let reads = gen::load_reads(&args.path("reads")?)?;
    // Requests cycle through the reads; only those sent need an answer.
    let sent: usize = rates.iter().map(|&r| request_count(r, phase_seconds)).sum();
    let reads = &reads[..sent.min(reads.len())];

    // Expected answers come from the same index file, searched
    // in-process before any timing starts.
    let idx_path = args.path("index")?;
    let (fm, mirror, _) = FmIndex::open_path_with_mirror(&idx_path, false)
        .map_err(|e| format!("{}: {e}", idx_path.display()))?;
    let index = KMismatchIndex::from_fm_with_mirror(fm, mirror);
    let expected = reads
        .iter()
        .map(|r| {
            let occ: Vec<Occurrence> = index.search(&r.seq, k, method).occurrences;
            occ.iter().map(|o| (o.position, o.mismatches)).collect()
        })
        .collect();
    drop(index);
    let bodies = reads
        .iter()
        .map(|r| {
            let json = format!(
                "{{\"pattern\":\"{}\",\"k\":{k},\"method\":\"{method_name}\"}}",
                kmm_dna::decode_string(&r.seq)
            );
            format!(
                "POST /search HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{json}",
                json.len()
            )
            .into_bytes()
        })
        .collect();

    let mut tracer = Tracer::new(Instant::now());
    let mut load = Load {
        addr: addr.clone(),
        bodies,
        expected,
        timeout: CLIENT_TIMEOUT,
        tracer: traced.then_some(&mut tracer),
    };
    let mut phases = Vec::new();
    let mut first_req = 0;
    for (i, &rate) in rates.iter().enumerate() {
        let before = scrape(&addr)?;
        let phase_start = Instant::now();
        let (outcomes, reconnects) = run_rate(&mut load, rate, phase_seconds, first_req)?;
        let wall = phase_start.elapsed();
        let after = scrape(&addr)?;
        first_req += outcomes.len();
        let answered: Vec<&Outcome> = outcomes.iter().filter(|o| o.answered).collect();
        let delta = SCRAPED.iter().map(|&name| {
            let d =
                after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0);
            (name.to_string(), Json::Float(d))
        });
        phases.push(Json::obj([
            ("index", Json::UInt(i as u64)),
            ("rate", Json::Float(rate)),
            ("attempted", Json::UInt(outcomes.len() as u64)),
            (
                "ok",
                Json::UInt(outcomes.iter().filter(|o| o.ok).count() as u64),
            ),
            ("reconnects", Json::UInt(reconnects)),
            ("wall_s", Json::Float(wall.as_secs_f64())),
            // Outcomes in request order; failed requests carry ok=false
            // and the latency they reached.
            (
                "ok_flags",
                Json::Arr(outcomes.iter().map(|o| Json::Bool(o.ok)).collect()),
            ),
            ("latency_us", us(outcomes.iter().map(|o| o.latency_ns))),
            ("late_us", us(answered.iter().map(|o| o.late_ns))),
            ("ttfb_us", us(answered.iter().map(|o| o.ttfb_ns))),
            ("body_us", us(answered.iter().map(|o| o.body_ns))),
            (
                "resp_bytes",
                Json::Arr(
                    answered
                        .iter()
                        .map(|o| Json::UInt(o.bytes as u64))
                        .collect(),
                ),
            ),
            ("metrics_delta", Json::obj(delta)),
        ]));
    }
    drop(load);
    Ok(Json::obj([
        ("phases", Json::Arr(phases)),
        (
            "spans",
            if traced {
                tracer.to_json()
            } else {
                Json::Arr(Vec::new())
            },
        ),
    ]))
}
