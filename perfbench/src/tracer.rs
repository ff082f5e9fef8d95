//! In-memory spans recorded by the benchmark around each call into a
//! layer. They are kept until the run ends and written out whole; the
//! self-time arithmetic and nesting checks live in `run.py`.

use std::time::Instant;

use kmm_telemetry::Json;

/// One timed call: name, interval (ns since the tracer's epoch), the
/// enclosing span and the read or request it served.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: Option<u64>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: Option<u64>) {
        let at = self.ns(Instant::now());
        let idx = self.record(name, at, at, self.open.last().copied(), id);
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, id: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Record a span from two instants.
    pub fn record_at(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: Option<u64>,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.record(name, s, e, parent, id)
    }

    /// `[[name, start_ns, end_ns, parent|null, id|null], ...]`.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::Str(s.name.to_string()),
                        Json::UInt(s.start_ns),
                        Json::UInt(s.end_ns),
                        opt(s.parent.map(|p| p as u64)),
                        opt(s.id),
                    ])
                })
                .collect(),
        )
    }
}
