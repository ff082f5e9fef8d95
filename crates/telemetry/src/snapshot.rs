//! Plain-data snapshot of a [`crate::MetricsRecorder`], with JSON
//! emit/parse and a human-readable table renderer.

use crate::histogram::{HistogramSnapshot, BUCKETS};
use crate::json::Json;
use crate::recorder::{Counter, Hist, Phase};

/// Schema tag written into every emitted document.
pub const SCHEMA: &str = "kmm-telemetry/v1";

/// Accumulated time for one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Dotted phase name, e.g. `"index.sa"`.
    pub name: String,
    /// Stage the phase belongs to: `"index"`, `"preprocess"`, or `"search"`.
    pub stage: String,
    /// Number of spans credited to this phase.
    pub entries: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
}

/// Value of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// Everything a recorder collected, detached from the atomics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub phases: Vec<PhaseSnapshot>,
    pub counters: Vec<CounterSnapshot>,
    /// `(name, histogram)` pairs in declaration order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Phase entry by enum (always present in recorder-made snapshots).
    pub fn phase(&self, phase: Phase) -> &PhaseSnapshot {
        self.phases
            .iter()
            .find(|p| p.name == phase.name())
            .expect("snapshot is missing a declared phase")
    }

    /// Counter value by enum, 0 if absent.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == counter.name())
            .map_or(0, |c| c.value)
    }

    /// Histogram by enum, if present.
    pub fn histogram(&self, hist: Hist) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(name, _)| name == hist.name())
            .map(|(_, h)| h)
    }

    /// Wall nanoseconds spent in one stage (`"index"` /
    /// `"preprocess"` / `"search"`): the sum over its outermost recorded
    /// phases. A phase nested in a recorded same-stage ancestor
    /// ([`Phase::parent`]) is already inside that ancestor's time, so
    /// `search.descend` adds nothing once `search.query` is recorded.
    pub fn stage_total_ns(&self, stage: &str) -> u64 {
        let recorded = |phase: Phase| {
            self.phases
                .iter()
                .any(|p| p.name == phase.name() && p.stage == stage && p.entries > 0)
        };
        self.phases
            .iter()
            .filter(|p| p.stage == stage)
            .filter(|p| {
                let parent = Phase::from_name(&p.name).and_then(Phase::parent);
                !std::iter::successors(parent, |a| a.parent()).any(recorded)
            })
            .map(|p| p.total_ns)
            .sum()
    }

    /// Emit the full snapshot as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            (
                "phases",
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|p| {
                            (
                                p.name.clone(),
                                Json::obj([
                                    ("stage", Json::Str(p.stage.clone())),
                                    ("entries", Json::UInt(p.entries)),
                                    ("total_ns", Json::UInt(p.total_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|c| (c.name.clone(), Json::UInt(c.value)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(name, h)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("count", Json::UInt(h.count)),
                                    ("sum", Json::UInt(h.sum)),
                                    ("min", Json::UInt(h.min)),
                                    ("max", Json::UInt(h.max)),
                                    // Derived, recomputable fields for
                                    // consumers that don't want to walk
                                    // buckets; from_json ignores them.
                                    ("p50", Json::Float(h.percentile(0.50))),
                                    ("p95", Json::Float(h.percentile(0.95))),
                                    ("p99", Json::Float(h.percentile(0.99))),
                                    (
                                        "buckets",
                                        Json::Arr(
                                            h.buckets.iter().map(|&n| Json::UInt(n)).collect(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild a snapshot from a document produced by [`Self::to_json`].
    pub fn from_json(json: &Json) -> Result<MetricsSnapshot, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\" field")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        let u64_field = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };

        let mut phases = Vec::new();
        for (name, p) in json
            .get("phases")
            .and_then(Json::as_object)
            .ok_or("missing \"phases\" object")?
        {
            phases.push(PhaseSnapshot {
                name: name.clone(),
                stage: p
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or("phase missing \"stage\"")?
                    .to_string(),
                entries: u64_field(p, "entries")?,
                total_ns: u64_field(p, "total_ns")?,
            });
        }

        let mut counters = Vec::new();
        for (name, v) in json
            .get("counters")
            .and_then(Json::as_object)
            .ok_or("missing \"counters\" object")?
        {
            counters.push(CounterSnapshot {
                name: name.clone(),
                value: v
                    .as_u64()
                    .ok_or_else(|| format!("counter {name:?} is not a u64"))?,
            });
        }

        let mut histograms = Vec::new();
        for (name, h) in json
            .get("histograms")
            .and_then(Json::as_object)
            .ok_or("missing \"histograms\" object")?
        {
            let raw = h
                .get("buckets")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("histogram {name:?} missing \"buckets\""))?;
            if raw.len() != BUCKETS {
                return Err(format!(
                    "histogram {name:?} has {} buckets, expected {BUCKETS}",
                    raw.len()
                ));
            }
            let mut buckets = [0u64; BUCKETS];
            for (i, v) in raw.iter().enumerate() {
                buckets[i] = v
                    .as_u64()
                    .ok_or_else(|| format!("histogram {name:?} bucket {i} is not a u64"))?;
            }
            histograms.push((
                name.clone(),
                HistogramSnapshot {
                    buckets,
                    count: u64_field(h, "count")?,
                    sum: u64_field(h, "sum")?,
                    min: u64_field(h, "min")?,
                    max: u64_field(h, "max")?,
                },
            ));
        }

        Ok(MetricsSnapshot {
            phases,
            counters,
            histograms,
        })
    }

    /// Render a human-readable table (phases with nonzero entries,
    /// nonzero counters, populated histograms).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("phase                     entries     total       mean\n");
        for stage in ["index", "preprocess", "search"] {
            for p in self.phases.iter().filter(|p| p.stage == stage) {
                if p.entries == 0 {
                    continue;
                }
                let mean = p.total_ns / p.entries;
                out.push_str(&format!(
                    "  {:<22} {:>8} {:>9} {:>10}\n",
                    p.name,
                    p.entries,
                    fmt_ns(p.total_ns),
                    fmt_ns(mean),
                ));
            }
            let total = self.stage_total_ns(stage);
            if total > 0 {
                out.push_str(&format!(
                    "  {:<22} {:>8} {:>9}\n",
                    format!("{stage} total"),
                    "",
                    fmt_ns(total)
                ));
            }
        }
        out.push_str("counter                     value\n");
        for c in &self.counters {
            if c.value > 0 {
                out.push_str(&format!("  {:<24} {:>7}\n", c.name, c.value));
            }
        }
        let populated: Vec<_> = self
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        if !populated.is_empty() {
            out.push_str(
                "histogram                   count       min       p50       p95       p99       max\n",
            );
            for (name, h) in populated {
                out.push_str(&format!(
                    "  {:<24} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                    name,
                    h.count,
                    h.min,
                    fmt_f64(h.percentile(0.50)),
                    fmt_f64(h.percentile(0.95)),
                    fmt_f64(h.percentile(0.99)),
                    h.max,
                ));
            }
        }
        out
    }
}

/// Render an interpolated percentile compactly: integers without a
/// fraction, everything else with one decimal.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Render nanoseconds at a human scale (ns/µs/ms/s).
fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{}µs", ns / 1_000)
    } else if ns < 10_000_000_000 {
        format!("{}ms", ns / 1_000_000)
    } else {
        format!("{:.1}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{MetricsRecorder, Recorder};

    fn populated_snapshot() -> MetricsSnapshot {
        let rec = MetricsRecorder::new();
        {
            let _s = rec.span(Phase::IndexSa);
        }
        {
            let _s = rec.span(Phase::PreprocessRarray);
        }
        {
            let _s = rec.span(Phase::SearchQuery);
        }
        rec.add(Counter::Queries, 1);
        rec.add(Counter::Leaves, 42);
        rec.add(Counter::Occurrences, u64::MAX);
        rec.observe(Hist::SearchLatencyNs, 0);
        rec.observe(Hist::SearchLatencyNs, 1);
        rec.observe(Hist::SearchLatencyNs, u64::MAX);
        rec.observe(Hist::IntervalWidth, 1024);
        rec.observe(Hist::TerminationDepth, 33);
        rec.snapshot()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = populated_snapshot();
        let back =
            MetricsSnapshot::from_json(&Json::parse(&snap.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, snap);
        // u64::MAX counter and histogram extremes survive exactly.
        assert_eq!(back.counter(Counter::Occurrences), u64::MAX);
        assert_eq!(back.histogram(Hist::SearchLatencyNs).unwrap().max, u64::MAX);
    }

    #[test]
    fn snapshot_contains_every_stage() {
        let snap = MetricsRecorder::new().snapshot();
        let json = snap.to_json();
        let phases = json.get("phases").and_then(Json::as_object).unwrap();
        for stage in ["index", "preprocess", "search"] {
            assert!(
                phases
                    .iter()
                    .any(|(_, p)| p.get("stage").and_then(Json::as_str) == Some(stage)),
                "no phase with stage {stage:?} in emitted JSON"
            );
        }
        for c in Counter::ALL {
            assert!(json.get("counters").unwrap().get(c.name()).is_some());
        }
        for h in Hist::ALL {
            assert!(json.get("histograms").unwrap().get(h.name()).is_some());
        }
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(MetricsSnapshot::from_json(&Json::parse("{}").unwrap()).is_err());
        let wrong_schema = Json::obj([("schema", Json::Str("other/v9".into()))]);
        assert!(MetricsSnapshot::from_json(&wrong_schema)
            .unwrap_err()
            .contains("unsupported schema"));
        // Truncated bucket array is rejected.
        let mut snap = populated_snapshot().to_json().to_compact();
        snap = snap.replacen("\"buckets\":[", "\"buckets\":[9,", 1);
        let reparsed = Json::parse(&snap).unwrap();
        assert!(MetricsSnapshot::from_json(&reparsed)
            .unwrap_err()
            .contains("buckets"));
    }

    #[test]
    fn render_shows_active_rows_only() {
        let text = populated_snapshot().render();
        assert!(text.contains("index.sa"));
        assert!(text.contains("preprocess.rarray"));
        assert!(text.contains("search.query"));
        assert!(text.contains("search.leaves"));
        assert!(text.contains("42"));
        assert!(text.contains("search.latency_ns"));
        // Untouched phases and counters stay out of the table.
        assert!(!text.contains("index.load"));
        assert!(!text.contains("map.reads_total"));
    }

    #[test]
    fn json_carries_derived_percentiles() {
        let snap = populated_snapshot();
        let json = snap.to_json();
        let h = json
            .get("histograms")
            .unwrap()
            .get("search.latency_ns")
            .unwrap();
        for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let emitted = h.get(key).unwrap().as_f64().unwrap();
            let expected = snap.histogram(Hist::SearchLatencyNs).unwrap().percentile(q);
            assert_eq!(emitted, expected, "{key} mismatch");
        }
        let text = snap.render();
        assert!(text.contains("p50"));
        assert!(text.contains("p95"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn stage_totals_sum_member_phases() {
        let snap = populated_snapshot();
        let index_sum: u64 = snap
            .phases
            .iter()
            .filter(|p| p.stage == "index")
            .map(|p| p.total_ns)
            .sum();
        assert_eq!(snap.stage_total_ns("index"), index_sum);
        assert_eq!(snap.stage_total_ns("nonexistent"), 0);

        // Nested phases count once: only the outermost recorded phase
        // of a chain adds to its stage.
        let rec = MetricsRecorder::new();
        rec.phase_add(Phase::SearchDescend, 60);
        rec.phase_add(Phase::PreprocessRarray, 30);
        assert_eq!(rec.snapshot().stage_total_ns("search"), 60);
        rec.phase_add(Phase::SearchQuery, 100);
        assert_eq!(rec.snapshot().stage_total_ns("search"), 100);
        rec.phase_add(Phase::SearchRead, 150);
        assert_eq!(rec.snapshot().stage_total_ns("search"), 150);
        // Nesting in another stage's phase does not hide a phase.
        assert_eq!(rec.snapshot().stage_total_ns("preprocess"), 30);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(25_000), "25µs");
        assert_eq!(fmt_ns(25_000_000), "25ms");
        assert_eq!(fmt_ns(12_500_000_000), "12.5s");
    }
}
