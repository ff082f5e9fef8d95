//! Span-tracing guarantees across the search and map stacks.
//!
//! Attaching a [`TraceRecorder`] must never change results — search and
//! map output stay bit-identical to untraced runs — and the traces it
//! collects must be structurally sound: every span nests inside its
//! parent's interval, every trace is rooted, and a parallel batch
//! produces the same per-query span multiset as a serial one at any
//! thread width (only worker attribution may differ).

use std::collections::{BTreeMap, BTreeSet};

use bwt_kmismatch::core::{MapperConfig, ReadMapper};
use bwt_kmismatch::dna::genome::{markov, MarkovConfig};
use bwt_kmismatch::dna::paper_reads;
use bwt_kmismatch::par::ThreadPool;
use bwt_kmismatch::telemetry::{
    chrome_trace_json, Json, NoopRecorder, QueryTrace, Recorder, TraceConfig, TraceRecorder,
};
use bwt_kmismatch::{KMismatchIndex, Method};

const THREAD_WIDTHS: [usize; 3] = [1, 2, 8];

fn test_corpus() -> (KMismatchIndex, Vec<Vec<u8>>) {
    let genome = markov(20_000, &MarkovConfig::default(), 777);
    let reads: Vec<Vec<u8>> = paper_reads(&genome, 60, 40, 5)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    (KMismatchIndex::new(genome), reads)
}

/// Every span must lie inside its parent's interval and reference a
/// parent that appears earlier in the span list (spans[0] is the root).
fn assert_well_nested(trace: &QueryTrace) {
    assert!(!trace.spans.is_empty(), "trace without spans");
    let root = &trace.spans[0];
    assert_eq!(root.parent, 0, "spans[0] must be the root");
    for (i, span) in trace.spans.iter().enumerate() {
        if i == 0 {
            continue;
        }
        let parent = trace
            .spans
            .iter()
            .find(|p| p.id == span.parent)
            .unwrap_or_else(|| panic!("span {} has unknown parent {}", span.id, span.parent));
        assert!(
            span.start_ns >= parent.start_ns && span.end_ns() <= parent.end_ns(),
            "span {} [{}, {}] escapes parent {} [{}, {}]",
            span.id,
            span.start_ns,
            span.end_ns(),
            parent.id,
            parent.start_ns,
            parent.end_ns(),
        );
    }
}

/// The order-independent signature of one query's trace: the multiset of
/// phase names in its span tree, keyed by the `q=N` annotation.
fn span_multisets(traces: &[QueryTrace]) -> BTreeMap<String, BTreeMap<&'static str, usize>> {
    let mut out = BTreeMap::new();
    for t in traces {
        let q = t
            .label
            .split_whitespace()
            .find(|w| w.starts_with("q="))
            .unwrap_or_else(|| panic!("trace label missing q= tag: {:?}", t.label))
            .to_string();
        let mut multiset = BTreeMap::new();
        for s in &t.spans {
            *multiset.entry(s.phase.name()).or_insert(0) += 1;
        }
        let prev = out.insert(q, multiset);
        assert!(prev.is_none(), "duplicate query tag in {:?}", t.label);
    }
    out
}

#[test]
fn traced_search_results_are_bit_identical() {
    let (idx, reads) = test_corpus();
    for method in [Method::ALGORITHM_A, Method::Bwt { use_phi: true }] {
        for read in reads.iter().take(10) {
            let plain = idx.search(read, 2, method);
            let rec = TraceRecorder::new();
            let traced = idx.search_with(read, 2, method, None, &rec).into_inner();
            assert_eq!(plain.occurrences, traced.occurrences);
            assert_eq!(plain.stats, traced.stats);
        }
    }
}

#[test]
fn traced_map_results_are_bit_identical() {
    let (idx, reads) = test_corpus();
    let mapper = ReadMapper::new(
        &idx,
        MapperConfig {
            k: 3,
            both_strands: true,
            method: Method::ALGORITHM_A,
        },
    );
    for read in reads.iter().take(10) {
        let plain = mapper.map_with(read, None, &NoopRecorder).into_inner();
        let rec = TraceRecorder::new();
        let traced = mapper.map_with(read, None, &rec).into_inner();
        assert_eq!(plain, traced);
        // Each mapped read produced exactly one rooted trace.
        assert_eq!(rec.traces().len(), 1);
    }
}

#[test]
fn traced_map_root_label_repeats_no_key() {
    // A read's root span carries the read's own label; its nested strand
    // queries must not append a second `k=` (or an `m=` that restates
    // `read_len=`).
    let (idx, reads) = test_corpus();
    let mapper = ReadMapper::new(
        &idx,
        MapperConfig {
            k: 3,
            both_strands: true,
            method: Method::Bidirectional,
        },
    );
    let rec = TraceRecorder::new();
    mapper.map_batch_recorded(&reads[..8], &ThreadPool::new(2), &rec);
    let traces = rec.traces();
    assert_eq!(traces.len(), 8);
    for t in &traces {
        let keys: Vec<&str> = t
            .label
            .split_whitespace()
            .map(|word| word.split('=').next().unwrap())
            .collect();
        let unique: BTreeSet<&str> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "repeated key in {:?}", t.label);
        assert!(t.label.contains("method=Bidir"), "{:?}", t.label);
    }
}

#[test]
fn spans_nest_within_their_parents() {
    let (idx, reads) = test_corpus();
    let rec = TraceRecorder::new();
    for read in reads.iter().take(20) {
        idx.search_with(read, 2, Method::ALGORITHM_A, None, &rec);
    }
    let traces = rec.traces();
    assert_eq!(traces.len(), 20);
    for t in &traces {
        assert_well_nested(t);
        // Algorithm A walks at least one mismatching tree per query.
        assert!(t.spans.len() >= 2, "no child spans under the root");
    }
}

#[test]
fn batch_widths_produce_same_span_multiset_per_query() {
    let (idx, reads) = test_corpus();
    let serial = TraceRecorder::new();
    for (i, read) in reads.iter().enumerate() {
        serial.annotate(&format!("q={i}"));
        idx.search_with(read, 2, Method::ALGORITHM_A, None, &serial);
    }
    let want = span_multisets(&serial.traces());
    assert_eq!(want.len(), reads.len());
    for threads in THREAD_WIDTHS {
        let pool = ThreadPool::new(threads);
        let rec = TraceRecorder::new();
        idx.search_batch(&reads, 2, Method::ALGORITHM_A, &pool, None, &rec);
        let got = span_multisets(&rec.traces());
        assert_eq!(got, want, "span multisets diverged at threads={threads}");
    }
}

#[test]
fn flight_recorder_keeps_the_k_slowest_sorted() {
    let (idx, reads) = test_corpus();
    let rec = TraceRecorder::with_config(TraceConfig {
        flight_capacity: 4,
        ..TraceConfig::default()
    });
    for read in &reads {
        idx.search_with(read, 2, Method::ALGORITHM_A, None, &rec);
    }
    let slowest = rec.flight().slowest();
    assert_eq!(slowest.len(), 4);
    assert!(
        slowest.windows(2).all(|w| w[0].dur_ns >= w[1].dur_ns),
        "flight entries not sorted slowest-first"
    );
    // The retained floor really is the maximum over everything seen:
    // every trace in the full buffer is no slower than the flight floor.
    let floor = slowest.last().unwrap().dur_ns;
    let all = rec.traces();
    let mut durations: Vec<u64> = all.iter().map(|t| t.dur_ns).collect();
    durations.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(floor, durations[3], "flight floor is not the 4th slowest");
}

#[test]
fn chrome_trace_export_is_loadable_json() {
    let (idx, reads) = test_corpus();
    let rec = TraceRecorder::new();
    for read in reads.iter().take(5) {
        idx.search_with(read, 2, Method::ALGORITHM_A, None, &rec);
    }
    let doc = rec.chrome_trace();
    // Round-trip through the serialised form, as Perfetto would read it.
    let parsed = Json::parse(&doc.to_pretty()).unwrap();
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
    }
    // The free-function export over the same traces agrees.
    let again = chrome_trace_json(&rec.traces());
    assert_eq!(
        again
            .get("traceEvents")
            .and_then(Json::as_array)
            .map(|a| a.len()),
        Some(events.len())
    );
}

#[test]
fn noop_recorder_reports_no_span_interest() {
    // The zero-overhead contract: a NoopRecorder must tell the hot path
    // not to bother with spans or clock reads at all.
    assert!(!NoopRecorder.wants_spans());
    assert!(NoopRecorder.trace_epoch().is_none());
    assert!(!NoopRecorder.enabled());
}
