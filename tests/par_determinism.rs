//! Determinism guarantees of the parallel batch paths.
//!
//! Every batch entry point must return results bit-identical to the
//! serial path, in input order, at any thread count — with or without a
//! `MetricsRecorder` attached, and with or without a per-item budget —
//! and the merged telemetry must equal a serial run for every
//! order-independent aggregate. These tests pin
//! that contract at thread widths {1, 2, 8} on a single machine; the
//! scheduler's chunk claiming is the only nondeterministic ingredient,
//! and it only affects which worker computes a result, never the result.

use std::time::Duration;

use bwt_kmismatch::core::{MapperConfig, Outcome, ReadMapper, SearchStats};
use bwt_kmismatch::dna::genome::{markov, MarkovConfig};
use bwt_kmismatch::dna::paper_reads;
use bwt_kmismatch::par::ThreadPool;
use bwt_kmismatch::telemetry::{Counter, Hist, MetricsRecorder, NoopRecorder, Phase, Recorder};
use bwt_kmismatch::{KMismatchIndex, Method, Occurrence};

const THREAD_WIDTHS: [usize; 3] = [1, 2, 8];

/// A budget no test query comes near.
const ONE_HOUR: Duration = Duration::from_secs(3600);

/// Each pattern searched on its own, with the batch's stats summed.
fn serial_batch<R: Recorder>(
    idx: &KMismatchIndex,
    reads: &[Vec<u8>],
    method: Method,
    recorder: &R,
) -> (Vec<Vec<Occurrence>>, SearchStats) {
    let mut stats = SearchStats::default();
    let occ = reads
        .iter()
        .map(|r| {
            let res = idx.search_with(r, 2, method, None, recorder).into_inner();
            stats.accumulate(&res.stats);
            res.occurrences
        })
        .collect();
    (occ, stats)
}

/// Unwrap a batch whose every item must have completed.
fn complete<T>(outcomes: Vec<Outcome<T>>) -> Vec<T> {
    outcomes
        .into_iter()
        .map(|o| match o {
            Outcome::Complete(v) => v,
            Outcome::Truncated(_) => panic!("a batch item was truncated"),
        })
        .collect()
}

fn test_corpus() -> (KMismatchIndex, Vec<Vec<u8>>) {
    let genome = markov(30_000, &MarkovConfig::default(), 4242);
    let reads: Vec<Vec<u8>> = paper_reads(&genome, 120, 50, 99)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    (KMismatchIndex::new(genome), reads)
}

#[test]
fn search_batch_par_is_bit_identical_across_widths() {
    let (idx, reads) = test_corpus();
    for method in [Method::ALGORITHM_A, Method::Bwt { use_phi: true }] {
        let (serial_occ, serial_stats) = serial_batch(&idx, &reads, method, &NoopRecorder);
        for threads in THREAD_WIDTHS {
            let pool = ThreadPool::new(threads);
            for budget in [None, Some(ONE_HOUR)] {
                let (occ, stats) =
                    idx.search_batch(&reads, 2, method, &pool, budget, &NoopRecorder);
                let ctx = format!("threads={threads} budget={budget:?}");
                assert_eq!(complete(occ), serial_occ, "occurrences diverged at {ctx}");
                assert_eq!(stats, serial_stats, "stats diverged at {ctx}");
            }
        }
    }
}

#[test]
fn search_batch_par_matches_serial_with_recorder_attached() {
    let (idx, reads) = test_corpus();
    let serial_rec = MetricsRecorder::new();
    let (serial_occ, serial_stats) = serial_batch(&idx, &reads, Method::ALGORITHM_A, &serial_rec);
    for threads in THREAD_WIDTHS {
        let pool = ThreadPool::new(threads);
        let rec = MetricsRecorder::new();
        let (occ, stats) = idx.search_batch(&reads, 2, Method::ALGORITHM_A, &pool, None, &rec);
        assert_eq!(complete(occ), serial_occ, "threads={threads}");
        assert_eq!(stats, serial_stats, "threads={threads}");
        // Order-independent aggregates merged from worker shards must
        // equal the serial recorder exactly. (Latency *values* differ
        // run to run; their event counts may not.)
        for counter in Counter::ALL {
            assert_eq!(
                rec.counter(counter),
                serial_rec.counter(counter),
                "counter {} diverged at threads={threads}",
                counter.name()
            );
        }
        let snap = rec.snapshot();
        let serial_snap = serial_rec.snapshot();
        assert_eq!(
            snap.phase(Phase::SearchQuery).entries,
            serial_snap.phase(Phase::SearchQuery).entries,
            "threads={threads}"
        );
        assert_eq!(
            snap.histogram(Hist::SearchLatencyNs).unwrap().count,
            serial_snap.histogram(Hist::SearchLatencyNs).unwrap().count,
            "threads={threads}"
        );
    }
}

#[test]
fn map_batch_is_bit_identical_across_widths() {
    let (idx, reads) = test_corpus();
    let mapper = ReadMapper::new(
        &idx,
        MapperConfig {
            k: 2,
            ..Default::default()
        },
    );
    let serial: Vec<_> = reads.iter().map(|r| mapper.map(r)).collect();
    for threads in THREAD_WIDTHS {
        let pool = ThreadPool::new(threads);
        assert_eq!(mapper.map_batch(&reads, &pool), serial, "threads={threads}");

        let rec = MetricsRecorder::new();
        let recorded = mapper.map_batch_recorded(&reads, &pool, &rec);
        assert_eq!(recorded, serial, "recorded, threads={threads}");
        for budget in [None, Some(ONE_HOUR)] {
            let outcomes = mapper.map_batch_with(&reads, &pool, budget, &NoopRecorder);
            assert_eq!(
                complete(outcomes),
                serial,
                "threads={threads} budget={budget:?}"
            );
        }
        assert_eq!(rec.counter(Counter::ReadsTotal), reads.len() as u64);
        assert_eq!(
            rec.counter(Counter::ReadsMapped),
            serial
                .iter()
                .filter(|report| !report.all.is_empty())
                .count() as u64
        );
    }
}

#[test]
fn index_construction_is_byte_identical_across_widths() {
    use bwt_kmismatch::bwt::{FmBuildConfig, FmIndex};
    let genome = {
        let mut g = markov(20_000, &MarkovConfig::default(), 555);
        g.push(0);
        g
    };
    let mut serial_bytes = Vec::new();
    FmIndex::new(&genome, FmBuildConfig::default())
        .save(&mut serial_bytes)
        .unwrap();
    for threads in THREAD_WIDTHS {
        let fm = FmIndex::try_new(&genome, FmBuildConfig::default().with_threads(threads)).unwrap();
        let mut bytes = Vec::new();
        fm.save(&mut bytes).unwrap();
        assert_eq!(bytes, serial_bytes, "threads={threads}");
    }
}
