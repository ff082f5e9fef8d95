//! Heap budget of a Bidir query: choosing the search scheme and laying
//! out its plans happens on the stack, so a warmed-up search allocates
//! only the result vector it returns. Per-query plan building (one heap
//! vector per scheme search) would show here as several extra
//! allocations per query.
//!
//! The counting allocator's ledger is process-wide, so this binary holds
//! exactly one test: nothing else allocates while it measures.

use bwt_kmismatch::dna::genome::{markov, MarkovConfig};
use bwt_kmismatch::telemetry::alloc::{mem_stats, phase_scope, MemPhase};
use bwt_kmismatch::telemetry::CountingAlloc;
use bwt_kmismatch::{KMismatchIndex, Method};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Growing a result vector to a handful of hits takes a first
/// allocation plus at most a few doublings.
const RESULT_ALLOCATIONS: u64 = 3;

#[test]
fn warmed_up_bidir_k5_search_allocates_only_its_result() {
    let genome = markov(100_000, &MarkovConfig::default(), 3);
    let index = KMismatchIndex::new(genome.clone());
    let reads: Vec<Vec<u8>> = [0usize, 1_000, 37_000, 99_900]
        .iter()
        .map(|&at| {
            let mut read = genome[at..at + 100].to_vec();
            for i in [7, 50, 93] {
                read[i] = read[i] % 4 + 1;
            }
            read
        })
        .collect();
    // Warm-up: builds the mirror and reads the scheme override once.
    index.search(&reads[0], 5, Method::Bidirectional);

    for (i, read) in reads.iter().enumerate() {
        let before = mem_stats().phase(MemPhase::Search).allocations;
        let result = {
            let _search = phase_scope(MemPhase::Search);
            index.search(read, 5, Method::Bidirectional)
        };
        let allocations = mem_stats().phase(MemPhase::Search).allocations - before;
        assert!(mem_stats().enabled, "the counting allocator must be live");
        let hits = result.occurrences.len();
        assert!((1..=4).contains(&hits), "read {i}: {hits} hits");
        assert!(
            allocations <= RESULT_ALLOCATIONS,
            "read {i}: {allocations} allocations for {hits} hits"
        );
    }
}
