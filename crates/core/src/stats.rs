//! Instrumentation counters for the k-mismatch searches.
//!
//! These expose the quantities the paper reports: `n'` (leaf count of the
//! produced tree, Table 2), the number of `search()` / rankall invocations
//! (the dominant cost the M-tree derivation removes), and how often the
//! hash-table reuse fired.

use kmm_telemetry::{Counter, Recorder};

/// Counters collected during one search. All counts are per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Leaf nodes of the search tree (paths at which the walk terminated):
    /// the paper's `n'` for Algorithm A and the S-tree leaf count for the
    /// BWT baseline.
    pub leaves: u64,
    /// Tree nodes visited (including revisits of shared subtrees).
    pub nodes_visited: u64,
    /// Nodes newly materialised by live BWT search.
    pub nodes_materialized: u64,
    /// `search()` steps, i.e. backward-extension rank lookups (each is two
    /// `occ` calls on the rankall arrays).
    pub rank_extensions: u64,
    /// Hash-table hits that let a subtree be derived instead of re-searched.
    pub reuse_hits: u64,
    /// `R_ij` tables derived (paper's `merge(R_i, R_j, …)` executions).
    pub merges: u64,
    /// Subtree walks resumed with live search because the stored subtree
    /// was not materialised deeply enough for the new alignment's budget
    /// (DESIGN.md D2).
    pub resumes: u64,
    /// Occurrences reported.
    pub occurrences: u64,
    /// Branches pruned by the `φ` heuristic (BWT baseline only).
    pub phi_prunes: u64,
    /// Searches truncated by a deadline/cancellation (0 or 1 per query;
    /// summed across a batch). Partial results were still reported.
    pub timeouts: u64,
    /// Fused 4-base rank sweeps (`extend_all` node expansions): each
    /// resolves all four children with one pass over the interval's two
    /// rank blocks instead of four independent extensions.
    pub occ_fused: u64,
    /// Per-node allocations avoided by reusing a per-query arena or
    /// pre-sized tree storage across queries.
    pub alloc_reused: u64,
    /// Deterministic cost: interleaved rank blocks visited by
    /// `occ`/`occ_all`/`symbol` during the query (see
    /// `kmm_telemetry::cost`). A pure function of (index, pattern, k,
    /// method) — identical across runs, machines, and thread counts.
    pub rank_blocks_touched: u64,
    /// Deterministic cost: bytes of rank-block data examined
    /// (checkpoint headers plus packed payload words).
    pub rank_bytes_scanned: u64,
    /// Deterministic cost: R-array lookups (`shift` / `R_ij`
    /// derivations) during preprocessing and descent.
    pub rarray_probes: u64,
    /// Deterministic cost: mismatching-tree nodes materialised into the
    /// arena.
    pub mtree_nodes_built: u64,
    /// Deterministic cost: pair-table hits that shared an existing
    /// mismatching-tree node instead of building one.
    pub mtree_nodes_reused: u64,
    /// Deterministic cost: `occ_all_pair` calls answered with a single
    /// shared block visit (both interval boundaries in one interleaved
    /// block) instead of two independent `occ_all` sweeps.
    pub occ_pair_fused: u64,
    /// Deterministic cost: advisory rank-block prefetch hints issued
    /// for in-range LF targets ahead of backward extensions.
    pub prefetch_issued: u64,
    /// One-row nodes of the bidirectional search resolved by locating
    /// the row and checking the rest of the read against the packed
    /// text instead of walking it.
    pub verified: u64,
}

impl SearchStats {
    /// Merge counters from another search (used when batching reads).
    ///
    /// The exhaustive destructuring makes adding a `SearchStats` field
    /// without summing it here a compile error.
    pub fn accumulate(&mut self, other: &SearchStats) {
        let SearchStats {
            leaves,
            nodes_visited,
            nodes_materialized,
            rank_extensions,
            reuse_hits,
            merges,
            resumes,
            occurrences,
            phi_prunes,
            timeouts,
            occ_fused,
            alloc_reused,
            rank_blocks_touched,
            rank_bytes_scanned,
            rarray_probes,
            mtree_nodes_built,
            mtree_nodes_reused,
            occ_pair_fused,
            prefetch_issued,
            verified,
        } = *other;
        self.leaves += leaves;
        self.nodes_visited += nodes_visited;
        self.nodes_materialized += nodes_materialized;
        self.rank_extensions += rank_extensions;
        self.reuse_hits += reuse_hits;
        self.merges += merges;
        self.resumes += resumes;
        self.occurrences += occurrences;
        self.phi_prunes += phi_prunes;
        self.timeouts += timeouts;
        self.occ_fused += occ_fused;
        self.alloc_reused += alloc_reused;
        self.rank_blocks_touched += rank_blocks_touched;
        self.rank_bytes_scanned += rank_bytes_scanned;
        self.rarray_probes += rarray_probes;
        self.mtree_nodes_built += mtree_nodes_built;
        self.mtree_nodes_reused += mtree_nodes_reused;
        self.occ_pair_fused += occ_pair_fused;
        self.prefetch_issued += prefetch_issued;
        self.verified += verified;
    }

    /// Every field as a `(canonical_name, value)` pair, in declaration
    /// order. The names are the stable keys used by the JSON emitters.
    pub fn as_pairs(&self) -> [(&'static str, u64); 20] {
        let SearchStats {
            leaves,
            nodes_visited,
            nodes_materialized,
            rank_extensions,
            reuse_hits,
            merges,
            resumes,
            occurrences,
            phi_prunes,
            timeouts,
            occ_fused,
            alloc_reused,
            rank_blocks_touched,
            rank_bytes_scanned,
            rarray_probes,
            mtree_nodes_built,
            mtree_nodes_reused,
            occ_pair_fused,
            prefetch_issued,
            verified,
        } = *self;
        [
            ("leaves", leaves),
            ("nodes_visited", nodes_visited),
            ("nodes_materialized", nodes_materialized),
            ("rank_extensions", rank_extensions),
            ("reuse_hits", reuse_hits),
            ("merges", merges),
            ("resumes", resumes),
            ("occurrences", occurrences),
            ("phi_prunes", phi_prunes),
            ("timeouts", timeouts),
            ("occ_fused", occ_fused),
            ("alloc_reused", alloc_reused),
            ("rank_blocks_touched", rank_blocks_touched),
            ("rank_bytes_scanned", rank_bytes_scanned),
            ("rarray_probes", rarray_probes),
            ("mtree_nodes_built", mtree_nodes_built),
            ("mtree_nodes_reused", mtree_nodes_reused),
            ("occ_pair_fused", occ_pair_fused),
            ("prefetch_issued", prefetch_issued),
            ("verified", verified),
        ]
    }

    /// Add every field to the matching `search.*` telemetry counter.
    pub fn record_into<R: Recorder>(&self, recorder: &R) {
        let SearchStats {
            leaves,
            nodes_visited,
            nodes_materialized,
            rank_extensions,
            reuse_hits,
            merges,
            resumes,
            occurrences,
            phi_prunes,
            timeouts,
            occ_fused,
            alloc_reused,
            rank_blocks_touched,
            rank_bytes_scanned,
            rarray_probes,
            mtree_nodes_built,
            mtree_nodes_reused,
            occ_pair_fused,
            prefetch_issued,
            verified,
        } = *self;
        recorder.add(Counter::Leaves, leaves);
        recorder.add(Counter::NodesVisited, nodes_visited);
        recorder.add(Counter::NodesMaterialized, nodes_materialized);
        recorder.add(Counter::RankExtensions, rank_extensions);
        recorder.add(Counter::ReuseHits, reuse_hits);
        recorder.add(Counter::Merges, merges);
        recorder.add(Counter::Resumes, resumes);
        recorder.add(Counter::Occurrences, occurrences);
        recorder.add(Counter::PhiPrunes, phi_prunes);
        recorder.add(Counter::Timeouts, timeouts);
        recorder.add(Counter::OccFused, occ_fused);
        recorder.add(Counter::AllocReused, alloc_reused);
        recorder.add(Counter::RankBlocksTouched, rank_blocks_touched);
        recorder.add(Counter::RankBytesScanned, rank_bytes_scanned);
        recorder.add(Counter::RarrayProbes, rarray_probes);
        recorder.add(Counter::MtreeNodesBuilt, mtree_nodes_built);
        recorder.add(Counter::MtreeNodesReused, mtree_nodes_reused);
        recorder.add(Counter::OccPairFused, occ_pair_fused);
        recorder.add(Counter::PrefetchIssued, prefetch_issued);
        recorder.add(Counter::Verified, verified);
    }

    /// Fraction of extension work answered by reuse instead of live
    /// ranking: `reuse_hits / (reuse_hits + rank_extensions)`. Zero when
    /// no extension work happened.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.reuse_hits + self.rank_extensions;
        if total == 0 {
            0.0
        } else {
            self.reuse_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SearchStats {
            leaves,
            nodes_visited,
            nodes_materialized,
            rank_extensions,
            reuse_hits,
            merges,
            resumes,
            occurrences,
            phi_prunes,
            timeouts,
            occ_fused,
            alloc_reused,
            rank_blocks_touched,
            rank_bytes_scanned,
            rarray_probes,
            mtree_nodes_built,
            mtree_nodes_reused,
            occ_pair_fused,
            prefetch_issued,
            verified,
        } = *self;
        write!(
            f,
            "n'(leaves)={} visited={} materialized={} rank_ext={} reuse={} merges={} \
             resumes={} occ={} phi_prunes={} timeouts={} occ_fused={} alloc_reused={} \
             rank_blocks={} rank_bytes={} rarray_probes={} mtree_built={} mtree_reused={} \
             occ_pair_fused={} prefetch={} verified={} reuse_ratio={:.3}",
            leaves,
            nodes_visited,
            nodes_materialized,
            rank_extensions,
            reuse_hits,
            merges,
            resumes,
            occurrences,
            phi_prunes,
            timeouts,
            occ_fused,
            alloc_reused,
            rank_blocks_touched,
            rank_bytes_scanned,
            rarray_probes,
            mtree_nodes_built,
            mtree_nodes_reused,
            occ_pair_fused,
            prefetch_issued,
            verified,
            self.reuse_ratio(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_telemetry::MetricsRecorder;

    #[test]
    fn accumulate_sums_fields() {
        let mut a = SearchStats {
            leaves: 1,
            nodes_visited: 2,
            occurrences: 3,
            ..Default::default()
        };
        let b = SearchStats {
            leaves: 10,
            nodes_visited: 20,
            reuse_hits: 5,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.leaves, 11);
        assert_eq!(a.nodes_visited, 22);
        assert_eq!(a.reuse_hits, 5);
        assert_eq!(a.occurrences, 3);
    }

    #[test]
    fn display_is_complete() {
        let s = SearchStats::default().to_string();
        for field in [
            "n'(leaves)=",
            "rank_ext=",
            "reuse=",
            "merges=",
            "occ=",
            "occ_fused=",
            "alloc_reused=",
            "rank_blocks=",
            "rank_bytes=",
            "rarray_probes=",
            "mtree_built=",
            "mtree_reused=",
            "occ_pair_fused=",
            "prefetch=",
            "verified=",
            "reuse_ratio=",
        ] {
            assert!(s.contains(field), "missing {field} in {s}");
        }
    }

    #[test]
    fn as_pairs_covers_every_field() {
        let stats = SearchStats {
            leaves: 1,
            nodes_visited: 2,
            nodes_materialized: 3,
            rank_extensions: 4,
            reuse_hits: 5,
            merges: 6,
            resumes: 7,
            occurrences: 8,
            phi_prunes: 9,
            timeouts: 10,
            occ_fused: 11,
            alloc_reused: 12,
            rank_blocks_touched: 13,
            rank_bytes_scanned: 14,
            rarray_probes: 15,
            mtree_nodes_built: 16,
            mtree_nodes_reused: 17,
            occ_pair_fused: 18,
            prefetch_issued: 19,
            verified: 20,
        };
        let pairs = stats.as_pairs();
        let values: Vec<u64> = pairs.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=20).collect::<Vec<u64>>());
        let mut names: Vec<&str> = pairs.iter().map(|&(n, _)| n).collect();
        names.dedup();
        assert_eq!(names.len(), 20, "duplicate field names in as_pairs");
    }

    #[test]
    fn record_into_mirrors_counters() {
        let stats = SearchStats {
            leaves: 11,
            rank_extensions: 22,
            reuse_hits: 33,
            occurrences: 44,
            rank_blocks_touched: 55,
            rarray_probes: 66,
            ..Default::default()
        };
        let rec = MetricsRecorder::new();
        stats.record_into(&rec);
        stats.record_into(&rec);
        assert_eq!(rec.counter(Counter::Leaves), 22);
        assert_eq!(rec.counter(Counter::RankExtensions), 44);
        assert_eq!(rec.counter(Counter::ReuseHits), 66);
        assert_eq!(rec.counter(Counter::Occurrences), 88);
        assert_eq!(rec.counter(Counter::RankBlocksTouched), 110);
        assert_eq!(rec.counter(Counter::RarrayProbes), 132);
        assert_eq!(rec.counter(Counter::Merges), 0);
    }

    #[test]
    fn reuse_ratio_is_bounded() {
        assert_eq!(SearchStats::default().reuse_ratio(), 0.0);
        let s = SearchStats {
            reuse_hits: 1,
            rank_extensions: 3,
            ..Default::default()
        };
        assert_eq!(s.reuse_ratio(), 0.25);
        let all_reuse = SearchStats {
            reuse_hits: 5,
            ..Default::default()
        };
        assert_eq!(all_reuse.reuse_ratio(), 1.0);
    }
}
