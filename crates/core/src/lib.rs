//! # kmm-core
//!
//! The paper's contribution: **string matching with k mismatches via BWT
//! arrays and mismatching trees** (Chen & Wu, ICDE 2017), together with
//! the index-based baselines it is evaluated against.
//!
//! * [`rarray`] / [`mod@merge`] (module) — the pattern self-mismatch tables `R_1…R_m`
//!   and the `O(k)` merge procedure of Section IV-B;
//! * [`stree`] — the S-tree BWT baseline of \[34\] with the `φ(i)` heuristic
//!   ([`phi`]);
//! * [`mtree`] / [`algorithm_a`] — the mismatching-tree search itself;
//! * [`cole`] — the suffix-tree brute-force baseline;
//! * [`matcher`] — a unified index front-end over every method.
//!
//! ```
//! use kmm_core::{KMismatchIndex, Method};
//!
//! let index = KMismatchIndex::from_ascii(b"acagaca").unwrap();
//! let pattern = kmm_dna::encode(b"tcaca").unwrap();
//! let hits = index.search(&pattern, 2, Method::ALGORITHM_A);
//! assert_eq!(hits.occurrences.len(), 2); // positions 0 and 2
//! ```

pub mod algorithm_a;
pub mod bidir;
pub mod cancel;
pub mod cole;
pub mod derive;
pub mod k_errors;
pub mod mapper;
pub mod matcher;
pub mod merge;
pub mod mtree;
pub mod multi;
pub mod phi;
pub mod rarray;
pub mod seed_filter;
pub mod spec;
pub mod stats;
pub mod stree;

pub use algorithm_a::{AlgorithmA, BatchSearcher};
pub use bidir::{BidirSearch, Scheme};
pub use cancel::{CancelToken, Outcome};
pub use cole::ColeSearch;
pub use derive::{derive_path, mi_creation, DerivationAudit, StoredPath};
pub use k_errors::{find_k_errors_naive, EditOccurrence, KErrorsSearch};
pub use mapper::{Alignment, MapOutcome, MapReport, MapperConfig, ReadMapper, Strand};
pub use matcher::{KMismatchIndex, Method, SearchResult};
pub use merge::{merge, mismatches_direct, shift_rebase};
pub use mtree::MTree;
pub use multi::{MultiIndex, MultiOccurrence};
pub use rarray::RTable;
pub use seed_filter::SeedFilterSearch;
pub use stats::SearchStats;
pub use stree::STreeSearch;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::{KMismatchIndex, Method};
    use kmm_classic::naive;

    fn dna_seq(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(1u8..=4, 1..max)
    }

    /// Low-entropy sequences force heavy pair sharing, stressing the
    /// derivation/resume paths of Algorithm A.
    fn binary_seq(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(1u8..=2, 1..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn algorithm_a_equals_naive(
            s in dna_seq(220),
            r in dna_seq(18),
            k in 0usize..5,
        ) {
            let want = naive::find_k_mismatch(&s, &r, k);
            let idx = KMismatchIndex::new(s);
            prop_assert_eq!(idx.search(&r, k, Method::ALGORITHM_A).occurrences, want);
        }

        #[test]
        fn algorithm_a_equals_naive_low_entropy(
            s in binary_seq(220),
            r in binary_seq(16),
            k in 0usize..4,
        ) {
            let want = naive::find_k_mismatch(&s, &r, k);
            let idx = KMismatchIndex::new(s);
            let got = idx.search(&r, k, Method::ALGORITHM_A);
            prop_assert_eq!(got.occurrences, want);
        }

        #[test]
        fn bwt_baseline_equals_naive(
            s in dna_seq(200),
            r in dna_seq(14),
            k in 0usize..4,
        ) {
            let want = naive::find_k_mismatch(&s, &r, k);
            let idx = KMismatchIndex::new(s);
            prop_assert_eq!(
                idx.search(&r, k, Method::Bwt { use_phi: true }).occurrences,
                want
            );
        }

        #[test]
        fn cole_equals_naive(
            s in dna_seq(200),
            r in dna_seq(14),
            k in 0usize..4,
        ) {
            let want = naive::find_k_mismatch(&s, &r, k);
            let idx = KMismatchIndex::new(s);
            prop_assert_eq!(idx.search(&r, k, Method::Cole).occurrences, want);
        }
    }
}
