//! Bidir's in-text verification against the naive scan: once a search
//! narrows to one row with at least `sa_rate` steps left, the rest of
//! the read is compared against the packed text instead of walked.
//!
//! Reads sit at the text's start, a third of the way in and its end —
//! where a verified window can overhang a text end — with substitutions
//! in the tail that verification compares. Every budget `k = 0..=6`
//! goes through `search_batch` at widths 1 and 8, on an index built in
//! process (which packs the text it holds) and on indexes opened
//! through the read and mmap paths (which rebuild the packed text by LF
//! chains), under the default and the scalar rank kernels.
//!
//! The scalar override is process-wide, so this binary holds one test.

use bwt_kmismatch::bwt::{force_scalar, FmIndex};
use bwt_kmismatch::classic::naive;
use bwt_kmismatch::dna::genome::{markov, uniform, MarkovConfig};
use bwt_kmismatch::par::ThreadPool;
use bwt_kmismatch::telemetry::NoopRecorder;
use bwt_kmismatch::{KMismatchIndex, Method};

/// Tandem repeats, homopolymer runs, and uniform text.
fn texts() -> Vec<Vec<u8>> {
    let tandem = markov(
        3_001,
        &MarkovConfig {
            tandem_fraction: 0.5,
            tandem_len: 80,
            ..MarkovConfig::default()
        },
        15,
    );
    let mut homopolymers = vec![1u8; 250];
    homopolymers.extend(uniform(333, 4));
    homopolymers.extend([3u8; 250]);
    homopolymers.extend([1u8, 2].repeat(120));
    homopolymers.extend([4u8; 180]);
    [tandem, homopolymers, uniform(2_503, 9)].into()
}

/// Reads of each length at 0, n/3 and n − m, with 0 to 3 substitutions
/// toward the read's ends.
fn reads(text: &[u8]) -> Vec<Vec<u8>> {
    let n = text.len();
    let mut out = Vec::new();
    for m in [16usize, 17, 40, 100] {
        for start in [0, n / 3, n - m] {
            let home = &text[start..start + m];
            let subs: [&[usize]; 4] = [&[], &[m - 1], &[1, m - 2], &[m / 3, m - 5, m - 1]];
            for at in subs {
                let mut read = home.to_vec();
                for &i in at {
                    read[i] = read[i] % 4 + 1;
                }
                out.push(read);
            }
        }
    }
    out
}

/// The index over `text` three ways: built in process, and saved with
/// its mirror then opened through the read and the mmap paths.
fn indexes(text: &[u8], dir: &std::path::Path, tag: usize) -> Vec<(&'static str, KMismatchIndex)> {
    let built = KMismatchIndex::new(text.to_vec());
    let path = dir.join(format!("text{tag}.idx"));
    let mut bytes = Vec::new();
    built
        .fm()
        .save_with_mirror(built.mirror(), &mut bytes)
        .unwrap();
    std::fs::write(&path, &bytes).unwrap();
    let open = |mmap: bool| {
        let (fm, mirror, _) = FmIndex::open_path_with_mirror(&path, mmap).unwrap();
        assert!(mirror.is_some());
        KMismatchIndex::from_fm_with_mirror(fm, mirror)
    };
    vec![
        ("built", built),
        ("read", open(false)),
        ("mmap", open(true)),
    ]
}

#[test]
fn verification_agrees_with_naive_on_every_open_path_width_and_kernel() {
    let dir = std::env::temp_dir().join(format!("kmm-bidir-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut verified = 0u64;
    for (tag, text) in texts().iter().enumerate() {
        let reads = reads(text);
        let want: Vec<Vec<Vec<_>>> = (0..=6)
            .map(|k| {
                reads
                    .iter()
                    .map(|r| naive::find_k_mismatch(text, r, k))
                    .collect()
            })
            .collect();
        for (path, index) in indexes(text, &dir, tag) {
            for scalar in [false, true] {
                force_scalar(scalar);
                for width in [1, 8] {
                    let pool = ThreadPool::new(width);
                    for (k, want) in want.iter().enumerate() {
                        let (got, stats) = index.search_batch(
                            &reads,
                            k,
                            Method::Bidirectional,
                            &pool,
                            None,
                            &NoopRecorder,
                        );
                        for (i, (got, want)) in got.iter().zip(want).enumerate() {
                            assert_eq!(
                                got.value(),
                                want,
                                "text {tag} via {path}, scalar={scalar}, width {width}, \
                                 k={k}, read {i} (m={})",
                                reads[i].len()
                            );
                        }
                        verified += stats.verified;
                    }
                }
            }
            force_scalar(false);
            // Bidir over a loaded index never builds the byte text.
            assert_eq!(index.text_is_materialized(), path == "built", "{path}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(verified > 0, "no read reached a verified node");
}
