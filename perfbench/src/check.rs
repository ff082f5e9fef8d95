//! Output checks: every `kmm map` TSV row against the generated text, a
//! seeded sample of reads against the naive scan, and (from the client)
//! every served occurrence list against the in-process search.

use std::collections::HashMap;

use kmm_classic::naive;
use kmm_dna::fastq::FastqRecord;
use kmm_dna::{hamming, reverse_complement};
use kmm_telemetry::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::args::Args;
use crate::gen;

/// Reads per checked output compared hit-for-hit with the naive scan,
/// which takes ~0.25 s a read on the 2.9 Mbp genome.
const SAMPLE: usize = 4;

/// One alignment: (forward position, reverse strand?, mismatches).
pub type Hit = (usize, bool, usize);

/// How a reported hit list differs from the expected one.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Diff {
    /// Expected entries absent from the report.
    pub missing: usize,
    /// Reported entries that are not expected (wrong position, strand
    /// or mismatch count, or duplicated).
    pub unexpected: usize,
}

impl Diff {
    pub fn is_clean(&self) -> bool {
        self.missing == 0 && self.unexpected == 0
    }
}

/// Compare two hit lists as multisets.
pub fn diff<T: Ord + Clone>(got: &[T], want: &[T]) -> Diff {
    let mut got = got.to_vec();
    let mut want = want.to_vec();
    got.sort();
    want.sort();
    let (mut i, mut j, mut d) = (0, 0, Diff::default());
    while i < got.len() || j < want.len() {
        match (got.get(i), want.get(j)) {
            (Some(g), Some(w)) if g == w => {
                i += 1;
                j += 1;
            }
            (Some(g), Some(w)) if g < w => {
                d.unexpected += 1;
                i += 1;
            }
            (Some(_), None) => {
                d.unexpected += 1;
                i += 1;
            }
            _ => {
                d.missing += 1;
                j += 1;
            }
        }
    }
    d
}

/// Hamming distance of `read` (reverse-complemented for the reverse
/// strand) to the genome window at `pos`, if the window fits.
fn distance(genome: &[u8], read: &[u8], pos: usize, reverse: bool) -> Option<usize> {
    let window = genome.get(pos..pos.checked_add(read.len())?)?;
    Some(match reverse {
        true => hamming(&reverse_complement(read), window),
        false => hamming(read, window),
    })
}

/// Whether `hit` is a true k-mismatch alignment of `read` in `genome`.
pub fn hit_is_valid(genome: &[u8], read: &[u8], hit: Hit, k: usize) -> bool {
    let (pos, reverse, mismatches) = hit;
    distance(genome, read, pos, reverse).is_some_and(|d| d == mismatches && d <= k)
}

/// Every alignment of `read` within `k` mismatches on either strand, by
/// the naive scan.
pub fn naive_hits(genome: &[u8], read: &[u8], k: usize) -> Vec<Hit> {
    let fwd = naive::find_k_mismatch(genome, read, k);
    let rev = naive::find_k_mismatch(genome, &reverse_complement(read), k);
    fwd.into_iter()
        .map(|o| (o.position, false, o.mismatches))
        .chain(rev.into_iter().map(|o| (o.position, true, o.mismatches)))
        .collect()
}

/// The alignment the simulator drew `read` from, parsed from its
/// `read_<i>_<origin>_<fwd|rev>` id.
fn origin(rec: &FastqRecord) -> Option<(usize, bool)> {
    let mut parts = rec.id.rsplitn(3, '_');
    let reverse = match parts.next()? {
        "rev" => true,
        "fwd" => false,
        _ => return None,
    };
    Some((parts.next()?.parse().ok()?, reverse))
}

/// Parse `kmm map` TSV rows into per-read hit lists.
fn parse_tsv(text: &str, reads: &[FastqRecord]) -> Result<Vec<Vec<Hit>>, String> {
    let ids: HashMap<&str, usize> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let mut hits = vec![Vec::new(); reads.len()];
    for (lineno, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let bad = || format!("tsv line {}: {line:?}", lineno + 1);
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 5 {
            return Err(bad());
        }
        let read = *ids.get(f[0]).ok_or_else(bad)?;
        let pos = f[1].parse().map_err(|_| bad())?;
        let reverse = match f[2] {
            "+" => false,
            "-" => true,
            _ => return Err(bad()),
        };
        let mismatches = f[3].parse().map_err(|_| bad())?;
        hits[read].push((pos, reverse, mismatches));
    }
    Ok(hits)
}

/// Per-read verdicts for one `kmm map` output.
#[derive(Debug, Default)]
pub struct MapVerdict {
    pub rows: usize,
    pub bad_rows: usize,
    pub missing_origin: usize,
    pub sampled: usize,
    pub sample_diffs: usize,
    /// Reads with any wrong or missing hit.
    pub failed_reads: usize,
}

/// Check every row, every read's own origin, and a seeded sample of
/// reads against the naive scan.
pub fn check_map(
    genome: &[u8],
    reads: &[FastqRecord],
    hits: &[Vec<Hit>],
    k: usize,
    sample: &[usize],
) -> MapVerdict {
    let mut v = MapVerdict::default();
    let mut failed = vec![false; reads.len()];
    for (i, (rec, got)) in reads.iter().zip(hits).enumerate() {
        v.rows += got.len();
        let bad = got
            .iter()
            .filter(|&&h| !hit_is_valid(genome, &rec.seq, h, k))
            .count();
        let mut dedup = got.clone();
        dedup.sort();
        dedup.dedup();
        v.bad_rows += bad + (got.len() - dedup.len());
        // A read within k of the window it was drawn from must report it.
        let missing = origin(rec).is_some_and(|(pos, reverse)| {
            distance(genome, &rec.seq, pos, reverse)
                .is_some_and(|d| d <= k && !got.contains(&(pos, reverse, d)))
        });
        v.missing_origin += missing as usize;
        failed[i] = bad > 0 || got.len() != dedup.len() || missing;
    }
    for &i in sample {
        v.sampled += 1;
        if !diff(&hits[i], &naive_hits(genome, &reads[i].seq, k)).is_clean() {
            v.sample_diffs += 1;
            failed[i] = true;
        }
    }
    v.failed_reads = failed.iter().filter(|&&f| f).count();
    v
}

/// `check-map`: verify one `kmm map` TSV against the generated inputs.
pub fn run(args: &Args) -> Result<Json, String> {
    let dir = args.path("dir")?;
    let k: usize = args.num("k")?;
    let seed: u64 = args.num("seed")?;
    let genome = gen::load_genome(&dir)?;
    let reads = gen::load_reads(&gen::reads_path(&dir))?;
    let tsv_path = args.path("tsv")?;
    let text =
        std::fs::read_to_string(&tsv_path).map_err(|e| format!("{}: {e}", tsv_path.display()))?;
    let hits = parse_tsv(&text, &reads)?;
    let mut rng = StdRng::seed_from_u64(gen::mix(seed, 3));
    let sample: Vec<usize> = (0..SAMPLE.min(reads.len()))
        .map(|_| rng.gen_range(0..reads.len()))
        .collect();
    let v = check_map(&genome, &reads, &hits, k, &sample);
    Ok(Json::obj([
        ("reads", Json::UInt(reads.len() as u64)),
        ("rows", Json::UInt(v.rows as u64)),
        ("bad_rows", Json::UInt(v.bad_rows as u64)),
        ("missing_origin", Json::UInt(v.missing_origin as u64)),
        ("sampled", Json::UInt(v.sampled as u64)),
        ("sample_diffs", Json::UInt(v.sample_diffs as u64)),
        ("failed_reads", Json::UInt(v.failed_reads as u64)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vec<u8>, Vec<FastqRecord>, Vec<Vec<Hit>>, usize) {
        let genome = gen::genome()[..20_000].to_vec();
        let reads = gen::reads(&genome, 12, 7);
        let k = 3;
        let hits = reads
            .iter()
            .map(|r| naive_hits(&genome, &r.seq, k))
            .collect();
        (genome, reads, hits, k)
    }

    #[test]
    fn exact_output_passes() {
        let (genome, reads, hits, k) = setup();
        let all: Vec<usize> = (0..reads.len()).collect();
        let v = check_map(&genome, &reads, &hits, k, &all);
        assert_eq!(v.failed_reads, 0, "{v:?}");
        assert!(v.rows > 0);
    }

    #[test]
    fn planted_wrong_occurrence_is_rejected() {
        let (genome, reads, mut hits, k) = setup();
        let i = hits.iter().position(|h| !h.is_empty()).unwrap();
        let (pos, rev, d) = hits[i][0];
        // A shifted position is not an alignment of this read.
        hits[i][0] = (pos + 1, rev, d);
        let v = check_map(&genome, &reads, &hits, k, &[]);
        assert_eq!(v.failed_reads, 1, "{v:?}");
        assert!(v.bad_rows >= 1);
        // A wrong mismatch count at the right place is rejected too.
        hits[i][0] = (pos, rev, d + 1);
        assert_eq!(check_map(&genome, &reads, &hits, k, &[]).failed_reads, 1);
    }

    #[test]
    fn planted_missing_occurrence_is_rejected() {
        let (genome, reads, mut hits, k) = setup();
        let i = hits.iter().position(|h| !h.is_empty()).unwrap();
        hits[i].pop();
        // Caught by the origin check or, failing that, by the sample.
        let v = check_map(&genome, &reads, &hits, k, &[i]);
        assert_eq!(v.failed_reads, 1, "{v:?}");
        assert_eq!(v.sample_diffs, 1);
    }

    #[test]
    fn diff_counts_missing_and_unexpected() {
        let want = [(1usize, 0usize), (5, 1), (9, 2)];
        assert!(diff(&want, &want).is_clean());
        let got = [(1, 0), (5, 2), (9, 2), (9, 2)];
        assert_eq!(
            diff(&got, &want),
            Diff {
                missing: 1,
                unexpected: 2
            }
        );
    }
}
