//! The "rankall" occurrence structure over the BWT's `L` column.
//!
//! Section III-A of the paper stores, for each base `x`, an array `A_x`
//! with `A_x[k]` = number of occurrences of `x` in `L[1..k]`, sampled every
//! few positions to trade space for scan time ("we can also create
//! rankalls only for part of the elements to reduce the space overhead,
//! but at cost of some more searches", Fig. 2). The experiments use 2 bits
//! per `L` character and one 32-bit rankall row every 4 elements.
//!
//! [`RankAll`] stores `L` in *cache-interleaved blocks*, the layout BWA
//! popularised for its occ arrays: each block holds the four `u32`
//! checkpoint counts immediately followed by the 2-bit packed `L` words it
//! covers, so resolving an `occ` touches one contiguous run of memory — a
//! single cache miss — instead of a checkpoint row and a packed word in
//! two unrelated arrays. The tail scan is branch-free XOR/popcount word
//! counting, answering `occ(c, i) = |{ j < i : L[j] = c }|` in
//! `O(block_span/32)` word steps, and [`RankAll::occ_all`] resolves all
//! four bases in one sweep of the same block.

use kmm_dna::{BASES, SENTINEL, SIGMA};
use kmm_par::{aligned_spans, ThreadPool};
use kmm_telemetry::cost::{self, CostKind};

use crate::limits::{check_text_len, TextTooLarge};
use crate::mmap::U64Store;
use crate::simd;

/// Symbols stored per `u64` word (2 bits each).
const SLOTS_PER_WORD: usize = 32;

/// Words of checkpoint header per block: four `u32` counts in two words.
const HEADER_WORDS: usize = 2;

/// Least common multiple; block spans must sit on both the packed word
/// grid and the checkpoint grid.
fn lcm(a: usize, b: usize) -> usize {
    fn gcd(mut a: usize, mut b: usize) -> usize {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    a / gcd(a, b) * b
}

/// Per-segment output of the parallel build's scan pass.
struct SegScan {
    /// Interleaved blocks covering the segment (block-aligned start),
    /// headers holding counts relative to the segment start.
    blocks: Vec<u64>,
    /// Per-symbol totals within the segment (sentinel included).
    counts: [u32; SIGMA],
    /// Sentinel positions seen (globally there must be exactly one).
    dollars: Vec<usize>,
}

/// Rank structure over an `L` column, stored as cache-interleaved blocks.
///
/// Every block is `HEADER_WORDS + block_span/32` words: the four base
/// checkpoint counts (occurrences in `L[0 .. block_start)`) packed as two
/// `u64`s, then the 2-bit packed `L` slice the block covers. The sentinel
/// slot is packed as base 0 (`a`) and excluded from counts via
/// `dollar_pos`.
#[derive(Debug, Clone)]
pub struct RankAll {
    /// Interleaved blocks, `blocks_len() * block_words` words — owned
    /// after a build, possibly borrowed from a mapped v3 index file.
    blocks: U64Store,
    /// Configured checkpoint rate (kept for the API and serialization;
    /// the effective span is `lcm(rate, 32)`).
    rate: usize,
    /// Positions covered per block (`lcm(rate, SLOTS_PER_WORD)`).
    block_span: usize,
    /// Words per block (`HEADER_WORDS + block_span / SLOTS_PER_WORD`).
    block_words: usize,
    /// Position of the unique sentinel in `L`.
    dollar_pos: usize,
    /// Total length of `L`.
    len: usize,
    /// Total per-symbol counts (for `count(c)` and validation).
    totals: [u32; SIGMA],
}

// The per-word popcount tallies live in `crate::simd`: one shared
// [`simd::plane_counts`] helper feeds the scalar kernel, the AVX2 kernel,
// and (through [`simd::count_all`]) both `occ` and `occ_all` here, so the
// per-base and fused paths — and the scalar and SIMD paths — cannot
// drift apart.

impl RankAll {
    /// Build over an `L` column containing exactly one sentinel.
    ///
    /// `rate` must be a positive multiple of 4; the paper's layout
    /// corresponds to `rate = 4`, the default index uses 64.
    pub fn new(l: &[u8], rate: usize) -> Self {
        Self::new_with(l, rate, &ThreadPool::serial())
    }

    /// [`Self::new`] on a thread pool; panics on oversized inputs.
    pub fn new_with(l: &[u8], rate: usize, pool: &ThreadPool) -> Self {
        match Self::try_new_with(l, rate, pool) {
            Ok(rank) => rank,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible single-threaded build (see [`Self::try_new_with`]).
    pub fn try_new(l: &[u8], rate: usize) -> Result<Self, TextTooLarge> {
        Self::try_new_with(l, rate, &ThreadPool::serial())
    }

    /// Build over an `L` column, rejecting inputs too long for the `u32`
    /// checkpoint/total layout instead of silently wrapping counts.
    ///
    /// The build is data-parallel over `pool`: segment boundaries are
    /// aligned to the block span, so every interleaved block is produced
    /// by exactly one worker; a serial fix-up then promotes the block
    /// headers from segment-local to global counts. The merged structure
    /// is bit-identical to the serial build at any thread count.
    pub fn try_new_with(l: &[u8], rate: usize, pool: &ThreadPool) -> Result<Self, TextTooLarge> {
        assert!(
            rate >= 4 && rate.is_multiple_of(4),
            "rate must be a positive multiple of 4"
        );
        check_text_len(l.len())?;
        let n = l.len();
        let block_span = lcm(rate, SLOTS_PER_WORD);
        let block_words = HEADER_WORDS + block_span / SLOTS_PER_WORD;

        // Pass 1 (parallel): pack and count whole blocks, headers relative
        // to the segment start. The sentinel packs as code 0 wherever it
        // is, so the pass needs no global information.
        let spans = aligned_spans(n, pool.threads() * 4, block_span);
        let segs = pool.par_map(&spans, |_, span| {
            let len = span.end - span.start;
            let mut blocks = vec![0u64; len.div_ceil(block_span) * block_words];
            let mut counts = [0u32; SIGMA];
            let mut running = [0u32; BASES];
            let mut dollars = Vec::new();
            for (off, &c) in l[span.clone()].iter().enumerate() {
                let i = span.start + off;
                assert!((c as usize) < SIGMA, "symbol {c} out of alphabet");
                let base = off / block_span * block_words;
                if off.is_multiple_of(block_span) {
                    blocks[base] = running[0] as u64 | (running[1] as u64) << 32;
                    blocks[base + 1] = running[2] as u64 | (running[3] as u64) << 32;
                }
                counts[c as usize] += 1;
                let two = if c == SENTINEL {
                    dollars.push(i);
                    0
                } else {
                    running[(c - 1) as usize] += 1;
                    (c - 1) as u64
                };
                let word = base + HEADER_WORDS + (off % block_span) / SLOTS_PER_WORD;
                blocks[word] |= two << ((off % SLOTS_PER_WORD) * 2);
            }
            SegScan {
                blocks,
                counts,
                dollars,
            }
        });

        let mut totals = [0u32; SIGMA];
        let mut dollars = Vec::new();
        for seg in &segs {
            for (t, &c) in totals.iter_mut().zip(&seg.counts) {
                *t += c;
            }
            dollars.extend_from_slice(&seg.dollars);
        }
        assert!(!dollars.is_empty(), "L must contain the sentinel");
        assert_eq!(dollars.len(), 1, "L must contain exactly one sentinel");
        let dollar_pos = dollars[0];

        // Pass 2 (serial, O(blocks)): concatenate and promote block
        // headers to global counts with an exclusive prefix of the
        // per-segment totals. Two word writes per block — not worth
        // fanning out, and trivially deterministic.
        let mut blocks = Vec::with_capacity(n.div_ceil(block_span) * block_words);
        let mut base = [0u32; BASES];
        for seg in &segs {
            let first = blocks.len();
            blocks.extend_from_slice(&seg.blocks);
            for header in blocks[first..].chunks_exact_mut(block_words) {
                header[0] += base[0] as u64 | (base[1] as u64) << 32;
                header[1] += base[2] as u64 | (base[3] as u64) << 32;
            }
            for (lane, b) in base.iter_mut().enumerate() {
                *b += seg.counts[lane + 1];
            }
        }
        debug_assert_eq!(blocks.len(), n.div_ceil(block_span) * block_words);

        Ok(RankAll {
            blocks: blocks.into(),
            rate,
            block_span,
            block_words,
            dollar_pos,
            len: n,
            totals,
        })
    }

    /// Length of `L`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if `L` is empty (never the case after `new`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of the sentinel in `L`.
    #[inline]
    pub fn dollar_pos(&self) -> usize {
        self.dollar_pos
    }

    /// The four checkpoint counts of the block containing position `i`.
    #[inline]
    fn header(&self, base: usize) -> [u32; 4] {
        let (w0, w1) = (self.blocks[base], self.blocks[base + 1]);
        [w0 as u32, (w0 >> 32) as u32, w1 as u32, (w1 >> 32) as u32]
    }

    /// The symbol `L[i]`.
    #[inline]
    pub fn symbol(&self, i: usize) -> u8 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if i == self.dollar_pos {
            SENTINEL
        } else {
            let word = i / self.block_span * self.block_words
                + HEADER_WORDS
                + (i % self.block_span) / SLOTS_PER_WORD;
            cost::bump2(CostKind::RankBlocks, 1, CostKind::RankBytes, 8);
            ((self.blocks[word] >> ((i % SLOTS_PER_WORD) * 2)) & 0b11) as u8 + 1
        }
    }

    /// The symbol `L[i]` and its rank `occ(L[i], i)`, resolved with one
    /// block visit: the packed word holding slot `i` and the tail counts
    /// before it share a block. `None` for the sentinel slot, which has
    /// no base rank and touches no block. This is the whole step of a
    /// one-row interval, whose only non-empty extension is by `L[i]`.
    #[inline]
    pub fn symbol_rank(&self, i: usize) -> Option<(u8, u32)> {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if i == self.dollar_pos {
            return None;
        }
        let off = i % self.block_span;
        // The scan reads every packed word up to and including slot i's.
        cost::bump2(
            CostKind::RankBlocks,
            1,
            CostKind::RankBytes,
            Self::scan_bytes(off + 1),
        );
        let word = i / self.block_span * self.block_words + HEADER_WORDS + off / SLOTS_PER_WORD;
        let sym = ((self.blocks[word] >> ((i % SLOTS_PER_WORD) * 2)) & 0b11) as u8 + 1;
        Some((sym, self.block_counts_upto(i)[(sym - 1) as usize]))
    }

    /// Bytes of block data a rank at offset `off` into its block reads:
    /// the checkpoint header plus every packed word the tail scan
    /// touches. Deterministic — this is the unit `search.rank_bytes_
    /// scanned` is reported in.
    #[inline]
    fn scan_bytes(off: usize) -> u64 {
        (HEADER_WORDS * 8 + off.div_ceil(SLOTS_PER_WORD) * 8) as u64
    }

    /// Tally of the block containing `i` up to `i` (exclusive): the
    /// block's checkpoint header plus the packed-word counts of
    /// `[block_start, i)` via the shared (dispatching) kernel, with the
    /// sentinel slot cancelled out of lane 0. `i` must be `< len`.
    /// Both `occ` and `occ_all` — and the pair fusion — reduce to this.
    #[inline]
    fn block_counts_upto(&self, i: usize) -> [u32; 4] {
        let block = i / self.block_span;
        let start = block * self.block_span;
        let base = block * self.block_words;
        let mut counts = self.header(base);
        let payload = &self.blocks[base + HEADER_WORDS..base + self.block_words];
        simd::count_all(payload, i - start, &mut counts);
        // The sentinel slot was packed as base 0; cancel it if counted in
        // the scanned region (headers already exclude it).
        if self.dollar_pos >= start && self.dollar_pos < i {
            counts[0] -= 1;
        }
        counts
    }

    /// Number of occurrences of base `c` (codes 1..=4) in `L[0..i)`.
    ///
    /// This is the paper's `A_c[i - 1]` (their arrays are 1-based). One
    /// block visit: header counts and the packed tail share a block.
    #[inline]
    pub fn occ(&self, c: u8, i: usize) -> u32 {
        debug_assert!(
            c >= 1 && (c as usize) < SIGMA,
            "occ is defined for bases only"
        );
        debug_assert!(i <= self.len, "occ index {i} beyond len {}", self.len);
        if i == self.len {
            return self.totals[c as usize];
        }
        cost::bump2(
            CostKind::RankBlocks,
            1,
            CostKind::RankBytes,
            Self::scan_bytes(i % self.block_span),
        );
        self.block_counts_upto(i)[(c - 1) as usize]
    }

    /// Occurrence counts of all four bases in `L[0..i)` — the fused form
    /// of four `occ` calls, resolved with the same single block visit:
    /// `occ_all(i)[c - 1] == occ(c, i)` for every base code `c`.
    #[inline]
    pub fn occ_all(&self, i: usize) -> [u32; 4] {
        debug_assert!(i <= self.len, "occ index {i} beyond len {}", self.len);
        if i == self.len {
            return std::array::from_fn(|lane| self.totals[lane + 1]);
        }
        cost::bump2(
            CostKind::RankBlocks,
            1,
            CostKind::RankBytes,
            Self::scan_bytes(i % self.block_span),
        );
        self.block_counts_upto(i)
    }

    /// `(occ_all(lo), occ_all(hi))` with the block visit shared when both
    /// boundaries land in the same interleaved block — the common case
    /// for the narrow intervals a backward search spends its time in.
    /// One block visit instead of two; bit-identical results.
    #[inline]
    pub fn occ_all_pair(&self, lo: usize, hi: usize) -> ([u32; 4], [u32; 4]) {
        debug_assert!(lo <= hi, "interval boundaries out of order");
        debug_assert!(hi <= self.len, "occ index {hi} beyond len {}", self.len);
        if lo == hi {
            let c = self.occ_all(lo);
            return (c, c);
        }
        if hi == self.len || lo / self.block_span != hi / self.block_span {
            return (self.occ_all(lo), self.occ_all(hi));
        }
        cost::bump2(
            CostKind::RankBlocks,
            1,
            CostKind::RankBytes,
            Self::scan_bytes(hi % self.block_span),
        );
        cost::bump(CostKind::OccPairFused, 1);
        (self.block_counts_upto(lo), self.block_counts_upto(hi))
    }

    /// Hint the block holding position `i` into cache. A prefetch is a
    /// latency hint, not a rank lookup, so it leaves `RankBlocks` /
    /// `RankBytes` untouched — but the *issue count* is a deterministic
    /// function of the search path (counted before any kernel dispatch,
    /// so `KMM_NO_SIMD` cannot change it) and feeds the EXPLAIN
    /// engine's `prefetch_issued` attribution. Out-of-range positions
    /// are ignored, so callers can pass tentative LF targets freely.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if i < self.len {
            cost::bump(CostKind::PrefetchIssued, 1);
            let base = i / self.block_span * self.block_words;
            simd::prefetch_read(self.blocks[base..].as_ptr() as *const u8);
        }
    }

    /// Total number of occurrences of symbol `c` in `L`.
    #[inline]
    pub fn count(&self, c: u8) -> u32 {
        self.totals[c as usize]
    }

    /// Number of interleaved blocks.
    #[inline]
    fn blocks_len(&self) -> usize {
        self.blocks.len() / self.block_words
    }

    /// Heap bytes used (the interleaved block array), for the space
    /// ablation. Equals [`Self::payload_bytes`] + [`Self::overhead_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<u64>()
    }

    /// Bytes holding 2-bit packed `L` payload (incl. tail padding).
    pub fn payload_bytes(&self) -> usize {
        self.blocks_len() * (self.block_words - HEADER_WORDS) * std::mem::size_of::<u64>()
    }

    /// Bytes of per-block checkpoint headers — the rank acceleration
    /// overhead on top of the packed text.
    pub fn overhead_bytes(&self) -> usize {
        self.blocks_len() * HEADER_WORDS * std::mem::size_of::<u64>()
    }

    /// The configured checkpoint rate.
    pub fn rate(&self) -> usize {
        self.rate
    }

    /// Positions covered per interleaved block (`lcm(rate, 32)`).
    pub fn block_span(&self) -> usize {
        self.block_span
    }

    /// The raw interleaved block words (for the v3 section writer).
    pub(crate) fn block_words_raw(&self) -> &[u64] {
        &self.blocks
    }

    /// True when the block array borrows a mapped/owned byte region
    /// instead of owning a `Vec` (i.e. the index was opened zero-copy).
    pub fn is_borrowed(&self) -> bool {
        self.blocks.is_borrowed()
    }

    /// Assemble from storage already validated against a v3 section:
    /// `blocks` may borrow the index file. Validation mirrors
    /// [`Self::read_from`] and must reject every inconsistency that
    /// could index out of bounds later.
    pub(crate) fn from_store(
        blocks: U64Store,
        rate: usize,
        dollar_pos: usize,
        len: usize,
        totals: [u32; SIGMA],
    ) -> Result<Self, crate::serialize::SerializeError> {
        use crate::serialize::SerializeError;
        if rate < 4 || !rate.is_multiple_of(4) {
            return Err(SerializeError::Malformed("rankall rate"));
        }
        if dollar_pos >= len {
            return Err(SerializeError::Malformed("sentinel position"));
        }
        let block_span = lcm(rate, SLOTS_PER_WORD);
        let block_words = HEADER_WORDS + block_span / SLOTS_PER_WORD;
        if blocks.len() != len.div_ceil(block_span) * block_words {
            return Err(SerializeError::Malformed("block array length"));
        }
        Ok(RankAll {
            blocks,
            rate,
            block_span,
            block_words,
            dollar_pos,
            len,
            totals,
        })
    }

    /// Serialize into a [`SerWriter`](crate::serialize::SerWriter) stream.
    pub fn write_to<W: std::io::Write>(
        &self,
        w: &mut crate::serialize::SerWriter<W>,
    ) -> std::io::Result<()> {
        w.u64(self.len as u64)?;
        w.u64(self.rate as u64)?;
        w.u64(self.dollar_pos as u64)?;
        for &t in &self.totals {
            w.u32(t)?;
        }
        w.vec_u64(&self.blocks)
    }

    /// Deserialize from a [`SerReader`](crate::serialize::SerReader) stream.
    pub fn read_from<R: std::io::Read>(
        r: &mut crate::serialize::SerReader<R>,
    ) -> Result<Self, crate::serialize::SerializeError> {
        use crate::serialize::SerializeError;
        let len = r.u64()? as usize;
        let rate = r.u64()? as usize;
        let dollar_pos = r.u64()? as usize;
        if rate < 4 || !rate.is_multiple_of(4) {
            return Err(SerializeError::Malformed("rankall rate"));
        }
        if dollar_pos >= len {
            return Err(SerializeError::Malformed("sentinel position"));
        }
        let mut totals = [0u32; SIGMA];
        for t in totals.iter_mut() {
            *t = r.u32()?;
        }
        let block_span = lcm(rate, SLOTS_PER_WORD);
        let block_words = HEADER_WORDS + block_span / SLOTS_PER_WORD;
        let blocks = r.vec_u64()?;
        if blocks.len() != len.div_ceil(block_span) * block_words {
            return Err(SerializeError::Malformed("block array length"));
        }
        Ok(RankAll {
            blocks: blocks.into(),
            rate,
            block_span,
            block_words,
            dollar_pos,
            len,
            totals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_occ(l: &[u8], c: u8, i: usize) -> u32 {
        l[..i].iter().filter(|&&x| x == c).count() as u32
    }

    fn check_all(l: &[u8], rate: usize) {
        let r = RankAll::new(l, rate);
        assert_eq!(r.len(), l.len());
        for i in 0..=l.len() {
            let fused = r.occ_all(i);
            for c in 1..SIGMA as u8 {
                assert_eq!(
                    r.occ(c, i),
                    naive_occ(l, c, i),
                    "occ({c}, {i}) rate {rate} l={l:?}"
                );
                assert_eq!(
                    fused[(c - 1) as usize],
                    r.occ(c, i),
                    "occ_all({i})[{}] rate {rate} l={l:?}",
                    c - 1
                );
            }
        }
        for (i, &c) in l.iter().enumerate() {
            assert_eq!(r.symbol(i), c, "symbol({i})");
            let want = (c != SENTINEL).then(|| (c, naive_occ(l, c, i)));
            assert_eq!(r.symbol_rank(i), want, "symbol_rank({i}) rate {rate}");
        }
        // The pair fusion agrees with two independent lookups for every
        // boundary combination (same-block, cross-block, len, empty).
        for lo in (0..=l.len()).step_by(3) {
            for hi in (lo..=l.len()).step_by(5) {
                assert_eq!(
                    r.occ_all_pair(lo, hi),
                    (r.occ_all(lo), r.occ_all(hi)),
                    "pair({lo}, {hi}) rate {rate}"
                );
            }
        }
    }

    #[test]
    fn paper_figure2_values() {
        // Fig. 2: L = BWT(acagaca$) = acg$caaa, rankall rows every 4.
        let mut l = kmm_dna::encode(b"acg").unwrap();
        l.push(0);
        l.extend(kmm_dna::encode(b"caaa").unwrap());
        assert_eq!(kmm_dna::decode_string(&l), "acg$caaa");
        let r = RankAll::new(&l, 4);
        assert_eq!(r.occ(1, 8), 4);
        assert_eq!(r.occ(2, 8), 2);
        assert_eq!(r.occ(3, 8), 1);
        assert_eq!(r.occ(4, 8), 0);
        // Paper's example: A_g[5] = A_g[7] = 1 (1-based) means no g within
        // L[6..7] (1-based) = rows 5..=6 (0-based).
        assert_eq!(r.occ(3, 5), 1);
        assert_eq!(r.occ(3, 7), 1);
        // And c does occur within L[1..5]: [A_c[0]+1, A_c[5]] = [1, 2].
        assert_eq!(r.occ(2, 0), 0);
        assert_eq!(r.occ(2, 5), 2);
        assert_eq!(r.dollar_pos(), 3);
        assert_eq!(r.occ_all(8), [4, 2, 1, 0]);
    }

    #[test]
    fn exhaustive_small_cases() {
        for n in 1usize..=6 {
            for dollar in 0..n {
                let mut l = vec![0u8; n];
                for variant in 0..3 {
                    for (i, slot) in l.iter_mut().enumerate() {
                        if i == dollar {
                            *slot = 0;
                        } else {
                            *slot = match variant {
                                0 => ((i * 7 + 1) % 4 + 1) as u8,
                                1 => 1,
                                _ => ((i % 2) + 3) as u8,
                            };
                        }
                    }
                    check_all(&l, 4);
                }
            }
        }
    }

    #[test]
    fn random_columns_all_rates() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for rate in [4usize, 8, 16, 64, 128] {
            for _ in 0..20 {
                let n = rng.gen_range(1..500);
                let dollar = rng.gen_range(0..n);
                let l: Vec<u8> = (0..n)
                    .map(|i| if i == dollar { 0 } else { rng.gen_range(1..=4) })
                    .collect();
                check_all(&l, rate);
            }
        }
    }

    #[test]
    fn word_boundary_cases() {
        // Lengths straddling the 32-slot word boundary, with the sentinel
        // on either side of it.
        for n in [31usize, 32, 33, 63, 64, 65, 96] {
            for dollar in [0, n / 2, n - 1] {
                let l: Vec<u8> = (0..n)
                    .map(|i| if i == dollar { 0 } else { ((i % 4) + 1) as u8 })
                    .collect();
                check_all(&l, 4);
                check_all(&l, 64);
            }
        }
    }

    #[test]
    fn occ_at_boundaries() {
        let mut l = vec![1u8; 64];
        l[63] = 0;
        let r = RankAll::new(&l, 4);
        assert_eq!(r.occ(1, 0), 0);
        assert_eq!(r.occ(1, 64), 63);
        assert_eq!(r.occ(1, 63), 63);
        assert_eq!(r.occ(2, 64), 0);
        assert_eq!(r.occ_all(0), [0, 0, 0, 0]);
        assert_eq!(r.occ_all(64), [63, 0, 0, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `occ_all(i)[c - 1] == occ(c, i)` on random columns at every
        /// checkpoint rate, including the exact boundary positions
        /// {0, len, dollar_pos - 1, dollar_pos, dollar_pos + 1}.
        #[test]
        fn occ_all_agrees_with_occ(
            bases in proptest::collection::vec(1u8..=4, 1..300),
            dollar in any::<prop::sample::Index>(),
        ) {
            let mut l = bases;
            let dollar_pos = dollar.index(l.len());
            l[dollar_pos] = 0;
            for rate in [4usize, 32, 64, 128] {
                let r = RankAll::new(&l, rate);
                let mut probes = vec![0, l.len(), dollar_pos, dollar_pos + 1];
                if dollar_pos > 0 {
                    probes.push(dollar_pos - 1);
                }
                probes.extend((0..=l.len()).step_by(7));
                for i in probes {
                    prop_assert!(i <= l.len());
                    let fused = r.occ_all(i);
                    for c in 1..=4u8 {
                        prop_assert_eq!(
                            fused[(c - 1) as usize],
                            r.occ(c, i),
                            "rate={} i={} c={}", rate, i, c
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pair_fusion_spends_fewer_block_visits() {
        use kmm_telemetry::cost::{CostKind, CostSnapshot};
        let blocks_since =
            |before: &CostSnapshot| CostSnapshot::now().delta(before).get(CostKind::RankBlocks);
        let mut l: Vec<u8> = (0..4096).map(|i| (i % 4 + 1) as u8).collect();
        l[4095] = 0;
        let r = RankAll::new(&l, 64);
        // Narrow same-block interval: the pair costs one visit, the two
        // independent lookups cost two — with identical answers.
        let before = CostSnapshot::now();
        let pair = r.occ_all_pair(130, 140);
        let pair_blocks = blocks_since(&before);
        let fused = CostSnapshot::now()
            .delta(&before)
            .get(CostKind::OccPairFused);
        let before = CostSnapshot::now();
        let split = (r.occ_all(130), r.occ_all(140));
        let split_blocks = blocks_since(&before);
        assert_eq!(pair, split);
        assert_eq!(pair_blocks, 1);
        assert_eq!(split_blocks, 2);
        // The shared-visit win is itself a deterministic counter.
        assert_eq!(fused, 1);
        // Cross-block boundaries still cost two and fuse nothing.
        let before = CostSnapshot::now();
        let _ = r.occ_all_pair(10, 1000);
        assert_eq!(blocks_since(&before), 2);
        assert_eq!(
            CostSnapshot::now()
                .delta(&before)
                .get(CostKind::OccPairFused),
            0
        );
        // A symbol plus its rank is one visit even at a block's last
        // slot, and the sentinel slot touches no block.
        let before = CostSnapshot::now();
        assert_eq!(r.symbol_rank(127), Some((4, 31)));
        assert_eq!(r.symbol_rank(4095), None);
        assert_eq!(blocks_since(&before), 1);
        // Prefetch is free on the rank counters but its issue count is
        // tracked (in-range targets only).
        let before = CostSnapshot::now();
        r.prefetch(130);
        r.prefetch(usize::MAX);
        assert_eq!(blocks_since(&before), 0);
        assert_eq!(
            CostSnapshot::now()
                .delta(&before)
                .get(CostKind::PrefetchIssued),
            1
        );
    }

    #[test]
    fn higher_rate_uses_less_space() {
        let mut l: Vec<u8> = (0..1000).map(|i| (i % 4 + 1) as u8).collect();
        l[999] = 0;
        let fine = RankAll::new(&l, 4);
        let coarse = RankAll::new(&l, 128);
        assert!(coarse.heap_bytes() < fine.heap_bytes());
        assert_eq!(fine.rate(), 4);
        assert_eq!(coarse.rate(), 128);
    }

    #[test]
    fn byte_accounting_is_exact() {
        let mut l: Vec<u8> = (0..1000).map(|i| (i % 4 + 1) as u8).collect();
        l[999] = 0;
        for rate in [4usize, 64, 128] {
            let r = RankAll::new(&l, rate);
            assert_eq!(r.heap_bytes(), r.payload_bytes() + r.overhead_bytes());
            let blocks = 1000usize.div_ceil(r.block_span());
            assert_eq!(r.overhead_bytes(), blocks * HEADER_WORDS * 8);
            assert_eq!(r.payload_bytes(), blocks * (r.block_span() / 32) * 8);
        }
    }

    #[test]
    fn totals_are_right() {
        let mut l = kmm_dna::encode(b"acgtacgtaa").unwrap();
        l.push(0);
        let r = RankAll::new(&l, 4);
        assert_eq!(r.count(1), 4);
        assert_eq!(r.count(2), 2);
        assert_eq!(r.count(3), 2);
        assert_eq!(r.count(4), 2);
        assert_eq!(r.count(0), 1);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for rate in [4usize, 64] {
            // Lengths around the word, block, and segment boundaries.
            for n in [1usize, 5, 31, 32, 33, 127, 128, 500, 2048] {
                let dollar = rng.gen_range(0..n);
                let l: Vec<u8> = (0..n)
                    .map(|i| if i == dollar { 0 } else { rng.gen_range(1..=4) })
                    .collect();
                let mut serial_bytes = Vec::new();
                RankAll::new(&l, rate)
                    .write_to(&mut crate::serialize::SerWriter::new(&mut serial_bytes))
                    .unwrap();
                for threads in [2usize, 3, 8] {
                    let par = RankAll::new_with(&l, rate, &ThreadPool::new(threads));
                    let mut par_bytes = Vec::new();
                    par.write_to(&mut crate::serialize::SerWriter::new(&mut par_bytes))
                        .unwrap();
                    assert_eq!(
                        par_bytes, serial_bytes,
                        "n={n} rate={rate} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn serialization_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 700;
        let dollar = rng.gen_range(0..n);
        let l: Vec<u8> = (0..n)
            .map(|i| if i == dollar { 0 } else { rng.gen_range(1..=4) })
            .collect();
        for rate in [4usize, 64] {
            let r = RankAll::new(&l, rate);
            let mut bytes = Vec::new();
            r.write_to(&mut crate::serialize::SerWriter::new(&mut bytes))
                .unwrap();
            let loaded =
                RankAll::read_from(&mut crate::serialize::SerReader::new(&bytes[..])).unwrap();
            for i in (0..=n).step_by(13) {
                assert_eq!(loaded.occ_all(i), r.occ_all(i));
            }
            assert_eq!(loaded.heap_bytes(), r.heap_bytes());
        }
    }

    #[test]
    fn try_new_accepts_small_texts() {
        let l = [1u8, 0, 2, 3, 4];
        let rank = RankAll::try_new(&l, 4).unwrap();
        assert_eq!(rank.len(), 5);
        // The u32 boundary itself is exercised arithmetically in
        // `crate::limits` — a real 4 GiB allocation has no place in tests.
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn rejects_bad_rate() {
        RankAll::new(&[0], 3);
    }

    #[test]
    #[should_panic(expected = "exactly one sentinel")]
    fn rejects_two_sentinels() {
        RankAll::new(&[0, 1, 0], 4);
    }
}
