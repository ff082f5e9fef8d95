//! The FM-index: backward search over a BWT with rankall arrays.
//!
//! This is the index machinery of Section III: the `F` column kept as
//! `σ + 1` intervals (the `C` array), the `L` column as a [`RankAll`]
//! structure, the `search(z, L_{<x,[α,β]>})` primitive realised through two
//! `occ` lookups, and `locate` through a sampled suffix array.
//!
//! The index is direction-agnostic: it indexes whatever text it is given.
//! The k-mismatch layer (`kmm-core`) builds it over the *reverse* of the
//! target so that backward search consumes patterns left-to-right
//! (paper Section IV, Definition 1).

use std::sync::Arc;

use kmm_dna::{SENTINEL, SIGMA};
use kmm_par::ThreadPool;
use kmm_suffix::sais::suffix_array;
use kmm_telemetry::{NoopRecorder, Phase, Recorder};

use crate::bwt::bwt_from_sa_with;
use crate::interval::{Interval, Pair};
use crate::limits::{check_text_len, TextTooLarge};
use crate::mmap::{IndexBytes, MmapRegion, U32Store, U64Store};
use crate::occ::RankAll;
use crate::sampled_sa::SampledSuffixArray;
use crate::serialize::{SectionEntry, SectionPayload, SectionTable, SerializeError};

/// Build-time knobs for the index.
#[derive(Debug, Clone, Copy)]
pub struct FmBuildConfig {
    /// Rankall checkpoint rate (positions between checkpoint rows; multiple
    /// of 4). The paper's layout is 4; 64 is a good default on modern CPUs.
    pub occ_rate: usize,
    /// Suffix-array sampling rate for `locate` (1 = store the full SA).
    pub sa_rate: usize,
    /// Worker threads for the data-parallel construction passes (BWT
    /// gather, rankall packing/checkpoints, sampled-SA extraction). The
    /// built index is bit-identical at any value; 1 (the default) keeps
    /// library builds single-threaded unless a caller opts in.
    pub threads: usize,
}

impl Default for FmBuildConfig {
    fn default() -> Self {
        FmBuildConfig {
            occ_rate: 64,
            sa_rate: 16,
            threads: 1,
        }
    }
}

impl FmBuildConfig {
    /// The layout used in the paper's experiments: rankall row every 4
    /// elements.
    pub fn paper() -> Self {
        FmBuildConfig {
            occ_rate: 4,
            sa_rate: 16,
            ..Self::default()
        }
    }

    /// Same layout, building on `threads` workers (0 is treated as 1).
    pub fn with_threads(self, threads: usize) -> Self {
        FmBuildConfig { threads, ..self }
    }

    /// The thread pool the construction passes run on.
    fn pool(&self) -> ThreadPool {
        ThreadPool::new(self.threads.max(1))
    }
}

/// An FM-index over one sentinel-terminated encoded text.
#[derive(Debug, Clone)]
pub struct FmIndex {
    l: RankAll,
    /// `c[x]` = number of symbols smaller than `x`; `c[SIGMA]` = n.
    c: [u32; SIGMA + 1],
    ssa: SampledSuffixArray,
}

impl FmIndex {
    /// Index `text` (must end with the unique sentinel 0).
    pub fn new(text: &[u8], config: FmBuildConfig) -> Self {
        Self::new_recorded(text, config, &NoopRecorder)
    }

    /// [`Self::new`] with construction phases timed on `recorder`
    /// (`index.sa`, `index.bwt`, `index.rankall`, `index.sampled_sa`).
    pub fn new_recorded<R: Recorder>(text: &[u8], config: FmBuildConfig, recorder: &R) -> Self {
        match Self::try_new_recorded(text, config, recorder) {
            Ok(fm) => fm,
            Err(err) => panic!("{err}"),
        }
    }

    /// [`Self::new`], rejecting texts too long for the `u32` index layout
    /// instead of panicking.
    pub fn try_new(text: &[u8], config: FmBuildConfig) -> Result<Self, TextTooLarge> {
        Self::try_new_recorded(text, config, &NoopRecorder)
    }

    /// [`Self::try_new`] with construction phases timed on `recorder`.
    pub fn try_new_recorded<R: Recorder>(
        text: &[u8],
        config: FmBuildConfig,
        recorder: &R,
    ) -> Result<Self, TextTooLarge> {
        check_text_len(text.len())?;
        let sa = {
            let _span = recorder.span(Phase::IndexSa);
            suffix_array(text, SIGMA)
        };
        Self::try_from_sa_recorded(text, &sa, config, recorder)
    }

    /// Index `text` given its precomputed suffix array.
    pub fn from_sa(text: &[u8], sa: &[u32], config: FmBuildConfig) -> Self {
        Self::from_sa_recorded(text, sa, config, &NoopRecorder)
    }

    /// [`Self::from_sa`] with construction phases timed on `recorder`.
    pub fn from_sa_recorded<R: Recorder>(
        text: &[u8],
        sa: &[u32],
        config: FmBuildConfig,
        recorder: &R,
    ) -> Self {
        match Self::try_from_sa_recorded(text, sa, config, recorder) {
            Ok(fm) => fm,
            Err(err) => panic!("{err}"),
        }
    }

    /// [`Self::from_sa`], rejecting oversized texts instead of panicking.
    /// The `config.threads` pool drives every data-parallel pass; the
    /// result is bit-identical at any thread count.
    pub fn try_from_sa_recorded<R: Recorder>(
        text: &[u8],
        sa: &[u32],
        config: FmBuildConfig,
        recorder: &R,
    ) -> Result<Self, TextTooLarge> {
        check_text_len(text.len())?;
        let pool = config.pool();
        let l = {
            let _span = recorder.span(Phase::IndexBwt);
            bwt_from_sa_with(text, sa, &pool)
        };
        let (rank, c) = {
            let _span = recorder.span(Phase::IndexRankall);
            let rank = RankAll::try_new_with(&l, config.occ_rate, &pool)?;
            // C is the exclusive prefix sum of the symbol totals the
            // rankall build already counted.
            let mut c = [0u32; SIGMA + 1];
            for i in 0..SIGMA {
                c[i + 1] = c[i] + rank.count(i as u8);
            }
            (rank, c)
        };
        let ssa = {
            let _span = recorder.span(Phase::IndexSampledSa);
            SampledSuffixArray::try_new_with(sa, config.sa_rate, &pool)?
        };
        Ok(FmIndex { l: rank, c, ssa })
    }

    /// Text length, sentinel included.
    #[inline]
    pub fn len(&self) -> usize {
        self.l.len()
    }

    /// Always false after construction (texts contain the sentinel).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.l.is_empty()
    }

    /// `C[x]`: the first F-column row of symbol `x`'s block.
    #[inline]
    pub fn c(&self, sym: u8) -> u32 {
        self.c[sym as usize]
    }

    /// The F-block of `sym` as an SA interval (paper's `F_x`).
    #[inline]
    pub fn f_block(&self, sym: u8) -> Interval {
        Interval::new(self.c[sym as usize], self.c[sym as usize + 1])
    }

    /// The interval covering every row (the virtual root `<-,[1,n]>`).
    #[inline]
    pub fn whole(&self) -> Interval {
        Interval::new(0, self.len() as u32)
    }

    /// The symbol `L[row]`.
    #[inline]
    pub fn l_symbol(&self, row: u32) -> u8 {
        self.l.symbol(row as usize)
    }

    /// One backward-search step: the paper's
    /// `search(z, L_{<x,[α,β]>})` — narrow `iv` to the rows whose suffix is
    /// preceded by `z`. Empty result means `z` does not occur in the range.
    #[inline]
    pub fn extend_backward(&self, iv: Interval, z: u8) -> Interval {
        debug_assert!(z != SENTINEL, "patterns never contain the sentinel");
        let lo = self.c[z as usize] + self.l.occ(z, iv.lo as usize);
        let hi = self.c[z as usize] + self.l.occ(z, iv.hi as usize);
        Interval::new(lo, hi)
    }

    /// Fused 4-way backward step: extend `iv` by every base at once.
    ///
    /// `extend_all(iv)[z - 1] == extend_backward(iv, z)` for each base
    /// code `z`, but the four extensions share the interval's two rank
    /// block visits (one per boundary) instead of performing eight
    /// independent `occ` lookups — the cache-interleaved analogue of
    /// BWA's `bwt_2occ4`. Callers iterating children should skip empty
    /// entries before any per-child work.
    #[inline]
    pub fn extend_all(&self, iv: Interval) -> [Interval; 4] {
        let (lo, hi) = self.l.occ_all_pair(iv.lo as usize, iv.hi as usize);
        std::array::from_fn(|j| {
            let c = self.c[j + 1];
            Interval::new(c + lo[j], c + hi[j])
        })
    }

    /// Hint the CPU to pull the rank blocks covering `iv`'s boundaries
    /// into cache ahead of an [`Self::extend_all`]/[`Self::extend_backward`]
    /// on the same interval. Purely advisory: free of side effects, cost
    /// accounting and (off x86-64) of any work at all. Searches that
    /// know the *next* LF target while still processing the current one
    /// hide the dependent-load latency of the block fetch this way.
    #[inline]
    pub fn prefetch_interval(&self, iv: Interval) {
        self.l.prefetch(iv.lo as usize);
        self.l.prefetch(iv.hi as usize);
    }

    /// Targeted LF step: the row of the suffix obtained by prepending
    /// `sym`, assuming `L[row] == sym` (i.e. one `occ` lookup instead of
    /// the two of a full interval extension). This is the singleton-
    /// interval fast path used by the tree searches: a 1-row interval has
    /// exactly one non-empty extension, by the symbol `L[row]`.
    #[inline]
    pub fn lf_with(&self, row: u32, sym: u8) -> u32 {
        debug_assert_eq!(self.l.symbol(row as usize), sym);
        self.c[sym as usize] + self.l.occ(sym, row as usize)
    }

    /// The symbol `L[row]` and the row its LF step lands on, read with
    /// one rank block visit ([`RankAll::symbol_rank`]); `None` when
    /// `L[row]` is the sentinel. The whole extension of a one-row
    /// interval: its only non-empty child is `[lf, lf + 1)`.
    #[inline]
    pub fn lf_step(&self, row: u32) -> Option<(u8, u32)> {
        let (sym, rank) = self.l.symbol_rank(row as usize)?;
        Some((sym, self.c[sym as usize] + rank))
    }

    /// Bitmask (bit `sym - 1`) of the base symbols occurring in
    /// `L[iv.lo .. iv.hi)`; the sentinel is ignored. Costs `O(iv.len())`
    /// symbol reads — only profitable for small intervals, where it lets a
    /// search skip the rank lookups of absent symbols.
    #[inline]
    pub fn symbol_mask(&self, iv: Interval) -> u8 {
        let mut mask = 0u8;
        for row in iv.rows() {
            let sym = self.l.symbol(row as usize);
            if sym != SENTINEL {
                mask |= 1 << (sym - 1);
            }
        }
        mask
    }

    /// Exact backward search of `pattern` (processed right to left).
    pub fn backward_search(&self, pattern: &[u8]) -> Interval {
        let mut iv = self.whole();
        for &z in pattern.iter().rev() {
            iv = self.extend_backward(iv, z);
            if iv.is_empty() {
                return Interval::empty();
            }
        }
        iv
    }

    /// Number of exact occurrences of `pattern` in the indexed text.
    pub fn count(&self, pattern: &[u8]) -> u32 {
        self.backward_search(pattern).len()
    }

    /// LF mapping: the row of the suffix that starts one position earlier.
    #[inline]
    pub fn lf(&self, row: u32) -> u32 {
        let sym = self.l.symbol(row as usize);
        if sym == SENTINEL {
            0
        } else {
            self.c[sym as usize] + self.l.occ(sym, row as usize)
        }
    }

    /// `SA[row]` resolved through the sampled suffix array.
    #[inline]
    pub fn sa_value(&self, row: u32) -> u32 {
        self.ssa
            .resolve(row as usize, |r| self.lf(r as u32) as usize)
    }

    /// Start positions (in the *indexed* text) for every row of `iv`,
    /// sorted ascending.
    pub fn locate(&self, iv: Interval) -> Vec<u32> {
        let mut out: Vec<u32> = iv.rows().map(|r| self.sa_value(r)).collect();
        out.sort_unstable();
        out
    }

    /// Paper-style pair view of an interval known to lie within `sym`'s
    /// F-block.
    pub fn pair(&self, sym: u8, iv: Interval) -> Pair {
        Pair::from_interval(sym, self.c(sym), iv)
    }

    /// Heap bytes used by the index (rankall + SA samples), for Table-1
    /// style reporting.
    pub fn heap_bytes(&self) -> usize {
        self.l.heap_bytes() + self.ssa.heap_bytes()
    }

    /// Bytes of 2-bit packed `L` payload inside the rank structure.
    pub fn rank_payload_bytes(&self) -> usize {
        self.l.payload_bytes()
    }

    /// Bytes of per-block checkpoint headers inside the rank structure —
    /// the price of O(1) rank on top of the packed text.
    pub fn rank_overhead_bytes(&self) -> usize {
        self.l.overhead_bytes()
    }

    /// Bytes of the sampled suffix array (the `locate` side of the index).
    pub fn sampled_sa_bytes(&self) -> usize {
        self.ssa.heap_bytes()
    }

    /// The rankall checkpoint rate the index was built (or loaded) with
    /// — what a matching mirror structure should use.
    pub fn rank_rate(&self) -> usize {
        self.l.rate()
    }

    /// Serialize the whole index as a v3 section-tabled container:
    /// magic, version, checksummed offset table, then each structure as
    /// a 64-byte-aligned little-endian section loadable by reference.
    pub fn save<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        self.save_impl(writer, None)
    }

    /// [`Self::save`] plus the bidirectional mirror rank structure as
    /// two extra optional sections ([`Self::SEC_MIRROR_META`],
    /// [`Self::SEC_MIRROR_RANK`]). The format version is unchanged:
    /// readers that predate the mirror sections ignore the unknown ids,
    /// and [`Self::load_with_mirror`] on a file written by plain
    /// [`Self::save`] reports the mirror as absent. The mirror must
    /// cover the same text (same length and symbol multiset — it is the
    /// rankall of the reversed text's BWT, see `crate::bi`), so no
    /// per-mirror totals are stored.
    pub fn save_with_mirror<W: std::io::Write>(
        &self,
        mirror: &RankAll,
        writer: W,
    ) -> std::io::Result<()> {
        assert_eq!(
            mirror.len(),
            self.l.len(),
            "mirror must cover the same text"
        );
        debug_assert!((0..SIGMA as u8).all(|sym| mirror.count(sym) == self.l.count(sym)));
        self.save_impl(writer, Some(mirror))
    }

    fn save_impl<W: std::io::Write>(
        &self,
        writer: W,
        mirror: Option<&RankAll>,
    ) -> std::io::Result<()> {
        let mut meta = Vec::with_capacity(Self::META_BYTES);
        for v in [
            self.l.len() as u64,
            self.l.rate() as u64,
            self.l.dollar_pos() as u64,
            self.ssa.rate() as u64,
        ] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        for sym in 0..SIGMA as u8 {
            meta.extend_from_slice(&self.l.count(sym).to_le_bytes());
        }
        let mut sections = vec![
            (Self::SEC_META, SectionPayload::Bytes(&meta)),
            (Self::SEC_CTAB, SectionPayload::U32s(&self.c)),
            (
                Self::SEC_RANK_BLOCKS,
                SectionPayload::U64s(self.l.block_words_raw()),
            ),
            (
                Self::SEC_SSA_MARKS,
                SectionPayload::U64s(self.ssa.mark_words_raw()),
            ),
            (
                Self::SEC_SSA_PREFIX,
                SectionPayload::U32s(self.ssa.prefix_raw()),
            ),
            (
                Self::SEC_SSA_SAMPLES,
                SectionPayload::U32s(self.ssa.samples_raw()),
            ),
        ];
        let mut mirror_meta = Vec::with_capacity(Self::MIRROR_META_BYTES);
        if let Some(m) = mirror {
            for v in [m.rate() as u64, m.dollar_pos() as u64] {
                mirror_meta.extend_from_slice(&v.to_le_bytes());
            }
            sections.push((Self::SEC_MIRROR_META, SectionPayload::Bytes(&mirror_meta)));
            sections.push((
                Self::SEC_MIRROR_RANK,
                SectionPayload::U64s(m.block_words_raw()),
            ));
        }
        crate::serialize::write_container(writer, Self::MAGIC, Self::FORMAT_VERSION, &sections)
    }

    /// Serialize in the legacy v2 stream format (magic, version, raw
    /// structures, trailing checksum). Retained only so tests and the
    /// `kmm index upgrade` round-trip can fabricate old files.
    #[doc(hidden)]
    pub fn save_legacy_v2<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        let mut w = crate::serialize::SerWriter::new(writer);
        w.bytes(Self::MAGIC)?;
        w.u32(Self::LEGACY_FORMAT_VERSION)?;
        for &c in &self.c {
            w.u32(c)?;
        }
        self.l.write_to(&mut w)?;
        self.ssa.write_to(&mut w)?;
        w.finish()
    }

    /// [`Self::load`] timed as the `index.load` phase on `recorder`.
    pub fn load_recorded<Rd: std::io::Read, R: Recorder>(
        reader: Rd,
        recorder: &R,
    ) -> Result<Self, crate::serialize::SerializeError> {
        let _span = recorder.span(Phase::IndexLoad);
        Self::load(reader)
    }

    /// Load a v3 index previously written by [`Self::save`], verifying
    /// the magic tag, version and every section checksum. The stream is
    /// read once into an owned image; the rank/SA structures then borrow
    /// that image in place (no per-structure copies).
    pub fn load<R: std::io::Read>(mut reader: R) -> Result<Self, SerializeError> {
        let base = Arc::new(IndexBytes::from_reader(&mut reader)?);
        Ok(Self::from_image(base, true)?.0)
    }

    /// [`Self::load`], additionally recovering the bidirectional mirror
    /// rank structure when the container carries the optional mirror
    /// sections (files written by [`Self::save_with_mirror`]). Plain
    /// [`Self::save`] files load fine with `None`.
    pub fn load_with_mirror<R: std::io::Read>(
        mut reader: R,
    ) -> Result<(Self, Option<RankAll>), SerializeError> {
        let base = Arc::new(IndexBytes::from_reader(&mut reader)?);
        Self::from_image(base, true)
    }

    /// Load a v3 index from an in-memory image, verifying checksums.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SerializeError> {
        Ok(Self::from_image(Arc::new(IndexBytes::from_bytes(bytes)), true)?.0)
    }

    /// Open an index file, preferring a zero-copy `mmap` when asked.
    ///
    /// With `prefer_mmap`, the file is mapped read-only and the index
    /// borrows the mapping directly: only the header, section table and
    /// small metadata sections are touched, so open cost is independent
    /// of index size. Section *table* integrity is still fully enforced
    /// (structural bounds + header checksum), but the bulk payload
    /// checksums are **not** streamed — see DESIGN.md for the trade-off.
    /// When mapping is unavailable (non-Linux, empty file) or
    /// `prefer_mmap` is false, the file is read into memory with full
    /// checksum verification, and the structures borrow the owned image.
    pub fn open_path(
        path: &std::path::Path,
        prefer_mmap: bool,
    ) -> Result<(Self, OpenStats), SerializeError> {
        let (fm, _, stats) = Self::open_path_with_mirror(path, prefer_mmap)?;
        Ok((fm, stats))
    }

    /// [`Self::open_path`], additionally recovering the bidirectional
    /// mirror rank structure when the file carries the optional mirror
    /// sections. The mirror borrows the same image/mapping as the
    /// primary, so a zero-copy open stays O(1).
    pub fn open_path_with_mirror(
        path: &std::path::Path,
        prefer_mmap: bool,
    ) -> Result<(Self, Option<RankAll>, OpenStats), SerializeError> {
        let file = std::fs::File::open(path)?;
        if prefer_mmap {
            if let Ok(region) = MmapRegion::map_file(&file) {
                let base = Arc::new(IndexBytes::Mapped(region));
                let total = base.len() as u64;
                let (fm, mirror) = Self::from_image(base, false)?;
                return Ok((
                    fm,
                    mirror,
                    OpenStats {
                        mode: LoadMode::Mapped,
                        file_bytes: total,
                        io_bytes: 0,
                        bytes_mapped: total,
                    },
                ));
            }
        }
        let mut reader = std::io::BufReader::new(file);
        let base = Arc::new(IndexBytes::from_reader(&mut reader)?);
        let total = base.len() as u64;
        let (fm, mirror) = Self::from_image(base, true)?;
        Ok((
            fm,
            mirror,
            OpenStats {
                mode: LoadMode::Read,
                file_bytes: total,
                io_bytes: total,
                bytes_mapped: 0,
            },
        ))
    }

    /// Parse a v3 container image shared behind `base`. The returned
    /// index borrows `base` wherever alignment permits (always, for
    /// files written by [`Self::save`]).
    ///
    /// `verify_checksums` selects the integrity regime: `true` streams
    /// every section's FNV checksum (read path), `false` skips payload
    /// checksums but instead validates the SA rank directory against
    /// the mark bitmap (mmap path) so no well-typed access can loop or
    /// panic on a structurally sane file.
    fn from_image(
        base: Arc<IndexBytes>,
        verify_checksums: bool,
    ) -> Result<(Self, Option<RankAll>), SerializeError> {
        let bytes = base.as_bytes();
        if bytes.len() < 8 || bytes[..8] != Self::MAGIC[..] {
            return Err(SerializeError::BadMagic);
        }
        if bytes.len() < 12 {
            return Err(SerializeError::Malformed("container header"));
        }
        // Dispatch on the version *before* the table parse so legacy
        // files fail with the migration hint, not a checksum error.
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != Self::FORMAT_VERSION {
            return Err(SerializeError::BadVersion {
                found: version,
                supported: Self::SUPPORTED_VERSIONS,
            });
        }
        let table = SectionTable::parse(bytes, Self::MAGIC)?;
        if verify_checksums {
            for entry in &table.entries {
                entry.verify(bytes)?;
            }
        }
        let meta = table.section(Self::SEC_META)?;
        if meta.len != Self::META_BYTES {
            return Err(SerializeError::Malformed("meta section"));
        }
        let m = meta.bytes(bytes);
        let read_u64 = |off: usize| u64::from_le_bytes(m[off..off + 8].try_into().unwrap());
        let n = read_u64(0) as usize;
        let occ_rate = read_u64(8) as usize;
        let dollar_pos = read_u64(16) as usize;
        let sa_rate = read_u64(24) as usize;
        let mut totals = [0u32; SIGMA];
        for (i, t) in totals.iter_mut().enumerate() {
            *t = u32::from_le_bytes(m[32 + 4 * i..36 + 4 * i].try_into().unwrap());
        }
        let ctab = table.section(Self::SEC_CTAB)?;
        if ctab.elems(4)? != SIGMA + 1 {
            return Err(SerializeError::Malformed("C array length"));
        }
        let cb = ctab.bytes(bytes);
        let mut c = [0u32; SIGMA + 1];
        for (i, slot) in c.iter_mut().enumerate() {
            *slot = u32::from_le_bytes(cb[4 * i..4 * i + 4].try_into().unwrap());
        }
        if c[SIGMA] as usize != n {
            return Err(SerializeError::Malformed("C array total"));
        }
        for i in 0..SIGMA {
            if c[i + 1].checked_sub(c[i]) != Some(totals[i]) {
                return Err(SerializeError::Malformed("C array total"));
            }
        }
        // Borrow each bulk section from the shared image; `copied` is
        // the big-endian (or pathological-alignment) fallback and keeps
        // the same validation story.
        let u64_store = |entry: &SectionEntry| -> Result<U64Store, SerializeError> {
            let elems = entry.elems(8)?;
            U64Store::borrowed(Arc::clone(&base), entry.offset, elems)
                .or_else(|| U64Store::copied(&base, entry.offset, elems))
                .ok_or(SerializeError::Malformed("section bounds"))
        };
        let u32_store = |entry: &SectionEntry| -> Result<U32Store, SerializeError> {
            let elems = entry.elems(4)?;
            U32Store::borrowed(Arc::clone(&base), entry.offset, elems)
                .or_else(|| U32Store::copied(&base, entry.offset, elems))
                .ok_or(SerializeError::Malformed("section bounds"))
        };
        let l = RankAll::from_store(
            u64_store(table.section(Self::SEC_RANK_BLOCKS)?)?,
            occ_rate,
            dollar_pos,
            n,
            totals,
        )?;
        let ssa = SampledSuffixArray::from_store(
            n,
            sa_rate,
            u64_store(table.section(Self::SEC_SSA_MARKS)?)?,
            u32_store(table.section(Self::SEC_SSA_PREFIX)?)?,
            u32_store(table.section(Self::SEC_SSA_SAMPLES)?)?,
            !verify_checksums,
        )?;
        debug_assert_eq!(ssa.marked_len(), n);
        // Optional bidirectional mirror sections: absence means the
        // file predates (or was saved without) bidirectional support —
        // the version-gating mechanism for this feature.
        let mirror = match (
            table.find(Self::SEC_MIRROR_META),
            table.find(Self::SEC_MIRROR_RANK),
        ) {
            (Some(mmeta), Some(mrank)) => {
                if mmeta.len != Self::MIRROR_META_BYTES {
                    return Err(SerializeError::Malformed("mirror meta section"));
                }
                let mm = mmeta.bytes(bytes);
                let mread = |off: usize| u64::from_le_bytes(mm[off..off + 8].try_into().unwrap());
                let mirror_rate = mread(0) as usize;
                let mirror_dollar = mread(8) as usize;
                // The mirror covers the same text, so it shares the
                // primary's length and symbol totals.
                Some(RankAll::from_store(
                    u64_store(mrank)?,
                    mirror_rate,
                    mirror_dollar,
                    n,
                    totals,
                )?)
            }
            _ => None,
        };
        Ok((FmIndex { l, c, ssa }, mirror))
    }

    /// Load a legacy v2 stream (the pre-container format). This is the
    /// reader behind `kmm index upgrade`; [`Self::load`] refuses v2
    /// files with the migration hint instead.
    pub fn load_legacy_v2<R: std::io::Read>(reader: R) -> Result<Self, SerializeError> {
        let mut r = crate::serialize::SerReader::new(reader);
        let mut magic = [0u8; 8];
        r.bytes(&mut magic)?;
        if &magic != Self::MAGIC {
            return Err(SerializeError::BadMagic);
        }
        let version = r.u32()?;
        if version != Self::LEGACY_FORMAT_VERSION {
            return Err(SerializeError::BadVersion {
                found: version,
                supported: "v2 (this is the `kmm index upgrade` reader)",
            });
        }
        let mut c = [0u32; SIGMA + 1];
        for slot in c.iter_mut() {
            *slot = r.u32()?;
        }
        let l = RankAll::read_from(&mut r)?;
        let ssa = SampledSuffixArray::read_from(&mut r)?;
        r.finish()?;
        if c[SIGMA] as usize != l.len() {
            return Err(SerializeError::Malformed("C array total"));
        }
        Ok(FmIndex { l, c, ssa })
    }

    /// True when the index borrows a loaded/mapped file image instead of
    /// owning its arrays (i.e. it came from a zero-copy open).
    pub fn is_borrowed(&self) -> bool {
        self.l.is_borrowed() || self.ssa.is_borrowed()
    }

    /// File magic tag for serialized indexes.
    pub const MAGIC: &'static [u8; 8] = b"KMMFMIDX";
    /// Current serialization format version. Version 3 is the aligned
    /// section-tabled container (zero-copy loadable); version 2 was the
    /// interleaved-rank stream format, convertible with
    /// `kmm index upgrade`; version-1 files must be rebuilt with
    /// `kmm index`.
    pub const FORMAT_VERSION: u32 = 3;
    /// The stream format written before the v3 container.
    pub const LEGACY_FORMAT_VERSION: u32 = 2;
    /// What [`Self::load`] accepts, phrased for the version error.
    pub const SUPPORTED_VERSIONS: &'static str =
        "v3 (v2 files: run `kmm index upgrade`; v1 files: rebuild with `kmm index`)";

    /// v3 section ids (fixed; new sections append new ids).
    pub const SEC_META: u32 = 1;
    /// C-table section id (`σ + 1` little-endian `u32`s).
    pub const SEC_CTAB: u32 = 2;
    /// Interleaved rank-block words section id.
    pub const SEC_RANK_BLOCKS: u32 = 3;
    /// Sampled-SA mark bitmap section id.
    pub const SEC_SSA_MARKS: u32 = 4;
    /// Sampled-SA rank-directory prefix section id (stored, not
    /// rebuilt, so a zero-copy open needs no O(n) pass).
    pub const SEC_SSA_PREFIX: u32 = 5;
    /// Sampled-SA retained-values section id.
    pub const SEC_SSA_SAMPLES: u32 = 6;
    /// Optional bidirectional-mirror metadata section id (two `u64`
    /// scalars: mirror rank rate, mirror sentinel row). Present only in
    /// files written by [`Self::save_with_mirror`].
    pub const SEC_MIRROR_META: u32 = 7;
    /// Optional bidirectional-mirror interleaved rank-block words
    /// section id.
    pub const SEC_MIRROR_RANK: u32 = 8;
    /// Fixed byte length of the META section: four `u64` scalars
    /// (length, rank rate, sentinel row, SA rate) plus `σ` `u32` symbol
    /// totals.
    pub const META_BYTES: usize = 4 * 8 + SIGMA * 4;
    /// Fixed byte length of the optional mirror meta section.
    pub const MIRROR_META_BYTES: usize = 2 * 8;

    /// Reconstruct the indexed text (sentinel included) by LF-walking.
    /// O(n · occ); used by tests and the index explorer example.
    pub fn reconstruct_text(&self) -> Vec<u8> {
        let n = self.len();
        let mut out = vec![0u8; n];
        let mut row = 0u32;
        for i in (0..n - 1).rev() {
            let sym = self.l.symbol(row as usize);
            out[i] = sym;
            row = self.lf(row);
        }
        out[n - 1] = SENTINEL;
        out
    }
}

/// How [`FmIndex::open_path`] got the index bytes into the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Whole file read into an owned image, every checksum verified.
    Read,
    /// File mapped read-only; structures borrow the mapping.
    Mapped,
}

impl LoadMode {
    /// Stable telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            LoadMode::Read => "read",
            LoadMode::Mapped => "mmap",
        }
    }

    /// Stable numeric code for counters (read = 1, mmap = 2).
    pub fn as_counter(self) -> u64 {
        match self {
            LoadMode::Read => 1,
            LoadMode::Mapped => 2,
        }
    }
}

/// Deterministic accounting for one [`FmIndex::open_path`] call — the
/// cold-start benchmark and the `index.load.*` counters read these
/// instead of wall-clock I/O, so asserting "mmap opens are O(1)" is
/// reproducible.
#[derive(Debug, Clone, Copy)]
pub struct OpenStats {
    /// Which path was taken.
    pub mode: LoadMode,
    /// Size of the index file in bytes.
    pub file_bytes: u64,
    /// Bytes pulled through `read(2)` (0 for a mapped open).
    pub io_bytes: u64,
    /// Bytes mapped into the address space (0 for a read open).
    pub bytes_mapped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(ascii: &[u8]) -> (FmIndex, Vec<u8>) {
        let text = kmm_dna::encode_text(ascii).unwrap();
        (FmIndex::new(&text, FmBuildConfig::default()), text)
    }

    #[test]
    fn paper_section3_walkthrough() {
        // Searching r = aca in s = acagaca$ (Section III-A).
        let (fm, _) = index(b"acagaca");
        // Step 1: F_A = <a, [1, 4]> = rows 1..5.
        let f_a = fm.f_block(1);
        assert_eq!(f_a, Interval::new(1, 5));
        assert_eq!(fm.pair(1, f_a).to_string(), "<a, [1, 4]>");
        // Step 2: search(c, L_<a,[1,4]>) = <c, [1, 2]> = rows 5..7.
        let iv = fm.extend_backward(f_a, 2);
        assert_eq!(iv, Interval::new(5, 7));
        assert_eq!(fm.pair(2, iv).to_string(), "<c, [1, 2]>");
        // Step 3: search(a, L_<c,[1,2]>) = <a, [2, 3]> = rows 2..4.
        let iv = fm.extend_backward(iv, 1);
        assert_eq!(iv, Interval::new(2, 4));
        assert_eq!(fm.pair(1, iv).to_string(), "<a, [2, 3]>");
        // Two occurrences of aca: note the backward search consumed the
        // pattern reversed, so this is the interval for "aca" read
        // backwards; match the paper by searching the reverse pattern.
        let pat = kmm_dna::encode(b"aca").unwrap();
        let rev: Vec<u8> = pat.iter().rev().copied().collect();
        assert_eq!(fm.backward_search(&rev), Interval::new(2, 4));
    }

    #[test]
    fn count_and_locate_match_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        for _ in 0..40 {
            let n = rng.gen_range(1..400);
            let ascii: Vec<u8> = (0..n).map(|_| b"acgt"[rng.gen_range(0..4usize)]).collect();
            let (fm, text) = index(&ascii);
            for _ in 0..15 {
                let m = rng.gen_range(1..10);
                let pat: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
                let naive: Vec<u32> = if m > text.len() {
                    vec![]
                } else {
                    (0..=(text.len() - m) as u32)
                        .filter(|&i| text[i as usize..i as usize + m] == pat[..])
                        .collect()
                };
                assert_eq!(fm.count(&pat) as usize, naive.len());
                assert_eq!(fm.locate(fm.backward_search(&pat)), naive);
            }
        }
    }

    #[test]
    fn empty_pattern_matches_everywhere() {
        let (fm, text) = index(b"acgt");
        assert_eq!(fm.count(&[]), text.len() as u32);
    }

    #[test]
    fn reconstruct_recovers_text() {
        let (fm, text) = index(b"gattacagatta");
        assert_eq!(fm.reconstruct_text(), text);
    }

    #[test]
    fn lf_walks_whole_text() {
        let (fm, _) = index(b"acagaca");
        // LF applied n times from row 0 must cycle through all rows.
        let n = fm.len();
        let mut row = 0u32;
        let mut seen = vec![false; n];
        for _ in 0..n {
            assert!(!seen[row as usize]);
            seen[row as usize] = true;
            row = fm.lf(row);
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(row, 0);
    }

    #[test]
    fn sa_values_match_real_sa() {
        let text = kmm_dna::encode_text(b"ctagctagcatgcat").unwrap();
        let sa = kmm_suffix::suffix_array(&text, kmm_dna::SIGMA);
        for (occ_rate, sa_rate) in [(4, 1), (4, 4), (64, 16), (8, 32)] {
            let cfg = FmBuildConfig {
                occ_rate,
                sa_rate,
                ..FmBuildConfig::default()
            };
            let fm = FmIndex::from_sa(&text, &sa, cfg);
            for (row, &v) in sa.iter().enumerate() {
                assert_eq!(fm.sa_value(row as u32), v);
            }
        }
    }

    #[test]
    fn paper_rate_config_matches_default() {
        let ascii: Vec<u8> = (0..600).map(|i: usize| b"acgt"[(i * 3 + 1) % 4]).collect();
        let text = kmm_dna::encode_text(&ascii).unwrap();
        let a = FmIndex::new(&text, FmBuildConfig::default());
        let b = FmIndex::new(&text, FmBuildConfig::paper());
        let pat = kmm_dna::encode(b"aca").unwrap();
        assert_eq!(a.backward_search(&pat), b.backward_search(&pat));
        // The paper layout checkpoints more densely and thus uses more space.
        assert!(b.heap_bytes() > a.heap_bytes());
    }

    #[test]
    fn threaded_build_is_byte_identical() {
        let ascii: Vec<u8> = (0..3000)
            .map(|i: usize| b"acgt"[(i * 7 + i / 9) % 4])
            .collect();
        let text = kmm_dna::encode_text(&ascii).unwrap();
        for base in [FmBuildConfig::default(), FmBuildConfig::paper()] {
            let mut serial_bytes = Vec::new();
            FmIndex::new(&text, base).save(&mut serial_bytes).unwrap();
            for threads in [2usize, 8] {
                let fm = FmIndex::try_new(&text, base.with_threads(threads)).unwrap();
                let mut bytes = Vec::new();
                fm.save(&mut bytes).unwrap();
                assert_eq!(bytes, serial_bytes, "threads={threads}");
            }
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let text = kmm_dna::encode_text(b"gattacagattacaacgtacgt").unwrap();
        for cfg in [FmBuildConfig::default(), FmBuildConfig::paper()] {
            let fm = FmIndex::new(&text, cfg);
            let mut buf = Vec::new();
            fm.save(&mut buf).unwrap();
            let loaded = FmIndex::load(&buf[..]).unwrap();
            assert_eq!(loaded.len(), fm.len());
            assert_eq!(loaded.reconstruct_text(), text);
            let pat = kmm_dna::encode(b"atta").unwrap();
            assert_eq!(loaded.backward_search(&pat), fm.backward_search(&pat));
            assert_eq!(
                loaded.locate(loaded.backward_search(&pat)),
                fm.locate(fm.backward_search(&pat))
            );
        }
    }

    #[test]
    fn save_with_mirror_roundtrips_and_plain_files_load_without() {
        let ascii = b"gattacagattacaacgtacgt";
        let text = kmm_dna::encode_text(ascii).unwrap();
        let mut rev: Vec<u8> = text[..text.len() - 1].to_vec();
        rev.reverse();
        rev.push(0);
        let fm = FmIndex::new(&rev, FmBuildConfig::default());
        let mirror = crate::bi::build_mirror(&text, 64, 1).unwrap();

        let mut buf = Vec::new();
        fm.save_with_mirror(&mirror, &mut buf).unwrap();
        let (loaded, loaded_mirror) = FmIndex::load_with_mirror(&buf[..]).unwrap();
        let loaded_mirror = loaded_mirror.expect("mirror sections present");
        assert_eq!(loaded.reconstruct_text(), rev);
        assert_eq!(loaded_mirror.len(), mirror.len());
        assert_eq!(loaded_mirror.rate(), mirror.rate());
        assert_eq!(loaded_mirror.dollar_pos(), mirror.dollar_pos());
        for i in 0..=mirror.len() {
            assert_eq!(loaded_mirror.occ_all(i), mirror.occ_all(i), "i={i}");
        }
        // The loaded pair answers bidirectional extensions identically.
        let bi = crate::bi::BiFmIndex::new(&fm, &mirror);
        let bi2 = crate::bi::BiFmIndex::new(&loaded, &loaded_mirror);
        let pat = kmm_dna::encode(b"atta").unwrap();
        let mut a = bi.whole();
        let mut b = bi2.whole();
        for (i, &z) in pat.iter().enumerate() {
            if i % 2 == 0 {
                a = bi.extend_right(a, z);
                b = bi2.extend_right(b, z);
            } else {
                a = bi.extend_left(a, z);
                b = bi2.extend_left(b, z);
            }
            assert_eq!(a, b);
        }

        // A plain save has no mirror; load_with_mirror reports None and
        // plain load still works on mirror-carrying files.
        let mut plain = Vec::new();
        fm.save(&mut plain).unwrap();
        let (_, none) = FmIndex::load_with_mirror(&plain[..]).unwrap();
        assert!(none.is_none());
        let legacy_reader = FmIndex::load(&buf[..]).unwrap();
        assert_eq!(legacy_reader.reconstruct_text(), rev);
        // Mirror payload corruption is caught by the section checksums.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(FmIndex::load_with_mirror(&bad[..]).is_err());
    }

    #[test]
    fn open_path_with_mirror_mmap_and_read_agree() {
        let ascii = b"ctagctagcatgcatacgtacgt";
        let text = kmm_dna::encode_text(ascii).unwrap();
        let mut rev: Vec<u8> = text[..text.len() - 1].to_vec();
        rev.reverse();
        rev.push(0);
        let fm = FmIndex::new(&rev, FmBuildConfig::default());
        let mirror = crate::bi::build_mirror(&text, 64, 1).unwrap();
        let dir = std::env::temp_dir().join(format!("kmm-fm-bidir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.v3");
        let mut buf = Vec::new();
        fm.save_with_mirror(&mirror, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        for prefer_mmap in [false, true] {
            let (loaded, m, _) = FmIndex::open_path_with_mirror(&path, prefer_mmap).unwrap();
            let m = m.expect("mirror sections present");
            assert_eq!(loaded.reconstruct_text(), rev);
            for i in 0..=mirror.len() {
                assert_eq!(m.occ_all(i), mirror.occ_all(i), "mmap={prefer_mmap} i={i}");
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn load_rejects_garbage_and_corruption() {
        use crate::serialize::SerializeError;
        assert!(matches!(
            FmIndex::load(&b"not an index at all"[..]),
            Err(SerializeError::BadMagic)
        ));
        let text = kmm_dna::encode_text(b"acgtacgt").unwrap();
        let fm = FmIndex::new(&text, FmBuildConfig::default());
        let mut buf = Vec::new();
        fm.save(&mut buf).unwrap();
        // Corrupt a payload byte past the header.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xff;
        assert!(FmIndex::load(&buf[..]).is_err());
        // Truncate.
        let mut buf2 = Vec::new();
        fm.save(&mut buf2).unwrap();
        buf2.truncate(buf2.len() - 4);
        assert!(FmIndex::load(&buf2[..]).is_err());
        // Future version.
        let mut buf3 = Vec::new();
        fm.save(&mut buf3).unwrap();
        buf3[8] = 99;
        assert!(matches!(
            FmIndex::load(&buf3[..]),
            Err(SerializeError::BadVersion { found: 99, .. }) | Err(SerializeError::Corrupt)
        ));
    }

    #[test]
    fn f_blocks_partition_rows() {
        let (fm, text) = index(b"ccagtgtta");
        let mut total = 0;
        for sym in 0..SIGMA as u8 {
            total += fm.f_block(sym).len();
        }
        assert_eq!(total as usize, text.len());
        assert_eq!(fm.f_block(0), Interval::new(0, 1));
    }

    #[test]
    fn lf_with_matches_extend_on_singletons() {
        let (fm, _) = index(b"gattacagattacatacg");
        for row in 0..fm.len() as u32 {
            let sym = fm.l_symbol(row);
            if sym == 0 {
                continue;
            }
            let via_lf = fm.lf_with(row, sym);
            let iv = fm.extend_backward(Interval::new(row, row + 1), sym);
            assert_eq!(iv, Interval::new(via_lf, via_lf + 1));
            assert_eq!(via_lf, fm.lf(row));
        }
    }

    #[test]
    fn symbol_mask_matches_extensions() {
        let (fm, _) = index(b"acaggacttacag");
        // For every interval of small width, the mask must list exactly the
        // symbols whose backward extension is non-empty.
        let n = fm.len() as u32;
        for lo in 0..n {
            for hi in lo + 1..=(lo + 5).min(n) {
                let iv = Interval::new(lo, hi);
                let mask = fm.symbol_mask(iv);
                for sym in 1..=4u8 {
                    let extends = !fm.extend_backward(iv, sym).is_empty();
                    assert_eq!(mask & (1 << (sym - 1)) != 0, extends, "iv={iv} sym={sym}");
                }
            }
        }
    }

    #[test]
    fn extend_all_matches_extend_backward() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(911);
        for cfg in [FmBuildConfig::default(), FmBuildConfig::paper()] {
            let n = rng.gen_range(50..400);
            let ascii: Vec<u8> = (0..n).map(|_| b"acgt"[rng.gen_range(0..4usize)]).collect();
            let text = kmm_dna::encode_text(&ascii).unwrap();
            let fm = FmIndex::new(&text, cfg);
            let total = fm.len() as u32;
            // All narrow intervals plus the whole range and empties.
            let mut ivs = vec![fm.whole(), Interval::empty()];
            for lo in 0..total {
                for hi in lo..=(lo + 3).min(total) {
                    ivs.push(Interval::new(lo, hi));
                }
            }
            for iv in ivs {
                let fused = fm.extend_all(iv);
                for z in 1..=4u8 {
                    assert_eq!(
                        fused[(z - 1) as usize],
                        fm.extend_backward(iv, z),
                        "iv={iv} z={z}"
                    );
                }
            }
        }
    }

    #[test]
    fn absent_symbol_gives_empty_interval() {
        let (fm, _) = index(b"aaaa"); // no g anywhere
        let iv = fm.extend_backward(fm.whole(), 3);
        assert!(iv.is_empty());
        assert_eq!(fm.f_block(3).len(), 0);
    }

    #[test]
    fn v2_files_fail_with_upgrade_hint() {
        use crate::serialize::SerializeError;
        let (fm, _) = index(b"gattacagattaca");
        let mut v2 = Vec::new();
        fm.save_legacy_v2(&mut v2).unwrap();
        match FmIndex::load(&v2[..]) {
            Err(SerializeError::BadVersion { found, supported }) => {
                assert_eq!(found, 2);
                assert!(supported.contains("kmm index upgrade"), "{supported}");
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
        // A v1 header (same shape, older version stamp) names a path too.
        let mut v1 = v2.clone();
        v1[8] = 1;
        assert!(matches!(
            FmIndex::load(&v1[..]),
            Err(SerializeError::BadVersion { found: 1, .. })
        ));
    }

    #[test]
    fn legacy_v2_reader_roundtrips_for_upgrade() {
        let (fm, text) = index(b"ctagctagcatgcatacgt");
        let mut v2 = Vec::new();
        fm.save_legacy_v2(&mut v2).unwrap();
        let upgraded = FmIndex::load_legacy_v2(&v2[..]).unwrap();
        assert_eq!(upgraded.reconstruct_text(), text);
        // And the upgraded index saves as a loadable v3 container.
        let mut v3 = Vec::new();
        upgraded.save(&mut v3).unwrap();
        assert_eq!(&v3[..8], FmIndex::MAGIC);
        let reloaded = FmIndex::load(&v3[..]).unwrap();
        assert_eq!(reloaded.reconstruct_text(), text);
        // The legacy reader refuses v3 containers cleanly.
        assert!(matches!(
            FmIndex::load_legacy_v2(&v3[..]),
            Err(crate::serialize::SerializeError::BadVersion { found: 3, .. })
        ));
    }

    #[test]
    fn loaded_index_borrows_its_image() {
        let (fm, _) = index(b"acgtacgtacgtacgt");
        assert!(!fm.is_borrowed(), "a built index owns its arrays");
        let mut buf = Vec::new();
        fm.save(&mut buf).unwrap();
        let loaded = FmIndex::load(&buf[..]).unwrap();
        // Sections are 64-byte aligned in the image and the image is an
        // owned Vec<u64>, so every store borrows (little-endian hosts).
        if cfg!(target_endian = "little") {
            assert!(loaded.is_borrowed());
        }
    }

    #[test]
    fn open_path_read_and_mmap_agree() {
        let (fm, text) = index(b"gattacagattacaacgtacgtccggaatt");
        let dir = std::env::temp_dir().join(format!("kmm-fm-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.v3");
        let mut buf = Vec::new();
        fm.save(&mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let (read_fm, read_stats) = FmIndex::open_path(&path, false).unwrap();
        assert_eq!(read_stats.mode, LoadMode::Read);
        assert_eq!(read_stats.io_bytes, buf.len() as u64);
        assert_eq!(read_stats.bytes_mapped, 0);
        assert_eq!(read_fm.reconstruct_text(), text);

        let (mm_fm, mm_stats) = FmIndex::open_path(&path, true).unwrap();
        match mm_stats.mode {
            LoadMode::Mapped => {
                assert_eq!(mm_stats.io_bytes, 0);
                assert_eq!(mm_stats.bytes_mapped, buf.len() as u64);
                assert!(mm_fm.is_borrowed());
            }
            // Platforms without the mmap fast path fall back to read.
            LoadMode::Read => assert_eq!(mm_stats.io_bytes, buf.len() as u64),
        }
        // Both opens answer queries identically to the built index.
        let pat = kmm_dna::encode(b"atta").unwrap();
        for loaded in [&read_fm, &mm_fm] {
            assert_eq!(loaded.backward_search(&pat), fm.backward_search(&pat));
            assert_eq!(
                loaded.locate(loaded.backward_search(&pat)),
                fm.locate(fm.backward_search(&pat))
            );
            for iv in [fm.whole(), Interval::new(1, 3)] {
                assert_eq!(loaded.extend_all(iv), fm.extend_all(iv));
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn prefetch_is_pure() {
        use kmm_telemetry::cost::{CostKind, CostSnapshot};
        let (fm, _) = index(b"acagaca");
        let before = CostSnapshot::now();
        fm.prefetch_interval(fm.whole());
        fm.prefetch_interval(Interval::empty());
        let delta = CostSnapshot::now().delta(&before);
        // No rank work — but the advisory hints themselves are counted.
        assert_eq!(delta.get(CostKind::RankBlocks), 0);
        assert_eq!(delta.get(CostKind::RankBytes), 0);
        assert!(delta.get(CostKind::PrefetchIssued) > 0);
    }
}
