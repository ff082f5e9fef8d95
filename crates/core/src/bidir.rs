//! Bidirectional k-mismatch search driven by partition search schemes.
//!
//! The unidirectional searches (S-tree, Algorithm A) extend patterns in
//! one direction only, so every mismatch budget is spent near the root
//! where SA intervals are still huge. A *search scheme* (Kucherov et
//! al. 2014; Kianfar et al., "Optimum Search Schemes") splits the
//! pattern into `P` pieces and runs a small set of searches, each
//! processing the pieces in a different order over a [`BiFmIndex`] —
//! extending left or right as the order demands — with cumulative
//! lower/upper mismatch bounds per piece. The orders are chosen so
//! errors are forced *late*: every search starts from a piece that must
//! match exactly (or nearly so), collapsing the interval before any
//! branching is allowed.
//!
//! The precomputed tables for `k = 1..3` are complete **and disjoint**
//! (machine-checked in the tests below): every error distribution over
//! the pieces is enumerated by exactly one search. The pigeonhole
//! family used for larger `k` (or when `KMM_BIDIR_PIGEONHOLE=1` forces
//! its plain form, the bench's planted-regression hook) is complete but
//! overlapping.
//!
//! Once a search has narrowed to one row with at least `sa_rate` steps
//! left, walking on costs a rank block visit per symbol, while locating
//! the row costs fewer than `sa_rate`. The walk then *verifies*: it
//! locates the row once and compares the rest of the read against the
//! 2-bit packed text, reporting the window if its Hamming distance is
//! at most `k`. Verification ignores the scheme's bounds, so a window
//! may be reported by more than one search; results are sorted and
//! deduped either way.

use std::sync::OnceLock;

use kmm_bwt::{BiFmIndex, BiInterval, FmIndex, RankAll};
use kmm_classic::Occurrence;
use kmm_dna::{PackedSeq, BASES};
use kmm_telemetry::{Hist, Phase, PruneCause, Recorder};

use crate::algorithm_a::AlgorithmA;
use crate::cancel::{CancelToken, Gate, Outcome};
use crate::stats::SearchStats;
use crate::stree::{report_interval, rev_pos_to_forward};

/// A full search scheme for one mismatch budget `k`: a set of searches,
/// each processing the pattern pieces in an order `π` that grows a
/// contiguous window, with the cumulative mismatch count after its
/// `i`-th piece bounded to `[L[i], U[i]]`. A value is a handle on a
/// static table or on the pigeonhole formula, so choosing a scheme per
/// query allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme {
    /// The mismatch budget the scheme enumerates.
    pub k: usize,
    /// Number of pattern pieces `P`.
    pub pieces: usize,
    family: Family,
}

/// Where a [`Scheme`]'s searches come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// A precomputed table.
    Table(&'static [RawSearch]),
    /// The pigeonhole formula. `tight` caps the left sweep's upper
    /// bounds by the errors its remaining pieces still owe.
    Pigeonhole { tight: bool },
}

type RawSearch = (&'static [usize], &'static [usize], &'static [usize]);

/// k = 0: one exact search.
const K0: &[RawSearch] = &[(&[0], &[0], &[0])];

/// k = 1, P = 2: the classic bidirectional pair — each search keeps one
/// half exact and lets the error fall in the half processed second.
const K1: &[RawSearch] = &[(&[0, 1], &[0, 0], &[0, 1]), (&[1, 0], &[0, 1], &[0, 1])];

/// k = 2, P = 3: distributions partitioned by the first error-free
/// piece `j` (some piece must be exact — pigeonhole — and taking the
/// *first* one makes the classes disjoint). Search `j` keeps piece `j`
/// exact and demands one error in every earlier piece; the last search
/// can then pin its whole error profile, tightening the bounds past
/// what the plain pigeonhole searches allow.
const K2: &[RawSearch] = &[
    (&[0, 1, 2], &[0, 0, 0], &[0, 2, 2]),
    (&[1, 0, 2], &[0, 1, 1], &[0, 2, 2]),
    (&[2, 1, 0], &[0, 1, 2], &[0, 1, 2]),
];

/// k = 3, P = 4: the same first-error-free-piece classification.
/// Cumulative bounds cannot express "at least one error in *each*
/// earlier piece" when more than one budget unit is to spare, so the
/// `j = 2` class is split by how many errors piece 1 carries.
const K3: &[RawSearch] = &[
    (&[0, 1, 2, 3], &[0, 0, 0, 0], &[0, 3, 3, 3]),
    (&[1, 0, 2, 3], &[0, 1, 1, 1], &[0, 3, 3, 3]),
    (&[2, 1, 0, 3], &[0, 1, 2, 2], &[0, 1, 3, 3]),
    (&[2, 1, 0, 3], &[0, 2, 3, 3], &[0, 2, 3, 3]),
    (&[3, 2, 1, 0], &[0, 1, 2, 3], &[0, 1, 2, 3]),
];

impl Scheme {
    /// The precomputed complete-and-disjoint scheme for `k <= 3`.
    pub fn optimum(k: usize) -> Option<Scheme> {
        let table = match k {
            0 => K0,
            1 => K1,
            2 => K2,
            3 => K3,
            _ => return None,
        };
        Some(Scheme {
            k,
            pieces: table[0].0.len(),
            family: Family::Table(table),
        })
    }

    /// The pigeonhole scheme for any `k`: `P = k + 1` pieces, search
    /// `j` keeps piece `j` exact, then sweeps left through the earlier
    /// pieces (each must carry at least one error — that is what keeps
    /// the family complete with only `k + 1` searches) and finishes
    /// rightward with the full budget. Complete for every `k`, but the
    /// searches overlap, so downstream results must be deduped.
    pub fn pigeonhole(k: usize) -> Scheme {
        Scheme {
            k,
            pieces: k + 1,
            family: Family::Pigeonhole { tight: false },
        }
    }

    /// [`Self::pigeonhole`] with tighter upper bounds on the left sweep:
    /// after the sweep's `i`-th piece, the `j − i` earlier pieces still
    /// to come each owe at least one error, so search `j` admits at
    /// most `k − (j − i)` so far. Every distribution whose first exact
    /// piece is `j` still fits search `j`, so the family stays complete.
    pub fn tight_pigeonhole(k: usize) -> Scheme {
        Scheme {
            family: Family::Pigeonhole { tight: true },
            ..Scheme::pigeonhole(k)
        }
    }

    /// The scheme [`BidirSearch`] uses for budget `k`: the precomputed
    /// table when one exists, the tightened pigeonhole family
    /// otherwise. Setting `KMM_BIDIR_PIGEONHOLE=1` forces the plain
    /// pigeonhole family at every `k` — the planted-regression hook for
    /// the bench gate. The variable is read once per process.
    pub fn for_k(k: usize) -> Scheme {
        static FORCED: OnceLock<bool> = OnceLock::new();
        let forced =
            *FORCED.get_or_init(|| std::env::var("KMM_BIDIR_PIGEONHOLE").is_ok_and(|v| v != "0"));
        match Scheme::optimum(k) {
            _ if forced => Scheme::pigeonhole(k),
            Some(scheme) => scheme,
            None => Scheme::tight_pigeonhole(k),
        }
    }

    /// Number of searches.
    pub fn search_count(&self) -> usize {
        match self.family {
            Family::Table(table) => table.len(),
            Family::Pigeonhole { .. } => self.pieces,
        }
    }

    /// Entry `i` of search `j`: the piece processed `i`-th and the
    /// cumulative `(lower, upper)` bounds after it.
    fn entry(&self, j: usize, i: usize) -> (usize, usize, usize) {
        match self.family {
            Family::Table(table) => (table[j].0[i], table[j].1[i], table[j].2[i]),
            // Pieces j, j-1, ..., 0, then j+1, ..., P-1.
            Family::Pigeonhole { tight } => (
                if i <= j { j - i } else { i },
                i.min(j),
                match i {
                    0 => 0,
                    _ if tight && i < j => self.k - (j - i),
                    _ => self.k,
                },
            ),
        }
    }
}

/// The most pieces a [`Plan`] holds on the stack. Only pigeonhole
/// schemes (`P = k + 1`) come near it; budgets past it delegate.
const MAX_PIECES: usize = 32;

/// One scheme piece laid out on the DFS's step axis.
#[derive(Debug, Clone, Copy, Default)]
struct Piece {
    /// One past the last step of this piece (the pieces tile `0..m`).
    end: usize,
    /// Step `t` consumes pattern position `origin − t` when the piece
    /// extends the window leftward, `origin + t` when rightward.
    origin: isize,
    /// Whether the piece extends the matched window leftward.
    left: bool,
    /// Cumulative upper bound of this piece.
    upper: usize,
    /// The end of the matched window this piece leaves in place: its
    /// upper end for a leftward piece, its lower end for a rightward
    /// one.
    fixed: usize,
    /// Max over this and every later piece of `lower − last step`.
    /// Each step adds at most one mismatch, so after step `t` at least
    /// `t + sufmax` must be accrued for every remaining lower bound to
    /// stay reachable.
    sufmax: isize,
}

/// One scheme search over an `m`-symbol pattern, cut into the pieces
/// `[i·m/P, (i+1)·m/P)`: the first piece is consumed left-to-right,
/// every later piece extends whichever end of the matched window it
/// touches. `O(P)` to build, `O(1)` per step, no heap.
#[derive(Debug, Clone, Copy)]
struct Plan {
    pieces: [Piece; MAX_PIECES],
    m: usize,
}

impl Plan {
    /// Plan search `j` of `scheme`. Requires `P <= m` so every piece is
    /// non-empty, and `P <= MAX_PIECES`.
    fn new(scheme: &Scheme, j: usize, m: usize) -> Plan {
        let p = scheme.pieces;
        debug_assert!(p <= m && p <= MAX_PIECES);
        let bound = |piece: usize| piece * m / p;
        let mut pieces = [Piece::default(); MAX_PIECES];
        let mut lowers = [0usize; MAX_PIECES];
        let (lo0, ..) = scheme.entry(j, 0);
        let (mut lo, mut hi) = (bound(lo0), bound(lo0));
        let mut t = 0;
        for (i, slot) in pieces[..p].iter_mut().enumerate() {
            let (piece, lower, upper) = scheme.entry(j, i);
            let (s, e) = (bound(piece), bound(piece + 1));
            let left = i > 0 && s != hi;
            let fixed = if left { hi } else { lo };
            let origin = if left {
                debug_assert_eq!(e, lo, "piece order must grow the window contiguously");
                lo = s;
                // Step t consumes e - 1, then e - 2, ...
                (e - 1 + t) as isize
            } else {
                hi = e;
                s as isize - t as isize
            };
            t += e - s;
            lowers[i] = lower;
            *slot = Piece {
                end: t,
                origin,
                left,
                upper,
                fixed,
                sufmax: 0,
            };
        }
        debug_assert_eq!(t, m);
        let mut sufmax = isize::MIN;
        for i in (0..p).rev() {
            sufmax = sufmax.max(lowers[i] as isize - (pieces[i].end as isize - 1));
            pieces[i].sufmax = sufmax;
        }
        Plan { pieces, m }
    }

    /// Step `t`, which lies in piece `piece`: the pattern position it
    /// consumes and the least cumulative mismatch count it must leave.
    #[inline]
    fn step(&self, piece: usize, t: usize) -> (usize, usize) {
        let p = &self.pieces[piece];
        let pos = if p.left {
            p.origin - t as isize
        } else {
            p.origin + t as isize
        };
        (pos as usize, (t as isize + p.sufmax).max(0) as usize)
    }

    /// The pattern positions `[lo, hi)` the first `t` steps matched,
    /// when step `t` lies in piece `piece`.
    #[inline]
    fn window(&self, piece: usize, t: usize) -> (usize, usize) {
        let (pos, _) = self.step(piece, t);
        let p = &self.pieces[piece];
        if p.left {
            (pos + 1, p.fixed)
        } else {
            (p.fixed, pos)
        }
    }
}

/// The scheme-driven bidirectional searcher (`Method::Bidirectional`).
#[derive(Debug, Clone, Copy)]
pub struct BidirSearch<'a> {
    bi: BiFmIndex<'a>,
    text: &'a PackedSeq,
}

impl<'a> BidirSearch<'a> {
    /// `fm` must index `reverse(s) + $`, `mirror` must be the rankall of
    /// `BWT(s + $)` (see [`kmm_bwt::build_mirror`]), and `text` must be
    /// `reverse(s)` packed, as [`FmIndex::packed_text`] rebuilds it.
    pub fn new(fm: &'a FmIndex, mirror: &'a RankAll, text: &'a PackedSeq) -> Self {
        debug_assert_eq!(fm.len(), text.len() + 1);
        BidirSearch {
            bi: BiFmIndex::new(fm, mirror),
            text,
        }
    }

    /// All occurrences of `pattern` with at most `k` mismatches, sorted
    /// by position, plus search statistics, with telemetry on `recorder`
    /// (depth profile, leaf histograms, `search.*` counters). With a
    /// `token`, the walk polls it at node-expansion granularity and
    /// returns [`Outcome::Truncated`] once it expires.
    pub fn search<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        token: Option<&CancelToken>,
        recorder: &R,
    ) -> Outcome<(Vec<Occurrence>, SearchStats)> {
        let scheme = Scheme::for_k(k);
        if self.delegates(pattern, k, &scheme) {
            return AlgorithmA::new(self.bi.fm(), self.text.len())
                .search(pattern, k, token, recorder);
        }
        self.search_scheme(pattern, &scheme, &Gate::new(token), recorder)
    }

    /// Budgets a partition scheme cannot express: a piece would be
    /// empty (`m < P`), every window matches trivially (`k >= m`), or
    /// the pieces overflow a stack plan (`P > 32`). Algorithm A answers
    /// those — same results, and they are outside the regime
    /// bidirectionality accelerates anyway.
    fn delegates(&self, pattern: &[u8], k: usize, scheme: &Scheme) -> bool {
        k >= pattern.len() || pattern.len() < scheme.pieces || scheme.pieces > MAX_PIECES
    }

    fn search_scheme<R: Recorder>(
        &self,
        pattern: &[u8],
        scheme: &Scheme,
        gate: &Gate<'_>,
        recorder: &R,
    ) -> Outcome<(Vec<Occurrence>, SearchStats)> {
        let m = pattern.len();
        if m > self.text.len() {
            return Outcome::Complete((Vec::new(), SearchStats::default()));
        }
        let mut walk = Walk {
            bi: self.bi,
            text: self.text,
            sa_rate: self.bi.fm().sa_rate(),
            k: scheme.k,
            pattern,
            gate,
            recorder,
            plan: Plan::new(scheme, 0, m),
            out: Vec::new(),
            stats: SearchStats::default(),
        };
        {
            let _span = recorder.span(Phase::SearchDescend);
            for j in 0..scheme.search_count() {
                if gate.should_stop() {
                    break;
                }
                walk.plan = Plan::new(scheme, j, m);
                walk.dfs(0, 0, self.bi.whole(), 0);
            }
        }
        let Walk {
            mut out, mut stats, ..
        } = walk;
        out.sort_unstable();
        // Overlapping searches and verification report some windows
        // more than once, always as the identical Occurrence.
        out.dedup();
        stats.occurrences = out.len() as u64;
        stats.timeouts = u64::from(gate.tripped());
        stats.record_into(recorder);
        Outcome::from_parts((out, stats), gate.tripped())
    }
}

/// The state of one query's DFS over the current scheme search.
struct Walk<'q, 'g, R> {
    bi: BiFmIndex<'q>,
    /// `reverse(s)`, 2-bit packed.
    text: &'q PackedSeq,
    /// One-row nodes with at least this many steps left verify.
    sa_rate: usize,
    k: usize,
    pattern: &'q [u8],
    gate: &'q Gate<'g>,
    recorder: &'q R,
    plan: Plan,
    out: Vec<Occurrence>,
    stats: SearchStats,
}

impl<R: Recorder> Walk<'_, '_, R> {
    /// Expand the node for the first `t` plan steps, matched as `iv`
    /// with `mism` mismatches; step `t` lies in piece `piece`.
    fn dfs(&mut self, piece: usize, t: usize, iv: BiInterval, mism: usize) {
        if self.gate.should_stop() {
            return;
        }
        self.stats.nodes_visited += 1;
        let recorder = self.recorder;
        if recorder.wants_depths() {
            recorder.depth_expand(t);
        }
        let m = self.plan.m;
        if t == m {
            self.leaf(iv, t);
            // The primary interval matches the reversed full pattern,
            // exactly what the unidirectional searches locate through.
            report_interval(
                self.bi.fm(),
                self.text.len(),
                iv.prim,
                m,
                mism,
                &mut self.out,
                self.gate,
            );
            return;
        }
        if iv.len() == 1 && t + self.sa_rate <= m {
            self.verify(piece, t, iv, mism);
            return;
        }
        let Piece {
            end, left, upper, ..
        } = self.plan.pieces[piece];
        let (pos, need) = self.plan.step(piece, t);
        let want = self.pattern[pos];
        let next_piece = piece + usize::from(t + 1 == end);
        // The mismatch count after taking base `y`, if the scheme's
        // bounds admit it.
        let admit = |walk: &Self, y: u8| {
            let nm = mism + usize::from(y != want);
            if nm > upper {
                walk.prune(t, PruneCause::Budget);
                None
            } else if nm < need {
                walk.prune(t, PruneCause::Cutoff);
                None
            } else {
                Some(nm)
            }
        };
        self.stats.rank_extensions += 1;
        let mut any_child = false;
        if iv.len() == 1 {
            // A one-row interval has a single non-empty child: one block
            // visit on the extended side reads it, with no siblings to
            // derive and no sibling blocks worth prefetching.
            let only = if left {
                self.bi.extend_left_one(iv)
            } else {
                self.bi.extend_right_one(iv)
            };
            for y in 1..=BASES as u8 {
                match only {
                    Some((z, child)) if z == y => {
                        if let Some(nm) = admit(self, y) {
                            any_child = true;
                            self.dfs(next_piece, t + 1, child, nm);
                        }
                    }
                    _ => self.prune(t, PruneCause::EmptyInterval),
                }
            }
        } else {
            // One fused block visit resolves all four children on the
            // extended side; the other side's intervals follow by
            // sibling counts without touching its blocks.
            self.stats.occ_fused += 1;
            let children = if left {
                self.bi.extend_left_all(iv)
            } else {
                self.bi.extend_right_all(iv)
            };
            if t + 1 < m {
                let next_left = self.plan.pieces[next_piece].left;
                for child in children.iter().filter(|c| !c.is_empty()) {
                    if next_left {
                        self.bi.prefetch_left(*child);
                    } else {
                        self.bi.prefetch_right(*child);
                    }
                }
            }
            for (y, child) in (1..=BASES as u8).zip(children) {
                if child.is_empty() {
                    self.prune(t, PruneCause::EmptyInterval);
                } else if let Some(nm) = admit(self, y) {
                    any_child = true;
                    self.dfs(next_piece, t + 1, child, nm);
                }
            }
        }
        if !any_child {
            self.leaf(iv, t + 1);
        }
    }

    /// Finish a one-row node without walking: locate its row once and
    /// compare the read's unmatched positions against the text. The
    /// node is a leaf either way.
    fn verify(&mut self, piece: usize, t: usize, iv: BiInterval, mism: usize) {
        self.stats.verified += 1;
        if self.recorder.wants_depths() {
            self.recorder.depth_verify(t);
        }
        self.leaf(iv, t);
        let (lo, hi) = self.plan.window(piece, t);
        debug_assert_eq!(hi - lo, t);
        let (n, m) = (self.text.len(), self.plan.m);
        // The row's suffix of `reverse(s)` starts with the reversed
        // window, as at a leaf.
        let window = rev_pos_to_forward(n, self.bi.fm().sa_value(iv.prim.lo) as usize, t);
        // A read running past either text end has no occurrence here:
        // the walk would have met the sentinel.
        let Some(start) = window.checked_sub(lo).filter(|start| start + m <= n) else {
            return;
        };
        let mut mismatches = mism;
        for i in (0..lo).chain(hi..m) {
            // s[f] is reverse(s)[n - 1 - f].
            if self.pattern[i] != self.text.get(n - 1 - start - i) {
                mismatches += 1;
                if mismatches > self.k {
                    return;
                }
            }
        }
        self.out.push(Occurrence {
            position: start,
            mismatches,
        });
    }

    /// Count a leaf: the walk stopped at `iv` after `depth` steps.
    fn leaf(&mut self, iv: BiInterval, depth: usize) {
        self.stats.leaves += 1;
        self.recorder.observe(Hist::IntervalWidth, iv.len() as u64);
        self.recorder.observe(Hist::TerminationDepth, depth as u64);
    }

    #[inline]
    fn prune(&self, t: usize, cause: PruneCause) {
        if self.recorder.wants_depths() {
            self.recorder.depth_prune(t + 1, cause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_bwt::{build_mirror, FmBuildConfig};
    use kmm_classic::naive;
    use kmm_telemetry::NoopRecorder;

    /// Search `j` of `scheme` as `(π[i], L[i], U[i])` triples.
    fn triples(scheme: &Scheme, j: usize) -> Vec<(usize, usize, usize)> {
        (0..scheme.pieces).map(|i| scheme.entry(j, i)).collect()
    }

    /// Does search `j` enumerate error distribution `d` (one count per
    /// piece)?
    fn covers(scheme: &Scheme, j: usize, d: &[usize]) -> bool {
        let mut cum = 0;
        triples(scheme, j).into_iter().all(|(piece, lower, upper)| {
            cum += d[piece];
            (lower..=upper).contains(&cum)
        })
    }

    /// Every error distribution with at most `k` errors over `p`
    /// pieces.
    fn distributions(k: usize, p: usize) -> Vec<Vec<usize>> {
        let mut all = vec![vec![]];
        for _ in 0..p {
            all = all
                .into_iter()
                .flat_map(|d: Vec<usize>| {
                    (0..=k - d.iter().sum::<usize>().min(k))
                        .map(move |e| {
                            let mut d = d.clone();
                            d.push(e);
                            d
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
        }
        all.retain(|d| d.iter().sum::<usize>() <= k);
        all
    }

    /// The orders must grow a contiguous window and bounds must be
    /// sane monotone cumulative sequences.
    fn check_well_formed(scheme: &Scheme) {
        for j in 0..scheme.search_count() {
            let search = triples(scheme, j);
            let (mut lo, mut hi) = (search[0].0, search[0].0 + 1);
            for &(piece, ..) in &search[1..] {
                if piece + 1 == lo {
                    lo = piece;
                } else {
                    assert_eq!(piece, hi, "non-contiguous order {search:?}");
                    hi = piece + 1;
                }
            }
            for w in search.windows(2) {
                assert!(w[1].1 >= w[0].1 && w[1].2 >= w[0].2, "{search:?}");
            }
            for &(_, lower, upper) in &search {
                assert!(lower <= upper && upper <= scheme.k, "{search:?}");
            }
        }
    }

    #[test]
    fn optimum_schemes_are_complete_and_disjoint() {
        for k in 0..=3 {
            let scheme = Scheme::optimum(k).unwrap();
            assert_eq!(scheme.k, k);
            check_well_formed(&scheme);
            for d in distributions(k, scheme.pieces) {
                let n = (0..scheme.search_count())
                    .filter(|&j| covers(&scheme, j, &d))
                    .count();
                assert_eq!(n, 1, "k={k} distribution {d:?} covered {n} times");
            }
        }
    }

    #[test]
    fn pigeonhole_is_complete_for_any_k() {
        let families = (1..=5)
            .map(Scheme::pigeonhole)
            .chain((1..=8).map(Scheme::tight_pigeonhole));
        for scheme in families {
            let k = scheme.k;
            assert_eq!(scheme.pieces, k + 1);
            assert_eq!(scheme.search_count(), k + 1);
            check_well_formed(&scheme);
            for d in distributions(k, scheme.pieces) {
                let n = (0..scheme.search_count())
                    .filter(|&j| covers(&scheme, j, &d))
                    .count();
                assert!(n >= 1, "{scheme:?}: distribution {d:?} uncovered");
            }
        }
    }

    #[test]
    fn tight_pigeonhole_caps_only_the_left_sweep() {
        for k in 1..=8 {
            let (plain, tight) = (Scheme::pigeonhole(k), Scheme::tight_pigeonhole(k));
            for j in 0..=k {
                for (i, (p, t)) in triples(&plain, j)
                    .into_iter()
                    .zip(triples(&tight, j))
                    .enumerate()
                {
                    assert_eq!((p.0, p.1), (t.0, t.1), "k={k} search {j}");
                    let upper = if (1..j).contains(&i) {
                        k - (j - i)
                    } else {
                        p.2
                    };
                    assert_eq!(t.2, upper, "k={k} search {j} entry {i}");
                }
            }
        }
        if std::env::var_os("KMM_BIDIR_PIGEONHOLE").is_none() {
            assert_eq!(Scheme::for_k(3), Scheme::optimum(3).unwrap());
            assert_eq!(Scheme::for_k(5), Scheme::tight_pigeonhole(5));
        }
    }

    /// Walk a plan the way the DFS does: `(pos, left, upper, need)` per
    /// step and the window matched before it, advancing the piece at
    /// each piece end.
    #[allow(clippy::type_complexity)]
    fn walk_plan(plan: &Plan) -> Vec<((usize, bool, usize, usize), (usize, usize))> {
        let mut piece = 0;
        (0..plan.m)
            .map(|t| {
                let (pos, need) = plan.step(piece, t);
                let window = plan.window(piece, t);
                let p = plan.pieces[piece];
                piece += usize::from(t + 1 == p.end);
                ((pos, p.left, p.upper, need), window)
            })
            .collect()
    }

    #[test]
    fn plans_consume_every_position_once_with_contiguous_windows() {
        let schemes = (0..=3)
            .map(|k| Scheme::optimum(k).unwrap())
            .chain((1..=6).map(Scheme::pigeonhole))
            .chain((4..=6).map(Scheme::tight_pigeonhole));
        for scheme in schemes {
            for m in [scheme.pieces, 7, 12, 31, 100] {
                if m < scheme.pieces {
                    continue;
                }
                for j in 0..scheme.search_count() {
                    let search = triples(&scheme, j);
                    let (steps, windows): (Vec<_>, Vec<_>) =
                        walk_plan(&Plan::new(&scheme, j, m)).into_iter().unzip();
                    assert_eq!(steps.len(), m);
                    let bounds: Vec<usize> =
                        (0..=scheme.pieces).map(|i| i * m / scheme.pieces).collect();
                    // Step index of the last step of each processed piece.
                    let mut last = Vec::new();
                    let mut seen = vec![false; m];
                    let (mut lo, mut hi) = (steps[0].0, steps[0].0);
                    for (t, &(pos, left, upper, _)) in steps.iter().enumerate() {
                        // The matched window is what verification skips.
                        assert_eq!(
                            windows[t],
                            (lo, hi),
                            "k={} search {j} m={m} t={t}",
                            scheme.k
                        );
                        assert!(!seen[pos], "position {pos} twice");
                        seen[pos] = true;
                        if left {
                            assert_eq!(pos + 1, lo);
                            lo = pos;
                        } else {
                            assert_eq!(pos, hi);
                            hi = pos + 1;
                        }
                        let (piece, _, piece_upper) = search[last.len()];
                        assert_eq!(upper, piece_upper);
                        if (bounds[piece]..bounds[piece + 1]).all(|q| seen[q]) {
                            last.push(t);
                        }
                    }
                    assert!(seen.iter().all(|&s| s));
                    assert_eq!(last.len(), scheme.pieces);
                    // The O(1) lookahead equals the direct definition:
                    // one mismatch per remaining step must still reach
                    // every later piece's lower bound.
                    for (t, step) in steps.iter().enumerate() {
                        let need = last
                            .iter()
                            .zip(&search)
                            .filter(|(&end, _)| end >= t)
                            .map(|(&end, &(_, lower, _))| lower.saturating_sub(end - t))
                            .max()
                            .unwrap_or(0);
                        assert_eq!(step.3, need, "k={} search {j} m={m} t={t}", scheme.k);
                    }
                    // The piece-end check is exact at the leaf.
                    assert_eq!(steps[m - 1].3, search[scheme.pieces - 1].1);
                }
            }
        }
    }

    /// Build the searcher's three parts for a forward ASCII target.
    fn setup(ascii: &[u8]) -> (FmIndex, RankAll, PackedSeq) {
        let text = kmm_dna::encode(ascii).unwrap();
        setup_encoded(&text)
    }

    fn setup_encoded(text: &[u8]) -> (FmIndex, RankAll, PackedSeq) {
        let mut rev = text.to_vec();
        rev.reverse();
        rev.push(0);
        let fm = FmIndex::new(&rev, FmBuildConfig::default());
        let mut fwd = text.to_vec();
        fwd.push(0);
        let mirror = build_mirror(&fwd, FmBuildConfig::default().occ_rate, 1).unwrap();
        (fm, mirror, text.iter().rev().copied().collect())
    }

    #[test]
    fn paper_figure3_search() {
        let (fm, mirror, packed) = setup(b"acagaca");
        let bd = BidirSearch::new(&fm, &mirror, &packed);
        let r = kmm_dna::encode(b"tcaca").unwrap();
        let (occ, stats) = bd.search(&r, 2, None, &NoopRecorder).into_inner();
        let positions: Vec<usize> = occ.iter().map(|o| o.position).collect();
        assert_eq!(positions, vec![0, 2]);
        assert_eq!(occ[0].mismatches, 2);
        assert_eq!(occ[1].mismatches, 2);
        assert_eq!(stats.occurrences, 2);
    }

    #[test]
    fn agrees_with_naive_randomised() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2017);
        for _ in 0..40 {
            let n = rng.gen_range(1..250);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let (fm, mirror, packed) = setup_encoded(&s);
            let bd = BidirSearch::new(&fm, &mirror, &packed);
            let m = rng.gen_range(1..=n.min(18));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            for k in 0..5usize {
                let want = naive::find_k_mismatch(&s, &r, k);
                let (got, _) = bd.search(&r, k, None, &NoopRecorder).into_inner();
                assert_eq!(got, want, "s={s:?} r={r:?} k={k}");
            }
        }
    }

    /// Texts where most of the DFS runs on one-row intervals, and reads
    /// at both text ends, where a one-row step meets the sentinel on the
    /// primary (read at `n - m`) or the mirror (read at 0). Every budget
    /// through both entry points must equal the naive scan, and the
    /// depth profile must account for every node and every child: the
    /// one-row step reports the same four child outcomes as the fused
    /// 4-way step, and a verified node reports none.
    #[test]
    fn one_row_steps_agree_with_naive_on_repeats_and_text_ends() {
        use kmm_dna::genome::{markov, uniform, MarkovConfig};
        use kmm_telemetry::ExplainRecorder;
        let tandem = markov(
            3_000,
            &MarkovConfig {
                tandem_fraction: 0.5,
                tandem_len: 80,
                ..MarkovConfig::default()
            },
            12,
        );
        let mut homopolymers = vec![1u8; 300];
        homopolymers.extend(uniform(300, 4));
        homopolymers.extend([3u8; 300]);
        homopolymers.extend([1u8, 2].repeat(150));
        for text in [tandem, homopolymers, uniform(2_000, 9)] {
            let (fm, mirror, packed) = setup_encoded(&text);
            let bd = BidirSearch::new(&fm, &mirror, &packed);
            let n = packed.len();
            for m in [12usize, 40] {
                for start in [0, n / 3, n - m] {
                    let mut read = text[start..start + m].to_vec();
                    // Two substitutions, so low budgets miss the home
                    // window and high ones reach it.
                    for at in [m / 4, 3 * m / 4] {
                        read[at] = read[at] % 4 + 1;
                    }
                    for k in 0..=6usize {
                        let ctx = format!("n={n} m={m} start={start} k={k}");
                        let want = naive::find_k_mismatch(&text, &read, k);
                        let explain = ExplainRecorder::new();
                        let (got, stats) = bd.search(&read, k, None, &explain).into_inner();
                        assert_eq!(got, want, "{ctx}");
                        let token =
                            CancelToken::with_deadline(std::time::Duration::from_secs(3600));
                        let timed = bd.search(&read, k, Some(&token), &NoopRecorder);
                        assert!(!timed.is_truncated(), "{ctx}");
                        assert_eq!(timed.into_inner(), (got, stats), "{ctx}");

                        let rows = explain.take();
                        let expanded: u64 = rows.iter().map(|r| r.expanded).sum();
                        assert_eq!(expanded, stats.nodes_visited, "{ctx}");
                        let verified: u64 = rows.iter().map(|r| r.verified).sum();
                        assert_eq!(verified, stats.verified, "{ctx}");
                        // Every expanded node above the leaves that was
                        // not verified reports four children, each
                        // expanded or pruned one deeper.
                        for d in 1..rows.len() {
                            assert_eq!(
                                rows[d].expanded + rows[d].pruned_total(),
                                4 * (rows[d - 1].expanded - rows[d - 1].verified),
                                "{ctx} depth {d}"
                            );
                        }
                        assert!(rows.len() <= m + 1, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn pigeonhole_scheme_gives_identical_results() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..15 {
            let n = rng.gen_range(20..200);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let (fm, mirror, packed) = setup_encoded(&s);
            let bd = BidirSearch::new(&fm, &mirror, &packed);
            let m = rng.gen_range(8..=16);
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            for k in 1..=3usize {
                let want = naive::find_k_mismatch(&s, &r, k);
                let gate = Gate::new(None);
                let (got, _) = bd
                    .search_scheme(&r, &Scheme::pigeonhole(k), &gate, &NoopRecorder)
                    .into_inner();
                assert_eq!(got, want, "pigeonhole s-len={n} r={r:?} k={k}");
            }
        }
    }

    #[test]
    fn pigeonhole_visits_more_nodes_than_the_precomputed_scheme() {
        // Short pieces relative to the text leave the intervals wide
        // after each exact descent, so branches survive into the region
        // where only the tighter precomputed bounds prune them.
        let g = kmm_dna::genome::uniform(100_000, 7);
        let (fm, mirror, packed) = setup_encoded(&g);
        let bd = BidirSearch::new(&fm, &mirror, &packed);
        for k in [2usize, 3] {
            let (mut opt_nodes, mut pig_nodes) = (0u64, 0u64);
            for start in [500usize, 7_000, 40_000, 90_000] {
                let r: Vec<u8> = g[start..start + 12].to_vec();
                let gate = Gate::new(None);
                let (opt_occ, opt) = bd
                    .search_scheme(&r, &Scheme::optimum(k).unwrap(), &gate, &NoopRecorder)
                    .into_inner();
                let gate = Gate::new(None);
                let (pig_occ, pig) = bd
                    .search_scheme(&r, &Scheme::pigeonhole(k), &gate, &NoopRecorder)
                    .into_inner();
                assert_eq!(opt_occ, pig_occ, "k={k} start={start}");
                opt_nodes += opt.nodes_visited;
                pig_nodes += pig.nodes_visited;
            }
            assert!(
                opt_nodes < pig_nodes,
                "k={k}: optimum {opt_nodes} vs pigeonhole {pig_nodes}"
            );
        }
    }

    #[test]
    fn tight_pigeonhole_visits_no_more_nodes_than_plain() {
        let g = kmm_dna::genome::uniform(100_000, 7);
        let (fm, mirror, packed) = setup_encoded(&g);
        let bd = BidirSearch::new(&fm, &mirror, &packed);
        for k in [4usize, 5] {
            let (mut tight_nodes, mut plain_nodes) = (0u64, 0u64);
            for start in [500usize, 7_000, 40_000, 90_000] {
                let mut r: Vec<u8> = g[start..start + 40].to_vec();
                r[9] = r[9] % 4 + 1;
                let gate = Gate::new(None);
                let (tight_occ, tight) = bd
                    .search_scheme(&r, &Scheme::tight_pigeonhole(k), &gate, &NoopRecorder)
                    .into_inner();
                let gate = Gate::new(None);
                let (plain_occ, plain) = bd
                    .search_scheme(&r, &Scheme::pigeonhole(k), &gate, &NoopRecorder)
                    .into_inner();
                assert_eq!(tight_occ, plain_occ, "k={k} start={start}");
                assert_eq!(
                    tight_occ,
                    naive::find_k_mismatch(&g, &r, k),
                    "k={k} start={start}"
                );
                tight_nodes += tight.nodes_visited;
                plain_nodes += plain.nodes_visited;
            }
            assert!(
                tight_nodes <= plain_nodes,
                "k={k}: tight {tight_nodes} vs plain {plain_nodes}"
            );
        }
    }

    #[test]
    fn degenerate_budgets_delegate_cleanly() {
        let (fm, mirror, packed) = setup(b"acgtacgtac");
        let bd = BidirSearch::new(&fm, &mirror, &packed);
        let n = packed.len();
        // k >= m: every window matches.
        let r = kmm_dna::encode(b"tt").unwrap();
        let (occ, _) = bd.search(&r, 2, None, &NoopRecorder).into_inner();
        assert_eq!(occ.len(), n - 2 + 1);
        // m < pieces (k=2 needs 4): still exact.
        let r = kmm_dna::encode(b"acg").unwrap();
        let s = kmm_dna::encode(b"acgtacgtac").unwrap();
        let want = naive::find_k_mismatch(&s, &r, 2);
        assert_eq!(bd.search(&r, 2, None, &NoopRecorder).into_inner().0, want);
        // Empty and oversized patterns.
        assert!(bd
            .search(&[], 1, None, &NoopRecorder)
            .into_inner()
            .0
            .is_empty());
        let long = kmm_dna::encode(b"acgtacgtacgt").unwrap();
        assert!(bd
            .search(&long, 1, None, &NoopRecorder)
            .into_inner()
            .0
            .is_empty());
        // The largest stack plan (P = 32) and one piece past it, which
        // Algorithm A answers.
        let g = kmm_dna::genome::uniform(300, 8);
        let (fm, mirror, packed) = setup_encoded(&g);
        let bd = BidirSearch::new(&fm, &mirror, &packed);
        let r = g[100..160].to_vec();
        for k in [31, 32] {
            assert_eq!(
                bd.search(&r, k, None, &NoopRecorder).into_inner().0,
                naive::find_k_mismatch(&g, &r, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn expired_deadline_truncates() {
        let g = kmm_dna::genome::uniform(5_000, 3);
        let (fm, mirror, packed) = setup_encoded(&g);
        let bd = BidirSearch::new(&fm, &mirror, &packed);
        let r: Vec<u8> = g[100..120].to_vec();
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let out = bd.search(&r, 2, Some(&token), &NoopRecorder);
        assert!(out.is_truncated());
        assert_eq!(out.value().1.timeouts, 1);
    }
}
