//! Executable specification of the paper's tree definitions.
//!
//! Section IV defines four structures that the production search realises
//! only implicitly:
//!
//! * **Definition 1 (S-tree)** — the tree of `<x, [α, β]>` pairs produced
//!   by exploring a pattern against `BWT(s̄)` with a `k + 1`-entry
//!   mismatch array `B` per path;
//! * **Definition 2 (match path)** / **Definition 3 (MM-path)** — maximal
//!   all-matching sub-paths;
//! * **Definition 4 (M-tree)** — the S-tree with every MM-path collapsed
//!   into a single `<-, 0>` node and every mismatching pair `<x, [α, β]>`
//!   (compared to `r[i]`) replaced by `<x, i>`, built with the paper's
//!   stack procedure (the quadruples `(v, j, ℓ, u)` of Example 1).
//!
//! This module constructs all of them *explicitly* for small inputs, so
//! the paper's figures become unit tests and the production search can be
//! checked against a direct transliteration of the text. It is not meant
//! for large targets — the S-tree is materialised in full.

use kmm_bwt::{FmIndex, Interval, Pair};
use kmm_dna::BASES;

/// A node of the explicit S-tree (Definition 1).
#[derive(Debug, Clone)]
pub struct SNode {
    /// The pair `<x, [α, β]>`; `None` for the virtual root `v0`.
    pub pair: Option<Pair>,
    /// SA interval backing the pair.
    pub interval: Interval,
    /// Pattern position this node is compared to (0-based; the root has
    /// no position).
    pub pos: Option<usize>,
    /// True if the node's symbol equals `r[pos]`.
    pub matching: bool,
    /// Mismatches on the root path including this node.
    pub mismatches: usize,
    /// Child node ids.
    pub children: Vec<u32>,
    /// Parent id (`u32::MAX` for the root).
    pub parent: u32,
}

/// The explicit S-tree.
#[derive(Debug)]
pub struct STree {
    /// Nodes; index 0 is the virtual root.
    pub nodes: Vec<SNode>,
    pattern_len: usize,
}

impl STree {
    /// Build the full S-tree of `pattern` against `fm` (an index of the
    /// *reversed* target) with mismatch budget `k`, following the paper's
    /// rules: matching children are always expanded; a node carrying the
    /// `(k + 1)`-th mismatch is created but not extended (its `B` array is
    /// full — the paper's P3/P4 behaviour in Fig. 3).
    pub fn build(fm: &FmIndex, pattern: &[u8], k: usize) -> STree {
        let mut tree = STree {
            nodes: vec![SNode {
                pair: None,
                interval: fm.whole(),
                pos: None,
                matching: true,
                mismatches: 0,
                children: Vec::new(),
                parent: u32::MAX,
            }],
            pattern_len: pattern.len(),
        };
        tree.expand(fm, pattern, k, 0, 0);
        tree
    }

    fn expand(&mut self, fm: &FmIndex, pattern: &[u8], k: usize, node: u32, depth: usize) {
        if depth == pattern.len() {
            return;
        }
        // A full B array (k + 1 mismatches) stops the search (paper
        // Section IV-A).
        if self.nodes[node as usize].mismatches > k {
            return;
        }
        let iv = self.nodes[node as usize].interval;
        for y in 1..=BASES as u8 {
            let child_iv = fm.extend_backward(iv, y);
            if child_iv.is_empty() {
                continue;
            }
            let matching = y == pattern[depth];
            let mismatches = self.nodes[node as usize].mismatches + usize::from(!matching);
            if mismatches > k + 1 {
                continue;
            }
            let id = self.nodes.len() as u32;
            self.nodes.push(SNode {
                pair: Some(fm.pair(y, child_iv)),
                interval: child_iv,
                pos: Some(depth),
                matching,
                mismatches,
                children: Vec::new(),
                parent: node,
            });
            self.nodes[node as usize].children.push(id);
            self.expand(fm, pattern, k, id, depth + 1);
        }
    }

    /// Leaf ids in depth-first order.
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&id| self.nodes[id as usize].children.is_empty())
            .collect()
    }

    /// The paper's mismatch array `B_l` for the root path of `leaf`:
    /// 1-based positions of the mismatching nodes, at most `k + 1` kept.
    pub fn b_array(&self, leaf: u32) -> Vec<usize> {
        let mut b = Vec::new();
        let mut v = leaf;
        while v != u32::MAX {
            let node = &self.nodes[v as usize];
            if let Some(pos) = node.pos {
                if !node.matching {
                    b.push(pos + 1); // paper arrays are 1-based
                }
            }
            v = node.parent;
        }
        b.reverse();
        b
    }

    /// Paths that survived to the full pattern depth with <= k mismatches.
    pub fn complete_leaves(&self, k: usize) -> Vec<u32> {
        self.leaves()
            .into_iter()
            .filter(|&id| {
                let n = &self.nodes[id as usize];
                n.mismatches <= k && n.pos == Some(self.pattern_len - 1)
            })
            .collect()
    }
}

/// A node of the explicit M-tree (Definition 4): `<-, 0>` or `<x, i>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MLabel {
    /// A collapsed maximal match sub-path, the paper's `<-, 0>`.
    MatchRun,
    /// A mismatching node `<x, i>` — symbol and **1-based** pattern
    /// position, matching the paper's figures.
    Mismatch(u8, usize),
}

/// A node of the explicit M-tree.
#[derive(Debug, Clone)]
pub struct MSpecNode {
    /// The label.
    pub label: MLabel,
    /// Children ids.
    pub children: Vec<u32>,
}

/// The explicit M-tree of Definition 4.
#[derive(Debug)]
pub struct MSpecTree {
    /// Nodes; index 0 is the root `u0 = <-, 0>`.
    pub nodes: Vec<MSpecNode>,
}

impl MSpecTree {
    /// Build `D` from an S-tree with the paper's stack procedure: each
    /// popped quadruple `(v, j, ℓ, u)` creates `<x, j>` for a mismatching
    /// `v`, creates (or merges into) a `<-, 0>` node for a matching `v`,
    /// and pushes `v`'s children with the parent-to-be.
    pub fn from_stree(stree: &STree) -> MSpecTree {
        let mut d = MSpecTree {
            nodes: vec![MSpecNode {
                label: MLabel::MatchRun,
                children: Vec::new(),
            }],
        };
        // Stack entries: (s-node id, parent M-node id).
        let mut stack: Vec<(u32, u32)> = stree.nodes[0]
            .children
            .iter()
            .rev()
            .map(|&c| (c, 0u32))
            .collect();
        while let Some((v, u)) = stack.pop() {
            let snode = &stree.nodes[v as usize];
            let pos = snode.pos.expect("non-root nodes carry a position");
            let u_prime = if !snode.matching {
                // (i) mismatching: create <x, j>.
                let sym = snode.pair.expect("non-root nodes carry a pair").sym;
                let id = d.nodes.len() as u32;
                d.nodes.push(MSpecNode {
                    label: MLabel::Mismatch(sym, pos + 1),
                    children: Vec::new(),
                });
                d.nodes[u as usize].children.push(id);
                id
            } else if d.nodes[u as usize].label == MLabel::MatchRun {
                // (ii) matching under a match node: merge into the parent.
                u
            } else {
                // (iii) matching under a mismatch node: open a new <-, 0>.
                let id = d.nodes.len() as u32;
                d.nodes.push(MSpecNode {
                    label: MLabel::MatchRun,
                    children: Vec::new(),
                });
                d.nodes[u as usize].children.push(id);
                id
            };
            for &c in snode.children.iter().rev() {
                stack.push((c, u_prime));
            }
        }
        d
    }

    /// Leaf ids.
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&id| self.nodes[id as usize].children.is_empty())
            .collect()
    }

    /// The mismatch-position array spelled by the root path of `leaf`
    /// (1-based positions, the `B_l` the M-tree path encodes).
    pub fn path_mismatch_positions(&self, leaf: u32) -> Vec<usize> {
        // Walk down from the root via a DFS that tracks the path.
        fn dfs(
            d: &MSpecTree,
            node: u32,
            target: u32,
            path: &mut Vec<usize>,
            out: &mut Option<Vec<usize>>,
        ) {
            if let MLabel::Mismatch(_, pos) = d.nodes[node as usize].label {
                path.push(pos);
            }
            if node == target {
                *out = Some(path.clone());
            } else {
                for &c in &d.nodes[node as usize].children {
                    dfs(d, c, target, path, out);
                }
            }
            if matches!(d.nodes[node as usize].label, MLabel::Mismatch(..)) {
                path.pop();
            }
        }
        let mut out = None;
        let mut path = Vec::new();
        dfs(self, 0, leaf, &mut path, &mut out);
        out.expect("leaf must be reachable from the root")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_bwt::FmBuildConfig;

    /// Build the paper's running example: s = acagaca, r = tcaca, k = 2.
    fn figure3() -> (FmIndex, Vec<u8>) {
        let mut rev = kmm_dna::encode(b"acagaca").unwrap();
        rev.reverse();
        rev.push(0);
        let fm = FmIndex::new(&rev, FmBuildConfig::paper());
        let r = kmm_dna::encode(b"tcaca").unwrap();
        (fm, r)
    }

    #[test]
    fn figure3_stree_structure() {
        let (fm, r) = figure3();
        let st = STree::build(&fm, &r, 2);
        // Level 1 (compared to r[1] = t, all mismatches): v1 = <a, [1,4]>,
        // v2 = <c, [1,2]>, v3 = <g, [1,1]>.
        let root_children: Vec<String> = st.nodes[0]
            .children
            .iter()
            .map(|&c| st.nodes[c as usize].pair.unwrap().to_string())
            .collect();
        assert_eq!(
            root_children,
            vec!["<a, [1, 4]>", "<c, [1, 2]>", "<g, [1, 1]>"]
        );
        assert!(st.nodes[0]
            .children
            .iter()
            .all(|&c| !st.nodes[c as usize].matching));

        // Two complete paths with exactly 2 mismatches (P1, P2).
        let complete = st.complete_leaves(2);
        assert_eq!(complete.len(), 2);
        let mut bs: Vec<Vec<usize>> = complete.iter().map(|&l| st.b_array(l)).collect();
        bs.sort();
        // B1 = [1, 4], B2 = [1, 2] (1-based), paper Section IV-A.
        assert_eq!(bs, vec![vec![1, 2], vec![1, 4]]);
    }

    #[test]
    fn figure3_cut_paths() {
        let (fm, r) = figure3();
        let st = STree::build(&fm, &r, 2);
        // P3 and P4 die with B = [1, 2, 3]: their leaves carry 3 mismatches
        // at depth 3 (0-based pos 2).
        let cut: Vec<u32> = st
            .leaves()
            .into_iter()
            .filter(|&l| st.nodes[l as usize].mismatches == 3)
            .collect();
        assert_eq!(cut.len(), 2, "exactly P3 and P4 are cut");
        for l in cut {
            assert_eq!(st.b_array(l), vec![1, 2, 3]);
            assert_eq!(st.nodes[l as usize].pos, Some(2));
        }
    }

    #[test]
    fn figure7_mtree_from_figure3_stree() {
        let (fm, r) = figure3();
        let st = STree::build(&fm, &r, 2);
        let d = MSpecTree::from_stree(&st);
        // The M-tree has exactly one leaf per S-tree leaf (paths are
        // preserved, only match runs collapse).
        assert_eq!(d.leaves().len(), st.leaves().len());
        // Each leaf path spells the same mismatch array as the S-tree's.
        let mut from_d: Vec<Vec<usize>> = d
            .leaves()
            .iter()
            .map(|&l| d.path_mismatch_positions(l))
            .collect();
        let mut from_s: Vec<Vec<usize>> = st.leaves().iter().map(|&l| st.b_array(l)).collect();
        from_d.sort();
        from_s.sort();
        assert_eq!(from_d, from_s);
        // Fig. 7's root children are the three level-1 mismatch nodes
        // <a,1>, <c,1>, <g,1>.
        let labels: Vec<MLabel> = d.nodes[0]
            .children
            .iter()
            .map(|&c| d.nodes[c as usize].label.clone())
            .collect();
        assert_eq!(
            labels,
            vec![
                MLabel::Mismatch(1, 1),
                MLabel::Mismatch(2, 1),
                MLabel::Mismatch(3, 1)
            ]
        );
        // Match runs never parent match runs (they would have merged).
        for (id, node) in d.nodes.iter().enumerate() {
            if node.label == MLabel::MatchRun {
                for &c in &node.children {
                    assert_ne!(
                        d.nodes[c as usize].label,
                        MLabel::MatchRun,
                        "node {id} has an unmerged match-run child"
                    );
                }
            }
        }
    }

    #[test]
    fn example1_stack_trace_creation_order() {
        // Paper Example 1 (Fig. 8) traces the stack construction of D:
        // step 2 pops v1 = <a, [1,4]> (mismatching vs r[1] = t) and creates
        // u1 = <a, 1>; step 4 pops v4 = <c, [1,1]> (matching r[2] = c)
        // under the mismatch node and creates the match node u4 = <-, 0>;
        // step 5 pops v8 = <a, [2,3]> (matching r[3] = a) whose parent u4
        // is already <-, 0>, so NO node is created — it merges.
        let (fm, r) = figure3();
        let st = STree::build(&fm, &r, 2);
        let d = MSpecTree::from_stree(&st);
        assert_eq!(d.nodes[0].label, MLabel::MatchRun); // virtual root u0
        assert_eq!(d.nodes[1].label, MLabel::Mismatch(1, 1)); // u1 = <a, 1>
        assert_eq!(d.nodes[2].label, MLabel::MatchRun); // u4 = <-, 0>
                                                        // The merge of v8 into u4: u4's first child is created at r[4]'s
                                                        // level (position 4, 1-based), skipping a node for v8.
        let u4 = &d.nodes[2];
        assert!(!u4.children.is_empty());
        for &c in &u4.children {
            match d.nodes[c as usize].label {
                // Children of u4 sit at S-tree depth 4 (1-based position 4)
                // because v8 (depth 3) merged into u4.
                MLabel::Mismatch(_, pos) => assert_eq!(pos, 4),
                MLabel::MatchRun => panic!("match-run child under a match run"),
            }
        }
    }

    #[test]
    fn mtree_is_smaller_than_stree() {
        let (fm, r) = figure3();
        let st = STree::build(&fm, &r, 2);
        let d = MSpecTree::from_stree(&st);
        assert!(d.nodes.len() < st.nodes.len());
    }

    #[test]
    fn spec_agrees_with_production_search() {
        // The complete S-tree leaves must report exactly the occurrences
        // the production Algorithm A finds, across random small inputs.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1212);
        for _ in 0..30 {
            let n = rng.gen_range(4..80);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let m = rng.gen_range(1..=n.min(8));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            let k = rng.gen_range(0..3);
            let mut rev = s.clone();
            rev.reverse();
            rev.push(0);
            let fm = FmIndex::new(&rev, FmBuildConfig::default());
            let st = STree::build(&fm, &r, k);
            let mut spec_count = 0u32;
            for leaf in st.complete_leaves(k) {
                spec_count += st.nodes[leaf as usize].interval.len();
            }
            let alg = crate::AlgorithmA::new(&fm, s.len());
            let (occ, _) = alg
                .search(&r, k, None, &kmm_telemetry::NoopRecorder)
                .into_inner();
            assert_eq!(spec_count as usize, occ.len(), "s={s:?} r={r:?} k={k}");
        }
    }

    #[test]
    fn exhausted_pattern_stops_expansion() {
        let (fm, r) = figure3();
        let st = STree::build(&fm, &r, 2);
        for node in &st.nodes {
            if let Some(pos) = node.pos {
                assert!(pos < r.len());
            }
        }
    }
}
