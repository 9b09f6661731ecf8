//! Prefix trie over sampled-code prefixes with cached conditionals.
//!
//! Progressive sampling evaluates the network on *prefixes* of sampled
//! codes, and the conditional distribution at a prefix is a pure function
//! of that prefix — the same codes always yield the same logits.
//! The trie exploits this twice:
//!
//! 1. **Within a pass**: one query's paths holding identical prefixes land
//!    on the same trie node, so the pass runs one forward row per
//!    *distinct* uncached node (subsuming the exact-prefix hash dedup the
//!    estimator used to do).
//! 2. **Across passes**: an [`Estimator`](crate::Estimator) and its clones
//!    share one trie between calls, and the trie caches each node's
//!    conditional-probability row the first time it is computed, so later
//!    passes that revisit a prefix skip its forward row entirely. This is
//!    what makes a long-lived estimator *strictly cheaper* than per-pass
//!    dedup, and why a pass never needs to stack several requests to share
//!    their rows: repeated workloads (DNF inclusion–exclusion terms, mined
//!    mutants, serving traffic against one model version) re-walk the hot
//!    prefixes.
//!
//! Because per-row forward arithmetic is row-independent,
//! a cached row is bit-identical to the row a fresh forward would produce —
//! caching changes cost, never values.
//!
//! Memory is bounded by a node cap: once reached, paths fall off the trie
//! (`OFF_TRIE`), and each such path takes a forward row of its own.

use sam_nn::Matrix;
use std::collections::HashMap;

/// Sentinel node id for paths that fell off the trie (node cap reached).
pub(crate) const OFF_TRIE: usize = usize::MAX;

/// Default maximum node count. Distinct traffic reaches it: estimates
/// shaped like the `serve_distinct` benchmark's filled it after 187–211
/// distinct requests (EXPERIMENTS.md, "PR 52"). A full trie never evicts,
/// so every later new prefix goes off it; see ROADMAP.md, "A trie that
/// keeps serving after it fills".
pub(crate) const DEFAULT_NODE_CAP: usize = 1 << 17;

#[derive(Debug, Default)]
struct TrieNode {
    children: HashMap<u32, usize>,
    /// Conditional probabilities of column `depth(node)` given this prefix,
    /// cached after the first forward pass that visits the node.
    probs: Option<Box<[f32]>>,
}

/// A trie over sampled-code prefixes; see the module docs.
#[derive(Debug)]
pub struct PrefixTrie {
    nodes: Vec<TrieNode>,
    cap: usize,
}

impl Default for PrefixTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixTrie {
    /// The root node id (empty prefix); node ids index the node vector.
    pub(crate) const ROOT: usize = 0;

    /// An empty trie (root only) with the default node cap.
    pub fn new() -> Self {
        Self::with_node_cap(DEFAULT_NODE_CAP)
    }

    /// An empty trie whose node count never exceeds `cap` (min 1: the root).
    pub(crate) fn with_node_cap(cap: usize) -> Self {
        PrefixTrie {
            nodes: vec![TrieNode::default()],
            cap: cap.max(1),
        }
    }

    /// The root node (empty prefix).
    #[cfg(test)]
    pub(crate) fn root(&self) -> usize {
        Self::ROOT
    }

    /// Nodes on the trie, the root included.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Step from `node` along `code`, creating the child if the cap allows;
    /// `OFF_TRIE` when the path falls off the trie.
    pub(crate) fn child(&mut self, node: usize, code: u32) -> usize {
        if node == OFF_TRIE {
            return OFF_TRIE;
        }
        if let Some(&c) = self.nodes[node].children.get(&code) {
            return c;
        }
        if self.nodes.len() >= self.cap {
            return OFF_TRIE;
        }
        let c = self.nodes.len();
        self.nodes.push(TrieNode::default());
        self.nodes[node].children.insert(code, c);
        c
    }

    /// Cached conditionals at `node`, if a forward pass already visited it.
    pub(crate) fn probs(&self, node: usize) -> Option<&[f32]> {
        if node == OFF_TRIE {
            return None;
        }
        self.nodes[node].probs.as_deref()
    }

    /// Cache `probs` at `node` (first writer wins; later writes of the same
    /// prefix would be bit-identical anyway).
    pub(crate) fn set_probs(&mut self, node: usize, probs: &[f32]) {
        if node != OFF_TRIE && self.nodes[node].probs.is_none() {
            self.nodes[node].probs = Some(probs.into());
        }
    }

    /// Classify every live batch row for one column in a single pass,
    /// expressing trie hits and within-batch dedup as row masks over the
    /// batch (see [`ColumnMasks`]) instead of scatter/gather index vectors.
    /// A row whose node already carries cached conditionals gets a copy of
    /// them in its own row of `probs`; the first live row of each remaining
    /// prefix group becomes its `fresh` representative (taking the forward
    /// row), and every later member points at it through `rep`. Groups key
    /// by node id; a row off the trie is a group of its own. The summary
    /// carries the counts back to the caller for process-wide metrics.
    pub(crate) fn classify_column(
        &self,
        factors: &[f64],
        node: &[usize],
        masks: &mut ColumnMasks,
        probs: &mut Matrix,
    ) -> ColumnSummary {
        masks.reset(factors.len());
        let mut uniq_node: HashMap<usize, usize> = HashMap::new();
        let mut summary = ColumnSummary::default();
        for r in 0..factors.len() {
            if factors[r] == 0.0 {
                continue;
            }
            summary.any_live = true;
            if let Some(cached) = self.probs(node[r]) {
                probs.row_mut(r)[..cached.len()].copy_from_slice(cached);
                masks.rep[r] = r;
                summary.cached_hits += 1;
                continue;
            }
            let rep = if node[r] != OFF_TRIE {
                *uniq_node.entry(node[r]).or_insert(r)
            } else {
                r
            };
            masks.rep[r] = rep;
            if rep == r {
                masks.fresh[r] = true;
                summary.fresh_rows += 1;
            } else {
                summary.dedup_hits += 1;
            }
        }
        summary
    }
}

/// Row-mask view of one column's batch classification, refilled in place by
/// [`PrefixTrie::classify_column`] each column. The buffers live in a
/// `SampleBatch` and are reused across columns and calls — the batch-major
/// replacement for the per-column scatter/gather vectors the estimator used
/// to rebuild.
#[derive(Debug, Default)]
pub(crate) struct ColumnMasks {
    /// `fresh[r]`: row `r` represents its prefix group this column and
    /// takes a forward row.
    pub(crate) fresh: Vec<bool>,
    /// `rep[r]`: the batch row whose conditionals row `r` reads (`rep[r] ==
    /// r` for representatives and for rows an earlier pass cached;
    /// meaningful only for live rows).
    pub(crate) rep: Vec<usize>,
}

impl ColumnMasks {
    fn reset(&mut self, rows: usize) {
        self.fresh.clear();
        self.fresh.resize(rows, false);
        self.rep.clear();
        self.rep.resize(rows, 0);
    }
}

/// Counts from one [`PrefixTrie::classify_column`] pass.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ColumnSummary {
    /// At least one row still has non-zero factor.
    pub(crate) any_live: bool,
    /// Rows marked fresh (the forward row count for this column).
    pub(crate) fresh_rows: u64,
    /// Live rows served from trie-cached conditionals.
    pub(crate) cached_hits: u64,
    /// Live rows that share an uncached trie node with an earlier row of
    /// the batch, and read that representative's conditionals.
    pub(crate) dedup_hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descend_creates_and_reuses_nodes() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.nodes.len(), 1);
        let a = t.child(t.root(), 3);
        let b = t.child(t.root(), 3);
        assert_eq!(a, b);
        let c = t.child(a, 1);
        assert_ne!(c, a);
        assert_eq!(t.nodes.len(), 3);
    }

    #[test]
    fn cap_sends_paths_off_trie() {
        let mut t = PrefixTrie::with_node_cap(2);
        let a = t.child(t.root(), 0);
        assert_ne!(a, OFF_TRIE);
        // Cap reached: new prefixes fall off, existing ones still resolve.
        assert_eq!(t.child(t.root(), 1), OFF_TRIE);
        assert_eq!(t.child(t.root(), 0), a);
        assert_eq!(t.child(OFF_TRIE, 0), OFF_TRIE);
    }

    #[test]
    fn probs_cache_first_writer_wins() {
        let mut t = PrefixTrie::new();
        let n = t.child(t.root(), 0);
        assert!(t.probs(n).is_none());
        t.set_probs(n, &[0.25, 0.75]);
        t.set_probs(n, &[1.0, 0.0]);
        assert_eq!(t.probs(n).unwrap(), &[0.25, 0.75]);
        assert!(t.probs(OFF_TRIE).is_none());
    }
}
