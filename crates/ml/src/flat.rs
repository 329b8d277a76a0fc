//! Flattened branchless forest-inference kernel.
//!
//! [`RegressionTree`] stores nodes as a `Vec` of a two-variant enum; walking
//! it costs a discriminant match plus pointer-chasing through 40-byte nodes
//! per level. This module compiles a fitted forest into a contiguous
//! structure-of-arrays layout — `feature: Vec<u32>` (with a leaf sentinel),
//! `threshold: Vec<f64>` (which doubles as the leaf-value array: a leaf's
//! prediction sits in its threshold slot), and `children: Vec<[u32; 2]>` —
//! so a traversal step is three dense array loads and one data-dependent
//! index, with the branch direction computed arithmetically instead of by a
//! conditional jump.
//!
//! # Bit-identity contract
//!
//! The kernel must predict bit-identically to the retained enum walker
//! ([`RegressionTree::predict`]), which descends with
//! `if x[feature] <= threshold { left } else { right }`. The branchless
//! form therefore selects the right child with `!(x <= t)` — **not**
//! `x > t`, which disagrees under NaN (`NaN > t` and `NaN <= t` are both
//! false). Thresholds can be non-finite in practice: a split between
//! consecutive sample values `-inf` and `+inf` yields a NaN midpoint, and
//! probe rows built from degenerate telemetry can carry NaN features. The
//! equivalence across these shapes is pinned by `tests/predict_kernel.rs`.
//!
//! Trees are laid out back to back (node ids are absolute, offset by the
//! tree's base), so one `FlatForest` owns three allocations total no matter
//! the forest size, and tree-major batch walks stream a tree's nodes out of
//! a single contiguous region.

use crate::tree::{Node, RegressionTree};

/// Sentinel in `feature` marking a leaf; the node's `threshold` slot holds
/// the leaf value and its `children` entry self-loops (never followed).
const LEAF: u32 = u32::MAX;

/// Rows walked simultaneously by the blocked batch traversal
/// ([`FlatForest::sum_block`]): enough independent root-to-leaf chains to
/// hide dependent-load latency, few enough that the per-row cursors stay
/// in registers.
pub const BLOCK_ROWS: usize = 8;

/// A forest compiled to the flat SoA layout. Immutable once built; the
/// owning [`crate::RandomForest`] recompiles it whenever trees change
/// (fit / stalest-tree refresh).
#[derive(Debug, Clone, Default)]
pub struct FlatForest {
    /// Split feature per node, `LEAF` for leaves.
    feature: Vec<u32>,
    /// Split threshold per node; leaf value for leaves.
    threshold: Vec<f64>,
    /// Absolute child node ids `[left, right]` per node.
    children: Vec<[u32; 2]>,
    /// Root node id of each tree, in training order.
    roots: Vec<u32>,
    /// Maximum root-to-leaf depth of each tree (0 = the root is a leaf) —
    /// the fixed step count of the blocked traversal.
    depth: Vec<u32>,
}

impl FlatForest {
    /// Compile fitted trees into one flat forest. Node order within a tree
    /// is preserved (the builder emits preorder), so compilation is a
    /// single pass with no remapping table.
    pub fn compile(trees: &[RegressionTree]) -> Self {
        let total: usize = trees.iter().map(|t| t.num_nodes()).sum();
        assert!(
            (total as u64) < LEAF as u64,
            "forest too large for u32 node ids"
        );
        let mut flat = Self {
            feature: Vec::with_capacity(total),
            threshold: Vec::with_capacity(total),
            children: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
            depth: Vec::with_capacity(trees.len()),
        };
        for tree in trees {
            let base = flat.feature.len() as u32;
            flat.roots.push(base);
            flat.depth.push(tree_depth(tree));
            for (i, node) in tree.nodes.iter().enumerate() {
                match node {
                    Node::Leaf { value } => {
                        let me = base + i as u32;
                        flat.feature.push(LEAF);
                        flat.threshold.push(*value);
                        flat.children.push([me, me]);
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        flat.feature.push(*feature as u32);
                        flat.threshold.push(*threshold);
                        flat.children
                            .push([base + *left as u32, base + *right as u32]);
                    }
                }
            }
        }
        flat
    }

    /// Total nodes across all trees.
    pub fn num_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Walk one tree over one row.
    // The negated `<=` is the bit-identity contract (see module docs), not
    // a readability accident: `x > t` routes NaN differently.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    pub fn predict_tree(&self, tree: usize, x: &[f64]) -> f64 {
        let mut idx = self.roots[tree] as usize;
        loop {
            let f = self.feature[idx];
            if f == LEAF {
                return self.threshold[idx];
            }
            // `!(x <= t)`, not `x > t`: both are false for NaN, so only the
            // negated form routes NaN the same way as the enum walker's
            // `if x <= t { left } else { right }`.
            let go_right = usize::from(!(x[f as usize] <= self.threshold[idx]));
            idx = self.children[idx][go_right] as usize;
        }
    }

    /// Sum of all trees' predictions for one row, accumulated in tree
    /// order — the exact fold order of the sequential reference, so the
    /// mean computed from it is bit-identical.
    #[inline]
    pub fn sum_trees(&self, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for t in 0..self.roots.len() {
            acc += self.predict_tree(t, x);
        }
        acc
    }

    /// Blocked batch traversal: walk every tree over up to [`BLOCK_ROWS`]
    /// rows simultaneously, adding each tree's prediction into `acc` (which
    /// the caller zero-initialises) in tree order.
    ///
    /// All rows of the block advance one level per inner iteration, giving
    /// the CPU `rows.len()` independent load chains instead of one serial
    /// root-to-leaf chain — the main single-thread win of the batch path.
    /// The walk runs a *fixed* `depth[t]` steps per tree with no per-row
    /// exit test: a row that reaches its leaf early just re-steps the
    /// leaf's self-loop (its `children` point at itself), which cannot
    /// change the outcome. Per row the leaf values still accumulate in
    /// tree order, so the block result is bit-identical to
    /// [`sum_trees`](Self::sum_trees) row by row.
    // Negated `<=` as in `predict_tree`: required for NaN bit-identity.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn sum_block(&self, rows: &[&[f64]], acc: &mut [f64]) {
        debug_assert!(rows.len() <= BLOCK_ROWS);
        debug_assert_eq!(rows.len(), acc.len());
        let r = rows.len();
        let mut idx = [0u32; BLOCK_ROWS];
        for (&root, &depth) in self.roots.iter().zip(&self.depth) {
            idx[..r].fill(root);
            for _ in 0..depth {
                for k in 0..r {
                    let i = idx[k] as usize;
                    let f = self.feature[i];
                    // A leaf's sentinel must not index the row; feature 0
                    // is a safe stand-in because the leaf's children both
                    // self-loop, making the comparison outcome irrelevant.
                    let fi = if f == LEAF { 0 } else { f as usize };
                    let go_right = usize::from(!(rows[k][fi] <= self.threshold[i]));
                    idx[k] = self.children[i][go_right];
                }
            }
            for k in 0..r {
                acc[k] += self.threshold[idx[k] as usize];
            }
        }
    }
}

/// Maximum root-to-leaf depth of a fitted tree (0 for a lone leaf).
fn tree_depth(tree: &RegressionTree) -> u32 {
    let mut max = 0u32;
    let mut stack: Vec<(usize, u32)> = vec![(0, 0)];
    while let Some((i, d)) = stack.pop() {
        match &tree.nodes[i] {
            Node::Leaf { .. } => max = max.max(d),
            Node::Split { left, right, .. } => {
                stack.push((*left, d + 1));
                stack.push((*right, d + 1));
            }
        }
    }
    max
}
