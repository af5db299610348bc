//! Neighbor-joining tree construction (Saitou & Nei).
//!
//! The paper lists "the clustering of samples for the construction of
//! phylogenetic trees" and "guide trees for large-scale multiple sequence
//! alignment" as primary consumers of the Jaccard distance matrix
//! (Section II-B, Fig. 1 step 9). Neighbor-joining is the standard
//! distance-based tree builder for both.

use gas_sparse::dense::DenseMatrix;
use serde::{Deserialize, Serialize};

use crate::error::{validate_distance_matrix, ClusterError, ClusterResult};

/// A node of an (unrooted, stored as rooted-at-last-join) phylogenetic
/// tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// A leaf holding the index and name of an input sample.
    Leaf {
        /// Index of the sample in the distance matrix.
        index: usize,
        /// Display name.
        name: String,
    },
    /// An internal node joining two subtrees with branch lengths.
    Internal {
        /// Left child and its branch length.
        left: (Box<TreeNode>, f64),
        /// Right child and its branch length.
        right: (Box<TreeNode>, f64),
    },
}

impl TreeNode {
    /// Number of leaves below (and including) this node.
    pub fn leaf_count(&self) -> usize {
        match self {
            TreeNode::Leaf { .. } => 1,
            TreeNode::Internal { left, right } => left.0.leaf_count() + right.0.leaf_count(),
        }
    }

    /// Leaf indices below this node, left to right.
    pub fn leaf_indices(&self) -> Vec<usize> {
        match self {
            TreeNode::Leaf { index, .. } => vec![*index],
            TreeNode::Internal { left, right } => {
                let mut v = left.0.leaf_indices();
                v.extend(right.0.leaf_indices());
                v
            }
        }
    }

    fn newick_into(&self, out: &mut String) {
        match self {
            TreeNode::Leaf { name, .. } => {
                out.push_str(&name.replace([' ', '(', ')', ',', ':'], "_"))
            }
            TreeNode::Internal { left, right } => {
                out.push('(');
                left.0.newick_into(out);
                out.push_str(&format!(":{:.6},", left.1.max(0.0)));
                right.0.newick_into(out);
                out.push_str(&format!(":{:.6}", right.1.max(0.0)));
                out.push(')');
            }
        }
    }
}

/// A phylogenetic / guide tree produced by neighbor joining.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhyloTree {
    root: TreeNode,
}

impl PhyloTree {
    /// The root node.
    pub fn root(&self) -> &TreeNode {
        &self.root
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.root.leaf_count()
    }

    /// Serialize to a Newick string (terminated by `;`).
    pub fn newick(&self) -> String {
        let mut s = String::new();
        self.root.newick_into(&mut s);
        s.push(';');
        s
    }
}

/// Build a neighbor-joining tree from a symmetric distance matrix and
/// per-sample names.
pub fn neighbor_joining(dist: &DenseMatrix<f64>, names: &[String]) -> ClusterResult<PhyloTree> {
    validate_distance_matrix(dist)?;
    let n = dist.nrows();
    if names.len() != n {
        return Err(ClusterError::InvalidParameter(format!(
            "{} names for {} samples",
            names.len(),
            n
        )));
    }
    if n == 1 {
        return Ok(PhyloTree { root: TreeNode::Leaf { index: 0, name: names[0].clone() } });
    }
    // Active node list and working distance matrix.
    let mut nodes: Vec<TreeNode> =
        (0..n).map(|i| TreeNode::Leaf { index: i, name: names[i].clone() }).collect();
    let mut d: Vec<Vec<f64>> = (0..n).map(|i| dist.row(i).to_vec()).collect();

    while nodes.len() > 2 {
        let r = nodes.len();
        let row_sums: Vec<f64> = d.iter().map(|row| row.iter().sum()).collect();
        // Minimize the Q criterion.
        let (mut bi, mut bj, mut best) = (0usize, 1usize, f64::INFINITY);
        for i in 0..r {
            for j in (i + 1)..r {
                let q = (r as f64 - 2.0) * d[i][j] - row_sums[i] - row_sums[j];
                if q < best {
                    best = q;
                    bi = i;
                    bj = j;
                }
            }
        }
        // Branch lengths from the joined pair to the new node.
        let dij = d[bi][bj];
        let delta = if r > 2 { (row_sums[bi] - row_sums[bj]) / (r as f64 - 2.0) } else { 0.0 };
        let li = 0.5 * dij + 0.5 * delta;
        let lj = dij - li;
        // Distances from the new node to the remaining nodes.
        let mut new_dists = Vec::with_capacity(r - 2);
        #[allow(clippy::needless_range_loop)] // k indexes two rows of d simultaneously
        for k in 0..r {
            if k == bi || k == bj {
                continue;
            }
            new_dists.push(0.5 * (d[bi][k] + d[bj][k] - dij));
        }
        let (lo, hi) = (bi.min(bj), bi.max(bj));
        let node_hi = nodes.remove(hi);
        let node_lo = nodes.remove(lo);
        let (len_lo, len_hi) = if lo == bi { (li, lj) } else { (lj, li) };
        let joined = TreeNode::Internal {
            left: (Box::new(node_lo), len_lo.max(0.0)),
            right: (Box::new(node_hi), len_hi.max(0.0)),
        };
        for row in d.iter_mut() {
            row.remove(hi);
            row.remove(lo);
        }
        d.remove(hi);
        d.remove(lo);
        for (row, &v) in d.iter_mut().zip(new_dists.iter()) {
            row.push(v.max(0.0));
        }
        let mut last_row: Vec<f64> = new_dists.iter().map(|&v| v.max(0.0)).collect();
        last_row.push(0.0);
        d.push(last_row);
        nodes.push(joined);
    }
    // Join the final two nodes.
    let d01 = d[0][1];
    let right = nodes.pop().expect("two nodes remain");
    let left = nodes.pop().expect("two nodes remain");
    Ok(PhyloTree {
        root: TreeNode::Internal {
            left: (Box::new(left), (d01 / 2.0).max(0.0)),
            right: (Box::new(right), (d01 / 2.0).max(0.0)),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("s{i}")).collect()
    }

    /// Classic additive 4-taxon example.
    fn additive_matrix() -> DenseMatrix<f64> {
        DenseMatrix::from_vec(
            4,
            4,
            vec![
                0.0, 0.3, 0.8, 0.9, //
                0.3, 0.0, 0.7, 0.8, //
                0.8, 0.7, 0.0, 0.3, //
                0.9, 0.8, 0.3, 0.0,
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_tree_with_all_leaves() {
        let t = neighbor_joining(&additive_matrix(), &names(4)).unwrap();
        assert_eq!(t.leaf_count(), 4);
        let mut leaves = t.root().leaf_indices();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1, 2, 3]);
    }

    #[test]
    fn related_taxa_are_grouped() {
        // {0,1} and {2,3} are the close pairs; at least one of them must
        // form a cherry (an internal node whose children are both leaves)
        // in the reconstructed tree.
        let t = neighbor_joining(&additive_matrix(), &names(4)).unwrap();
        fn cherries(node: &TreeNode, out: &mut Vec<Vec<usize>>) {
            if let TreeNode::Internal { left, right } = node {
                if let (TreeNode::Leaf { index: a, .. }, TreeNode::Leaf { index: b, .. }) =
                    (left.0.as_ref(), right.0.as_ref())
                {
                    let mut pair = vec![*a, *b];
                    pair.sort_unstable();
                    out.push(pair);
                }
                cherries(&left.0, out);
                cherries(&right.0, out);
            }
        }
        let mut found = Vec::new();
        cherries(t.root(), &mut found);
        assert!(
            found.contains(&vec![0, 1]) || found.contains(&vec![2, 3]),
            "cherries found: {found:?}"
        );
    }

    #[test]
    fn newick_is_well_formed() {
        let t = neighbor_joining(&additive_matrix(), &names(4)).unwrap();
        let nwk = t.newick();
        assert!(nwk.ends_with(';'));
        assert_eq!(nwk.matches('(').count(), nwk.matches(')').count());
        for name in names(4) {
            assert!(nwk.contains(&name), "{nwk}");
        }
        // Branch lengths present.
        assert!(nwk.contains(':'));
    }

    #[test]
    fn newick_escapes_problematic_names() {
        let d = DenseMatrix::from_vec(2, 2, vec![0.0, 0.4, 0.4, 0.0]).unwrap();
        let t = neighbor_joining(&d, &["sample (one)".to_string(), "b:c".to_string()]).unwrap();
        let nwk = t.newick();
        assert!(nwk.contains("sample__one_"));
        assert!(nwk.contains("b_c"));
    }

    #[test]
    fn small_inputs() {
        let d1 = DenseMatrix::from_vec(1, 1, vec![0.0]).unwrap();
        let t1 = neighbor_joining(&d1, &names(1)).unwrap();
        assert_eq!(t1.leaf_count(), 1);
        assert!(t1.newick().contains("s0"));
        let d2 = DenseMatrix::from_vec(2, 2, vec![0.0, 0.6, 0.6, 0.0]).unwrap();
        let t2 = neighbor_joining(&d2, &names(2)).unwrap();
        assert_eq!(t2.leaf_count(), 2);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(neighbor_joining(&additive_matrix(), &names(3)).is_err());
        let bad = DenseMatrix::<f64>::zeros(2, 3);
        assert!(neighbor_joining(&bad, &names(2)).is_err());
    }

    #[test]
    fn branch_lengths_recover_additive_distances_approximately() {
        // For an additive matrix, NJ recovers the tree; check the closest
        // pair's path length roughly equals their distance.
        let t = neighbor_joining(&additive_matrix(), &names(4)).unwrap();
        // total tree length should be positive and finite.
        fn total_len(node: &TreeNode) -> f64 {
            match node {
                TreeNode::Leaf { .. } => 0.0,
                TreeNode::Internal { left, right } => {
                    left.1 + right.1 + total_len(&left.0) + total_len(&right.0)
                }
            }
        }
        let len = total_len(t.root());
        assert!(len > 0.0 && len.is_finite());
        // The additive tree for this matrix has external branches
        // 0.2 + 0.1 + 0.1 + 0.2 and an internal branch of 0.5.
        assert!((len - 1.1).abs() < 1e-6, "total length {len}");
    }
}
