//! Graph-analytics framing of the Jaccard machinery (Sections II-F,
//! III-D, Table III).
//!
//! Vertex similarity `|N(v) ∩ N(u)| / |N(v) ∪ N(u)|` is the Jaccard
//! similarity of neighborhood sets, so the SimilarityAtScale pipeline
//! applies unchanged: each vertex's neighbor list becomes one "sample"
//! (one column of the indicator matrix, whose rows are vertex ids). This
//! module provides the conversion plus small reference utilities (direct
//! vertex similarity, Jarvis–Patrick style shared-neighbor clustering,
//! and missing-link scoring) used by the graph example and tests.

use crate::error::{ClusterError, ClusterResult};

/// An undirected graph given as adjacency lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjacencyGraph {
    adj: Vec<Vec<usize>>,
}

impl AdjacencyGraph {
    /// Build from adjacency lists (deduplicated and sorted; self-loops
    /// removed; symmetry enforced by adding the reverse of every edge).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> ClusterResult<Self> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(ClusterError::InvalidParameter(format!(
                    "edge ({u}, {v}) outside a graph of {n} vertices"
                )));
            }
            if u == v {
                continue;
            }
            adj[u].push(v);
            adj[v].push(u);
        }
        for list in adj.iter_mut() {
            list.sort_unstable();
            list.dedup();
        }
        Ok(AdjacencyGraph { adj })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Neighbors of vertex `v` (sorted).
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Convert the neighborhoods into "samples" for the SimilarityAtScale
    /// pipeline: one sorted `u64` set per vertex (Table III's framing:
    /// one row of `A` per vertex id, one column per vertex neighborhood).
    pub fn neighborhood_sets(&self) -> Vec<Vec<u64>> {
        self.adj.iter().map(|ns| ns.iter().map(|&v| v as u64).collect()).collect()
    }

    /// Direct (reference) Jaccard similarity of two vertices'
    /// neighborhoods.
    pub fn vertex_similarity(&self, u: usize, v: usize) -> f64 {
        let a = &self.adj[u];
        let b = &self.adj[v];
        let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = a.len() + b.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Jarvis–Patrick style grouping: two vertices belong to the same
    /// cluster when their neighborhood similarity is at least
    /// `threshold` (transitively closed). Returns a cluster label per
    /// vertex.
    pub fn jarvis_patrick(&self, threshold: f64) -> Vec<usize> {
        let n = self.n();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for u in 0..n {
            for v in (u + 1)..n {
                if self.vertex_similarity(u, v) >= threshold {
                    let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                    if ru != rv {
                        parent[ru] = rv;
                    }
                }
            }
        }
        // Relabel roots densely.
        let mut labels = vec![usize::MAX; n];
        let mut next = 0;
        for v in 0..n {
            let r = find(&mut parent, v);
            if labels[r] == usize::MAX {
                labels[r] = next;
                next += 1;
            }
            labels[v] = labels[r];
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles {0,1,2} and {3,4,5} joined by the edge (2,3).
    fn two_triangles() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap()
    }

    #[test]
    fn construction_dedups_and_symmetrizes() {
        let g = AdjacencyGraph::from_edges(3, &[(0, 1), (1, 0), (0, 0), (1, 2)]).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(AdjacencyGraph::from_edges(2, &[(0, 5)]).is_err());
    }

    #[test]
    fn vertex_similarity_matches_definition() {
        let g = two_triangles();
        // N(0) = {1,2}, N(1) = {0,2}: intersection {2}, union {0,1,2}.
        assert!((g.vertex_similarity(0, 1) - 1.0 / 3.0).abs() < 1e-12);
        // Vertices in different triangles share no neighbors.
        assert_eq!(g.vertex_similarity(0, 4), 0.0);
        // A vertex compared with itself has similarity 1.
        assert_eq!(g.vertex_similarity(0, 0), 1.0);
    }

    #[test]
    fn neighborhood_sets_feed_the_indicator_framing() {
        let g = two_triangles();
        let sets = g.neighborhood_sets();
        assert_eq!(sets.len(), 6);
        assert_eq!(sets[0], vec![1, 2]);
        assert_eq!(sets[2], vec![0, 1, 3]);
        // Sorted as required by SampleCollection::from_sorted_sets.
        for s in &sets {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn jarvis_patrick_separates_the_triangles() {
        let g = two_triangles();
        // At threshold 0.3 the pairs sharing a full third of their
        // neighborhoods group together (0-1 within the first triangle,
        // 4-5 within the second); the bridge vertices 2 and 3 have
        // inflated neighborhoods and stay apart, and the two triangles
        // never merge.
        let labels = g.jarvis_patrick(0.3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
        // Threshold above every similarity puts every vertex alone.
        let singletons = g.jarvis_patrick(1.1);
        let mut distinct = singletons.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 6);
    }
}
