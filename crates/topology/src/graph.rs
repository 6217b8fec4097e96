//! A small undirected graph over nodes, used by the K-Hop Ring topology and the
//! orchestration algorithms (Algorithm 2 models the healthy cluster as a graph
//! and finds its connected components with a DFS).

use hbd_types::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An undirected graph whose vertices are node indices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeGraph {
    adjacency: Vec<BTreeSet<usize>>,
}

impl NodeGraph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        NodeGraph {
            adjacency: vec![BTreeSet::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Adds an undirected edge. Self-loops and out-of-range vertices are
    /// ignored (the K-Hop wiring near the ends of a line naturally produces
    /// out-of-range neighbour indices, which simply do not exist).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        let (a, b) = (a.index(), b.index());
        if a == b || a >= self.len() || b >= self.len() {
            return;
        }
        self.adjacency[a].insert(b);
        self.adjacency[b].insert(a);
    }

    /// Neighbours of `v` in ascending order.
    pub fn neighbours(&self, v: NodeId) -> Vec<NodeId> {
        self.adjacency
            .get(v.index())
            .map(|set| set.iter().map(|&i| NodeId(i)).collect())
            .unwrap_or_default()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency.get(v.index()).map(|s| s.len()).unwrap_or(0)
    }

    /// Restricts the graph to the vertices for which `keep` returns `true`:
    /// the *healthy subgraph* of Algorithm 2.
    pub fn induced_subgraph(&self, keep: impl Fn(NodeId) -> bool) -> NodeGraph {
        let mut sub = NodeGraph::new(self.len());
        for (a, neighbours) in self.adjacency.iter().enumerate() {
            if !keep(NodeId(a)) {
                continue;
            }
            for &b in neighbours {
                if b > a && keep(NodeId(b)) {
                    sub.add_edge(NodeId(a), NodeId(b));
                }
            }
        }
        sub
    }

    /// Connected components containing at least one vertex from `vertices`,
    /// discovered with an iterative DFS. Each component is returned sorted in
    /// ascending node order (the `sortedInHBD()` step of Algorithm 2: adjacent
    /// elements of the returned list are adjacent in the HBD line).
    pub fn connected_components(&self, vertices: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut visited = vec![false; self.len()];
        let mut interesting = vec![false; self.len()];
        for v in vertices {
            if v.index() < self.len() {
                interesting[v.index()] = true;
            }
        }
        let mut components = Vec::new();
        for start in vertices {
            let start = start.index();
            if start >= self.len() || visited[start] {
                continue;
            }
            let mut stack = vec![start];
            let mut component = Vec::new();
            visited[start] = true;
            while let Some(v) = stack.pop() {
                if interesting[v] {
                    component.push(NodeId(v));
                }
                for &next in &self.adjacency[v] {
                    if !visited[next] && interesting[next] {
                        visited[next] = true;
                        stack.push(next);
                    }
                }
            }
            if !component.is_empty() {
                component.sort();
                components.push(component);
            }
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_count(g: &NodeGraph) -> usize {
        (0..g.len()).map(|v| g.degree(NodeId(v))).sum::<usize>() / 2
    }

    fn line_graph(n: usize) -> NodeGraph {
        let mut g = NodeGraph::new(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        g
    }

    #[test]
    fn edges_are_undirected_and_deduplicated() {
        let mut g = NodeGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(0));
        assert_eq!(g.neighbours(NodeId(0)), vec![NodeId(1)]);
        assert_eq!(g.neighbours(NodeId(1)), vec![NodeId(0)]);
        assert_eq!(edge_count(&g), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn self_loops_and_out_of_range_edges_are_ignored() {
        let mut g = NodeGraph::new(2);
        g.add_edge(NodeId(0), NodeId(0));
        g.add_edge(NodeId(0), NodeId(7));
        assert_eq!(edge_count(&g), 0);
        assert!(g.neighbours(NodeId(9)).is_empty());
        assert_eq!(g.degree(NodeId(9)), 0);
    }

    #[test]
    fn neighbours_are_sorted() {
        let mut g = NodeGraph::new(5);
        g.add_edge(NodeId(2), NodeId(4));
        g.add_edge(NodeId(2), NodeId(0));
        g.add_edge(NodeId(2), NodeId(3));
        assert_eq!(
            g.neighbours(NodeId(2)),
            vec![NodeId(0), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn connected_components_of_a_line() {
        let g = line_graph(6);
        let all: Vec<NodeId> = (0..6).map(NodeId).collect();
        let components = g.connected_components(&all);
        assert_eq!(components.len(), 1);
        assert_eq!(components[0], all);
    }

    #[test]
    fn removing_a_vertex_splits_the_line() {
        let g = line_graph(6);
        let healthy: Vec<NodeId> = [0, 1, 2, 4, 5].iter().map(|&i| NodeId(i)).collect();
        let sub = g.induced_subgraph(|v| v != NodeId(3));
        let components = sub.connected_components(&healthy);
        assert_eq!(components.len(), 2);
        assert_eq!(components[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(components[1], vec![NodeId(4), NodeId(5)]);
    }

    #[test]
    fn components_ignore_vertices_not_requested() {
        let g = line_graph(4);
        let components = g.connected_components(&[NodeId(1), NodeId(2)]);
        assert_eq!(components.len(), 1);
        assert_eq!(components[0], vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_graph_behaves() {
        let g = NodeGraph::new(0);
        assert!(g.is_empty());
        assert!(g.connected_components(&[]).is_empty());
    }
}
