//! `Deployment-Strategy` — Algorithm 3 of the paper (the deployment phase of
//! §4.3).
//!
//! Nodes are physically wired so that HBD neighbours sit under *different*
//! ToRs: with `p` nodes per ToR, node `N_n`'s main HBD links go to `N_{n±p}`
//! and its backup links to `N_{n±2p}` (Fig 7). Equivalently, the cluster
//! decomposes into `p` parallel **sub-lines**; sub-line `i` threads the `i`-th
//! node of every ToR. TP rings run along a sub-line (crossing ToRs over the
//! HBD, which never touches the DCN) while the orthogonal parallelism
//! dimension (DP/CP) pairs up the `p` same-rank nodes that share a ToR — so its
//! traffic stays under the ToR switch.

use hbd_types::{HbdError, NodeId, Result};
use serde::{Deserialize, Serialize};

/// The deployment wiring of the cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeploymentStrategy {
    nodes: usize,
    /// Nodes per ToR (`p` in the paper's notation) — also the number of
    /// parallel sub-lines.
    nodes_per_tor: usize,
}

impl DeploymentStrategy {
    /// Creates a deployment for `nodes` nodes with `nodes_per_tor` nodes per
    /// rack.
    pub fn new(nodes: usize, nodes_per_tor: usize) -> Result<Self> {
        if nodes == 0 {
            return Err(HbdError::invalid_config(
                "deployment needs at least one node",
            ));
        }
        if nodes_per_tor == 0 {
            return Err(HbdError::invalid_config("nodes_per_tor must be positive"));
        }
        Ok(DeploymentStrategy {
            nodes,
            nodes_per_tor,
        })
    }

    /// Number of sub-lines (`p`).
    pub fn sublines(&self) -> usize {
        self.nodes_per_tor
    }

    /// Length of each sub-line (`l = ⌊n / p⌋`); trailing nodes that do not fill
    /// a complete ToR row are appended to the deployment order at the end.
    pub fn subline_length(&self) -> usize {
        self.nodes / self.nodes_per_tor
    }

    /// The full deployment order `S_deploy`: sub-line 0 first (nodes
    /// 0, p, 2p, …), then sub-line 1 (1, p+1, …), and so on — adjacent elements
    /// are HBD neighbours.
    pub fn deployment_order(&self) -> Vec<NodeId> {
        let p = self.nodes_per_tor;
        let l = self.subline_length();
        let mut order = Vec::with_capacity(self.nodes);
        for i in 0..p {
            for j in 0..l {
                order.push(NodeId(i + j * p));
            }
        }
        // Nodes beyond l*p (a trailing partial rack) are appended in id order.
        for n in l * p..self.nodes {
            order.push(NodeId(n));
        }
        order
    }

    /// The nodes of sub-line `i`, in HBD order.
    pub fn subline(&self, i: usize) -> Result<Vec<NodeId>> {
        if i >= self.sublines() {
            return Err(HbdError::unknown_entity(format!(
                "sub-line {i} of a {}-sub-line deployment",
                self.sublines()
            )));
        }
        Ok((0..self.subline_length())
            .map(|j| NodeId(i + j * self.nodes_per_tor))
            .collect())
    }

    /// The segment of sub-line `subline` that lies inside aggregation-switch
    /// domain `domain`, given `tors_per_domain` racks per domain. Equal to
    /// `subline(subline)?[start..end]`, generated without building the whole
    /// sub-line.
    pub fn subline_segment(
        &self,
        subline: usize,
        domain: usize,
        tors_per_domain: usize,
    ) -> Result<Vec<NodeId>> {
        if subline >= self.sublines() {
            return Err(HbdError::unknown_entity(format!(
                "sub-line {subline} of a {}-sub-line deployment",
                self.sublines()
            )));
        }
        let len = self.subline_length();
        let start = domain * tors_per_domain;
        let end = ((domain + 1) * tors_per_domain).min(len);
        if start >= len {
            return Err(HbdError::unknown_entity(format!(
                "domain {domain} of sub-line {subline}"
            )));
        }
        Ok((start..end)
            .map(|j| NodeId(subline + j * self.nodes_per_tor))
            .collect())
    }

    /// The HBD neighbours (main links) of a node: `n ± p`.
    pub fn main_neighbours(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        if let Some(prev) = node.checked_sub(self.nodes_per_tor) {
            out.push(prev);
        }
        let next = node.offset(self.nodes_per_tor);
        if next.index() < self.nodes {
            out.push(next);
        }
        out
    }

    /// The HBD backup neighbours of a node: `n ± 2p`.
    pub fn backup_neighbours(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        if let Some(prev) = node.checked_sub(2 * self.nodes_per_tor) {
            out.push(prev);
        }
        let next = node.offset(2 * self.nodes_per_tor);
        if next.index() < self.nodes {
            out.push(next);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(DeploymentStrategy::new(0, 4).is_err());
        assert!(DeploymentStrategy::new(16, 0).is_err());
        assert!(DeploymentStrategy::new(16, 4).is_ok());
    }

    #[test]
    fn deployment_order_interleaves_tors() {
        // Fig 7: 16 nodes, 4 per ToR -> sub-line 0 is N1, N5, N9, N13 (0-based:
        // 0, 4, 8, 12).
        let deploy = DeploymentStrategy::new(16, 4).unwrap();
        let order = deploy.deployment_order();
        assert_eq!(order.len(), 16);
        assert_eq!(&order[0..4], &[NodeId(0), NodeId(4), NodeId(8), NodeId(12)]);
        assert_eq!(&order[4..8], &[NodeId(1), NodeId(5), NodeId(9), NodeId(13)]);
        // Every node appears exactly once.
        let mut seen: Vec<usize> = order.iter().map(|n| n.index()).collect();
        seen.sort();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn sublines_and_segments() {
        let deploy = DeploymentStrategy::new(32, 4).unwrap();
        assert_eq!(deploy.sublines(), 4);
        assert_eq!(deploy.subline_length(), 8);
        let line2 = deploy.subline(2).unwrap();
        assert_eq!(line2[0], NodeId(2));
        assert_eq!(line2[7], NodeId(30));
        assert!(deploy.subline(4).is_err());
        // Two ToRs per aggregation domain: segment 1 of sub-line 2 covers the
        // 3rd and 4th racks.
        let segment = deploy.subline_segment(2, 1, 2).unwrap();
        assert_eq!(segment, vec![NodeId(10), NodeId(14)]);
        assert!(deploy.subline_segment(2, 9, 2).is_err());
    }

    #[test]
    fn segments_slice_their_full_sublines() {
        // The 512-node layout and the 520-node one with a trailing partial
        // rack, 16 nodes per ToR, 8 ToRs per aggregation domain (and 5, so
        // the last domain is cut short); out-of-range sub-lines and domains
        // must fail exactly where slicing would.
        for (nodes, tors) in [(512usize, 8usize), (520, 8), (520, 5)] {
            let deploy = DeploymentStrategy::new(nodes, 16).unwrap();
            for subline in 0..=deploy.sublines() {
                for domain in 0..9 {
                    let segment = deploy.subline_segment(subline, domain, tors);
                    let sliced = deploy.subline(subline).ok().and_then(|full| {
                        let start = domain * tors;
                        (start < full.len())
                            .then(|| full[start..(start + tors).min(full.len())].to_vec())
                    });
                    assert_eq!(
                        segment.ok(),
                        sliced,
                        "{nodes} nodes, {tors} ToRs per domain, ({subline}, {domain})"
                    );
                }
            }
        }
    }

    #[test]
    fn main_and_backup_neighbours_follow_fig7() {
        let deploy = DeploymentStrategy::new(16, 4).unwrap();
        assert_eq!(
            deploy.main_neighbours(NodeId(5)),
            vec![NodeId(1), NodeId(9)]
        );
        assert_eq!(deploy.backup_neighbours(NodeId(5)), vec![NodeId(13)]);
        assert_eq!(deploy.main_neighbours(NodeId(0)), vec![NodeId(4)]);
        assert_eq!(deploy.backup_neighbours(NodeId(14)), vec![NodeId(6)]);
        // HBD neighbours are never under the same ToR.
        for n in 0..16 {
            for neighbour in deploy.main_neighbours(NodeId(n)) {
                assert_ne!(n / 4, neighbour.index() / 4);
            }
        }
    }

    #[test]
    fn partial_trailing_rack_nodes_are_appended() {
        let deploy = DeploymentStrategy::new(18, 4).unwrap();
        let order = deploy.deployment_order();
        assert_eq!(order.len(), 18);
        assert_eq!(order[16], NodeId(16));
        assert_eq!(order[17], NodeId(17));
    }
}
