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
use std::ops::Range;

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

    /// Positions `positions` of sub-line `i`, in HBD order: position `j` is
    /// node `i + j·p`. The one place Algorithm 3's layout formula is coded.
    ///
    /// # Panics
    /// If `positions` is reversed or ends past
    /// [`subline_length`](Self::subline_length).
    pub fn subline_nodes(
        &self,
        i: usize,
        positions: Range<usize>,
    ) -> impl Iterator<Item = NodeId> + Clone {
        assert!(
            positions.start <= positions.end && positions.end <= self.subline_length(),
            "positions {positions:?} of a {}-node sub-line",
            self.subline_length()
        );
        let p = self.nodes_per_tor;
        positions.map(move |j| NodeId(i + j * p))
    }

    /// The nodes beyond the last complete ToR row (a trailing partial rack),
    /// in id order; the deployment order ends with them.
    pub fn trailing_rack(&self) -> impl Iterator<Item = NodeId> + Clone {
        (self.subline_length() * self.nodes_per_tor..self.nodes).map(NodeId)
    }

    /// The segment of sub-line `subline` that lies inside aggregation-switch
    /// domain `domain`, given `tors_per_domain` racks per domain: positions
    /// `domain × tors_per_domain` up to the next domain or the sub-line's
    /// end. `None` when the domain starts past the end of the sub-lines.
    pub fn segment(
        &self,
        subline: usize,
        domain: usize,
        tors_per_domain: usize,
    ) -> Option<impl Iterator<Item = NodeId> + Clone> {
        let len = self.subline_length();
        let start = domain * tors_per_domain;
        let end = ((domain + 1) * tors_per_domain).min(len);
        (start < len).then(|| self.subline_nodes(subline, start..end))
    }

    /// The full deployment order `S_deploy`: sub-line 0 first (nodes
    /// 0, p, 2p, …), then sub-line 1 (1, p+1, …), and so on, then the
    /// trailing partial rack — adjacent elements are HBD neighbours.
    pub fn deployment_order(&self) -> Vec<NodeId> {
        let l = self.subline_length();
        (0..self.nodes_per_tor)
            .flat_map(|i| self.subline_nodes(i, 0..l))
            .chain(self.trailing_rack())
            .collect()
    }

    /// [`segment`](Self::segment) collected, with out-of-range sub-lines and
    /// domains reported as errors.
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
        self.segment(subline, domain, tors_per_domain)
            .map(Iterator::collect)
            .ok_or_else(|| {
                HbdError::unknown_entity(format!("domain {domain} of sub-line {subline}"))
            })
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
        let line2: Vec<NodeId> = deploy.subline_nodes(2, 0..8).collect();
        assert_eq!(line2[0], NodeId(2));
        assert_eq!(line2[7], NodeId(30));
        assert!(deploy.subline_segment(4, 0, 2).is_err());
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
        // must fail exactly where slicing the deployment order would.
        for (nodes, tors) in [(512usize, 8usize), (520, 8), (520, 5)] {
            let deploy = DeploymentStrategy::new(nodes, 16).unwrap();
            let order = deploy.deployment_order();
            let len = deploy.subline_length();
            for subline in 0..=deploy.sublines() {
                for domain in 0..9 {
                    let segment = deploy.subline_segment(subline, domain, tors);
                    let start = domain * tors;
                    let sliced = (subline < deploy.sublines() && start < len).then(|| {
                        let line = &order[subline * len..(subline + 1) * len];
                        line[start..(start + tors).min(len)].to_vec()
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
        // Within a sub-line the K-Hop Ring runs n → n + p: a node's main
        // links reach n ± p (one hop) and its backup links n ± 2p (two hops),
        // so HBD neighbours are never under the same ToR.
        let deploy = DeploymentStrategy::new(16, 4).unwrap();
        let order = deploy.deployment_order();
        for subline in order.chunks(deploy.subline_length()) {
            for pair in subline.windows(2) {
                assert_eq!(pair[1].index(), pair[0].index() + 4);
                assert_ne!(pair[0].index() / 4, pair[1].index() / 4);
            }
            for pair in subline.windows(3) {
                assert_eq!(pair[2].index(), pair[0].index() + 8);
            }
        }
        assert_eq!(&order[4..8], &[NodeId(1), NodeId(5), NodeId(9), NodeId(13)]);
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
