//! The Fat-Tree DCN model used for cross-ToR traffic accounting (§4.3, §6.4).
//!
//! The simulator does not route individual packets; what the orchestration
//! experiments need is the *locality structure* of the DCN: which nodes share a
//! ToR switch, which ToRs share an aggregation-switch domain, and how "far"
//! two nodes are from each other. Traffic that stays under one ToR only crosses
//! node–ToR links and cannot congest the fabric; traffic between ToRs of one
//! aggregation domain crosses that domain's aggregation switches; anything else
//! crosses the core layer.

use hbd_types::{ClusterConfig, HbdError, NodeId, Result, ToRId};
use serde::{Deserialize, Serialize};

/// Distance classes between two nodes in the Fat-Tree DCN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NetworkDistance {
    /// The two endpoints are the same node (intra-node traffic).
    SameNode,
    /// Both nodes hang off the same ToR switch.
    SameToR,
    /// Different ToRs within the same aggregation-switch domain.
    SameAggregationDomain,
    /// The path crosses the core layer.
    CrossCore,
}

impl NetworkDistance {
    /// Number of switch hops a packet traverses for this distance class
    /// (node→ToR→node = 1 switch, node→ToR→Agg→ToR→node = 3 switches, ...).
    pub const fn switch_hops(self) -> usize {
        match self {
            NetworkDistance::SameNode => 0,
            NetworkDistance::SameToR => 1,
            NetworkDistance::SameAggregationDomain => 3,
            NetworkDistance::CrossCore => 5,
        }
    }

    /// Whether traffic at this distance leaves its ToR (the congestion metric
    /// minimised by the orchestration algorithm).
    pub const fn crosses_tor(self) -> bool {
        matches!(
            self,
            NetworkDistance::SameAggregationDomain | NetworkDistance::CrossCore
        )
    }
}

/// The Fat-Tree DCN of the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FatTree {
    nodes: usize,
    nodes_per_tor: usize,
    tors_per_aggregation_domain: usize,
}

impl FatTree {
    /// Creates a Fat-Tree over `nodes` nodes with the given rack layout.
    pub fn new(
        nodes: usize,
        nodes_per_tor: usize,
        tors_per_aggregation_domain: usize,
    ) -> Result<Self> {
        if nodes == 0 {
            return Err(HbdError::invalid_config("fat-tree needs at least one node"));
        }
        if nodes_per_tor == 0 || tors_per_aggregation_domain == 0 {
            return Err(HbdError::invalid_config(
                "nodes_per_tor and tors_per_aggregation_domain must be positive",
            ));
        }
        Ok(FatTree {
            nodes,
            nodes_per_tor,
            tors_per_aggregation_domain,
        })
    }

    /// Builds the Fat-Tree described by a [`ClusterConfig`].
    pub fn from_config(config: &ClusterConfig) -> Result<Self> {
        Self::new(
            config.nodes,
            config.nodes_per_tor,
            config.tors_per_aggregation_domain,
        )
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Nodes per ToR.
    pub fn nodes_per_tor(&self) -> usize {
        self.nodes_per_tor
    }

    /// Nodes per aggregation-switch domain.
    pub fn nodes_per_aggregation_domain(&self) -> usize {
        self.nodes_per_tor * self.tors_per_aggregation_domain
    }

    /// Number of ToR switches.
    pub fn tors(&self) -> usize {
        self.nodes.div_ceil(self.nodes_per_tor)
    }

    /// Number of aggregation-switch domains.
    pub fn aggregation_domains(&self) -> usize {
        self.tors().div_ceil(self.tors_per_aggregation_domain)
    }

    /// The ToR a node is attached to.
    pub fn tor_of(&self, node: NodeId) -> Result<ToRId> {
        self.check(node)?;
        Ok(node.tor(self.nodes_per_tor))
    }

    /// The aggregation-switch domain a node belongs to.
    pub fn aggregation_domain_of(&self, node: NodeId) -> Result<usize> {
        self.check(node)?;
        Ok(node.index() / self.nodes_per_aggregation_domain())
    }

    /// Distance class between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Result<NetworkDistance> {
        self.check(a)?;
        self.check(b)?;
        Ok(if a == b {
            NetworkDistance::SameNode
        } else if self.tor_of(a)? == self.tor_of(b)? {
            NetworkDistance::SameToR
        } else if self.aggregation_domain_of(a)? == self.aggregation_domain_of(b)? {
            NetworkDistance::SameAggregationDomain
        } else {
            NetworkDistance::CrossCore
        })
    }

    fn check(&self, node: NodeId) -> Result<()> {
        if node.index() >= self.nodes {
            Err(HbdError::unknown_entity(format!(
                "{node} in a {}-node fat-tree",
                self.nodes
            )))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tree() -> FatTree {
        // 2,048 nodes, 16 per ToR, 8 ToRs per aggregation domain.
        FatTree::new(2048, 16, 8).unwrap()
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(FatTree::new(0, 16, 8).is_err());
        assert!(FatTree::new(10, 0, 8).is_err());
        assert!(FatTree::new(10, 16, 0).is_err());
    }

    #[test]
    fn counts_match_layout() {
        let tree = paper_tree();
        assert_eq!(tree.tors(), 128);
        assert_eq!(tree.aggregation_domains(), 16);
        assert_eq!(tree.nodes_per_aggregation_domain(), 128);
    }

    #[test]
    fn tor_and_domain_assignment() {
        let tree = paper_tree();
        assert_eq!(tree.tor_of(NodeId(0)).unwrap(), ToRId(0));
        assert_eq!(tree.tor_of(NodeId(15)).unwrap(), ToRId(0));
        assert_eq!(tree.tor_of(NodeId(16)).unwrap(), ToRId(1));
        assert_eq!(tree.aggregation_domain_of(NodeId(127)).unwrap(), 0);
        assert_eq!(tree.aggregation_domain_of(NodeId(128)).unwrap(), 1);
    }

    #[test]
    fn distance_classes_and_hops() {
        let tree = paper_tree();
        assert_eq!(
            tree.distance(NodeId(3), NodeId(3)).unwrap(),
            NetworkDistance::SameNode
        );
        assert_eq!(
            tree.distance(NodeId(0), NodeId(15)).unwrap(),
            NetworkDistance::SameToR
        );
        assert_eq!(
            tree.distance(NodeId(0), NodeId(16)).unwrap(),
            NetworkDistance::SameAggregationDomain
        );
        assert_eq!(
            tree.distance(NodeId(0), NodeId(2000)).unwrap(),
            NetworkDistance::CrossCore
        );
        assert_eq!(NetworkDistance::SameNode.switch_hops(), 0);
        assert_eq!(NetworkDistance::SameToR.switch_hops(), 1);
        assert_eq!(NetworkDistance::SameAggregationDomain.switch_hops(), 3);
        assert_eq!(NetworkDistance::CrossCore.switch_hops(), 5);
    }

    #[test]
    fn cross_tor_classification() {
        assert!(!NetworkDistance::SameNode.crosses_tor());
        assert!(!NetworkDistance::SameToR.crosses_tor());
        assert!(NetworkDistance::SameAggregationDomain.crosses_tor());
        assert!(NetworkDistance::CrossCore.crosses_tor());
    }

    #[test]
    fn nodes_under_tor_lists_the_rack() {
        let tree = FatTree::new(20, 8, 2).unwrap();
        let rack = |tor: usize| {
            (0..20)
                .filter(|&n| tree.tor_of(NodeId(n)).unwrap() == ToRId(tor))
                .count()
        };
        assert_eq!(rack(0), 8);
        // The last rack is partial.
        assert_eq!(rack(2), 4);
    }

    #[test]
    fn out_of_range_nodes_are_rejected() {
        let tree = FatTree::new(20, 8, 2).unwrap();
        assert!(tree.tor_of(NodeId(20)).is_err());
        assert!(tree.distance(NodeId(0), NodeId(99)).is_err());
    }

    #[test]
    fn from_config_matches_config_counts() {
        let config = ClusterConfig::paper_8192_gpu();
        let tree = FatTree::from_config(&config).unwrap();
        assert_eq!(tree.tors(), config.tors());
        assert_eq!(tree.aggregation_domains(), config.aggregation_domains());
    }
}
