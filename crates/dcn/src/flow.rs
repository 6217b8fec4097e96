//! Flows and routes — the unit of traffic the DCN simulator reasons about.

use hbd_types::{Bytes, LinkId, NodeId};
use topology::NetworkDistance;

/// A unidirectional transfer between two nodes' DCN NICs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size.
    pub bytes: Bytes,
}

impl Flow {
    /// Creates a flow.
    pub fn new(src: NodeId, dst: NodeId, bytes: Bytes) -> Self {
        Flow { src, dst, bytes }
    }
}

/// The links a flow traverses, in order, plus the topological distance class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Directed links traversed by the flow, in path order. Empty for local
    /// flows.
    pub links: Vec<LinkId>,
    /// Distance class of the path (same node, same ToR, same aggregation
    /// domain, cross-domain).
    pub distance: NetworkDistance,
}

impl Route {
    /// Number of links traversed.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Whether the route leaves its ToR (i.e. uses at least one ToR uplink).
    pub fn crosses_tor(&self) -> bool {
        self.hops() > 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{DcnNetwork, NetworkParams};

    #[test]
    fn local_flow_detection() {
        // A flow between a node and itself never enters the DCN.
        let fat_tree = topology::FatTree::new(8, 4, 2).unwrap();
        let net = DcnNetwork::new(fat_tree, NetworkParams::non_blocking(4, 4)).unwrap();
        let local = net
            .route(&Flow::new(NodeId(3), NodeId(3), Bytes(1.0)))
            .unwrap();
        assert!(local.links.is_empty());
        let remote = net
            .route(&Flow::new(NodeId(3), NodeId(4), Bytes(1.0)))
            .unwrap();
        assert!(!remote.links.is_empty());
    }

    #[test]
    fn route_hop_accounting() {
        let intra_tor = Route {
            links: vec![LinkId(0), LinkId(1)],
            distance: NetworkDistance::SameToR,
        };
        assert_eq!(intra_tor.hops(), 2);
        assert!(!intra_tor.crosses_tor());

        let cross_tor = Route {
            links: vec![LinkId(0), LinkId(5), LinkId(6), LinkId(1)],
            distance: NetworkDistance::SameAggregationDomain,
        };
        assert!(cross_tor.crosses_tor());
    }
}
