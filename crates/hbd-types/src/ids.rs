//! Strongly-typed identifiers for the entities of an AI datacenter.
//!
//! All identifiers are zero-based dense indices. The simulator never uses sparse
//! or universally-unique identifiers: every experiment operates on a fixed-size
//! cluster, so dense indices keep the data structures flat (`Vec`-indexable) and
//! the arithmetic used by the topology and orchestration algorithms (e.g. "node
//! `n` connects to node `n ± r`") straightforward.

use crate::error::{HbdError, Result};
use serde::Serialize;
use std::fmt;

/// Implements the common boilerplate of an index newtype.
macro_rules! index_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
        #[serde(transparent)]
        pub struct $name(pub usize);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(index: usize) -> Self {
                Self(index)
            }

            /// Returns the raw zero-based index.
            pub const fn index(self) -> usize {
                self.0
            }

            /// Returns the identifier `offset` positions after this one.
            pub const fn offset(self, offset: usize) -> Self {
                Self(self.0 + offset)
            }

            /// Returns the identifier `offset` positions before this one, or
            /// `None` if that would underflow.
            pub fn checked_sub(self, offset: usize) -> Option<Self> {
                self.0.checked_sub(offset).map(Self)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(index: usize) -> Self {
                Self(index)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.0
            }
        }
    };
}

index_id!(
    /// Identifier of a compute node (a server holding `R` GPUs and `R` OCSTrx
    /// bundles). Node indices follow the physical deployment order in the
    /// datacenter, which is the order used by the K-Hop Ring wiring.
    NodeId,
    "N"
);

index_id!(
    /// Identifier of a single GPU within the whole cluster (not within a node).
    /// GPU `g` lives on node `g / R` at local rank `g % R`.
    GpuId,
    "G"
);

index_id!(
    /// Identifier of an OCSTrx bundle within the whole cluster.
    TrxId,
    "T"
);

index_id!(
    /// Identifier of a Top-of-Rack switch in the DCN.
    ToRId,
    "ToR"
);

index_id!(
    /// Identifier of a switch chip inside an HBD (NVLink switch, centralized OCS
    /// plane, aggregation switch, ...).
    SwitchId,
    "S"
);

index_id!(
    /// Identifier of a physical link (fiber or copper) between two endpoints.
    LinkId,
    "L"
);

impl GpuId {
    /// Returns the node this GPU belongs to, given `gpus_per_node`.
    pub fn node(self, gpus_per_node: usize) -> NodeId {
        assert!(gpus_per_node > 0, "gpus_per_node must be positive");
        NodeId(self.0 / gpus_per_node)
    }

    /// Builds the global GPU id from a node and a local rank. A rank outside
    /// `0..gpus_per_node` is an [`HbdError::UnknownEntity`], and so is an id
    /// past `usize::MAX`.
    pub fn from_node_rank(node: NodeId, local_rank: usize, gpus_per_node: usize) -> Result<Self> {
        let unknown = || {
            HbdError::unknown_entity(format!(
                "local rank {local_rank} of {node} with {gpus_per_node} GPUs per node"
            ))
        };
        if local_rank >= gpus_per_node {
            return Err(unknown());
        }
        node.0
            .checked_mul(gpus_per_node)
            .and_then(|base| base.checked_add(local_rank))
            .map(GpuId)
            .ok_or_else(unknown)
    }
}

impl NodeId {
    /// Returns the GPUs hosted on this node, given `gpus_per_node`.
    pub fn gpus(self, gpus_per_node: usize) -> impl Iterator<Item = GpuId> {
        let base = self.0 * gpus_per_node;
        (base..base + gpus_per_node).map(GpuId)
    }

    /// Returns the ToR this node is attached to, given `nodes_per_tor`.
    pub fn tor(self, nodes_per_tor: usize) -> ToRId {
        assert!(nodes_per_tor > 0, "nodes_per_tor must be positive");
        ToRId(self.0 / nodes_per_tor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_paper_prefixes() {
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(GpuId(0).to_string(), "G0");
        assert_eq!(TrxId(7).to_string(), "T7");
        assert_eq!(ToRId(2).to_string(), "ToR2");
        assert_eq!(SwitchId(9).to_string(), "S9");
        assert_eq!(LinkId(1).to_string(), "L1");
    }

    #[test]
    fn gpu_node_mapping_roundtrips() {
        for gpus_per_node in [1usize, 4, 8] {
            for raw in 0..64usize {
                let gpu = GpuId(raw);
                let node = gpu.node(gpus_per_node);
                assert!(node.gpus(gpus_per_node).any(|g| g == gpu));
            }
        }
    }

    #[test]
    fn node_gpu_enumeration_matches_mapping() {
        let node = NodeId(5);
        let gpus: Vec<GpuId> = node.gpus(4).collect();
        assert_eq!(gpus, vec![GpuId(20), GpuId(21), GpuId(22), GpuId(23)]);
        for gpu in gpus {
            assert_eq!(gpu.node(4), node);
        }
    }

    #[test]
    fn node_to_tor_mapping() {
        assert_eq!(NodeId(0).tor(4), ToRId(0));
        assert_eq!(NodeId(3).tor(4), ToRId(0));
        assert_eq!(NodeId(4).tor(4), ToRId(1));
        assert_eq!(NodeId(15).tor(4), ToRId(3));
    }

    #[test]
    fn offsets_and_checked_sub() {
        assert_eq!(NodeId(3).offset(2), NodeId(5));
        assert_eq!(NodeId(3).checked_sub(2), Some(NodeId(1)));
        assert_eq!(NodeId(1).checked_sub(2), None);
    }

    #[test]
    fn from_node_rank_rejects_out_of_range_rank() {
        for (node, rank, gpus_per_node) in [(0, 4, 4), (3, 0, 0), (usize::MAX, 1, 8)] {
            assert!(matches!(
                GpuId::from_node_rank(NodeId(node), rank, gpus_per_node),
                Err(HbdError::UnknownEntity { .. })
            ));
        }
        assert_eq!(GpuId::from_node_rank(NodeId(2), 3, 4), Ok(GpuId(11)));
    }

    #[test]
    fn conversions_to_and_from_usize() {
        let id: NodeId = 12usize.into();
        assert_eq!(id, NodeId(12));
        let raw: usize = id.into();
        assert_eq!(raw, 12);
    }

    #[test]
    fn serde_roundtrip_is_transparent() {
        let id = NodeId(42);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "42");
    }
}
