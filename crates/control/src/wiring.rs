//! The physical wiring convention between OCSTrx fabric ports and K-Hop Ring
//! neighbours.
//!
//! §4.2: a node with `R` GPUs carries `R` OCSTrx bundles; `K ≤ R` of them are
//! used for the inter-node fabric, the rest stay in intra-node loopback (or are
//! replaced by DAC links in the cost-reduced variant). Each fabric bundle has
//! two external paths, so the `K` bundles expose the `2K` fibers reaching the
//! nodes at deployment distance `±1 .. ±K`.
//!
//! Because a bundle can select only **one** path at a time (the full GPU
//! bandwidth rides on the active path), the assignment of distances to bundles
//! matters: an interior ring node always needs one *forward* and one *backward*
//! link active simultaneously, so those two must land on different bundles.
//! The convention used here mirrors Figure 2 of the paper and keeps every
//! bundle direction-pure whenever `K` is even:
//!
//! | bundle | `External1` (Path 1) | `External2` (Path 2) |
//! |---|---|---|
//! | 0 | `+1` | `+2` |
//! | 1 | `−1` | `−2` |
//! | 2 | `+3` | `+4` |
//! | 3 | `−3` | `−4` |
//! | ... | ... | ... |
//!
//! For odd `K` the last bundle necessarily mixes directions; it is given the
//! pair `(+K, −K)`, the pair least likely to be needed simultaneously (that
//! requires `K − 1` consecutive faults on *both* sides of a node).

use hbd_types::{HbdError, NodeId, Result};
use ocstrx::PathId;
use serde::{Deserialize, Serialize};

/// One selectable external attachment point of a node: a fabric bundle plus
/// the external path on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FabricPort {
    /// Zero-based fabric bundle index.
    pub bundle: usize,
    /// Which external path of the bundle. Never `Loopback`.
    pub path: PathId,
}

/// The wiring of a whole K-Hop Ring (or line) deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Wiring {
    nodes: usize,
    k: usize,
    closed: bool,
}

impl Wiring {
    /// Creates the wiring for `nodes` nodes with `k` fabric bundles each.
    ///
    /// `k` must be at least 2: with a single bundle a node cannot keep a
    /// forward and a backward link active at the same time, so it could never
    /// sit in the interior of a ring. A closed ring additionally needs
    /// `nodes ≥ 2k + 1` so that the forward and backward neighbours at every
    /// distance are distinct nodes.
    pub fn new(nodes: usize, k: usize, closed: bool) -> Result<Self> {
        if nodes == 0 {
            return Err(HbdError::invalid_config("wiring needs at least one node"));
        }
        if k < 2 {
            return Err(HbdError::invalid_config(
                "wiring needs at least two fabric bundles (K >= 2)",
            ));
        }
        if closed && nodes < 2 * k + 1 {
            return Err(HbdError::invalid_config(format!(
                "a closed {k}-hop ring needs at least {} nodes, got {nodes}",
                2 * k + 1
            )));
        }
        Ok(Wiring { nodes, k, closed })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Fabric bundles per node.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the deployment closes into a ring.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// The signed deployment-order offset a port's fiber spans: `+d` means the
    /// fiber runs to the node `d` positions later in deployment order, `−d`
    /// to the node `d` positions earlier. `None` if the bundle index is not a
    /// fabric bundle of this wiring.
    fn port_offset(&self, port: FabricPort) -> Option<isize> {
        if port.bundle >= self.k || port.path == PathId::Loopback {
            return None;
        }
        let b = port.bundle as isize;
        let k = self.k as isize;
        let offset = if b % 2 == 0 {
            // Forward bundle: +(b+1) on Path 1, +(b+2) on Path 2 — except the
            // shared last bundle of an odd-K wiring, whose Path 2 turns around.
            match port.path {
                PathId::External1 => b + 1,
                PathId::External2 => {
                    if b + 2 <= k {
                        b + 2
                    } else {
                        -(b + 1)
                    }
                }
                PathId::Loopback => unreachable!(),
            }
        } else {
            // Backward bundle: −b on Path 1, −(b+1) on Path 2.
            match port.path {
                PathId::External1 => -b,
                PathId::External2 => -(b + 1),
                PathId::Loopback => unreachable!(),
            }
        };
        if offset.unsigned_abs() > self.k {
            None
        } else {
            Some(offset)
        }
    }

    /// The node reached by the given port of `node`, or `None` if the fiber
    /// would fall off the end of a line deployment.
    pub fn neighbour(&self, node: NodeId, port: FabricPort) -> Option<NodeId> {
        if node.index() >= self.nodes {
            return None;
        }
        let offset = self.port_offset(port)?;
        let n = self.nodes as isize;
        let target = node.index() as isize + offset;
        if self.closed {
            Some(NodeId(target.rem_euclid(n) as usize))
        } else if (0..n).contains(&target) {
            Some(NodeId(target as usize))
        } else {
            None
        }
    }

    /// The port of `from` whose fiber lands on `to`, or `None` if the two
    /// nodes are further apart than `K` hops.
    pub fn port_towards(&self, from: NodeId, to: NodeId) -> Option<FabricPort> {
        if from.index() >= self.nodes || to.index() >= self.nodes || from == to {
            return None;
        }
        for bundle in 0..self.k {
            for path in [PathId::External1, PathId::External2] {
                let port = FabricPort { bundle, path };
                if self.neighbour(from, port) == Some(to) {
                    return Some(port);
                }
            }
        }
        None
    }

    /// All ports of a node together with the neighbour they reach (ports whose
    /// fiber falls off the end of a line are omitted).
    pub fn ports(&self, node: NodeId) -> Vec<(FabricPort, NodeId)> {
        let mut out = Vec::with_capacity(2 * self.k);
        for bundle in 0..self.k {
            for path in [PathId::External1, PathId::External2] {
                let port = FabricPort { bundle, path };
                if let Some(peer) = self.neighbour(node, port) {
                    out.push((port, peer));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(Wiring::new(0, 2, true).is_err());
        assert!(Wiring::new(10, 1, true).is_err());
        assert!(Wiring::new(4, 2, true).is_err());
        assert!(Wiring::new(5, 2, true).is_ok());
        assert!(Wiring::new(4, 2, false).is_ok());
    }

    #[test]
    fn k2_port_map_matches_figure_2() {
        let wiring = Wiring::new(10, 2, true).unwrap();
        let port = |bundle, path| FabricPort { bundle, path };
        assert_eq!(wiring.port_offset(port(0, PathId::External1)), Some(1));
        assert_eq!(wiring.port_offset(port(0, PathId::External2)), Some(2));
        assert_eq!(wiring.port_offset(port(1, PathId::External1)), Some(-1));
        assert_eq!(wiring.port_offset(port(1, PathId::External2)), Some(-2));
        assert_eq!(wiring.port_offset(port(2, PathId::External1)), None);
        assert_eq!(wiring.port_offset(port(0, PathId::Loopback)), None);
    }

    #[test]
    fn odd_k_shares_the_last_bundle_between_directions() {
        let wiring = Wiring::new(16, 3, true).unwrap();
        let port = |bundle, path| FabricPort { bundle, path };
        assert_eq!(wiring.port_offset(port(2, PathId::External1)), Some(3));
        assert_eq!(wiring.port_offset(port(2, PathId::External2)), Some(-3));
        // All 2K offsets are covered exactly once.
        let wiring_ref = &wiring;
        let mut offsets: Vec<isize> = (0..3)
            .flat_map(|b| {
                [PathId::External1, PathId::External2]
                    .into_iter()
                    .filter_map(move |p| wiring_ref.port_offset(FabricPort { bundle: b, path: p }))
            })
            .collect();
        offsets.sort();
        assert_eq!(offsets, vec![-3, -2, -1, 1, 2, 3]);
    }

    #[test]
    fn even_k_bundles_are_direction_pure() {
        let wiring = Wiring::new(20, 4, true).unwrap();
        for bundle in 0..4usize {
            let signs: Vec<bool> = [PathId::External1, PathId::External2]
                .into_iter()
                .map(|p| wiring.port_offset(FabricPort { bundle, path: p }).unwrap() > 0)
                .collect();
            assert_eq!(signs[0], signs[1], "bundle {bundle} mixes directions");
        }
    }

    #[test]
    fn port_for_offset_inverts_port_offset() {
        // Every offset ±1..=±K is spanned by exactly one port, and no port
        // spans anything else.
        for k in [2usize, 3, 4, 5] {
            let wiring = Wiring::new(32, k, true).unwrap();
            let mut offsets: Vec<isize> = (0..k)
                .flat_map(|bundle| {
                    [PathId::External1, PathId::External2]
                        .map(|path| wiring.port_offset(FabricPort { bundle, path }).unwrap())
                })
                .collect();
            offsets.sort_unstable();
            let expected: Vec<isize> = (-(k as isize)..=k as isize).filter(|&d| d != 0).collect();
            assert_eq!(offsets, expected, "K={k}");
        }
    }

    #[test]
    fn closed_ring_neighbours_wrap_around() {
        let wiring = Wiring::new(10, 2, true).unwrap();
        let fwd2 = FabricPort {
            bundle: 0,
            path: PathId::External2,
        };
        let bwd2 = FabricPort {
            bundle: 1,
            path: PathId::External2,
        };
        assert_eq!(wiring.neighbour(NodeId(4), fwd2), Some(NodeId(6)));
        assert_eq!(wiring.neighbour(NodeId(4), bwd2), Some(NodeId(2)));
        assert_eq!(wiring.neighbour(NodeId(9), fwd2), Some(NodeId(1)));
        assert_eq!(wiring.neighbour(NodeId(0), bwd2), Some(NodeId(8)));
    }

    #[test]
    fn line_wiring_drops_ports_at_the_ends() {
        let wiring = Wiring::new(10, 2, false).unwrap();
        let fwd1 = FabricPort {
            bundle: 0,
            path: PathId::External1,
        };
        let bwd2 = FabricPort {
            bundle: 1,
            path: PathId::External2,
        };
        assert_eq!(wiring.neighbour(NodeId(9), fwd1), None);
        assert_eq!(wiring.neighbour(NodeId(1), bwd2), None);
        assert_eq!(wiring.ports(NodeId(0)).len(), 2);
        assert_eq!(wiring.ports(NodeId(5)).len(), 4);
    }

    #[test]
    fn port_towards_inverts_neighbour() {
        let wiring = Wiring::new(16, 3, true).unwrap();
        for from in 0..16usize {
            for (port, peer) in wiring.ports(NodeId(from)) {
                let back = wiring.port_towards(NodeId(from), peer).expect("reachable");
                assert_eq!(wiring.neighbour(NodeId(from), back), Some(peer));
                assert_eq!(
                    wiring.port_offset(back).unwrap().abs(),
                    wiring.port_offset(port).unwrap().abs()
                );
            }
        }
    }

    #[test]
    fn port_towards_rejects_far_nodes_and_self() {
        let wiring = Wiring::new(16, 2, true).unwrap();
        assert!(wiring.port_towards(NodeId(0), NodeId(5)).is_none());
        assert!(wiring.port_towards(NodeId(3), NodeId(3)).is_none());
    }

    #[test]
    fn every_port_reaches_a_distinct_node_when_large_enough() {
        let wiring = Wiring::new(9, 4, true).unwrap();
        let peers: Vec<NodeId> = wiring
            .ports(NodeId(0))
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        let mut dedup = peers.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), peers.len());
        assert_eq!(peers.len(), 8);
    }
}
