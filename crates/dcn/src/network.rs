//! The DCN link plant and ECMP routing.
//!
//! The network follows the paper's evaluation setup (§6.1, §6.4): a two-tier
//! Fat-Tree in which every node's 400 Gbps NIC hangs off a ToR switch and every
//! ToR connects to the aggregation switches of its domain. Congestion of
//! interest lives on the ToR uplinks — exactly the links the orchestration
//! algorithm tries to keep idle by aligning DP pairs under one ToR — so the
//! model keeps the link plant at that granularity:
//!
//! * one access link pair (up/down) per node, and
//! * one uplink pair (up/down) per (ToR, aggregation switch).
//!
//! Cross-domain paths additionally traverse a per-(domain, aggregation switch)
//! core link pair, so the rare placements that spill a DP pair across
//! aggregation domains are also priced.

use crate::flow::{Flow, Route};
use hbd_types::{GBps, Gbps, HbdError, LinkId, NodeId, Result, ToRId};
use topology::{FatTree, NetworkDistance};

/// What a directed link connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Node NIC → ToR.
    NodeUp(NodeId),
    /// ToR → node NIC.
    NodeDown(NodeId),
    /// ToR → aggregation switch `plane` of its domain.
    TorUp(ToRId, usize),
    /// Aggregation switch `plane` → ToR.
    TorDown(ToRId, usize),
    /// Aggregation switch `plane` of `domain` → core.
    AggUp(usize, usize),
    /// Core → aggregation switch `plane` of `domain`.
    AggDown(usize, usize),
}

/// One directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcnLink {
    /// Dense link identifier (index into the network's link table).
    pub id: LinkId,
    /// What the link connects.
    pub kind: LinkKind,
    /// Usable payload capacity.
    pub capacity: GBps,
}

/// Sizing of the link plant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Per-node DCN NIC bandwidth (the paper uses one 400 Gbps ConnectX-7 per
    /// GPU; at node granularity the access link aggregates them).
    pub node_bandwidth: GBps,
    /// Number of aggregation switches (ECMP planes) per aggregation domain.
    pub aggregation_planes: usize,
    /// Capacity of each ToR → aggregation uplink.
    pub tor_uplink: GBps,
    /// Capacity of each aggregation → core uplink.
    pub core_uplink: GBps,
}

impl NetworkParams {
    /// A non-blocking fabric for `nodes_per_tor` nodes of `gpus_per_node` GPUs:
    /// the ToR uplinks together match the access capacity.
    pub fn non_blocking(nodes_per_tor: usize, gpus_per_node: usize) -> Self {
        let node_bandwidth = Gbps(400.0 * gpus_per_node as f64).to_gbytes_per_sec();
        let planes = 4;
        let access_total = GBps(node_bandwidth.value() * nodes_per_tor as f64);
        NetworkParams {
            node_bandwidth,
            aggregation_planes: planes,
            tor_uplink: GBps(access_total.value() / planes as f64),
            core_uplink: GBps(access_total.value() / planes as f64),
        }
    }

    /// Derives an oversubscribed variant: ToR uplink capacity divided by
    /// `ratio` (e.g. `2.0` for the common 2:1 oversubscription).
    pub fn oversubscribed(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0, "oversubscription ratio must be >= 1");
        self.tor_uplink = GBps(self.tor_uplink.value() / ratio);
        self.core_uplink = GBps(self.core_uplink.value() / ratio);
        self
    }

    fn validate(&self) -> Result<()> {
        if self.aggregation_planes == 0 {
            return Err(HbdError::invalid_config(
                "need at least one aggregation plane",
            ));
        }
        if self.node_bandwidth.value() <= 0.0
            || self.tor_uplink.value() <= 0.0
            || self.core_uplink.value() <= 0.0
        {
            return Err(HbdError::invalid_config("link capacities must be positive"));
        }
        Ok(())
    }
}

/// The whole DCN: Fat-Tree structure plus sized, indexable links.
#[derive(Debug, Clone, PartialEq)]
pub struct DcnNetwork {
    fat_tree: FatTree,
    params: NetworkParams,
    links: Vec<DcnLink>,
    tor_link_base: usize,
    agg_link_base: usize,
    tors_per_domain: usize,
}

impl DcnNetwork {
    /// Builds the link plant for the given Fat-Tree.
    pub fn new(fat_tree: FatTree, params: NetworkParams) -> Result<Self> {
        params.validate()?;
        let nodes = fat_tree.nodes();
        let tors = fat_tree.tors();
        let domains = fat_tree.aggregation_domains();
        let planes = params.aggregation_planes;
        let tors_per_domain =
            (fat_tree.nodes_per_aggregation_domain() / fat_tree.nodes_per_tor()).max(1);

        let mut links = Vec::with_capacity(2 * nodes + 2 * tors * planes + 2 * domains * planes);
        for n in 0..nodes {
            links.push(DcnLink {
                id: LinkId(links.len()),
                kind: LinkKind::NodeUp(NodeId(n)),
                capacity: params.node_bandwidth,
            });
            links.push(DcnLink {
                id: LinkId(links.len()),
                kind: LinkKind::NodeDown(NodeId(n)),
                capacity: params.node_bandwidth,
            });
        }
        let tor_link_base = links.len();
        for t in 0..tors {
            for plane in 0..planes {
                links.push(DcnLink {
                    id: LinkId(links.len()),
                    kind: LinkKind::TorUp(ToRId(t), plane),
                    capacity: params.tor_uplink,
                });
                links.push(DcnLink {
                    id: LinkId(links.len()),
                    kind: LinkKind::TorDown(ToRId(t), plane),
                    capacity: params.tor_uplink,
                });
            }
        }
        let agg_link_base = links.len();
        // One aggregation switch plane terminates the matching uplink of every
        // ToR in its domain, so its core-facing capacity scales with the ToR
        // count — this keeps the core tier non-blocking *relative to* the ToR
        // uplink tier, and `oversubscribed` scales both tiers together.
        let core_capacity = GBps(params.core_uplink.value() * tors_per_domain as f64);
        for d in 0..domains {
            for plane in 0..planes {
                links.push(DcnLink {
                    id: LinkId(links.len()),
                    kind: LinkKind::AggUp(d, plane),
                    capacity: core_capacity,
                });
                links.push(DcnLink {
                    id: LinkId(links.len()),
                    kind: LinkKind::AggDown(d, plane),
                    capacity: core_capacity,
                });
            }
        }
        Ok(DcnNetwork {
            fat_tree,
            params,
            links,
            tor_link_base,
            agg_link_base,
            tors_per_domain,
        })
    }

    /// The underlying Fat-Tree structure.
    pub fn fat_tree(&self) -> &FatTree {
        &self.fat_tree
    }

    /// The sizing parameters.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// All links.
    pub fn links(&self) -> &[DcnLink] {
        &self.links
    }

    /// One link by id.
    pub fn link(&self, id: LinkId) -> Result<&DcnLink> {
        self.links
            .get(id.index())
            .ok_or_else(|| HbdError::unknown_entity(format!("{id}")))
    }

    /// Link capacities as a dense vector (index = link id), for the max-min
    /// solver.
    pub fn capacities(&self) -> Vec<GBps> {
        self.links.iter().map(|l| l.capacity).collect()
    }

    fn node_up(&self, node: NodeId) -> LinkId {
        LinkId(2 * node.index())
    }

    fn node_down(&self, node: NodeId) -> LinkId {
        LinkId(2 * node.index() + 1)
    }

    fn tor_up(&self, tor: ToRId, plane: usize) -> LinkId {
        LinkId(self.tor_link_base + 2 * (tor.index() * self.params.aggregation_planes + plane))
    }

    fn tor_down(&self, tor: ToRId, plane: usize) -> LinkId {
        LinkId(self.tor_link_base + 2 * (tor.index() * self.params.aggregation_planes + plane) + 1)
    }

    fn agg_up(&self, domain: usize, plane: usize) -> LinkId {
        LinkId(self.agg_link_base + 2 * (domain * self.params.aggregation_planes + plane))
    }

    fn agg_down(&self, domain: usize, plane: usize) -> LinkId {
        LinkId(self.agg_link_base + 2 * (domain * self.params.aggregation_planes + plane) + 1)
    }

    /// The ECMP plane a flow hashes onto (deterministic 5-tuple-style hash on
    /// the endpoint pair).
    ///
    /// A strong bit-mixing finalizer (SplitMix64/Murmur3 style) is used rather
    /// than a linear combination: DP rings produce flows whose endpoints differ
    /// by a constant stride, and a weak hash would polarise all of them onto
    /// one plane — a real ECMP pathology, but not the one under study here.
    fn ecmp_plane(&self, flow: &Flow) -> usize {
        let mut h = ((flow.src.index() as u64) << 32) ^ (flow.dst.index() as u64);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        (h % self.params.aggregation_planes as u64) as usize
    }

    /// Routes one flow, returning the directed links it occupies.
    pub fn route(&self, flow: &Flow) -> Result<Route> {
        let mut links = Vec::new();
        let distance = self.route_with(flow, |id| links.push(id))?;
        Ok(Route { links, distance })
    }

    /// Routes one flow, appending the dense link *indices* of its path (in
    /// path order) to `out` instead of allocating a [`Route`]. This is the
    /// allocation-free primitive the replay engine uses to build its flattened
    /// (CSR) per-epoch route tables; the indices appended are exactly those of
    /// [`DcnNetwork::route`]'s links.
    pub fn route_links_into(&self, flow: &Flow, out: &mut Vec<usize>) -> Result<NetworkDistance> {
        self.route_with(flow, |id| out.push(id.index()))
    }

    /// Shared routing core: computes the path and emits each link through
    /// `emit`, in path order.
    fn route_with(&self, flow: &Flow, mut emit: impl FnMut(LinkId)) -> Result<NetworkDistance> {
        let distance = self.fat_tree.distance(flow.src, flow.dst)?;
        match distance {
            NetworkDistance::SameNode => {}
            NetworkDistance::SameToR => {
                emit(self.node_up(flow.src));
                emit(self.node_down(flow.dst));
            }
            NetworkDistance::SameAggregationDomain => {
                let plane = self.ecmp_plane(flow);
                let src_tor = self.fat_tree.tor_of(flow.src)?;
                let dst_tor = self.fat_tree.tor_of(flow.dst)?;
                emit(self.node_up(flow.src));
                emit(self.tor_up(src_tor, plane));
                emit(self.tor_down(dst_tor, plane));
                emit(self.node_down(flow.dst));
            }
            NetworkDistance::CrossCore => {
                let plane = self.ecmp_plane(flow);
                let src_tor = self.fat_tree.tor_of(flow.src)?;
                let dst_tor = self.fat_tree.tor_of(flow.dst)?;
                let src_domain = self.fat_tree.aggregation_domain_of(flow.src)?;
                let dst_domain = self.fat_tree.aggregation_domain_of(flow.dst)?;
                emit(self.node_up(flow.src));
                emit(self.tor_up(src_tor, plane));
                emit(self.agg_up(src_domain, plane));
                emit(self.agg_down(dst_domain, plane));
                emit(self.tor_down(dst_tor, plane));
                emit(self.node_down(flow.dst));
            }
        }
        Ok(distance)
    }

    /// Number of ToRs per aggregation domain (used by tests and reports).
    pub fn tors_per_domain(&self) -> usize {
        self.tors_per_domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::Bytes;

    fn network() -> DcnNetwork {
        // 64 nodes, 4 per ToR, 4 ToRs per aggregation domain => 16 ToRs, 4 domains.
        let fat_tree = FatTree::new(64, 4, 4).unwrap();
        DcnNetwork::new(fat_tree, NetworkParams::non_blocking(4, 4)).unwrap()
    }

    #[test]
    fn link_table_covers_every_tier() {
        let net = network();
        let planes = net.params().aggregation_planes;
        assert_eq!(net.links().len(), 2 * 64 + 2 * 16 * planes + 2 * 4 * planes);
        // Ids are dense and self-consistent.
        for (i, link) in net.links().iter().enumerate() {
            assert_eq!(link.id, LinkId(i));
            assert!(link.capacity.value() > 0.0);
        }
    }

    #[test]
    fn same_tor_route_uses_only_access_links() {
        let net = network();
        let flow = Flow::new(NodeId(0), NodeId(3), Bytes::from_mb(10.0));
        let route = net.route(&flow).unwrap();
        assert_eq!(route.distance, NetworkDistance::SameToR);
        assert_eq!(route.hops(), 2);
        assert!(!route.crosses_tor());
        assert!(
            matches!(net.link(route.links[0]).unwrap().kind, LinkKind::NodeUp(n) if n == NodeId(0))
        );
        assert!(
            matches!(net.link(route.links[1]).unwrap().kind, LinkKind::NodeDown(n) if n == NodeId(3))
        );
    }

    #[test]
    fn cross_tor_route_traverses_the_uplinks_of_one_plane() {
        let net = network();
        let flow = Flow::new(NodeId(0), NodeId(5), Bytes::from_mb(10.0));
        let route = net.route(&flow).unwrap();
        assert_eq!(route.distance, NetworkDistance::SameAggregationDomain);
        assert_eq!(route.hops(), 4);
        assert!(route.crosses_tor());
        let planes: Vec<usize> = route
            .links
            .iter()
            .filter_map(|&id| match net.link(id).unwrap().kind {
                LinkKind::TorUp(_, p) | LinkKind::TorDown(_, p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(planes.len(), 2);
        assert_eq!(planes[0], planes[1], "up and down must use the same plane");
    }

    #[test]
    fn cross_domain_route_traverses_the_core() {
        let net = network();
        // Node 0 is in domain 0, node 63 in domain 3.
        let flow = Flow::new(NodeId(0), NodeId(63), Bytes::from_mb(1.0));
        let route = net.route(&flow).unwrap();
        assert_eq!(route.distance, NetworkDistance::CrossCore);
        assert_eq!(route.hops(), 6);
        assert!(route
            .links
            .iter()
            .any(|&id| matches!(net.link(id).unwrap().kind, LinkKind::AggUp(0, _))));
        assert!(route
            .links
            .iter()
            .any(|&id| matches!(net.link(id).unwrap().kind, LinkKind::AggDown(3, _))));
    }

    #[test]
    fn local_flow_has_an_empty_route() {
        let net = network();
        let route = net
            .route(&Flow::new(NodeId(9), NodeId(9), Bytes(1.0)))
            .unwrap();
        assert_eq!(route.hops(), 0);
        assert_eq!(route.distance, NetworkDistance::SameNode);
    }

    #[test]
    fn ecmp_spreads_flows_over_planes() {
        let net = network();
        let mut seen = std::collections::BTreeSet::new();
        for dst in 4..32usize {
            seen.insert(net.ecmp_plane(&Flow::new(NodeId(0), NodeId(dst), Bytes(1.0))));
        }
        assert!(seen.len() > 1, "ECMP must use more than one plane");
        assert!(seen.iter().all(|&p| p < net.params().aggregation_planes));
    }

    #[test]
    fn oversubscription_shrinks_uplinks_only() {
        let base = NetworkParams::non_blocking(4, 4);
        let over = base.oversubscribed(2.0);
        assert_eq!(over.node_bandwidth, base.node_bandwidth);
        assert!((over.tor_uplink.value() - base.tor_uplink.value() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let fat_tree = FatTree::new(16, 4, 2).unwrap();
        let mut params = NetworkParams::non_blocking(4, 4);
        params.aggregation_planes = 0;
        assert!(DcnNetwork::new(fat_tree.clone(), params).is_err());
        let mut params = NetworkParams::non_blocking(4, 4);
        params.tor_uplink = GBps(0.0);
        assert!(DcnNetwork::new(fat_tree, params).is_err());
    }

    #[test]
    fn route_links_into_matches_route_exactly() {
        let net = network();
        let mut flat = Vec::new();
        // Same node, same ToR, same domain, cross-core — every distance class.
        for (src, dst) in [(9, 9), (0, 3), (0, 5), (0, 63)] {
            let flow = Flow::new(NodeId(src), NodeId(dst), Bytes(1.0));
            let route = net.route(&flow).unwrap();
            let before = flat.len();
            let distance = net.route_links_into(&flow, &mut flat).unwrap();
            assert_eq!(distance, route.distance);
            let appended: Vec<usize> = flat[before..].to_vec();
            let expected: Vec<usize> = route.links.iter().map(|l| l.index()).collect();
            assert_eq!(appended, expected);
        }
        // Errors leave the output buffer untouched.
        let len = flat.len();
        assert!(net
            .route_links_into(&Flow::new(NodeId(0), NodeId(99), Bytes(1.0)), &mut flat)
            .is_err());
        assert_eq!(flat.len(), len);
    }

    #[test]
    fn route_rejects_unknown_nodes() {
        let net = network();
        assert!(net
            .route(&Flow::new(NodeId(0), NodeId(99), Bytes(1.0)))
            .is_err());
    }
}
