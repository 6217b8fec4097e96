//! The flow-level simulation itself: routes, fair rates, completion times and
//! the congestion report.

use crate::flow::{Flow, Route};
use crate::maxmin::max_min_rates;
use crate::network::DcnNetwork;
use hbd_types::{Bytes, GBps, LinkId, Result, Seconds};

/// A solved flow-level scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSimulation {
    flows: Vec<Flow>,
    routes: Vec<Route>,
    rates: Vec<GBps>,
    completion: Vec<Seconds>,
}

/// Aggregate congestion metrics of a solved scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionReport {
    /// Total flows simulated (including local ones).
    pub flows: usize,
    /// Flows whose endpoints share a node (never enter the DCN).
    pub local_flows: usize,
    /// Flows whose route leaves the source ToR.
    pub cross_tor_flows: usize,
    /// Fraction of all transferred bytes that cross a ToR.
    pub cross_tor_byte_fraction: f64,
    /// Completion time of the slowest flow — the exposed DP communication time
    /// of the iteration.
    pub max_completion: Seconds,
    /// Mean completion time over non-local flows.
    pub mean_completion: Seconds,
    /// Slowest completion time if every flow ran alone at full access-link
    /// speed (the uncongested lower bound).
    pub ideal_completion: Seconds,
    /// `max_completion / ideal_completion` — 1.0 means congestion-free.
    pub slowdown: f64,
    /// Highest link utilisation (allocated rate / capacity) over all links.
    pub max_link_utilization: f64,
    /// Mean utilisation over links that carry at least one flow.
    pub mean_loaded_link_utilization: f64,
}

impl FlowSimulation {
    /// Routes every flow, computes the max-min fair allocation and the
    /// per-flow completion times.
    pub fn run(network: &DcnNetwork, flows: Vec<Flow>) -> Result<Self> {
        let routes: Vec<Route> = flows
            .iter()
            .map(|f| network.route(f))
            .collect::<Result<Vec<_>>>()?;
        let capacities = network.capacities();
        // Flatten the routes into CSR storage and hand the solver borrowed
        // slices — one arena instead of one Vec per flow.
        let mut flat: Vec<usize> = Vec::new();
        let mut offsets: Vec<usize> = Vec::with_capacity(routes.len() + 1);
        offsets.push(0);
        for route in &routes {
            flat.extend(route.links.iter().map(|l| l.index()));
            offsets.push(flat.len());
        }
        let flow_links: Vec<&[usize]> = offsets.windows(2).map(|w| &flat[w[0]..w[1]]).collect();
        let rates = max_min_rates(&capacities, &flow_links);
        let completion = flows
            .iter()
            .zip(&rates)
            .map(|(flow, rate)| transfer_time(flow.bytes, *rate))
            .collect();
        Ok(FlowSimulation {
            flows,
            routes,
            rates,
            completion,
        })
    }

    /// The simulated flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// The route of flow `i`.
    pub fn route(&self, i: usize) -> Option<&Route> {
        self.routes.get(i)
    }

    /// The max-min fair rate of flow `i`.
    pub fn rate(&self, i: usize) -> Option<GBps> {
        self.rates.get(i).copied()
    }

    /// The completion time of flow `i`.
    pub fn completion(&self, i: usize) -> Option<Seconds> {
        self.completion.get(i).copied()
    }

    /// Load (sum of allocated flow rates) on every link.
    fn link_loads(&self, network: &DcnNetwork) -> Vec<GBps> {
        let mut loads = vec![GBps::ZERO; network.links().len()];
        for (route, rate) in self.routes.iter().zip(&self.rates) {
            if !rate.value().is_finite() {
                continue;
            }
            for link in &route.links {
                loads[link.index()] += *rate;
            }
        }
        loads
    }

    /// The most loaded link and its utilisation, if any flow touches the DCN.
    pub fn bottleneck(&self, network: &DcnNetwork) -> Option<(LinkId, f64)> {
        self.link_loads(network)
            .iter()
            .enumerate()
            .map(|(i, load)| {
                (
                    LinkId(i),
                    load.value() / network.links()[i].capacity.value(),
                )
            })
            .filter(|(_, util)| *util > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Summarises the scenario.
    pub fn report(&self, network: &DcnNetwork) -> CongestionReport {
        let node_bw = network.params().node_bandwidth;
        let mut local_flows = 0usize;
        let mut cross_tor_flows = 0usize;
        let mut cross_bytes = 0.0f64;
        let mut total_bytes = 0.0f64;
        let mut ideal = Seconds::ZERO;
        let mut max_completion = Seconds::ZERO;
        let mut sum_completion = Seconds::ZERO;
        let mut dcn_flows = 0usize;
        for ((flow, route), completion) in self.flows.iter().zip(&self.routes).zip(&self.completion)
        {
            total_bytes += flow.bytes.value();
            if route.hops() == 0 {
                local_flows += 1;
                continue;
            }
            dcn_flows += 1;
            if route.crosses_tor() {
                cross_tor_flows += 1;
                cross_bytes += flow.bytes.value();
            }
            ideal = ideal.max(transfer_time(flow.bytes, node_bw));
            max_completion = max_completion.max(*completion);
            sum_completion += *completion;
        }
        let loads = self.link_loads(network);
        let mut max_util = 0.0f64;
        let mut util_sum = 0.0f64;
        let mut loaded = 0usize;
        for (load, link) in loads.iter().zip(network.links()) {
            let util = load.value() / link.capacity.value();
            if util > 0.0 {
                loaded += 1;
                util_sum += util;
            }
            max_util = max_util.max(util);
        }
        CongestionReport {
            flows: self.flows.len(),
            local_flows,
            cross_tor_flows,
            cross_tor_byte_fraction: if total_bytes > 0.0 {
                cross_bytes / total_bytes
            } else {
                0.0
            },
            max_completion,
            mean_completion: if dcn_flows > 0 {
                Seconds(sum_completion.value() / dcn_flows as f64)
            } else {
                Seconds::ZERO
            },
            ideal_completion: ideal,
            slowdown: if ideal.value() > 0.0 {
                max_completion.value() / ideal.value()
            } else {
                1.0
            },
            max_link_utilization: max_util,
            mean_loaded_link_utilization: if loaded > 0 {
                util_sum / loaded as f64
            } else {
                0.0
            },
        }
    }
}

fn transfer_time(bytes: Bytes, rate: GBps) -> Seconds {
    if rate.value().is_infinite() || bytes.value() == 0.0 {
        Seconds::ZERO
    } else {
        rate.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{LinkKind, NetworkParams};
    use hbd_types::NodeId;
    use topology::FatTree;

    fn network() -> DcnNetwork {
        let fat_tree = FatTree::new(32, 4, 4).unwrap();
        DcnNetwork::new(fat_tree, NetworkParams::non_blocking(4, 4)).unwrap()
    }

    #[test]
    fn intra_tor_flows_run_at_full_access_speed() {
        let net = network();
        let bytes = Bytes::from_gib(1.0);
        let flows = vec![
            Flow::new(NodeId(0), NodeId(1), bytes),
            Flow::new(NodeId(2), NodeId(3), bytes),
        ];
        let sim = FlowSimulation::run(&net, flows).unwrap();
        let report = sim.report(&net);
        assert_eq!(report.cross_tor_flows, 0);
        assert!((report.slowdown - 1.0).abs() < 1e-9);
        assert_eq!(report.max_completion, report.ideal_completion);
        assert!(report.max_link_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn incast_on_one_access_link_shares_fairly() {
        let net = network();
        let bytes = Bytes::from_gib(1.0);
        // Three senders into one receiver: the receiver's down-link is the
        // bottleneck, each flow gets one third.
        let flows = vec![
            Flow::new(NodeId(1), NodeId(0), bytes),
            Flow::new(NodeId(2), NodeId(0), bytes),
            Flow::new(NodeId(3), NodeId(0), bytes),
        ];
        let sim = FlowSimulation::run(&net, flows).unwrap();
        let node_bw = net.params().node_bandwidth.value();
        for i in 0..3 {
            assert!((sim.rate(i).unwrap().value() - node_bw / 3.0).abs() < 1e-6);
        }
        let report = sim.report(&net);
        assert!((report.slowdown - 3.0).abs() < 1e-6);
    }

    #[test]
    fn oversubscribed_uplinks_slow_cross_tor_traffic_only() {
        let fat_tree = FatTree::new(32, 4, 4).unwrap();
        let params = NetworkParams::non_blocking(4, 4).oversubscribed(4.0);
        let net = DcnNetwork::new(fat_tree, params).unwrap();
        let bytes = Bytes::from_gib(1.0);
        // Every node of ToR 0 sends to its counterpart in ToR 1: all four flows
        // may hash onto distinct planes, so load the uplinks with four flows
        // from each source node to force contention.
        let mut flows = Vec::new();
        for src in 0..4usize {
            for dst in 4..8usize {
                flows.push(Flow::new(NodeId(src), NodeId(dst), bytes));
            }
        }
        let sim = FlowSimulation::run(&net, flows).unwrap();
        let report = sim.report(&net);
        assert_eq!(report.cross_tor_flows, 16);
        assert!(
            report.slowdown > 1.0,
            "oversubscription must bite: {report:?}"
        );
        assert!(report.max_link_utilization > 0.99);
        // The bottleneck is a ToR uplink, not an access link.
        let (link, _) = sim.bottleneck(&net).unwrap();
        assert!(matches!(
            net.link(link).unwrap().kind,
            LinkKind::TorUp(..) | LinkKind::TorDown(..)
        ));
    }

    #[test]
    fn local_flows_complete_instantly_and_do_not_congest() {
        let net = network();
        let flows = vec![
            Flow::new(NodeId(5), NodeId(5), Bytes::from_gib(4.0)),
            Flow::new(NodeId(0), NodeId(1), Bytes::from_gib(1.0)),
        ];
        let sim = FlowSimulation::run(&net, flows).unwrap();
        assert_eq!(sim.completion(0).unwrap(), Seconds::ZERO);
        let report = sim.report(&net);
        assert_eq!(report.local_flows, 1);
        assert_eq!(report.flows, 2);
    }

    #[test]
    fn empty_scenario_reports_zeroes() {
        let net = network();
        let sim = FlowSimulation::run(&net, Vec::new()).unwrap();
        let report = sim.report(&net);
        assert_eq!(report.flows, 0);
        assert_eq!(report.max_completion, Seconds::ZERO);
        assert!((report.slowdown - 1.0).abs() < 1e-12);
        assert!(sim.bottleneck(&net).is_none());
    }

    #[test]
    fn report_byte_fraction_tracks_cross_tor_volume() {
        let net = network();
        let flows = vec![
            Flow::new(NodeId(0), NodeId(1), Bytes::from_gib(3.0)),
            Flow::new(NodeId(0), NodeId(4), Bytes::from_gib(1.0)),
        ];
        let sim = FlowSimulation::run(&net, flows).unwrap();
        let report = sim.report(&net);
        assert!((report.cross_tor_byte_fraction - 0.25).abs() < 1e-9);
    }
}
