//! Correlated fault storms: blast-radius bursts keyed to ToR / aggregation
//! domains.
//!
//! The per-node renewal generator ([`crate::generator`]) produces
//! *independent* faults — the regime the paper's steady-state numbers are
//! calibrated against. Real incidents are different: a PSU trips a rack, an
//! aggregation switch reboots and takes every ToR under it dark at once. This
//! module generates such **correlated** storms deterministically: a seeded
//! Poisson-style arrival process of bursts over a modeled window, each burst
//! picking one aggregation domain, blasting a contiguous run of ToRs inside
//! it, and knocking out a fraction of the nodes under each blasted ToR with
//! slightly staggered onsets and exponential outage durations.
//!
//! The output is the same [`NodeEvent`] edge-stream contract as
//! [`crate::sim_events`] — per-node edges strictly alternate fault/repair
//! (overlapping outages of one node are merged through a [`FaultTrace`]), the
//! stream is sorted by `(time, node, kind)`, and everything is a pure
//! function of `(config, seed)`. Burst metadata rides alongside so consumers
//! (the `ext_fault_storms` experiment, recovery-time measurement) know when
//! each storm hit and how wide its blast radius was.
//!
//! The ToR / aggregation-domain geometry is the same arithmetic layout as
//! `topology::FatTree` (node `n` sits under ToR `n / nodes_per_tor`, ToR `t`
//! in domain `t / tors_per_domain`), kept arithmetic here so this crate does
//! not grow a topology dependency.

use crate::event::FaultEvent;
use crate::sim_events::{trace_events, NodeEvent};
use crate::trace::FaultTrace;
use hbd_types::{HbdError, NodeId, Result, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a correlated fault-storm schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StormConfig {
    /// Cluster size (nodes).
    pub nodes: usize,
    /// Nodes under each ToR switch.
    pub nodes_per_tor: usize,
    /// ToRs under each aggregation domain.
    pub tors_per_domain: usize,
    /// The window over which storm bursts arrive.
    pub duration: Seconds,
    /// Mean inter-burst time of the Poisson-style arrival process.
    pub mean_interarrival: Seconds,
    /// ToRs blasted per burst (a contiguous run inside one aggregation
    /// domain; clamped to the domain width).
    pub blast_tors: usize,
    /// Fraction of the nodes under each blasted ToR that fault, in `(0, 1]`.
    pub hit_fraction: f64,
    /// Mean outage duration of each hit node (exponential).
    pub mean_outage: Seconds,
    /// Onset stagger: each hit node faults at the burst instant plus a
    /// uniform delay in `[0, stagger]` (power does not fail a whole rack in
    /// the same microsecond).
    pub stagger: Seconds,
}

impl StormConfig {
    fn validate(&self) -> Result<()> {
        if self.nodes == 0 || self.nodes_per_tor == 0 || self.tors_per_domain == 0 {
            return Err(HbdError::invalid_config(
                "storm geometry needs nodes, nodes_per_tor and tors_per_domain >= 1",
            ));
        }
        if !self.nodes.is_multiple_of(self.nodes_per_tor) {
            return Err(HbdError::invalid_config(
                "storm geometry: nodes must be a multiple of nodes_per_tor",
            ));
        }
        if self.duration.value() <= 0.0 || self.mean_interarrival.value() <= 0.0 {
            return Err(HbdError::invalid_config(
                "storm duration and mean interarrival must be positive",
            ));
        }
        if self.blast_tors == 0 {
            return Err(HbdError::invalid_config(
                "a storm burst must blast at least one ToR",
            ));
        }
        if !(self.hit_fraction > 0.0 && self.hit_fraction <= 1.0) {
            return Err(HbdError::invalid_config(
                "storm hit fraction must lie in (0, 1]",
            ));
        }
        if self.mean_outage.value() <= 0.0 || self.stagger.value() < 0.0 {
            return Err(HbdError::invalid_config(
                "storm outage must be positive and stagger non-negative",
            ));
        }
        Ok(())
    }

    /// Number of ToRs of the geometry.
    pub fn tors(&self) -> usize {
        self.nodes / self.nodes_per_tor
    }

    /// Number of aggregation domains (the last may be partial).
    pub fn domains(&self) -> usize {
        self.tors().div_ceil(self.tors_per_domain)
    }
}

/// One storm burst: when it struck and what it took down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StormBurst {
    /// The burst instant (onsets stagger from here).
    pub at: Seconds,
    /// The aggregation domain it struck.
    pub domain: usize,
    /// The blasted ToRs (contiguous run inside `domain`, ascending).
    pub tors: Vec<usize>,
    /// The nodes knocked out, ascending.
    pub nodes: Vec<NodeId>,
}

/// A full correlated-storm schedule: burst metadata plus the merged
/// alternating fault/repair edge stream ready for replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StormSchedule {
    /// The bursts, in arrival order.
    pub bursts: Vec<StormBurst>,
    /// The edge stream (per-node strictly alternating, sorted by
    /// `(time, node, kind)`), merged across overlapping bursts.
    pub events: Vec<NodeEvent>,
}

impl StormSchedule {
    /// Total distinct nodes hit by any burst.
    pub fn distinct_nodes_hit(&self) -> usize {
        let mut hit: Vec<NodeId> = self.bursts.iter().flat_map(|b| b.nodes.clone()).collect();
        hit.sort();
        hit.dedup();
        hit.len()
    }
}

/// Draws an exponential variate with the given mean (same inverse-CDF idiom
/// as the renewal generator, guarded away from `ln(0)`).
fn exponential(rng: &mut StdRng, mean: Seconds) -> f64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -mean.value() * u.ln()
}

/// Generates a correlated storm schedule. Deterministic in
/// `(config, seed)`; the RNG consumption order is fixed (burst arrival, then
/// domain, then ToR offset, then per-node onset/outage draws in ascending
/// node order), so the schedule is bit-stable.
pub fn generate_storms(config: &StormConfig, seed: u64) -> Result<StormSchedule> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let tors = config.tors();
    let mut bursts = Vec::new();
    let mut fault_events: Vec<FaultEvent> = Vec::new();
    let mut horizon = config.duration.value();

    let mut at = exponential(&mut rng, config.mean_interarrival);
    while at < config.duration.value() {
        let domain = rng.gen_range(0..config.domains());
        let domain_first = domain * config.tors_per_domain;
        let domain_width = config.tors_per_domain.min(tors - domain_first);
        let blast = config.blast_tors.min(domain_width);
        let offset = rng.gen_range(0..=domain_width - blast);
        let first_tor = domain_first + offset;
        let blasted: Vec<usize> = (first_tor..first_tor + blast).collect();

        let mut hit_nodes = Vec::new();
        for &tor in &blasted {
            let base = tor * config.nodes_per_tor;
            // Ceil so hit_fraction > 0 always takes down at least one node
            // per blasted ToR.
            let hits = ((config.nodes_per_tor as f64 * config.hit_fraction).ceil() as usize)
                .clamp(1, config.nodes_per_tor);
            // A seeded partial Fisher-Yates over the ToR's nodes picks which
            // ones the burst reaches.
            let mut under: Vec<usize> = (base..base + config.nodes_per_tor).collect();
            for i in 0..hits {
                let j = rng.gen_range(i..under.len());
                under.swap(i, j);
            }
            let mut chosen: Vec<usize> = under[..hits].to_vec();
            chosen.sort_unstable();
            for node in chosen {
                let onset = at + config.stagger.value() * rng.gen::<f64>();
                let outage = exponential(&mut rng, config.mean_outage);
                horizon = horizon.max(onset + outage);
                fault_events.push(FaultEvent::new(
                    NodeId(node),
                    Seconds(onset),
                    Seconds(onset + outage),
                ));
                hit_nodes.push(NodeId(node));
            }
        }
        hit_nodes.sort();
        hit_nodes.dedup();
        bursts.push(StormBurst {
            at: Seconds(at),
            domain,
            tors: blasted,
            nodes: hit_nodes,
        });
        at += exponential(&mut rng, config.mean_interarrival);
    }

    // Route the intervals through a FaultTrace so overlapping outages of one
    // node (two bursts hitting the same rack) merge into strictly
    // alternating edges — the contract every replayer in this workspace
    // assumes. The trace horizon covers the longest outage tail.
    let events = if fault_events.is_empty() {
        Vec::new()
    } else {
        let trace = FaultTrace::new(config.nodes, Seconds(horizon.max(1e-9)), fault_events)?;
        trace_events(&trace)
    };
    Ok(StormSchedule { bursts, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_events::NodeEventKind;

    fn config() -> StormConfig {
        StormConfig {
            nodes: 256,
            nodes_per_tor: 16,
            tors_per_domain: 8,
            duration: Seconds(1.0),
            mean_interarrival: Seconds(0.1),
            blast_tors: 3,
            hit_fraction: 0.75,
            mean_outage: Seconds(0.3),
            stagger: Seconds(0.005),
        }
    }

    #[test]
    fn storms_are_deterministic_in_the_seed() {
        let a = generate_storms(&config(), 7).unwrap();
        let b = generate_storms(&config(), 7).unwrap();
        let c = generate_storms(&config(), 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.bursts.is_empty(), "the window should see several bursts");
    }

    #[test]
    fn bursts_respect_the_blast_radius_geometry() {
        let cfg = config();
        let schedule = generate_storms(&cfg, 13).unwrap();
        for burst in &schedule.bursts {
            assert!(burst.tors.len() <= cfg.blast_tors);
            // Contiguous run, all inside the burst's domain.
            for pair in burst.tors.windows(2) {
                assert_eq!(pair[1], pair[0] + 1);
            }
            for &tor in &burst.tors {
                assert_eq!(tor / cfg.tors_per_domain, burst.domain);
            }
            // Every hit node sits under a blasted ToR, and each blasted ToR
            // loses the configured fraction (ceil) of its nodes.
            for node in &burst.nodes {
                assert!(burst.tors.contains(&(node.index() / cfg.nodes_per_tor)));
            }
            let expected_per_tor = ((cfg.nodes_per_tor as f64 * cfg.hit_fraction).ceil() as usize)
                .clamp(1, cfg.nodes_per_tor);
            for &tor in &burst.tors {
                let hit = burst
                    .nodes
                    .iter()
                    .filter(|n| n.index() / cfg.nodes_per_tor == tor)
                    .count();
                assert_eq!(hit, expected_per_tor, "ToR {tor}");
            }
        }
    }

    #[test]
    fn per_node_edges_strictly_alternate_even_across_overlapping_bursts() {
        // A violent config: bursts every 20 ms with 300 ms outages, so the
        // same racks are re-hit while still down.
        let cfg = StormConfig {
            mean_interarrival: Seconds(0.02),
            ..config()
        };
        let schedule = generate_storms(&cfg, 21).unwrap();
        assert!(schedule.bursts.len() > 10);
        for node in 0..cfg.nodes {
            let kinds: Vec<NodeEventKind> = schedule
                .events
                .iter()
                .filter(|e| e.node == NodeId(node))
                .map(|e| e.kind)
                .collect();
            for (i, kind) in kinds.iter().enumerate() {
                let expected = if i % 2 == 0 {
                    NodeEventKind::Fault
                } else {
                    NodeEventKind::Repair
                };
                assert_eq!(*kind, expected, "node {node} edge {i}");
            }
        }
        // Sorted stream.
        assert!(schedule
            .events
            .windows(2)
            .all(|w| w[0].at.value() <= w[1].at.value()));
    }

    #[test]
    fn a_full_domain_blast_takes_every_tor_of_one_domain() {
        let cfg = StormConfig {
            blast_tors: usize::MAX,
            hit_fraction: 1.0,
            ..config()
        };
        let schedule = generate_storms(&cfg, 3).unwrap();
        let burst = &schedule.bursts[0];
        assert_eq!(burst.tors.len(), cfg.tors_per_domain);
        assert_eq!(
            burst.nodes.len(),
            cfg.tors_per_domain * cfg.nodes_per_tor,
            "hit_fraction 1.0 downs the whole aggregation domain"
        );
    }

    #[test]
    fn zero_stagger_onsets_coincide_with_the_burst_instant() {
        let cfg = StormConfig {
            stagger: Seconds(0.0),
            ..config()
        };
        let schedule = generate_storms(&cfg, 5).unwrap();
        let burst_times: Vec<f64> = schedule.bursts.iter().map(|b| b.at.value()).collect();
        for event in schedule
            .events
            .iter()
            .filter(|e| e.kind == NodeEventKind::Fault)
        {
            assert!(
                burst_times
                    .iter()
                    .any(|&t| (t - event.at.value()).abs() < 1e-12),
                "every fault onset lies exactly on some burst instant"
            );
        }
    }
}
