//! The **cluster manager**: the stateful controller that keeps the deployed
//! fabric converged with the failover planner's target plan.
//!
//! §5.2: "At the system level, \[the\] cluster manager coordinates global
//! control across the cluster." Here it
//!
//! 1. tracks the current fault set,
//! 2. recomputes the target [`RingPlan`] whenever a fault or repair is
//!    observed,
//! 3. diffs the target against the currently-deployed plan to obtain the
//!    minimal command set,
//! 4. pushes those commands to the per-node [`FabricManager`]s (which model the
//!    60–80 µs OCSTrx switching latency), and
//! 5. reports the end-to-end recovery latency
//!    (detection + planning + dispatch + the slowest hardware switch — commands
//!    to different nodes execute in parallel).

use crate::fabric::FabricManager;
use crate::failover::FailoverPlanner;
use crate::plan::RingPlan;
use crate::timeline::{ControlEventKind, Timeline};
use hbd_types::{HbdError, Microseconds, NodeId, Result, Seconds};
use topology::{FaultSet, HbdArchitecture, KHopRing};

/// Fixed software latencies of the control loop.
///
/// The hardware switching latency comes from the OCSTrx model; these three
/// cover everything the paper's measurement explicitly excludes ("software
/// level delays such as reconnection at the network protocol layer").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlLatencies {
    /// Time from the fault occurring to the cluster manager learning about it
    /// (health-check / telemetry interval).
    pub detection: Seconds,
    /// Time to recompute the ring plan and diff it.
    pub planning: Seconds,
    /// Time to dispatch commands to the fabric managers (RPC fan-out).
    pub dispatch: Seconds,
}

impl ControlLatencies {
    /// Defaults representative of a production control plane: 1 s detection,
    /// 10 ms planning, 5 ms dispatch.
    pub fn production_defaults() -> Self {
        ControlLatencies {
            detection: Seconds(1.0),
            planning: Seconds(0.010),
            dispatch: Seconds(0.005),
        }
    }

    /// Zero software latency — isolates the hardware switching time.
    pub fn hardware_only() -> Self {
        ControlLatencies {
            detection: Seconds::ZERO,
            planning: Seconds::ZERO,
            dispatch: Seconds::ZERO,
        }
    }

    /// Sum of the software components.
    fn software_total(&self) -> Seconds {
        self.detection + self.planning + self.dispatch
    }
}

impl Default for ControlLatencies {
    fn default() -> Self {
        Self::production_defaults()
    }
}

/// What one fault (or repair) cost to recover from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Simulation time at which the triggering event occurred.
    pub event_at: Seconds,
    /// Number of reconfiguration commands issued.
    pub commands: usize,
    /// Number of distinct nodes that had to reconfigure at least one bundle.
    pub nodes_reconfigured: usize,
    /// The slowest hardware switch among the issued commands (they run in
    /// parallel across nodes and bundles).
    pub hardware_latency: Microseconds,
    /// End-to-end recovery time: software latencies plus the hardware switch.
    pub total_recovery: Seconds,
    /// Healthy segments after recovery.
    pub segments: usize,
    /// Faulty nodes after the event.
    pub faulty_nodes: usize,
}

/// The stateful cluster manager.
#[derive(Debug, Clone)]
pub struct ClusterManager {
    planner: FailoverPlanner,
    /// The fabric manager of every node, indexed by node.
    fabric: Vec<FabricManager>,
    faults: FaultSet,
    deployed: RingPlan,
    latencies: ControlLatencies,
    timeline: Timeline,
    clock: Seconds,
}

impl ClusterManager {
    /// Creates a cluster manager for the given ring and applies the initial
    /// (fault-free) ring plan at time zero.
    pub fn new(ring: KHopRing, latencies: ControlLatencies) -> Result<Self> {
        let nodes = ring.nodes();
        let k = ring.k();
        let planner = FailoverPlanner::new(ring)?;
        let fabric = (0..nodes)
            .map(|n| FabricManager::new(NodeId(n), k))
            .collect::<Result<_>>()?;
        let mut manager = ClusterManager {
            planner,
            fabric,
            faults: FaultSet::new(),
            deployed: RingPlan::empty(),
            latencies,
            timeline: Timeline::new(),
            clock: Seconds::ZERO,
        };
        manager.converge(Seconds::ZERO)?;
        Ok(manager)
    }

    /// The failover planner in use.
    pub fn planner(&self) -> &FailoverPlanner {
        &self.planner
    }

    /// The current fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The control-plane event log.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The fabric manager of one node.
    pub fn fabric(&self, node: NodeId) -> Result<&FabricManager> {
        self.fabric
            .get(node.index())
            .ok_or_else(|| HbdError::unknown_entity(format!("{node}")))
    }

    /// Current simulation time.
    pub fn now(&self) -> Seconds {
        self.clock
    }

    /// Usable GPUs for TP groups of `tp_size` under the current fault set.
    pub fn usable_gpus(&self, tp_size: usize) -> usize {
        self.planner.ring().usable_gpus(&self.faults, tp_size)
    }

    /// Handles a node fault observed at time `at`.
    ///
    /// Event times must be non-decreasing; a stale `at` (earlier than
    /// [`ClusterManager::now`]) is clamped to the current clock and the clamp
    /// is recorded on the timeline as [`ControlEventKind::EventTimeClamped`].
    pub fn inject_fault(&mut self, node: NodeId, at: Seconds) -> Result<RecoveryReport> {
        self.check_node(node)?;
        if !self.faults.add(node) {
            return Err(HbdError::invalid_operation(format!(
                "{node} is already faulty"
            )));
        }
        let at = self.observe_event_time(at);
        self.timeline.push(
            at + self.latencies.detection,
            ControlEventKind::FaultDetected { node },
        );
        self.recover(at)
    }

    /// Handles a node repair observed at time `at` (stale times are clamped
    /// like [`ClusterManager::inject_fault`]).
    pub fn repair_node(&mut self, node: NodeId, at: Seconds) -> Result<RecoveryReport> {
        self.check_node(node)?;
        if !self.faults.remove(node) {
            return Err(HbdError::invalid_operation(format!("{node} is not faulty")));
        }
        let at = self.observe_event_time(at);
        self.timeline.push(
            at + self.latencies.detection,
            ControlEventKind::RepairDetected { node },
        );
        self.recover(at)
    }

    fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() >= self.planner.ring().nodes() {
            return Err(HbdError::unknown_entity(format!("{node}")));
        }
        Ok(())
    }

    /// Clamps an observed event time to the current clock.
    ///
    /// The manager processes observations strictly in arrival order, so an
    /// event stamped earlier than `now()` (telemetry batches routinely deliver
    /// several events with one timestamp, and monitoring pipelines reorder)
    /// must not rewind the clock or emit a backwards timeline. Policy chosen:
    /// **clamp and record** rather than reject — rejecting would make
    /// legitimate same-sweep batches (see the trace-replay integration test)
    /// hard errors, while clamping keeps the timeline monotone and leaves an
    /// auditable [`ControlEventKind::EventTimeClamped`] record.
    fn observe_event_time(&mut self, at: Seconds) -> Seconds {
        if at.value() < self.clock.value() {
            self.timeline.push(
                self.clock,
                ControlEventKind::EventTimeClamped { requested: at },
            );
            self.clock
        } else {
            at
        }
    }

    fn recover(&mut self, event_at: Seconds) -> Result<RecoveryReport> {
        let plan_at = event_at + self.latencies.detection + self.latencies.planning;
        let (commands, nodes_reconfigured, hardware_latency) = self.converge(plan_at)?;
        // A zero-command diff means the fabric was already converged (e.g. an
        // isolated node going faulty changes the plan's node set but no
        // surviving directive): nothing is dispatched and no hardware
        // switches, so recovery ends when the plan is computed — detection +
        // planning only, no dispatch fan-out, no `RingRestored` event.
        let total_recovery = if commands == 0 {
            self.latencies.detection + self.latencies.planning
        } else {
            self.latencies.software_total() + hardware_latency.to_seconds()
        };
        let segments = self.planner.segments(&self.faults).len();
        let report = RecoveryReport {
            event_at,
            commands,
            nodes_reconfigured,
            hardware_latency,
            total_recovery,
            segments,
            faulty_nodes: self.faults.len(),
        };
        self.clock = event_at + total_recovery;
        if commands > 0 {
            self.timeline
                .push(self.clock, ControlEventKind::RingRestored { segments });
        }
        Ok(report)
    }

    /// Computes the target plan, diffs it against the deployed plan, pushes the
    /// commands and returns `(commands, nodes touched, slowest switch)`.
    fn converge(&mut self, at: Seconds) -> Result<(usize, usize, Microseconds)> {
        let target = self.planner.plan(&self.faults)?;
        let commands = self.deployed.diff(&target);
        self.timeline.push(
            at,
            ControlEventKind::PlanComputed {
                commands: commands.len(),
            },
        );
        let mut touched = std::collections::BTreeSet::new();
        let mut slowest = Microseconds::ZERO;
        let dispatch_at = at + self.latencies.dispatch;
        for command in &commands {
            let fm = self
                .fabric
                .get_mut(command.node.index())
                .ok_or_else(|| HbdError::unknown_entity(format!("{}", command.node)))?;
            let latency = fm.apply(command.bundle, command.action)?;
            if latency > Microseconds::ZERO {
                touched.insert(command.node);
                slowest = slowest.max(latency);
            }
            self.timeline.push(
                dispatch_at,
                ControlEventKind::CommandApplied {
                    node: command.node,
                    bundle: command.bundle,
                    action: command.action,
                    latency,
                },
            );
        }
        self.deployed = target;
        Ok((commands.len(), touched.len(), slowest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(nodes: usize, k: usize) -> ClusterManager {
        let ring = KHopRing::new(nodes, 4, k).unwrap();
        ClusterManager::new(ring, ControlLatencies::hardware_only()).unwrap()
    }

    #[test]
    fn initial_convergence_deploys_the_full_cycle() {
        let mgr = manager(24, 2);
        assert_eq!(mgr.deployed.len(), 24);
        assert_eq!(mgr.usable_gpus(16), 96);
        assert!(mgr.timeline().commands_applied() > 0);
    }

    #[test]
    fn single_fault_recovery_touches_only_the_neighbourhood() {
        let mut mgr = manager(64, 2);
        let report = mgr.inject_fault(NodeId(20), Seconds(100.0)).unwrap();
        assert_eq!(report.faulty_nodes, 1);
        assert_eq!(report.segments, 1);
        // Bypass + the two new chain endpoints: a handful of nodes, not the
        // whole cluster.
        assert!(report.nodes_reconfigured <= 4, "{report:?}");
        assert!(report.commands <= 8, "{report:?}");
        // Hardware-only latencies: recovery is microseconds, not seconds.
        assert!(report.hardware_latency.value() >= 60.0);
        assert!(report.total_recovery < Seconds(0.001));
        // Usable capacity drops by at most one node plus one fragmented group.
        assert!(mgr.usable_gpus(32) >= 64 * 4 - 4 - 32);
    }

    #[test]
    fn repair_restores_full_capacity() {
        let mut mgr = manager(32, 3);
        let before = mgr.usable_gpus(16);
        mgr.inject_fault(NodeId(5), Seconds(10.0)).unwrap();
        assert!(mgr.usable_gpus(16) < before);
        let report = mgr.repair_node(NodeId(5), Seconds(20.0)).unwrap();
        assert_eq!(report.faulty_nodes, 0);
        assert_eq!(mgr.usable_gpus(16), before);
    }

    #[test]
    fn double_fault_and_invalid_transitions_are_rejected() {
        let mut mgr = manager(16, 2);
        mgr.inject_fault(NodeId(3), Seconds(1.0)).unwrap();
        assert!(mgr.inject_fault(NodeId(3), Seconds(2.0)).is_err());
        assert!(mgr.repair_node(NodeId(9), Seconds(2.0)).is_err());
        assert!(mgr.inject_fault(NodeId(99), Seconds(2.0)).is_err());
    }

    #[test]
    fn software_latencies_dominate_total_recovery() {
        let ring = KHopRing::new(32, 4, 2).unwrap();
        let mut mgr = ClusterManager::new(ring, ControlLatencies::production_defaults()).unwrap();
        let report = mgr.inject_fault(NodeId(10), Seconds(0.0)).unwrap();
        let software = ControlLatencies::production_defaults().software_total();
        assert!(report.total_recovery >= software);
        assert!(report.total_recovery < software + Seconds(0.001));
        assert_eq!(mgr.now(), Seconds(0.0) + report.total_recovery);
    }

    #[test]
    fn consecutive_unbypassable_faults_partition_the_ring() {
        let mut mgr = manager(32, 2);
        mgr.inject_fault(NodeId(10), Seconds(1.0)).unwrap();
        let report = mgr.inject_fault(NodeId(11), Seconds(2.0)).unwrap();
        // Two consecutive faults exceed the K=2 bypass reach, so the ring
        // splits into... the closed ring still re-joins across the deployment
        // boundary, leaving one (wrapping) segment.
        assert_eq!(report.segments, 1);
        assert_eq!(report.faulty_nodes, 2);
        // The wrapping chain has two loopback endpoints now.
        let plan = &mgr.deployed;
        let loopbacks: usize = (0..32)
            .map(|n| {
                plan.node(NodeId(n))
                    .iter()
                    .filter(|(_, a)| matches!(a, crate::BundleAction::Loopback))
                    .count()
            })
            .sum();
        assert_eq!(loopbacks, 2);
    }

    #[test]
    fn out_of_order_event_times_are_clamped_and_recorded() {
        let ring = KHopRing::new(48, 4, 2).unwrap();
        let mut mgr = ClusterManager::new(ring, ControlLatencies::production_defaults()).unwrap();
        let first = mgr.inject_fault(NodeId(10), Seconds(100.0)).unwrap();
        let after_first = mgr.now();
        assert_eq!(after_first, Seconds(100.0) + first.total_recovery);

        // Regression: an event stamped before the current clock used to rewind
        // `now()` and emit a backwards timeline. It must clamp instead.
        let second = mgr.inject_fault(NodeId(30), Seconds(50.0)).unwrap();
        assert_eq!(second.event_at, after_first, "stale time not clamped");
        assert!(mgr.now() >= after_first, "clock went backwards");
        assert!(mgr.timeline().is_monotone(), "timeline not monotone");
        let clamps: Vec<Seconds> = mgr
            .timeline()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                ControlEventKind::EventTimeClamped { requested } => Some(requested),
                _ => None,
            })
            .collect();
        assert_eq!(clamps, vec![Seconds(50.0)], "clamp not recorded");

        // In-order events are untouched (no spurious clamp records).
        let third = mgr.inject_fault(NodeId(40), Seconds(1000.0)).unwrap();
        assert_eq!(third.event_at, Seconds(1000.0));
        assert_eq!(
            mgr.timeline()
                .events()
                .iter()
                .filter(|e| matches!(e.kind, ControlEventKind::EventTimeClamped { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn zero_command_convergence_reports_zero_work() {
        // K = 2: faulting 8, 9, 11, 12 isolates node 10 into a singleton
        // segment (its whole ±2 reach is faulty). Faulting 10 itself then
        // drops the singleton from the plan without changing any surviving
        // node's directives — a genuine zero-command convergence.
        let ring = KHopRing::new(24, 4, 2).unwrap();
        let mut mgr = ClusterManager::new(ring, ControlLatencies::production_defaults()).unwrap();
        for (i, n) in [8usize, 9, 11, 12].iter().enumerate() {
            mgr.inject_fault(NodeId(*n), Seconds(10.0 * (i + 1) as f64))
                .unwrap();
        }
        let restored_before = mgr
            .timeline()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ControlEventKind::RingRestored { .. }))
            .count();

        let report = mgr.inject_fault(NodeId(10), Seconds(100.0)).unwrap();
        // Regression: the zero-command path used to charge the full software
        // total (including dispatch) and push a phantom `RingRestored`.
        assert_eq!(report.commands, 0);
        assert_eq!(report.nodes_reconfigured, 0);
        assert_eq!(report.hardware_latency, Microseconds::ZERO);
        let latencies = ControlLatencies::production_defaults();
        assert_eq!(
            report.total_recovery,
            latencies.detection + latencies.planning
        );
        assert_eq!(mgr.now(), Seconds(100.0) + report.total_recovery);
        let restored_after = mgr
            .timeline()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ControlEventKind::RingRestored { .. }))
            .count();
        assert_eq!(restored_after, restored_before, "phantom RingRestored");
        assert!(mgr.timeline().is_monotone());
        // The deployed plan still matches a fresh plan.
        let fresh = mgr.planner().plan(mgr.faults()).unwrap();
        assert_eq!(mgr.deployed, fresh);
    }

    #[test]
    fn fault_storm_keeps_fabric_consistent_with_planner() {
        let mut mgr = manager(96, 3);
        let mut rng_state = 12345u64;
        let mut faulty: Vec<usize> = Vec::new();
        for step in 0..40 {
            // Simple deterministic LCG so the test needs no rand dependency.
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let n = (rng_state >> 33) as usize % 96;
            let at = Seconds(step as f64);
            if faulty.contains(&n) {
                mgr.repair_node(NodeId(n), at).unwrap();
                faulty.retain(|&x| x != n);
            } else {
                mgr.inject_fault(NodeId(n), at).unwrap();
                faulty.push(n);
            }
            // The deployed plan always matches a fresh plan for the same
            // fault set.
            let fresh = mgr.planner().plan(mgr.faults()).unwrap();
            assert_eq!(mgr.deployed, fresh, "diverged at step {step}");
        }
    }
}
