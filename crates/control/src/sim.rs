//! Deterministic fault-injection simulation of the whole control plane.
//!
//! The unit tests of this crate exercise the cluster manager through a
//! *reliable, synchronous* command path: `inject_fault` returns only after
//! every fabric manager applied its directive. Production control planes do
//! not get that luxury — commands to per-node fabric managers cross a lossy
//! management network where messages are delayed, reordered, duplicated and
//! dropped, and new faults land while the previous recovery is still in
//! flight. This module simulates exactly that regime, FoundationDB-style:
//!
//! * **Mock time.** An [`EventQueue`] keyed in modeled [`Seconds`] is the
//!   clock: its pop order is a pure function of the push sequence, and each
//!   pop returns the monotone instant the handlers run at — no wall clock,
//!   no threads, no nondeterminism.
//! * **One master seed.** Every random decision draws from a per-channel
//!   `StdRng` derived with [`stream_seed`]: channel 0 seeds the fault/repair
//!   arrival schedule, 1 the message delays, 2 the reorder bursts, 3 the
//!   drops, 4 the duplications. Two runs with the same config and seed are
//!   bit-identical; a failing seed is a permanent regression test.
//! * **An at-least-once command protocol.** The manager assigns globally
//!   monotone command ids and retransmits unacknowledged commands after
//!   `ack_timeout`, up to `max_retries` retransmissions; fabric managers
//!   discard deliveries whose id is not newer than the last id executed on
//!   that bundle ([`FabricManager::apply_versioned`]), making duplicates and
//!   overtaking retransmissions harmless. The *final* permitted attempt is
//!   modelled as reliable (delivery and acknowledgement both arrive), the
//!   discrete-event stand-in for "the operator escalates until the command
//!   lands" — so every run quiesces.
//!
//! The safety property checked continuously: whenever the manager has no
//! unacknowledged commands outstanding, the fabric state of every node in
//! the intended plan equals that plan; and once the event queue drains, the
//! intended plan itself equals a freshly computed
//! [`FailoverPlanner::plan`] for the final fault set — i.e. the deployed
//! configuration converges to exactly what a reliable synchronous control
//! plane would have produced, under *any* schedule of message faults.

use crate::fabric::{CommandOutcome, FabricManager};
use crate::failover::FailoverPlanner;
use crate::manager::ControlLatencies;
use crate::plan::{BundleAction, PortDirective, RingPlan};
use crate::timeline::{ControlEventKind, Timeline};
use fault::{generate_events, validate_edges, GeneratorConfig, NodeEvent, NodeEventKind};
use hbd_types::{stream_seed, EventQueue, HbdError, NodeId, Result, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use topology::{FaultSet, KHopRing};

/// RNG stream indices, one per independent randomness channel.
const CH_ARRIVALS: u64 = 0;
const CH_DELAY: u64 = 1;
const CH_REORDER: u64 = 2;
const CH_DROP: u64 = 3;
const CH_DUPLICATE: u64 = 4;

/// Fault model of the manager → fabric-manager message channel.
///
/// Every command (and every acknowledgement) experiences an independent
/// uniform delay in `[delay_min, delay_max]`; with probability `reorder` a
/// command additionally incurs a full `delay_max` penalty, guaranteeing a
/// window in which later messages overtake it; with probability `drop` it is
/// lost, and with probability `duplicate` a second independent copy is
/// delivered. Lost commands are retransmitted after `ack_timeout`, at most
/// `max_retries` times; the final attempt is reliable (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MessageFaults {
    /// Lower bound of the one-way message delay.
    pub delay_min: Seconds,
    /// Upper bound of the one-way message delay.
    pub delay_max: Seconds,
    /// Probability that a command suffers an extra `delay_max` reorder burst.
    pub reorder: f64,
    /// Probability that a command (or an acknowledgement) is dropped.
    pub drop: f64,
    /// Probability that a command is delivered twice.
    pub duplicate: f64,
    /// How long the manager waits for an acknowledgement before resending.
    pub ack_timeout: Seconds,
    /// Maximum number of retransmissions per command (0 = send exactly once).
    pub max_retries: u32,
}

impl MessageFaults {
    /// A well-behaved channel: small fixed delay, no loss, no duplication.
    pub fn reliable() -> Self {
        MessageFaults {
            delay_min: Seconds(0.001),
            delay_max: Seconds(0.001),
            reorder: 0.0,
            drop: 0.0,
            duplicate: 0.0,
            ack_timeout: Seconds(1.0),
            max_retries: 2,
        }
    }

    /// A hostile channel exercising every fault class at once.
    pub fn adversarial() -> Self {
        MessageFaults {
            delay_min: Seconds(0.05),
            delay_max: Seconds(0.5),
            reorder: 0.25,
            drop: 0.2,
            duplicate: 0.2,
            ack_timeout: Seconds(1.0),
            max_retries: 4,
        }
    }

    /// Checks the parameters are usable (delays ordered and non-negative,
    /// probabilities in `[0, 1]`, positive acknowledgement timeout).
    pub fn validate(&self) -> Result<()> {
        // `is_finite` + ordered comparisons so NaN parameters are rejected.
        if !self.delay_min.value().is_finite() || self.delay_min.value() < 0.0 {
            return Err(HbdError::invalid_config("delay_min must be >= 0"));
        }
        if !self.delay_max.value().is_finite() || self.delay_max.value() < self.delay_min.value() {
            return Err(HbdError::invalid_config("delay_max must be >= delay_min"));
        }
        for (name, p) in [
            ("reorder", self.reorder),
            ("drop", self.drop),
            ("duplicate", self.duplicate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(HbdError::invalid_config(format!(
                    "{name} probability must be in [0, 1], got {p}"
                )));
            }
        }
        if !self.ack_timeout.value().is_finite() || self.ack_timeout.value() <= 0.0 {
            return Err(HbdError::invalid_config("ack_timeout must be positive"));
        }
        Ok(())
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Nodes in the K-Hop Ring deployment.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Reach of the ring (bundles per node).
    pub k: usize,
    /// Steady-state fraction of nodes down in the arrival process.
    pub fault_ratio: f64,
    /// Mean node repair time of the arrival process.
    pub mean_time_to_repair: Seconds,
    /// Length of the generated fault/repair schedule.
    pub horizon: Seconds,
    /// Detection / planning / dispatch latencies of the control software.
    pub latencies: ControlLatencies,
    /// Fault model of the command channel.
    pub message_faults: MessageFaults,
}

impl SimConfig {
    /// The renewal-process generator configuration for the arrival channel.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            nodes: self.nodes,
            duration: self.horizon,
            steady_state_fault_ratio: self.fault_ratio,
            mean_time_to_repair: self.mean_time_to_repair,
        }
    }

    /// Checks the control latencies and the message-fault model. Topology and
    /// arrival-process parameters are validated by their own constructors
    /// when the run starts.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("detection", self.latencies.detection),
            ("planning", self.latencies.planning),
            ("dispatch", self.latencies.dispatch),
        ] {
            if !v.value().is_finite() || v.value() < 0.0 {
                return Err(HbdError::invalid_config(format!(
                    "{name} latency must be >= 0"
                )));
            }
        }
        self.message_faults.validate()
    }
}

/// Deterministic counters and artifacts of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Fault/repair edges injected from the arrival schedule.
    pub arrivals: usize,
    /// Ring plans computed (one per processed detection).
    pub plans_computed: usize,
    /// Distinct reconfiguration commands issued (excluding retransmissions).
    pub commands_issued: usize,
    /// Send attempts, including retransmissions.
    pub sends: usize,
    /// Retransmissions triggered by acknowledgement timeouts.
    pub retries: usize,
    /// Deliveries that executed (id newer than the bundle's last).
    pub delivered_fresh: usize,
    /// Deliveries discarded by the fabric managers' version gate.
    pub delivered_stale: usize,
    /// Commands lost in the channel.
    pub commands_dropped: usize,
    /// Commands delivered twice by the channel.
    pub duplicates_injected: usize,
    /// Commands that suffered an extra reorder-burst delay.
    pub reorder_bursts: usize,
    /// Acknowledgements lost in the channel.
    pub acks_dropped: usize,
    /// Commands obsoleted by a newer plan before being acknowledged.
    pub superseded: usize,
    /// Commands cancelled because their target node failed first.
    pub cancelled: usize,
    /// Deliveries discarded at the node: the node was down, or the copy was
    /// issued before the node's latest reboot (incarnation mismatch).
    pub dead_letters: usize,
    /// Commands force-reissued to a rebooted node whose directives survived
    /// unchanged in the plan (a repair detected inside the preceding fault's
    /// planning window), so the plan diff alone would never re-arm it.
    pub reissued: usize,
    /// Times the convergence invariant was checked.
    pub convergence_checks: usize,
    /// Times the deployed fabric state disagreed with the intended plan (or,
    /// at the end of the run, with a freshly computed plan). Always 0 unless
    /// the control plane is buggy.
    pub invariant_violations: usize,
    /// Whether the run ended converged: no outstanding commands, intended
    /// plan equal to a fresh plan of the final fault set, fabric state equal
    /// to that plan.
    pub final_converged: bool,
    /// Events the queue clamped because they were scheduled behind its
    /// clock. Always 0: every event is scheduled at or after the instant
    /// that schedules it.
    pub clock_rewinds: u64,
    /// Simulation time when the last event was processed.
    pub end_time: Seconds,
    /// The full control-plane event log (monotone by construction).
    pub timeline: Timeline,
}

/// A scheduled simulation event.
enum SimEvent {
    /// The manager's telemetry notices a node changed availability.
    Detected { node: NodeId, fault: bool },
    /// The planner finished recomputing the ring plan.
    PlanReady,
    /// The manager hands one command (attempt `attempt`) to the channel.
    CommandSend { id: u64, attempt: u32 },
    /// One copy of a command reaches its fabric manager.
    CommandDeliver { id: u64 },
    /// The fabric manager's acknowledgement reaches the cluster manager.
    AckDeliver { id: u64 },
    /// The manager checks whether command `id` (sent as attempt `attempt`)
    /// was acknowledged in time.
    RetryCheck { id: u64, attempt: u32 },
}

/// Manager-side bookkeeping for one issued command.
struct PendingCommand {
    node: NodeId,
    bundle: usize,
    action: BundleAction,
    /// Latest attempt number handed to the channel (1-based).
    attempt: u32,
    /// The target node's incarnation when the command was issued. A fabric
    /// manager only accepts commands addressed to its current incarnation,
    /// so copies surviving a fault/repair cycle in the channel cannot
    /// corrupt the rebooted node.
    epoch: u64,
    /// Neither acknowledged, nor superseded by a fresher command for the
    /// same bundle, nor cancelled by a fault of the target node. Only an
    /// outstanding command is (re)transmitted.
    outstanding: bool,
}

/// Runs one simulation: the arrival schedule is generated from channel 0 of
/// `master_seed`, the message-fault channels from channels 1–4. Identical
/// `(config, master_seed)` pairs produce bit-identical [`SimReport`]s.
pub fn run(config: &SimConfig, master_seed: u64) -> Result<SimReport> {
    let arrivals = generate_events(&config.generator(), stream_seed(master_seed, CH_ARRIVALS))?;
    run_with_events(config, master_seed, &arrivals)
}

/// Runs one simulation over an explicit fault/repair edge stream (e.g. a
/// replayed production trace via [`fault::trace_events`]), with the message
/// faults still seeded from channels 1–4 of `master_seed`. The edges must
/// alternate fault/repair per node in time order, as both adapters in
/// [`fault::sim_events`] guarantee; a stream that does not, or that names a
/// node outside the deployment, is rejected with the typed error of
/// [`validate_edges`] before anything is scheduled.
pub fn run_with_events(
    config: &SimConfig,
    master_seed: u64,
    arrivals: &[NodeEvent],
) -> Result<SimReport> {
    config.validate()?;
    validate_edges(arrivals, config.nodes)?;
    let ring = KHopRing::new(config.nodes, config.gpus_per_node, config.k)?;
    let planner = FailoverPlanner::new(ring)?;
    let fabrics = (0..config.nodes)
        .map(|n| FabricManager::new(NodeId(n), config.k))
        .collect::<Result<Vec<_>>>()?;

    let mut sim = Sim {
        config: *config,
        planner,
        fabrics,
        faults: FaultSet::new(),
        intended: RingPlan::empty(),
        queue: EventQueue::new(),
        commands: Vec::new(),
        newest: vec![0; config.nodes * config.k],
        node_epoch: vec![0; config.nodes],
        rebooted_dirty: BTreeSet::new(),
        unacked: 0,
        delay_rng: StdRng::seed_from_u64(stream_seed(master_seed, CH_DELAY)),
        reorder_rng: StdRng::seed_from_u64(stream_seed(master_seed, CH_REORDER)),
        drop_rng: StdRng::seed_from_u64(stream_seed(master_seed, CH_DROP)),
        dup_rng: StdRng::seed_from_u64(stream_seed(master_seed, CH_DUPLICATE)),
        report: SimReport {
            arrivals: arrivals.len(),
            ..Default::default()
        },
    };
    sim.bootstrap()?;
    for edge in arrivals {
        sim.queue.push(
            edge.at + config.latencies.detection,
            SimEvent::Detected {
                node: edge.node,
                fault: edge.kind == NodeEventKind::Fault,
            },
        );
    }
    sim.drain()?;
    Ok(sim.finish())
}

/// The simulation state machine. One instance per run; single-threaded.
struct Sim {
    config: SimConfig,
    planner: FailoverPlanner,
    fabrics: Vec<FabricManager>,
    /// The manager's view of which nodes are down (detection-delayed).
    faults: FaultSet,
    /// The plan the manager is currently converging the fabric towards.
    intended: RingPlan,
    queue: EventQueue<SimEvent>,
    /// Every issued command; command `id` is `commands[id - 1]`.
    commands: Vec<PendingCommand>,
    /// Newest command id per (node, bundle) slot, node-major like
    /// [`RingPlan`] (0 = none yet). Issuing a command supersedes the slot's
    /// previous one, so only the newest can be outstanding.
    newest: Vec<u64>,
    /// Per-node incarnation counter, bumped on every detected repair.
    node_epoch: Vec<u64>,
    /// Rebooted nodes not yet reconciled by a plan. A node repaired inside
    /// the preceding fault's planning window never leaves the intended plan,
    /// so the plan diff sees no change for it even though its fabric reset
    /// to idle; the next [`Sim::on_plan_ready`] force-reissues its
    /// directives and clears the flag.
    rebooted_dirty: BTreeSet<NodeId>,
    /// Outstanding commands.
    unacked: usize,
    delay_rng: StdRng,
    reorder_rng: StdRng,
    drop_rng: StdRng,
    dup_rng: StdRng,
    report: SimReport,
}

impl Sim {
    /// Deploys the initial (fully healthy) plan synchronously. Initial
    /// bring-up happens over the out-of-band management network before the
    /// faulty channel is armed, so it bypasses the message-fault model.
    fn bootstrap(&mut self) -> Result<()> {
        let plan = self.planner.plan(&self.faults)?;
        let directives = plan.directives();
        self.report.timeline.push(
            Seconds::ZERO,
            ControlEventKind::PlanComputed {
                commands: directives.len(),
            },
        );
        for d in directives {
            self.fabrics[d.node.index()].apply(d.bundle, d.action)?;
        }
        let segments = self.planner.segments(&self.faults).len();
        self.report
            .timeline
            .push(Seconds::ZERO, ControlEventKind::RingRestored { segments });
        self.intended = plan;
        Ok(())
    }

    /// Pops events until the queue is empty.
    fn drain(&mut self) -> Result<()> {
        while let Some((now, event)) = self.queue.pop() {
            match event {
                SimEvent::Detected { node, fault } => self.on_detected(now, node, fault)?,
                SimEvent::PlanReady => self.on_plan_ready(now)?,
                SimEvent::CommandSend { id, attempt } => self.on_command_send(now, id, attempt),
                SimEvent::CommandDeliver { id } => self.on_command_deliver(now, id)?,
                SimEvent::AckDeliver { id } => self.on_ack_deliver(now, id),
                SimEvent::RetryCheck { id, attempt } => self.on_retry_check(now, id, attempt),
            }
        }
        Ok(())
    }

    fn on_detected(&mut self, now: Seconds, node: NodeId, fault: bool) -> Result<()> {
        let changed = if fault {
            self.faults.add(node)
        } else {
            self.faults.remove(node)
        };
        // The edge streams alternate strictly per node and detection adds a
        // constant latency, so redundant edges cannot occur.
        debug_assert!(changed, "redundant availability edge for {node}");
        if fault {
            // Stop retransmitting to a dead node: every outstanding command
            // targeting it is cancelled. Copies already in the channel are
            // discarded on delivery (the node is down, and after a repair
            // the incarnation gate rejects them).
            let k = self.config.k;
            for slot in node.index() * k..(node.index() + 1) * k {
                if self.retire(self.newest[slot]) {
                    self.report.cancelled += 1;
                }
            }
        } else {
            // A repaired node reboots: all bundles come back in the idle
            // power-on state and a new incarnation starts, so the planner's
            // next diff (computed against an all-idle baseline for nodes
            // absent from the intended plan) is exactly the command set that
            // converges the rebooted hardware.
            self.node_epoch[node.index()] += 1;
            self.fabrics[node.index()] = FabricManager::new(node, self.config.k)?;
            self.rebooted_dirty.insert(node);
        }
        let kind = if fault {
            ControlEventKind::FaultDetected { node }
        } else {
            ControlEventKind::RepairDetected { node }
        };
        self.report.timeline.push(now, kind);
        self.queue
            .push(now + self.config.latencies.planning, SimEvent::PlanReady);
        Ok(())
    }

    fn on_plan_ready(&mut self, now: Seconds) -> Result<()> {
        self.report.plans_computed += 1;
        let target = self.planner.plan(&self.faults)?;
        let mut commands = self.intended.diff(&target);
        // Reconcile rebooted nodes the diff cannot see: a node whose repair
        // was detected before the preceding fault's plan landed never left
        // the intended plan, so if the target keeps its directives unchanged
        // the diff issues nothing for it — yet its fabric reset to idle on
        // reboot. Force-reissue its non-idle target directives (the rebooted
        // state already matches the idle ones). The diff already holds
        // exactly the directives whose intended action differs, so the rest
        // are the ones the intended plan already has.
        self.rebooted_dirty.retain(|&node| {
            if self.faults.is_faulty(node) {
                // Failed again before this plan: stays dirty and is
                // re-marked on its next repair anyway.
                return true;
            }
            let intended = self.intended.node(node);
            for (bundle, action) in target.node(node).iter() {
                if action != BundleAction::Idle && intended.action(bundle) == action {
                    commands.push(PortDirective {
                        node,
                        bundle,
                        action,
                    });
                    self.report.reissued += 1;
                }
            }
            false
        });
        self.report.timeline.push(
            now,
            ControlEventKind::PlanComputed {
                commands: commands.len(),
            },
        );
        let had_commands = !commands.is_empty();
        for cmd in commands {
            let id = self.commands.len() as u64 + 1;
            // A fresher command for the same bundle obsoletes an outstanding
            // predecessor: the manager stops retransmitting it and the
            // fabric's version gate neutralises copies still in flight.
            let slot = cmd.node.index() * self.config.k + cmd.bundle;
            if self.retire(self.newest[slot]) {
                self.report.superseded += 1;
            }
            self.newest[slot] = id;
            self.commands.push(PendingCommand {
                node: cmd.node,
                bundle: cmd.bundle,
                action: cmd.action,
                attempt: 0,
                epoch: self.node_epoch[cmd.node.index()],
                outstanding: true,
            });
            self.unacked += 1;
            self.report.commands_issued += 1;
            self.queue.push(
                now + self.config.latencies.dispatch,
                SimEvent::CommandSend { id, attempt: 1 },
            );
        }
        self.intended = target;
        if !had_commands && self.unacked == 0 {
            // Zero-command plan (e.g. an already-isolated node failed) with
            // nothing outstanding: converged on the spot. Mirrors the
            // synchronous manager, which reports no RingRestored event for
            // zero-command recoveries.
            self.check_convergence(now, false);
        }
        Ok(())
    }

    /// Marks command `id` (0 = none) no longer outstanding; returns whether
    /// it was.
    fn retire(&mut self, id: u64) -> bool {
        if id == 0 || !self.commands[id as usize - 1].outstanding {
            return false;
        }
        self.commands[id as usize - 1].outstanding = false;
        self.unacked -= 1;
        true
    }

    fn is_final(&self, attempt: u32) -> bool {
        attempt > self.config.message_faults.max_retries
    }

    fn draw_delay(rng: &mut StdRng, mf: &MessageFaults) -> Seconds {
        let span = mf.delay_max.value() - mf.delay_min.value();
        Seconds(mf.delay_min.value() + rng.gen::<f64>() * span)
    }

    fn on_command_send(&mut self, now: Seconds, id: u64, attempt: u32) {
        let p = &mut self.commands[id as usize - 1];
        if !p.outstanding {
            return;
        }
        p.attempt = attempt;
        self.report.sends += 1;
        let mf = self.config.message_faults;
        let final_attempt = self.is_final(attempt);
        // Every send draws from all four channels in a fixed order, so the
        // per-channel streams stay aligned across runs regardless of which
        // faults actually fire.
        let delay = Self::draw_delay(&mut self.delay_rng, &mf);
        let burst = self.reorder_rng.gen_bool(mf.reorder);
        let dropped = self.drop_rng.gen_bool(mf.drop);
        let duplicated = self.dup_rng.gen_bool(mf.duplicate);
        let mut deliver_at = now + delay;
        if burst {
            self.report.reorder_bursts += 1;
            deliver_at += mf.delay_max;
        }
        if dropped && !final_attempt {
            self.report.commands_dropped += 1;
        } else {
            self.queue.push(deliver_at, SimEvent::CommandDeliver { id });
        }
        if duplicated && !final_attempt {
            self.report.duplicates_injected += 1;
            let second = Self::draw_delay(&mut self.delay_rng, &mf);
            self.queue
                .push(now + second, SimEvent::CommandDeliver { id });
        }
        self.queue
            .push(now + mf.ack_timeout, SimEvent::RetryCheck { id, attempt });
    }

    fn on_command_deliver(&mut self, now: Seconds, id: u64) -> Result<()> {
        let p = &self.commands[id as usize - 1];
        let (node, bundle, action) = (p.node, p.bundle, p.action);
        let reliable = self.is_final(p.attempt);
        if self.faults.is_faulty(node) || p.epoch != self.node_epoch[node.index()] {
            // The node is down, or this copy was addressed to an earlier
            // incarnation: discarded without an acknowledgement.
            self.report.dead_letters += 1;
            return Ok(());
        }
        let outcome = self.fabrics[node.index()].apply_versioned(id, bundle, action)?;
        let ack_base = match outcome {
            CommandOutcome::Applied(hw) => {
                self.report.delivered_fresh += 1;
                self.report.timeline.push(
                    now,
                    ControlEventKind::CommandApplied {
                        node,
                        bundle,
                        action,
                        latency: hw,
                    },
                );
                now + hw.to_seconds()
            }
            CommandOutcome::Stale => {
                // A duplicate or an overtaken retransmission: the fabric
                // manager re-acknowledges without touching hardware, so the
                // manager stops retransmitting.
                self.report.delivered_stale += 1;
                now
            }
        };
        let mf = self.config.message_faults;
        let ack_dropped = self.drop_rng.gen_bool(mf.drop);
        let ack_delay = Self::draw_delay(&mut self.delay_rng, &mf);
        if ack_dropped && !reliable {
            self.report.acks_dropped += 1;
        } else {
            self.queue
                .push(ack_base + ack_delay, SimEvent::AckDeliver { id });
        }
        Ok(())
    }

    fn on_ack_deliver(&mut self, now: Seconds, id: u64) {
        // A repeated acknowledgement, or one for a command superseded or
        // cancelled while it was in flight, changes nothing.
        if self.retire(id) && self.unacked == 0 {
            self.check_convergence(now, true);
        }
    }

    fn on_retry_check(&mut self, now: Seconds, id: u64, attempt: u32) {
        let p = &self.commands[id as usize - 1];
        if !p.outstanding || p.attempt != attempt {
            return;
        }
        if self.is_final(attempt) {
            // The final attempt's delivery and acknowledgement are reliable
            // and already en route; nothing to resend.
            return;
        }
        self.report.retries += 1;
        self.queue.push(
            now,
            SimEvent::CommandSend {
                id,
                attempt: attempt + 1,
            },
        );
    }

    /// Verifies the quiescence invariant: every (node, bundle) the intended
    /// plan mentions is in exactly the planned state. Runs whenever the
    /// outstanding-command count returns to zero; a `true` `restored` also
    /// records the [`ControlEventKind::RingRestored`] milestone.
    ///
    /// Note the comparison is against the *intended* plan, not an
    /// instantaneously fresh one: a detection whose re-planning is still in
    /// the planning window may already have updated the fault set. The
    /// end-of-run check in [`Sim::finish`] closes that gap.
    fn check_convergence(&mut self, now: Seconds, restored: bool) {
        self.report.convergence_checks += 1;
        if !self.fabric_matches(&self.intended) {
            self.report.invariant_violations += 1;
        }
        if restored {
            let segments = self.planner.segments(&self.faults).len();
            self.report
                .timeline
                .push(now, ControlEventKind::RingRestored { segments });
        }
    }

    fn fabric_matches(&self, plan: &RingPlan) -> bool {
        plan.iter().all(|d| {
            if self.faults.is_faulty(d.node) {
                // Known-dead node whose removal is still in the planning
                // window: its hardware is unreachable, its commands were
                // cancelled on detection, and the pending plan drops it.
                // (Never hit by the end-of-run check: fresh plans exclude
                // faulty nodes.)
                return true;
            }
            if self.rebooted_dirty.contains(&d.node) {
                // Rebooted but not yet re-planned: the idle fabric is the
                // expected transient, reconciled by the pending plan.
                return true;
            }
            self.fabrics[d.node.index()]
                .bundle_state(d.bundle)
                .is_ok_and(|state| state == d.action.state())
        })
    }

    /// Runs the end-of-run checks and packages the report.
    fn finish(mut self) -> SimReport {
        debug_assert_eq!(
            self.unacked,
            self.commands.iter().filter(|c| c.outstanding).count()
        );
        // With the queue drained, every arrival has been detected and
        // re-planned, so the intended plan must equal a fresh plan of the
        // final fault set — and the fabric must realise it.
        let fresh = self.planner.plan(&self.faults);
        let converged = match fresh {
            Ok(fresh) => self.unacked == 0 && self.intended == fresh && self.fabric_matches(&fresh),
            Err(_) => false,
        };
        if !converged {
            self.report.invariant_violations += 1;
        }
        self.report.final_converged = converged;
        self.report.clock_rewinds = self.queue.rewinds();
        self.report.end_time = self.queue.now();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(message_faults: MessageFaults) -> SimConfig {
        SimConfig {
            nodes: 24,
            gpus_per_node: 4,
            k: 2,
            fault_ratio: 0.15,
            mean_time_to_repair: Seconds(150.0),
            horizon: Seconds(600.0),
            latencies: ControlLatencies {
                detection: Seconds(0.5),
                planning: Seconds(0.05),
                dispatch: Seconds(0.02),
            },
            message_faults,
        }
    }

    #[test]
    fn message_faults_serde_shape_is_pinned() {
        let mf = MessageFaults {
            delay_min: Seconds(0.05),
            delay_max: Seconds(0.5),
            reorder: 0.25,
            drop: 0.2,
            duplicate: 0.1,
            ack_timeout: Seconds(1.5),
            max_retries: 3,
        };
        let json = serde_json::to_string(&mf).unwrap();
        // Keys serialise in alphabetical order (the serde shim's map layout).
        assert_eq!(
            json,
            r#"{"ack_timeout":1.5,"delay_max":0.5,"delay_min":0.05,"drop":0.2,"duplicate":0.1,"max_retries":3,"reorder":0.25}"#
        );
        let back: MessageFaults = serde_json::from_str(&json).unwrap();
        assert_eq!(back, mf);
    }

    #[test]
    fn sim_config_round_trips_through_json() {
        let config = test_config(MessageFaults::adversarial());
        let json = serde_json::to_string(&config).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut mf = MessageFaults::reliable();
        mf.drop = 1.5;
        assert!(mf.validate().is_err());
        mf.drop = 0.0;
        mf.delay_max = Seconds(-1.0);
        assert!(mf.validate().is_err());
        let mut config = test_config(MessageFaults::reliable());
        config.latencies.detection = Seconds(-1.0);
        assert!(config.validate().is_err());
        config.latencies.detection = Seconds(f64::NAN);
        assert!(config.validate().is_err());
    }

    #[test]
    fn reliable_channel_converges_to_the_planner_plan() {
        let report = run(&test_config(MessageFaults::reliable()), 42).unwrap();
        assert!(report.arrivals > 0, "schedule must exercise faults");
        assert!(report.final_converged);
        assert_eq!(report.invariant_violations, 0);
        assert_eq!(report.clock_rewinds, 0);
        assert!(report.timeline.is_monotone());
        // A clean channel never drops, duplicates or retries.
        assert_eq!(report.commands_dropped, 0);
        assert_eq!(report.duplicates_injected, 0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.sends, report.commands_issued);
    }

    #[test]
    fn adversarial_channel_still_converges() {
        let report = run(&test_config(MessageFaults::adversarial()), 42).unwrap();
        assert!(report.final_converged);
        assert_eq!(report.invariant_violations, 0);
        assert!(report.timeline.is_monotone());
        // The hostile profile must actually exercise every fault class.
        assert!(report.commands_dropped > 0, "{report:?}");
        assert!(report.duplicates_injected > 0);
        assert!(report.reorder_bursts > 0);
        assert!(report.retries > 0);
        assert!(report.delivered_stale > 0);
        assert!(report.sends > report.commands_issued);
    }

    #[test]
    fn runs_are_bit_identical_per_seed() {
        let config = test_config(MessageFaults::adversarial());
        let a = run(&config, 7).unwrap();
        let b = run(&config, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.timeline).unwrap(),
            serde_json::to_string(&b.timeline).unwrap()
        );
        let c = run(&config, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn message_faults_do_not_change_the_converged_state() {
        // Same arrival schedule, four very different channels: each run must
        // converge to the same (planner-defined) final configuration.
        let config = test_config(MessageFaults::reliable());
        let arrivals = generate_events(&config.generator(), stream_seed(5, 0)).unwrap();
        let profiles = [
            MessageFaults::reliable(),
            MessageFaults::adversarial(),
            MessageFaults {
                drop: 0.5,
                ..MessageFaults::adversarial()
            },
            MessageFaults {
                duplicate: 0.6,
                reorder: 0.5,
                ..MessageFaults::adversarial()
            },
        ];
        for (i, profile) in profiles.iter().enumerate() {
            let mut config = config;
            config.message_faults = *profile;
            for master in [5, 6, 7] {
                let report = run_with_events(&config, master, &arrivals).unwrap();
                assert!(report.final_converged, "profile {i} seed {master}");
                assert_eq!(report.invariant_violations, 0, "profile {i} seed {master}");
                assert!(report.timeline.is_monotone());
            }
        }
    }

    #[test]
    fn an_edge_naming_a_node_outside_the_deployment_is_rejected() {
        let config = test_config(MessageFaults::reliable());
        let edge = |at, kind| NodeEvent {
            at: Seconds(at),
            node: NodeId(config.nodes),
            kind,
        };
        let arrivals = [
            edge(10.0, NodeEventKind::Fault),
            edge(20.0, NodeEventKind::Repair),
        ];
        let err = run_with_events(&config, 1, &arrivals).unwrap_err();
        assert!(matches!(err, HbdError::UnknownEntity { .. }), "{err}");
    }

    #[test]
    fn a_doubled_fault_edge_is_rejected_before_anything_is_scheduled() {
        let config = test_config(MessageFaults::reliable());
        let fault = |at| NodeEvent {
            at: Seconds(at),
            node: NodeId(3),
            kind: NodeEventKind::Fault,
        };
        let err = run_with_events(&config, 1, &[fault(10.0), fault(20.0)]).unwrap_err();
        assert!(matches!(err, HbdError::InvalidOperation { .. }), "{err}");
    }

    #[test]
    fn an_edge_before_time_zero_is_rejected() {
        let config = test_config(MessageFaults::reliable());
        let edge = NodeEvent {
            at: Seconds(-5.0),
            node: NodeId(3),
            kind: NodeEventKind::Fault,
        };
        let err = run_with_events(&config, 1, &[edge]).unwrap_err();
        assert!(matches!(err, HbdError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn single_attempt_channel_is_reliable_by_construction() {
        // max_retries = 0 makes every first attempt the final one, which the
        // model treats as reliable: a 90 % drop probability cannot bite.
        let mut mf = MessageFaults::adversarial();
        mf.drop = 0.9;
        mf.max_retries = 0;
        let report = run(&test_config(mf), 11).unwrap();
        assert!(report.final_converged);
        assert_eq!(report.commands_dropped, 0);
        assert_eq!(report.acks_dropped, 0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.sends, report.commands_issued);
    }

    #[test]
    fn overlapping_recoveries_supersede_stale_commands() {
        // A long-delay channel with a short horizon and fast arrivals forces
        // plans to change while older commands are still in flight.
        let mut config = test_config(MessageFaults {
            delay_min: Seconds(0.5),
            delay_max: Seconds(5.0),
            reorder: 0.3,
            drop: 0.3,
            duplicate: 0.3,
            ack_timeout: Seconds(2.0),
            max_retries: 3,
        });
        config.mean_time_to_repair = Seconds(20.0);
        config.horizon = Seconds(200.0);
        let mut superseded_seen = false;
        for seed in 0..10 {
            let report = run(&config, seed).unwrap();
            assert!(report.final_converged, "seed {seed}");
            assert_eq!(report.invariant_violations, 0, "seed {seed}");
            superseded_seen |= report.superseded > 0;
        }
        assert!(
            superseded_seen,
            "the overlap regime must exercise supersede tracking"
        );
    }

    /// The experiment-scale deployment of the `sim_seeds` sweep (larger ring,
    /// K=3), where the two regression seeds below were originally found.
    fn sweep_config(message_faults: MessageFaults) -> SimConfig {
        SimConfig {
            nodes: 48,
            gpus_per_node: 4,
            ..test_config(message_faults)
        }
    }

    #[test]
    fn regression_repair_inside_planning_window_reconverges() {
        // Found by the seeded sweep: a node whose repair is detected before
        // the preceding fault's plan lands never leaves the intended plan,
        // so the plan diff alone issues nothing for it even though it
        // rebooted to idle. The run used to end with the node stuck idle
        // (converged = false, 19 violations).
        let mut config = sweep_config(MessageFaults::reliable());
        config.k = 3;
        let report = run(&config, 260778234563238397).unwrap();
        assert!(report.final_converged);
        assert_eq!(report.invariant_violations, 0);
        assert!(
            report.reissued > 0,
            "the rapid fault/repair cycle must exercise reboot reconciliation"
        );
    }

    #[test]
    fn regression_faulty_node_exempt_from_mid_run_checks() {
        // Found by the seeded sweep on the reorder profile: an ack drove the
        // outstanding count to zero inside a fault's planning window, and the
        // check demanded the dead node's cancelled command had been applied
        // (1 transient violation). Known-dead nodes are exempt until the
        // pending plan drops them.
        let mut config = sweep_config(MessageFaults {
            delay_min: Seconds(0.05),
            delay_max: Seconds(0.5),
            reorder: 0.3,
            drop: 0.0,
            duplicate: 0.0,
            ack_timeout: Seconds(1.0),
            max_retries: 4,
        });
        config.k = 3;
        let report = run(&config, 1495124568307875091).unwrap();
        assert!(report.final_converged);
        assert_eq!(report.invariant_violations, 0);
    }
}
