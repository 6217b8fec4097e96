//! The per-node **fabric manager**.
//!
//! §5.2: "At the device level, the node fabric manager configures individual
//! OCSTrx modules and handles topology switching." The fabric manager owns the
//! node's fabric bundles (the `K` bundles wired to the inter-node fiber plant)
//! and executes [`BundleAction`]s issued by the cluster manager.

use crate::plan::BundleAction;
use hbd_types::{HbdError, Microseconds, NodeId, Result};
use ocstrx::{Bundle, BundleState};

/// What a versioned command delivery did — see
/// [`FabricManager::apply_versioned`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommandOutcome {
    /// The command was fresh and was executed; the hardware switching latency
    /// is attached (zero when the bundle was already in the requested state).
    Applied(Microseconds),
    /// The command id was not newer than the last id seen for the bundle — a
    /// duplicate or an out-of-order stale delivery. State untouched.
    Stale,
}

/// Manages the OCSTrx bundles of one node.
#[derive(Debug, Clone)]
pub struct FabricManager {
    node: NodeId,
    bundles: Vec<Bundle>,
    /// Per-bundle newest command id executed via
    /// [`FabricManager::apply_versioned`] (0 = none yet; ids start at 1).
    last_command_ids: Vec<u64>,
}

impl FabricManager {
    /// Creates a fabric manager with `k` single-module fabric bundles.
    /// Single-module bundles keep large-cluster simulations cheap.
    pub fn new(node: NodeId, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(HbdError::invalid_config(
                "a fabric manager needs at least one bundle",
            ));
        }
        let mut bundles = Vec::with_capacity(k);
        for _ in 0..k {
            // A freshly powered-on OCSTrx bundle boots into the safe intra-node
            // loopback and carries no fabric traffic until the cluster manager
            // assigns it a role.
            let mut bundle = Bundle::new(1)?;
            bundle.activate_loopback()?;
            bundle.set_idle();
            bundles.push(bundle);
        }
        Ok(FabricManager {
            node,
            bundles,
            last_command_ids: vec![0; k],
        })
    }

    /// The node this manager runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current state of a bundle.
    pub fn bundle_state(&self, bundle: usize) -> Result<BundleState> {
        self.bundles
            .get(bundle)
            .map(Bundle::state)
            .ok_or_else(|| HbdError::unknown_entity(format!("bundle {bundle} on {}", self.node)))
    }

    /// Applies one action to one bundle, returning the hardware switching
    /// latency (zero if the bundle was already in the requested state or the
    /// action is `Idle`).
    pub fn apply(&mut self, bundle: usize, action: BundleAction) -> Result<Microseconds> {
        let b = self
            .bundles
            .get_mut(bundle)
            .ok_or_else(|| HbdError::unknown_entity(format!("bundle {bundle} on {}", self.node)))?;
        if b.state() == action.state() {
            return Ok(Microseconds::ZERO);
        }
        match action {
            BundleAction::ActivatePrimary => b.activate_primary(),
            BundleAction::ActivateBackup => b.activate_backup(),
            BundleAction::Loopback => b.activate_loopback(),
            BundleAction::Idle => {
                b.set_idle();
                Ok(Microseconds::ZERO)
            }
        }
    }

    /// Applies one command through the at-least-once delivery gate the
    /// simulator's faulty command channel requires.
    ///
    /// Commands carry per-cluster monotone ids (assigned in issue order, so a
    /// *newer* directive for the same bundle always has a *larger* id). The
    /// fabric manager executes a delivery only when its id is strictly newer
    /// than the last id executed on that bundle; duplicated or reordered
    /// stale deliveries are ignored — last-writer-wins, which
    /// keeps retransmissions and overtaking messages idempotent.
    pub fn apply_versioned(
        &mut self,
        command_id: u64,
        bundle: usize,
        action: BundleAction,
    ) -> Result<CommandOutcome> {
        let last = *self
            .last_command_ids
            .get(bundle)
            .ok_or_else(|| HbdError::unknown_entity(format!("bundle {bundle} on {}", self.node)))?;
        if command_id <= last {
            return Ok(CommandOutcome::Stale);
        }
        self.last_command_ids[bundle] = command_id;
        Ok(CommandOutcome::Applied(self.apply(bundle, action)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_requires_at_least_one_bundle() {
        assert!(FabricManager::new(NodeId(0), 0).is_err());
        let fm = FabricManager::new(NodeId(0), 3).unwrap();
        assert_eq!(fm.bundles.len(), 3);
        assert_eq!(fm.node(), NodeId(0));
        for b in 0..3 {
            assert_eq!(fm.bundle_state(b).unwrap(), BundleState::Idle);
        }
    }

    #[test]
    fn apply_switches_state_and_accounts_latency() {
        let mut fm = FabricManager::new(NodeId(7), 2).unwrap();
        let t = fm.apply(0, BundleAction::ActivatePrimary).unwrap();
        assert!(t > Microseconds::ZERO);
        assert_eq!(fm.bundle_state(0).unwrap(), BundleState::ActivePrimary);

        // Re-applying the same action is a no-op.
        let t2 = fm.apply(0, BundleAction::ActivatePrimary).unwrap();
        assert_eq!(t2, Microseconds::ZERO);

        // Switching to backup is a real reconfiguration again.
        let t3 = fm.apply(0, BundleAction::ActivateBackup).unwrap();
        assert!(t3 > Microseconds::ZERO);
        assert_eq!(fm.bundle_state(0).unwrap(), BundleState::ActiveBackup);
    }

    #[test]
    fn idle_action_is_free() {
        let mut fm = FabricManager::new(NodeId(1), 1).unwrap();
        fm.apply(0, BundleAction::Loopback).unwrap();
        let t = fm.apply(0, BundleAction::Idle).unwrap();
        assert_eq!(t, Microseconds::ZERO);
        assert_eq!(fm.bundle_state(0).unwrap(), BundleState::Idle);
    }

    #[test]
    fn unknown_bundle_is_rejected() {
        let mut fm = FabricManager::new(NodeId(1), 2).unwrap();
        assert!(fm.apply(2, BundleAction::Loopback).is_err());
        assert!(fm.bundle_state(5).is_err());
    }

    #[test]
    fn reconfiguration_latency_is_in_the_paper_range() {
        let mut fm = FabricManager::new(NodeId(3), 2).unwrap();
        let t = fm.apply(0, BundleAction::ActivatePrimary).unwrap();
        assert!(t.value() >= 60.0 && t.value() <= 80.0, "latency {t}");
    }
}
