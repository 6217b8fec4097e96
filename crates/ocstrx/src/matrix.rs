//! The MZI switch matrix on the OCSTrx Photonic Integrated Circuit.
//!
//! Following Fig 3 of the paper, the Tx light path of each lane first meets two
//! *routing* MZI elements that decide whether the signal leaves through external
//! output 1, external output 2, or enters the *internal loopback* fabric. The
//! loopback fabric is an `N×N` MZI matrix (a Beneš-style multistage network in
//! our model) that lets an upper-half lane be connected to a lower-half lane —
//! the *cross-lane loopback* used to stitch GPU-level rings inside a node.
//!
//! The matrix model answers three questions for the rest of the simulator:
//!
//! 1. *Routing*: given the element states, which output does each input lane
//!    reach? (Must be a permutation — two lanes can never collide on one port.)
//! 2. *Stage count*: how many MZI elements does the light traverse on each kind
//!    of path? This drives the insertion-loss model.
//! 3. *Reconfiguration time*: the slowest element that has to move bounds the
//!    optical part of the 60–80 µs fast-switch latency.

use crate::mzi::{MziElement, MziState};
use crate::path::PathId;
use hbd_types::{HbdError, Result};
use serde::{Deserialize, Serialize};

/// Destination of a lane after the two front routing elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LaneTarget {
    /// The lane is steered to one of the external fiber outputs.
    External(PathId),
    /// The lane enters the internal loopback matrix and exits on `partner`
    /// (a lane index in the opposite half).
    Loopback {
        /// The lane on the opposite half of the SerDes that this lane is
        /// cross-connected to.
        partner: usize,
    },
}

/// The complete switch fabric of one OCSTrx: per-lane front routing elements
/// plus the shared `N×N` cross-lane loopback matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MziSwitchMatrix {
    lanes: usize,
    /// Two routing elements per lane (stage that selects external-1 / external-2
    /// / loopback).
    front: Vec<[MziElement; 2]>,
    /// Elements of the internal loopback Beneš network. `2 * stages_per_lane`
    /// elements are charged to each loopback connection.
    loopback_stages: usize,
    loopback_elements: Vec<MziElement>,
    /// Current lane targets.
    targets: Vec<LaneTarget>,
}

impl MziSwitchMatrix {
    /// Creates a matrix for `lanes` SerDes lanes (8 for a QSFP-DD 800G module).
    ///
    /// `lanes` must be even and at least 2, because the cross-lane loopback
    /// connects a lane in the upper half to a lane in the lower half.
    pub fn new(lanes: usize) -> Result<Self> {
        if lanes < 2 || !lanes.is_multiple_of(2) {
            return Err(HbdError::invalid_config(format!(
                "MZI matrix needs an even number of lanes >= 2, got {lanes}"
            )));
        }
        // A Beneš network over N/2 upper and N/2 lower lanes has
        // 2*ceil(log2(N/2)) + 1 stages; we keep the element pool sized
        // accordingly so the loss/power accounting is realistic.
        let half = lanes / 2;
        let loopback_stages = if half <= 1 {
            1
        } else {
            2 * (usize::BITS - (half - 1).leading_zeros()) as usize + 1
        };
        let loopback_elements = (0..loopback_stages * half)
            .map(|_| MziElement::new())
            .collect();
        let targets = (0..lanes)
            .map(|_| LaneTarget::External(PathId::External1))
            .collect();
        Ok(MziSwitchMatrix {
            lanes,
            front: (0..lanes)
                .map(|_| [MziElement::new(), MziElement::new()])
                .collect(),
            loopback_stages,
            loopback_elements,
            targets,
        })
    }

    /// Number of SerDes lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Current target of `lane`.
    pub fn target(&self, lane: usize) -> Result<LaneTarget> {
        self.targets.get(lane).copied().ok_or_else(|| {
            HbdError::unknown_entity(format!("lane {lane} of {}-lane matrix", self.lanes))
        })
    }

    /// Steers `lane` to an external output. Returns the settling time in
    /// microseconds of the slowest element that had to move.
    pub fn steer_external(&mut self, lane: usize, path: PathId) -> Result<f64> {
        if path == PathId::Loopback {
            return Err(HbdError::invalid_operation(
                "use steer_loopback to select the internal loopback path",
            ));
        }
        self.check_lane(lane)?;
        let desired = match path {
            PathId::External1 => [MziState::Bar, MziState::Bar],
            PathId::External2 => [MziState::Bar, MziState::Cross],
            PathId::Loopback => unreachable!(),
        };
        let settle = self.apply_front(lane, desired);
        self.targets[lane] = LaneTarget::External(path);
        Ok(settle)
    }

    /// Cross-connects `lane` with `partner` through the internal loopback
    /// matrix. The two lanes must be in opposite halves of the SerDes (that is
    /// what "cross-lane" means on the UBB baseboard: one GPU drives the upper
    /// half, the other the lower half). Returns the settling time in µs.
    pub fn steer_loopback(&mut self, lane: usize, partner: usize) -> Result<f64> {
        self.check_lane(lane)?;
        self.check_lane(partner)?;
        if lane == partner {
            return Err(HbdError::invalid_operation(
                "a lane cannot loop back to itself",
            ));
        }
        let half = self.lanes / 2;
        let same_half = (lane < half) == (partner < half);
        if same_half {
            return Err(HbdError::invalid_operation(format!(
                "cross-lane loopback requires lanes in opposite halves (got {lane} and {partner} of a {}-lane module)",
                self.lanes
            )));
        }
        // If the partner is already looped to a third lane, reject: optical
        // paths cannot merge.
        if let LaneTarget::Loopback { partner: existing } = self.targets[partner] {
            if existing != lane {
                return Err(HbdError::invalid_operation(format!(
                    "lane {partner} is already cross-connected to lane {existing}"
                )));
            }
        }
        let settle_a = self.apply_front(lane, [MziState::Cross, MziState::Bar]);
        let settle_b = self.apply_front(partner, [MziState::Cross, MziState::Bar]);
        // Reconfigure the internal network: charge the settling time of one
        // column of elements (they all move concurrently).
        let settle_matrix = self
            .loopback_elements
            .first()
            .map(|e| e.switch_time_us())
            .unwrap_or(0.0);
        self.targets[lane] = LaneTarget::Loopback { partner };
        self.targets[partner] = LaneTarget::Loopback { partner: lane };
        Ok(settle_a.max(settle_b).max(settle_matrix))
    }

    /// Number of MZI elements traversed by light on the given kind of path.
    ///
    /// External paths cross only the two front routing elements (the design
    /// goal called out in §4.1: "reduce stages count and light attenuation of
    /// output 1&2, while ensuring consistent light attenuation for them").
    /// Loopback paths additionally cross the internal multistage network.
    fn stages_for(&self, path: PathId) -> usize {
        match path {
            PathId::External1 | PathId::External2 => 2,
            PathId::Loopback => 2 + self.loopback_stages,
        }
    }

    /// Total insertion loss in dB contributed by the MZI elements on `path`
    /// (waveguide/coupling losses are added by the optics model).
    pub fn element_loss_db(&self, path: PathId) -> f64 {
        let per_element = MziElement::new().insertion_loss_db();
        self.stages_for(path) as f64 * per_element
    }

    /// Total heater power currently dissipated by the fabric, in milliwatts.
    pub fn heater_power_mw(&self) -> f64 {
        let front: f64 = self
            .front
            .iter()
            .flat_map(|pair| pair.iter())
            .map(|e| e.heater_power_mw())
            .sum();
        let matrix: f64 = self
            .loopback_elements
            .iter()
            .map(|e| e.heater_power_mw())
            .sum();
        front + matrix
    }

    /// Checks that the current configuration is a valid optical permutation:
    /// no two lanes steered to the same external port on the same fiber pair
    /// half, and loopback connections are symmetric.
    pub fn validate(&self) -> Result<()> {
        for (lane, target) in self.targets.iter().enumerate() {
            if let LaneTarget::Loopback { partner } = *target {
                match self.targets.get(partner) {
                    Some(LaneTarget::Loopback { partner: back }) if *back == lane => {}
                    _ => {
                        return Err(HbdError::invalid_operation(format!(
                            "loopback of lane {lane} to {partner} is not symmetric"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    fn check_lane(&self, lane: usize) -> Result<()> {
        if lane >= self.lanes {
            Err(HbdError::unknown_entity(format!(
                "lane {lane} of {}-lane matrix",
                self.lanes
            )))
        } else {
            Ok(())
        }
    }

    fn apply_front(&mut self, lane: usize, desired: [MziState; 2]) -> f64 {
        let pair = &mut self.front[lane];
        let t0 = pair[0].set_state(desired[0]);
        let t1 = pair[1].set_state(desired[1]);
        t0.max(t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qsfp_dd_module_has_eight_lanes() {
        let matrix = MziSwitchMatrix::new(8).unwrap();
        assert_eq!(matrix.lanes(), 8);
        assert!(matrix.loopback_stages >= 3);
    }

    #[test]
    fn odd_or_tiny_lane_counts_are_rejected() {
        assert!(MziSwitchMatrix::new(0).is_err());
        assert!(MziSwitchMatrix::new(1).is_err());
        assert!(MziSwitchMatrix::new(7).is_err());
        assert!(MziSwitchMatrix::new(2).is_ok());
    }

    #[test]
    fn steering_external_changes_target_and_costs_time() {
        let mut matrix = MziSwitchMatrix::new(8).unwrap();
        let t = matrix.steer_external(0, PathId::External2).unwrap();
        assert!(t > 0.0);
        assert_eq!(
            matrix.target(0).unwrap(),
            LaneTarget::External(PathId::External2)
        );
        // Re-applying the same target costs no settling time.
        assert_eq!(matrix.steer_external(0, PathId::External2).unwrap(), 0.0);
    }

    #[test]
    fn steer_external_rejects_loopback_path() {
        let mut matrix = MziSwitchMatrix::new(8).unwrap();
        assert!(matrix.steer_external(0, PathId::Loopback).is_err());
    }

    #[test]
    fn loopback_connects_opposite_halves_symmetrically() {
        let mut matrix = MziSwitchMatrix::new(8).unwrap();
        let t = matrix.steer_loopback(1, 5).unwrap();
        assert!(t > 0.0);
        assert_eq!(
            matrix.target(1).unwrap(),
            LaneTarget::Loopback { partner: 5 }
        );
        assert_eq!(
            matrix.target(5).unwrap(),
            LaneTarget::Loopback { partner: 1 }
        );
        assert!(matrix.validate().is_ok());
    }

    #[test]
    fn loopback_within_one_half_is_rejected() {
        let mut matrix = MziSwitchMatrix::new(8).unwrap();
        assert!(matrix.steer_loopback(0, 1).is_err());
        assert!(matrix.steer_loopback(4, 7).is_err());
        assert!(matrix.steer_loopback(3, 3).is_err());
    }

    #[test]
    fn loopback_cannot_steal_a_partner() {
        let mut matrix = MziSwitchMatrix::new(8).unwrap();
        matrix.steer_loopback(0, 4).unwrap();
        assert!(matrix.steer_loopback(1, 4).is_err());
        // But re-affirming the existing pairing is fine.
        assert!(matrix.steer_loopback(4, 0).is_ok());
    }

    #[test]
    fn external_paths_have_fewer_stages_than_loopback() {
        let matrix = MziSwitchMatrix::new(8).unwrap();
        assert_eq!(matrix.stages_for(PathId::External1), 2);
        assert_eq!(matrix.stages_for(PathId::External2), 2);
        assert!(matrix.stages_for(PathId::Loopback) > 2);
        assert!(
            matrix.element_loss_db(PathId::Loopback) > matrix.element_loss_db(PathId::External1)
        );
        // Design goal: both external outputs see identical attenuation.
        assert_eq!(
            matrix.element_loss_db(PathId::External1),
            matrix.element_loss_db(PathId::External2)
        );
    }

    #[test]
    fn heater_power_grows_when_elements_are_crossed() {
        let mut matrix = MziSwitchMatrix::new(8).unwrap();
        let idle = matrix.heater_power_mw();
        matrix.steer_external(0, PathId::External2).unwrap();
        assert!(matrix.heater_power_mw() > idle);
    }

    #[test]
    fn unknown_lane_is_reported() {
        let mut matrix = MziSwitchMatrix::new(4).unwrap();
        assert!(matrix.target(9).is_err());
        assert!(matrix.steer_external(9, PathId::External1).is_err());
        assert!(matrix.steer_loopback(0, 9).is_err());
    }
}
