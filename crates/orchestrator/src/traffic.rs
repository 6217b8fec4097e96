//! Cross-ToR traffic accounting — the metric of Fig 17a–c.
//!
//! For a placement scheme, the traffic of one training iteration splits into:
//!
//! * **TP traffic**, which rides the HBD and by construction never touches the
//!   DCN (InfiniteHBD GPUs "communicate without routing traffic, preventing
//!   congestion at any scale"), and
//! * **DP/CP/PP traffic**, exchanged between the same-rank nodes of
//!   DP-adjacent TP groups over the DCN. A pair whose two endpoints hang off
//!   different ToRs contributes *cross-ToR* traffic.
//!
//! The **cross-ToR rate** is cross-ToR volume over total volume (HBD + DCN).
//! Because TP dominates the per-GPU volume by roughly an order of magnitude,
//! a placement whose DP pairs all cross ToRs lands near 10 % — exactly where
//! the paper's greedy baseline sits — while a locality-aware placement drives
//! the rate toward zero.

use crate::scheme::PlacementScheme;
use serde::{Deserialize, Serialize};
use topology::FatTree;

/// Per-node, per-iteration traffic volumes (arbitrary but consistent units;
/// the cross-ToR *rate* only depends on their ratio).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficModel {
    /// TP (HBD) volume exchanged by one node per iteration.
    pub tp_volume_per_node: f64,
    /// DP/CP/PP (DCN) volume exchanged by one node with each DP neighbour per
    /// iteration.
    pub dp_volume_per_pair: f64,
}

impl TrafficModel {
    /// Volumes representative of a TP-32 Llama-scale job: the HBD carries
    /// roughly 9× the bytes that the DCN carries per node per iteration.
    pub fn paper_tp32() -> Self {
        TrafficModel {
            tp_volume_per_node: 450.0,
            dp_volume_per_pair: 50.0,
        }
    }
}

impl Default for TrafficModel {
    fn default() -> Self {
        Self::paper_tp32()
    }
}

/// Fraction of the scheme's total traffic that crosses a ToR switch.
///
/// DP pairs are formed between the node at rank `r` of group `g` and the node
/// at rank `r` of group `g + 1`, for every rank and every adjacent group pair
/// (the DP ring in placement order).
pub fn cross_tor_rate(scheme: &PlacementScheme, fat_tree: &FatTree, model: &TrafficModel) -> f64 {
    if scheme.is_empty() {
        return 0.0;
    }
    let tp_total = scheme.nodes_placed() as f64 * model.tp_volume_per_node;
    let mut dp_total = 0.0;
    let mut dp_cross = 0.0;
    for pair in scheme.groups.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        for rank in 0..a.len().min(b.len()) {
            let (na, nb) = (a.nodes[rank], b.nodes[rank]);
            dp_total += model.dp_volume_per_pair;
            match fat_tree.distance(na, nb) {
                Ok(distance) if distance.crosses_tor() => dp_cross += model.dp_volume_per_pair,
                Ok(_) => {}
                Err(_) => dp_cross += model.dp_volume_per_pair,
            }
        }
    }
    if tp_total + dp_total == 0.0 {
        0.0
    } else {
        dp_cross / (tp_total + dp_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::TpGroup;
    use hbd_types::NodeId;

    /// With no HBD volume and unit DP volume the rate is the fraction of
    /// DP pairs that cross a ToR.
    const DCN_PAIRS_ONLY: TrafficModel = TrafficModel {
        tp_volume_per_node: 0.0,
        dp_volume_per_pair: 1.0,
    };

    fn tree() -> FatTree {
        FatTree::new(64, 4, 4).unwrap()
    }

    fn group(ids: &[usize]) -> TpGroup {
        TpGroup::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    #[test]
    fn empty_scheme_has_no_traffic() {
        let scheme = PlacementScheme::new();
        assert_eq!(
            cross_tor_rate(&scheme, &tree(), &TrafficModel::default()),
            0.0
        );
        assert_eq!(cross_tor_rate(&scheme, &tree(), &DCN_PAIRS_ONLY), 0.0);
    }

    #[test]
    fn same_tor_dp_pairs_do_not_cross() {
        // Groups 0 and 1 have every rank's nodes under the same ToR (nodes 0-3
        // share ToR 0, 4-7 share ToR 1).
        let scheme = PlacementScheme {
            groups: vec![group(&[0, 4]), group(&[1, 5])],
        };
        assert_eq!(cross_tor_rate(&scheme, &tree(), &DCN_PAIRS_ONLY), 0.0);
        assert_eq!(
            cross_tor_rate(&scheme, &tree(), &TrafficModel::default()),
            0.0
        );
    }

    #[test]
    fn cross_tor_pairs_are_counted() {
        // Rank-0 pair 0<->8 crosses ToRs (ToR 0 vs ToR 2); rank-1 pair 1<->9
        // crosses as well.
        let scheme = PlacementScheme {
            groups: vec![group(&[0, 1]), group(&[8, 9])],
        };
        assert_eq!(cross_tor_rate(&scheme, &tree(), &DCN_PAIRS_ONLY), 1.0);
        let rate = cross_tor_rate(&scheme, &tree(), &TrafficModel::paper_tp32());
        // 2 crossing pairs x 50 over (4 nodes x 450 + 2 x 50) = 100 / 1900.
        assert!((rate - 100.0 / 1900.0).abs() < 1e-12);
    }

    #[test]
    fn all_crossing_placement_sits_near_ten_percent() {
        // A long chain of single-node groups, each in a different ToR: every DP
        // pair crosses, and the rate approaches dp / (tp + dp) ~ 10%.
        let groups: Vec<TpGroup> = (0..16).map(|i| group(&[i * 4])).collect();
        let scheme = PlacementScheme { groups };
        let rate = cross_tor_rate(&scheme, &tree(), &TrafficModel::paper_tp32());
        assert!(rate > 0.08 && rate < 0.11, "rate {rate}");
    }

    #[test]
    fn out_of_range_nodes_count_as_crossing() {
        let scheme = PlacementScheme {
            groups: vec![group(&[0]), group(&[999])],
        };
        assert_eq!(cross_tor_rate(&scheme, &tree(), &DCN_PAIRS_ONLY), 1.0);
    }
}
