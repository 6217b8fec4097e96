//! The baseline orchestration of §6.4: "a greedy algorithm, which randomly
//! selects nodes from the cluster and uses the first permutation that meets the
//! requirements". It ignores the DCN entirely, so roughly all of its DP/CP
//! traffic ends up crossing ToRs.

use crate::scheme::{PlacementScheme, TpGroup};
use hbd_types::{HbdError, NodeId, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use topology::FaultSet;

/// Greedy baseline placement: shuffle the healthy nodes and cut the shuffle
/// into TP groups until the job is satisfied (or the nodes run out).
///
/// Returns [`HbdError::InvalidConfig`] for a zero group size.
pub fn greedy_placement<R: Rng + ?Sized>(
    total_nodes: usize,
    faults: &FaultSet,
    nodes_per_group: usize,
    job_nodes: usize,
    rng: &mut R,
) -> Result<PlacementScheme> {
    if nodes_per_group == 0 {
        return Err(HbdError::invalid_config("nodes_per_group must be positive"));
    }
    let mut healthy: Vec<NodeId> = (0..total_nodes)
        .map(NodeId)
        .filter(|n| !faults.is_faulty(*n))
        .collect();
    healthy.shuffle(rng);

    let mut scheme = PlacementScheme::new();
    // Checked before pushing: a zero-node job gets an empty scheme, not a
    // spurious first group (which would charge the mix accounting for nodes
    // the job never asked for).
    for chunk in healthy.chunks(nodes_per_group) {
        if chunk.len() < nodes_per_group || scheme.nodes_placed() >= job_nodes {
            break;
        }
        scheme.push(TpGroup::new(chunk.to_vec()));
    }
    Ok(scheme)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn greedy_fills_the_job_when_capacity_allows() {
        let mut rng = StdRng::seed_from_u64(1);
        let scheme = greedy_placement(100, &FaultSet::new(), 8, 64, &mut rng).unwrap();
        assert!(scheme.nodes_placed() >= 64);
        assert!(scheme.validate(8, &BTreeSet::new()).is_ok());
    }

    #[test]
    fn greedy_never_places_faulty_nodes() {
        let mut rng = StdRng::seed_from_u64(2);
        let faults = FaultSet::from_nodes((0..10).map(NodeId));
        let scheme = greedy_placement(40, &faults, 4, 40, &mut rng).unwrap();
        let faulty: BTreeSet<NodeId> = faults.iter().collect();
        assert!(scheme.validate(4, &faulty).is_ok());
        assert!(scheme.nodes_placed() <= 30);
    }

    #[test]
    fn greedy_is_deterministic_for_a_seed() {
        let a =
            greedy_placement(64, &FaultSet::new(), 4, 64, &mut StdRng::seed_from_u64(7)).unwrap();
        let b =
            greedy_placement(64, &FaultSet::new(), 4, 64, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_zero_node_job_places_nothing() {
        // Regression: the group loop used to push one group before noticing
        // the job was already satisfied, charging a zero-node job for
        // nodes_per_group nodes.
        let mut rng = StdRng::seed_from_u64(4);
        let scheme = greedy_placement(32, &FaultSet::new(), 4, 0, &mut rng).unwrap();
        assert!(scheme.is_empty());
        assert_eq!(scheme.nodes_placed(), 0);
    }

    #[test]
    fn a_zero_group_size_is_an_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let err = greedy_placement(32, &FaultSet::new(), 0, 8, &mut rng).unwrap_err();
        assert!(matches!(err, HbdError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn insufficient_capacity_returns_partial_placement() {
        let mut rng = StdRng::seed_from_u64(3);
        let scheme = greedy_placement(10, &FaultSet::new(), 4, 1000, &mut rng).unwrap();
        assert_eq!(scheme.len(), 2);
        assert!(!scheme.satisfies(1000));
    }
}
