//! The placement-scheme data model.
//!
//! The orchestrator's output is an ordered list of **TP groups**, each an
//! ordered list of nodes. Order carries meaning twice over:
//!
//! * within a group, position is the node's TP rank (adjacent positions are
//!   HBD ring neighbours);
//! * across groups, position is the group's DP/CP rank — group `g` exchanges
//!   DP/CP/PP traffic with groups `g − 1` and `g + 1`, which is what the
//!   cross-ToR accounting in [`crate::traffic`] measures.

use hbd_types::{HbdError, NodeId, Result};
use std::collections::BTreeSet;

/// One TP group: an ordered run of nodes forming a GPU ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpGroup {
    /// The member nodes, in TP-rank order.
    pub nodes: Vec<NodeId>,
}

impl TpGroup {
    /// Creates a group from its member nodes.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        TpGroup { nodes }
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the group has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A complete placement scheme: the ordered TP groups selected for a job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementScheme {
    /// The TP groups, in DP-rank order.
    pub groups: Vec<TpGroup>,
}

impl PlacementScheme {
    /// Creates an empty scheme.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of TP groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the scheme has no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total nodes placed.
    pub fn nodes_placed(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }

    /// Appends a group.
    pub fn push(&mut self, group: TpGroup) {
        self.groups.push(group);
    }

    /// Appends every group of another scheme.
    pub fn extend(&mut self, other: PlacementScheme) {
        self.groups.extend(other.groups);
    }

    /// Validates the scheme: every group must have exactly `nodes_per_group`
    /// members, no node may appear twice, and no placed node may be faulty.
    pub fn validate(&self, nodes_per_group: usize, faulty: &BTreeSet<NodeId>) -> Result<()> {
        let mut seen = BTreeSet::new();
        for (i, group) in self.groups.iter().enumerate() {
            if group.len() != nodes_per_group {
                return Err(HbdError::invalid_config(format!(
                    "group {i} has {} nodes, expected {nodes_per_group}",
                    group.len()
                )));
            }
            for &node in &group.nodes {
                if faulty.contains(&node) {
                    return Err(HbdError::invalid_config(format!(
                        "group {i} places faulty node {node}"
                    )));
                }
                if !seen.insert(node) {
                    return Err(HbdError::invalid_config(format!(
                        "node {node} is placed more than once"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Whether the scheme provides at least `job_nodes` nodes.
    pub fn satisfies(&self, job_nodes: usize) -> bool {
        self.nodes_placed() >= job_nodes
    }

    /// Keeps only the first `job_groups` groups (the job does not need more).
    pub fn truncate(&mut self, job_groups: usize) {
        self.groups.truncate(job_groups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(ids: &[usize]) -> TpGroup {
        TpGroup::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    #[test]
    fn counting_and_ranks() {
        let scheme = PlacementScheme {
            groups: vec![group(&[0, 1]), group(&[2, 3])],
        };
        assert_eq!(scheme.len(), 2);
        assert_eq!(scheme.nodes_placed(), 4);
        assert_eq!(scheme.groups[0].nodes.get(1), Some(&NodeId(1)));
        assert_eq!(scheme.groups[0].nodes.get(2), None);
        assert!(scheme.satisfies(4));
        assert!(!scheme.satisfies(5));
    }

    #[test]
    fn validation_catches_wrong_group_size() {
        let scheme = PlacementScheme {
            groups: vec![group(&[0, 1, 2])],
        };
        assert!(scheme.validate(2, &BTreeSet::new()).is_err());
        assert!(scheme.validate(3, &BTreeSet::new()).is_ok());
    }

    #[test]
    fn validation_catches_duplicates_and_faulty_nodes() {
        let scheme = PlacementScheme {
            groups: vec![group(&[0, 1]), group(&[1, 2])],
        };
        assert!(scheme.validate(2, &BTreeSet::new()).is_err());
        let scheme = PlacementScheme {
            groups: vec![group(&[0, 1])],
        };
        let faulty: BTreeSet<NodeId> = [NodeId(1)].into_iter().collect();
        assert!(scheme.validate(2, &faulty).is_err());
    }

    #[test]
    fn truncate_and_extend() {
        let mut scheme = PlacementScheme {
            groups: vec![group(&[0]), group(&[1]), group(&[2])],
        };
        scheme.truncate(2);
        assert_eq!(scheme.len(), 2);
        let mut other = PlacementScheme::new();
        assert!(other.is_empty());
        other.push(group(&[5]));
        scheme.extend(other);
        assert_eq!(scheme.len(), 3);
        assert_eq!(scheme.groups[2], group(&[5]));
    }
}
