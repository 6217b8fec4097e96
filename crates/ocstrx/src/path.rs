//! The three communication paths of an OCSTrx.
//!
//! §4.1/§3 of the paper: an OCSTrx offers a *cross-lane loopback* path (Path 3)
//! used to close GPU rings inside a node, and *two external paths* (Paths 1 and
//! 2) connecting to neighbour nodes. The paths share the transceiver bandwidth
//! by time division: **exactly one** path carries traffic at any instant, so the
//! full GPU bandwidth is always concentrated on the active path ("activating one
//! external path completely disables the other").

use std::fmt;

/// One of the three selectable paths of an OCSTrx.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathId {
    /// External path 1 — by convention the *primary* neighbour link
    /// (distance ±1 in the K-Hop Ring).
    External1,
    /// External path 2 — by convention a *backup* neighbour link
    /// (distance ±2.. in the K-Hop Ring).
    External2,
    /// Internal cross-lane loopback, closing a GPU-level ring inside the node.
    Loopback,
}

impl PathId {
    /// All three paths, in the order used by the paper's figures
    /// (Path 1, Path 2, Path 3).
    pub const ALL: [PathId; 3] = [PathId::External1, PathId::External2, PathId::Loopback];

    /// Returns `true` for the two fiber-facing paths.
    pub fn is_external(self) -> bool {
        matches!(self, PathId::External1 | PathId::External2)
    }

    /// Paper numbering: Path 1, Path 2, Path 3.
    fn paper_number(self) -> usize {
        match self {
            PathId::External1 => 1,
            PathId::External2 => 2,
            PathId::Loopback => 3,
        }
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path {}", self.paper_number())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbering_matches_figure_2() {
        assert_eq!(PathId::External1.paper_number(), 1);
        assert_eq!(PathId::External2.paper_number(), 2);
        assert_eq!(PathId::Loopback.paper_number(), 3);
        assert_eq!(PathId::External1.to_string(), "Path 1");
    }

    #[test]
    fn externality_classification() {
        assert!(PathId::External1.is_external());
        assert!(PathId::External2.is_external());
        assert!(!PathId::Loopback.is_external());
    }

    #[test]
    fn all_lists_each_path_once() {
        assert_eq!(PathId::ALL.len(), 3);
        let mut sorted = PathId::ALL.to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }
}
