//! The K-Hop run rule and every scan built on it.
//!
//! Algorithm 2 of the paper models the healthy cluster as a graph and finds
//! its connected components with a DFS — but on a K-Hop line the components
//! have a much simpler characterisation: two healthy positions stay connected
//! exactly when no run of `K` or more *consecutive* faulty positions lies
//! between them (the farthest backup link reaches distance `K`, bypassing up
//! to `K − 1` failures). The healthy components are therefore the maximal
//! runs of healthy positions *not* severed by a `≥ K` fault run, and a single
//! left-to-right scan discovers them with no graph and no DFS.
//!
//! This module is the only place that rule is coded, behind three views of
//! the same run structure: [`scan_khop_runs`] streams it into a [`RunSink`]
//! (the orchestrator's `orchestrate_dcn_free` cuts TP groups as it goes);
//! `position_runs` records each run's extent and healthy count, merged
//! over a closed ring's boundary, which
//! [`KHopRing::healthy_segments`](crate::KHopRing::healthy_segments)
//! materialises and [`KHopRing::usable_gpus`](crate::KHopRing::usable_gpus)
//! only sums; and [`RunSummary`] condenses a piece of a line into a value
//! that composes by concatenation (the orchestrator's O(p) search probe).
//! The graph + DFS formulation survives as test oracles in the orchestrator
//! and the K-Hop Ring property tests, pinned to these scans by proptests.

/// Whether `faults` consecutive faulty positions sever a K-Hop line: a run
/// of fewer than `k` is bypassed by backup links, `k` or more cut it.
#[inline]
fn severs(faults: usize, k: usize) -> bool {
    faults >= k
}

/// Consumer of a K-Hop run scan.
///
/// The kernel walks the positions in ascending order and reports every
/// healthy item via [`healthy`](Self::healthy); whenever a run of `K`
/// consecutive faulty positions is crossed it calls [`cut`](Self::cut)
/// exactly once — the line is severed there, so the healthy items before and
/// after the cut belong to different components. A cut may be reported before
/// the first healthy item (a leading fault run) or after the last one; sinks
/// must treat cutting an empty run as a no-op.
pub trait RunSink<T> {
    /// The next healthy item, in scan order.
    fn healthy(&mut self, item: T);
    /// `K` consecutive faulty positions: the current run (if any) ends here.
    fn cut(&mut self);
}

/// Runs the linear K-Hop scan over `items`, classifying each with `faulty`
/// and feeding the run structure to `sink`. O(items), allocation-free.
///
/// `k` is the hop reach: a run of *fewer than* `k` consecutive faulty items
/// is bypassed by backup links; `k` or more sever the line.
pub fn scan_khop_runs<T, I, F, S>(items: I, k: usize, mut faulty: F, sink: &mut S)
where
    I: IntoIterator<Item = T>,
    F: FnMut(&T) -> bool,
    S: RunSink<T>,
{
    assert!(k > 0, "K must be at least 1");
    let mut gap = 0usize;
    for item in items {
        if faulty(&item) {
            gap += 1;
            if gap == k {
                sink.cut();
            }
        } else {
            gap = 0;
            sink.healthy(item);
        }
    }
}

/// One maximal run of healthy positions found by [`position_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PositionRun {
    /// The run's first healthy position.
    pub first: usize,
    /// The run's last healthy position (below `first` when the run wraps).
    pub last: usize,
    /// Healthy positions in the run.
    pub healthy: usize,
    /// Whether the run wraps around the end of the positions (only on a
    /// closed ring).
    pub wraps: bool,
}

impl PositionRun {
    /// Every position from `first` to `last` in scan order, faulty ones
    /// included, for a scan over `0..len`.
    pub(crate) fn span(&self, len: usize) -> impl Iterator<Item = usize> {
        let (tail, head) = if self.wraps {
            (self.first..len, 0..self.last + 1)
        } else {
            (self.first..self.last + 1, 0..0)
        };
        tail.chain(head)
    }
}

/// The [`RunSink`] behind [`position_runs`].
#[derive(Default)]
struct PositionRuns {
    runs: Vec<PositionRun>,
    open: Option<PositionRun>,
}

impl RunSink<usize> for PositionRuns {
    fn healthy(&mut self, pos: usize) {
        let run = self.open.get_or_insert(PositionRun {
            first: pos,
            last: pos,
            healthy: 0,
            wraps: false,
        });
        run.last = pos;
        run.healthy += 1;
    }

    fn cut(&mut self) {
        self.runs.extend(self.open.take());
    }
}

/// The maximal healthy runs of a K-Hop line over positions `0..len`, in scan
/// order, classified by `faulty`. O(len).
///
/// When `closed`, position `len − 1` is also wired to position `0`: if the
/// faults across that boundary do not sever the ring, the first and last
/// runs are one run, which is returned last and marked `wraps`.
pub(crate) fn position_runs(
    len: usize,
    k: usize,
    closed: bool,
    mut faulty: impl FnMut(usize) -> bool,
) -> Vec<PositionRun> {
    let mut sink = PositionRuns::default();
    scan_khop_runs(0..len, k, |&pos| faulty(pos), &mut sink);
    sink.cut();
    let mut runs = sink.runs;
    if closed && runs.len() > 1 {
        let (head, tail) = (runs[0], runs[runs.len() - 1]);
        if !severs(len - 1 - tail.last + head.first, k) {
            runs.pop();
            runs.remove(0);
            runs.push(PositionRun {
                first: tail.first,
                last: head.last,
                healthy: tail.healthy + head.healthy,
                wraps: true,
            });
        }
    }
    runs
}

/// The whole effect of one piece of a K-Hop line on a group count, in a form
/// that composes: the summary of a line is the [`then`](Self::then)-fold of
/// its pieces' summaries, so a count over a long line made of cached pieces
/// costs one O(1) step per piece instead of one per node.
///
/// A piece's healthy nodes fall into runs separated by `K` or more
/// consecutive faults. Only its first and last runs can merge with a
/// neighbouring piece; every run strictly between them is complete and
/// contributes `⌊run / m⌋ · m` placed nodes. The faults at either edge
/// decide whether a neighbour's run merges or is cut off. All fields are
/// counts for one fixed `(K, m)`; the empty piece is `Default`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Faulty positions before the first healthy one (the whole piece when
    /// it has no healthy node).
    lead: usize,
    /// Healthy nodes of the first run; zero exactly when the piece has no
    /// healthy node.
    first: usize,
    /// Whether `K` or more consecutive faults separate the first run from
    /// the last.
    cut: bool,
    /// Nodes placed by the complete runs strictly between the first and the
    /// last run.
    inner: usize,
    /// Healthy nodes of the last run (equal to `first` without a cut).
    last: usize,
    /// Faulty positions after the last healthy one.
    trail: usize,
}

impl RunSummary {
    /// Summarizes `items`, classified by `faulty`, in one pass: the summary
    /// of the same K-Hop run structure [`scan_khop_runs`] walks, for groups
    /// of `nodes_per_group` nodes.
    pub fn scan<T, I, F>(items: I, k: usize, nodes_per_group: usize, mut faulty: F) -> Self
    where
        I: IntoIterator<Item = T>,
        F: FnMut(&T) -> bool,
    {
        let mut summary = RunSummary::default();
        let (mut gap, mut run, mut seen_healthy) = (0usize, 0usize, false);
        for item in items {
            if faulty(&item) {
                gap += 1;
                continue;
            }
            if !seen_healthy {
                summary.lead = gap;
                seen_healthy = true;
            } else if severs(gap, k) {
                if summary.cut {
                    summary.inner += in_groups(run, nodes_per_group);
                } else {
                    summary.first = run;
                    summary.cut = true;
                }
                run = 0;
            }
            gap = 0;
            run += 1;
        }
        if !seen_healthy {
            summary.lead = gap;
        } else if !summary.cut {
            summary.first = run;
        }
        summary.last = run;
        summary.trail = gap;
        summary
    }

    /// The summary of `self` followed directly by `next` on one line.
    #[inline]
    pub fn then(self, next: RunSummary, k: usize, nodes_per_group: usize) -> Self {
        let placed = |run: usize| in_groups(run, nodes_per_group);
        if self.first == 0 {
            // No healthy node: `self`'s faults only lengthen `next`'s edges.
            let trail = if next.first == 0 {
                self.trail + next.trail
            } else {
                next.trail
            };
            return RunSummary {
                lead: self.lead + next.lead,
                trail,
                ..next
            };
        }
        if next.first == 0 {
            return RunSummary {
                trail: self.trail + next.trail,
                ..self
            };
        }
        let severed = severs(self.trail + next.lead, k);
        let (first, last, inner) = if severed {
            // The gap between the pieces cuts the line: `self`'s last run
            // and `next`'s first run both end there.
            let closed = |cut: bool, run: usize| if cut { placed(run) } else { 0 };
            let inner = self.inner
                + next.inner
                + closed(self.cut, self.last)
                + closed(next.cut, next.first);
            (self.first, next.last, inner)
        } else {
            // The gap is bypassed: the two edge runs merge into one.
            let mid = self.last + next.first;
            let inner =
                self.inner + next.inner + if self.cut && next.cut { placed(mid) } else { 0 };
            let first = if self.cut { self.first } else { mid };
            let last = if next.cut { next.last } else { mid };
            (first, last, inner)
        };
        RunSummary {
            lead: self.lead,
            first,
            cut: self.cut || next.cut || severed,
            inner,
            last,
            trail: next.trail,
        }
    }

    /// Nodes placed in complete groups of `nodes_per_group` when every run
    /// of this summary's line, scanned from a fresh state, is cut greedily
    /// into groups: `⌊run / m⌋ · m` per run.
    #[inline]
    pub fn placed(&self, nodes_per_group: usize) -> usize {
        let last = if self.cut { self.last } else { 0 };
        in_groups(self.first, nodes_per_group) + self.inner + in_groups(last, nodes_per_group)
    }
}

/// Nodes of a `run`-node healthy run that complete groups of
/// `nodes_per_group`: `⌊run / m⌋ · m`.
#[inline]
fn in_groups(run: usize, nodes_per_group: usize) -> usize {
    run - run % nodes_per_group
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(len: usize, k: usize, faulty: &[usize]) -> Vec<usize> {
        position_runs(len, k, false, |i| faulty.contains(&i))
            .iter()
            .map(|run| run.healthy)
            .collect()
    }

    #[test]
    fn healthy_line_is_one_run() {
        assert_eq!(runs(10, 2, &[]), vec![10]);
    }

    #[test]
    fn short_fault_runs_are_bypassed() {
        assert_eq!(runs(10, 2, &[4]), vec![9]);
        assert_eq!(runs(10, 3, &[4, 5]), vec![8]);
    }

    #[test]
    fn k_consecutive_faults_cut_the_line() {
        assert_eq!(runs(10, 2, &[4, 5]), vec![4, 4]);
        assert_eq!(runs(10, 1, &[4]), vec![4, 5]);
    }

    #[test]
    fn leading_and_trailing_fault_runs_do_not_create_empty_runs() {
        assert_eq!(runs(10, 2, &[0, 1, 8, 9]), vec![6]);
        assert_eq!(runs(4, 2, &[0, 1, 2, 3]), Vec::<usize>::new());
    }

    #[test]
    fn counter_tracks_scan_extremes() {
        let line = position_runs(10, 2, false, |i| !(2..=7).contains(&i));
        assert_eq!((line[0].first, line[0].last), (2, 7));
        assert_eq!(
            line[0].span(10).collect::<Vec<_>>(),
            (2..=7).collect::<Vec<_>>()
        );
    }

    #[test]
    fn closed_ring_merges_the_boundary_runs_last() {
        // Runs 0..=2, 5..=6 and 9..=11; the single fault 12 of the 13-ring
        // is bypassed, so the first and last runs are one wrapping run.
        let faulty = [3, 4, 7, 8, 12];
        let ring = position_runs(13, 2, true, |i| faulty.contains(&i));
        let wrap = PositionRun {
            first: 9,
            last: 2,
            healthy: 6,
            wraps: true,
        };
        assert_eq!(ring[1], wrap);
        assert_eq!(ring[0].healthy, 2);
        assert_eq!(
            wrap.span(13).collect::<Vec<_>>(),
            vec![9, 10, 11, 12, 0, 1, 2]
        );
        // Two boundary faults sever the K = 2 ring there.
        let severed = position_runs(13, 2, true, |i| [3, 4, 11, 12].contains(&i));
        assert!(severed.iter().all(|run| !run.wraps));
        assert_eq!(severed.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_is_rejected() {
        position_runs(4, 0, false, |_| false);
    }
}
