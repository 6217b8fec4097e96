//! `Placement-Fat-Tree` and the binary-search driver `Orchestration-Fat-Tree`
//! (Algorithms 1, 4 and 5 of the paper).
//!
//! The Fat-Tree DCN adds two constraints on top of the DCN-free orchestration:
//!
//! * **Aggregation-domain constraint** — a TP group should not span two
//!   aggregation-switch domains (its pipeline / context traffic would cross the
//!   core layer);
//! * **Alignment constraint** — every node under one ToR should carry the same
//!   TP-group rank, so the orthogonal DP/CP traffic stays under the ToR. To
//!   preserve alignment in the presence of faults, a fault under an "aligned"
//!   ToR takes the whole ToR out of service (expanding the failure radius by a
//!   factor of `p`), which costs capacity.
//!
//! Because constraints cost capacity, Algorithm 5 binary-searches the number of
//! applied constraints: it keeps as many as possible while still finding enough
//! healthy nodes for the job. Sub-line-segment constraints are applied first
//! (cheap), ToR-alignment constraints second (expensive), matching the paper's
//! ordering ("first relaxes the TP Group alignment constraints ... then relaxes
//! the TP Group crossing constraints").

use crate::dcn_free::{orchestrate_dcn_free, GroupCutter, RunSummary};
use crate::deployment::DeploymentStrategy;
use crate::scheme::PlacementScheme;
use hbd_types::{HbdError, NodeId, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topology::runscan::{scan_khop_runs, RunSink};
use topology::{FatTree, FaultSet};

/// What the job needs from the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrchestrationRequest {
    /// Number of nodes the job needs (`s / r` in the paper's notation).
    pub job_nodes: usize,
    /// Nodes per TP group (`m = t / r`).
    pub nodes_per_group: usize,
    /// OCSTrx bundle count of the K-Hop topology.
    pub k: usize,
}

impl OrchestrationRequest {
    /// Validates the request.
    pub fn validate(&self) -> Result<()> {
        if self.nodes_per_group == 0 {
            return Err(HbdError::invalid_config("nodes_per_group must be positive"));
        }
        if self.k == 0 {
            return Err(HbdError::invalid_config("K must be positive"));
        }
        if self.job_nodes == 0 {
            return Err(HbdError::invalid_config(
                "job must request at least one node",
            ));
        }
        Ok(())
    }
}

/// The Fat-Tree-aware orchestrator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FatTreeOrchestrator {
    deployment: DeploymentStrategy,
    fat_tree: FatTree,
}

/// Per-search scratch of one constraint search (one
/// [`FatTreeOrchestrator::orchestrate_par`] call): everything the probe
/// ladder would otherwise recompute per probe, built once and shared
/// immutably across the probe-evaluation threads.
///
/// Besides both placement variants of every sub-line segment it holds the
/// tables that make a probe O(p) (p = nodes per ToR = sub-lines): prefix sums
/// of the segments' node counts for the constrained part, and per-sub-line
/// suffix folds of the segments' [`RunSummary`]s plus summaries of the
/// trailing partial rack for the residual line (see
/// [`FatTreeOrchestrator::placed_count_cached`]).
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    /// The deployment order (Algorithm 3). Layout-only (fault-independent),
    /// so patched scratches share it by `Arc`.
    order: Arc<Vec<NodeId>>,
    /// For every node id, the sub-line segment owning it (`usize::MAX` for
    /// nodes outside any segment, e.g. a trailing partial rack). Replaces the
    /// per-probe `consumed` set: a probe with `c` constrained segments keeps
    /// exactly the nodes with `owner >= c` in its residual pass. Layout-only,
    /// shared by `Arc` like `order`.
    owner: Arc<Vec<usize>>,
    /// Both memoized placement variants per segment, in segment order.
    /// Shorter than the segment pool when a segment is undefined for the
    /// layout (mirrors the `break` in the uncached loop). Each entry is
    /// `Arc`-shared so a patch carries clean segments over for free.
    segments: Vec<Arc<SegmentCache>>,
    /// The fault set this scratch was built from. It doubles as the
    /// per-domain fingerprint: a patch compares its words over each
    /// aggregation domain with [`FaultSet::range_eq`] to decide what to
    /// re-orchestrate.
    raw: FaultSet,
    /// `raw` with the ToR expansion applied in every aggregation domain. A
    /// probe with `a` aligned domains reads this set below the cutoff
    /// `a × nodes_per_aggregation_domain` and `raw` from the cutoff on.
    expanded: FaultSet,
    /// `raw_prefix[s]`: `raw_nodes` summed over the first `s` segments.
    raw_prefix: Vec<usize>,
    /// `aligned_prefix[s]`: `aligned_nodes` summed over the first `s`
    /// segments.
    aligned_prefix: Vec<usize>,
    /// For sub-line `i` and domain `q`, `suffix[i * (domains + 1) + q]` is
    /// the fold of the raw summaries of sub-line `i`'s segments in domains
    /// `q..domains` (`domains = segments.len() / p`); the last entry of each
    /// sub-line is the empty summary.
    suffix: Vec<RunSummary>,
    /// Summary of the trailing partial rack (the end of `order` past the
    /// sub-lines, owned by no segment) under `raw`.
    tail_raw: RunSummary,
    /// The same under `expanded`.
    tail_expanded: RunSummary,
}

/// The two placements a sub-line segment can contribute, depending only on
/// whether its aggregation domain is alignment-constrained, plus their
/// `nodes_placed()` so a count-only probe never walks the groups, and the
/// run summary of the segment's raw faults for the residual line of an
/// unaligned probe.
#[derive(Debug)]
struct SegmentCache {
    raw: PlacementScheme,
    aligned: PlacementScheme,
    raw_nodes: usize,
    aligned_nodes: usize,
    summary: RunSummary,
}

impl SegmentCache {
    fn new(raw: PlacementScheme, aligned: PlacementScheme, summary: RunSummary) -> Self {
        SegmentCache {
            raw_nodes: raw.nodes_placed(),
            aligned_nodes: aligned.nodes_placed(),
            raw,
            aligned,
            summary,
        }
    }
}

/// What one `FatTreeOrchestrator::patch_scratch` call re-derived versus
/// carried over — the observability hook of the incremental publish path
/// (aggregated by the placement service into its patch tally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchPatchStats {
    /// Sub-line segments with at least one placement variant re-orchestrated.
    pub segments_reorchestrated: usize,
    /// Sub-line segments carried over without re-orchestration.
    pub segments_reused: usize,
    /// Aggregation domains whose fault words changed.
    pub domains_patched: usize,
}

impl ScratchPatchStats {
    /// Accumulates another patch's counts into `self`.
    pub fn absorb(&mut self, other: &ScratchPatchStats) {
        self.segments_reorchestrated += other.segments_reorchestrated;
        self.segments_reused += other.segments_reused;
        self.domains_patched += other.domains_patched;
    }
}

impl FatTreeOrchestrator {
    /// Creates an orchestrator for the given Fat-Tree DCN. The deployment
    /// wiring (Algorithm 3) is derived from the same rack layout.
    pub fn new(fat_tree: FatTree) -> Result<Self> {
        let deployment = DeploymentStrategy::new(fat_tree.nodes(), fat_tree.nodes_per_tor())?;
        Ok(FatTreeOrchestrator {
            deployment,
            fat_tree,
        })
    }

    /// The underlying deployment wiring.
    pub fn deployment(&self) -> &DeploymentStrategy {
        &self.deployment
    }

    /// The DCN this orchestrator targets.
    pub fn fat_tree(&self) -> &FatTree {
        &self.fat_tree
    }

    /// Number of sub-line segments (one per sub-line per aggregation domain) —
    /// the pool of "segment" constraints available to the binary search.
    pub fn segment_constraints(&self) -> usize {
        self.fat_tree.aggregation_domains() * self.deployment.sublines()
    }

    /// Number of aggregation domains — the pool of "alignment" constraints.
    pub fn alignment_constraints(&self) -> usize {
        self.fat_tree.aggregation_domains()
    }

    /// Expands one faulty node's failure radius to its whole ToR (the
    /// alignment-constraint cost: surviving rack peers keep matching ranks by
    /// leaving service together).
    fn expand_tor(&self, effective: &mut FaultSet, node: NodeId) {
        let p = self.deployment.sublines();
        let tor_start = node.index() / p * p;
        for peer in tor_start..(tor_start + p).min(self.fat_tree.nodes()) {
            effective.add(NodeId(peer));
        }
    }

    /// `faults` with the ToR expansion applied in every aggregation domain;
    /// ids past the last domain stay raw. Shared by the cold scratch build
    /// and [`patch_scratch`](Self::patch_scratch).
    fn expand_domains(&self, faults: &FaultSet) -> FaultSet {
        let mut expanded = faults.clone();
        let in_domains =
            self.alignment_constraints() * self.fat_tree.nodes_per_aggregation_domain();
        for node in faults.iter_range(0, in_domains) {
            self.expand_tor(&mut expanded, node);
        }
        expanded
    }

    /// `Placement-Fat-Tree` (Algorithm 4): places TP groups with the first
    /// `n_constraints` constraints applied.
    ///
    /// This is the uncached single-probe entry point; the constraint search
    /// ([`orchestrate_par`](Self::orchestrate_par)) evaluates many probes
    /// against one fault set and reuses the shared per-search state
    /// (`SearchScratch`) instead. Both paths produce identical placements.
    pub fn placement_with_constraints(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
        n_constraints: usize,
    ) -> PlacementScheme {
        let p = self.deployment.sublines();
        let tors_per_domain = self.fat_tree.nodes_per_aggregation_domain() / p;
        let n_segments = self.segment_constraints();
        let constrained_segments = n_constraints.min(n_segments);
        let aligned_domains = n_constraints.saturating_sub(n_segments);

        // Alignment constraint: inside the first `aligned_domains` domains, a
        // faulty node takes its whole ToR out of service so the surviving nodes
        // keep matching ranks. With no aligned domain the raw fault set is
        // borrowed as-is — no clone per probe.
        let expanded;
        let effective: &FaultSet = if aligned_domains == 0 {
            faults
        } else {
            let mut e = faults.clone();
            for node in faults.iter() {
                let domain = node.index() / self.fat_tree.nodes_per_aggregation_domain();
                if domain < aligned_domains {
                    self.expand_tor(&mut e, node);
                }
            }
            expanded = e;
            &expanded
        };

        let mut scheme = PlacementScheme::new();
        // Position bitmask over node ids: which nodes a constrained segment
        // consumed (placed or not).
        let mut consumed = vec![false; self.fat_tree.nodes()];

        // Segment constraint: the first `constrained_segments` sub-line
        // segments each place their TP groups entirely within themselves
        // (same sub-line, same aggregation domain).
        'segments: for seg in 0..constrained_segments {
            let domain = seg / p;
            let subline = seg % p;
            let Ok(nodes) = self
                .deployment
                .subline_segment(subline, domain, tors_per_domain)
            else {
                break 'segments;
            };
            let placed =
                orchestrate_dcn_free(&nodes, request.k, effective, request.nodes_per_group);
            for node in &nodes {
                consumed[node.index()] = true;
            }
            scheme.extend(placed);
        }

        // Residual: everything not consumed by a constrained segment is
        // orchestrated as one long HBD line (groups may now cross domains and
        // lose alignment — that is the relaxation). The linear-scan kernel
        // streams the filtered deployment order directly; no residual vector
        // is materialised.
        let mut cutter = GroupCutter::new(request.nodes_per_group);
        scan_khop_runs(
            self.deployment
                .deployment_order()
                .into_iter()
                .filter(|n| !consumed[n.index()]),
            request.k,
            |n| effective.is_faulty(*n),
            &mut cutter,
        );
        scheme.extend(cutter.scheme);

        self.assign_dp_ranks(&mut scheme);
        scheme
    }

    /// Builds the per-search scratch shared by every probe of one constraint
    /// search: the deployment order, the segment-ownership mask, the raw and
    /// the ToR-expanded fault sets, both placement variants and the raw run
    /// summary of every sub-line segment, and the probe tables derived from
    /// them.
    ///
    /// A segment's placement depends only on the segment and on whether its
    /// own aggregation domain is aligned: ToRs never straddle domains
    /// (`nodes_per_aggregation_domain = p × tors_per_domain`), so the ToR
    /// expansion sourced from other domains cannot touch the segment's nodes.
    /// Each segment is therefore orchestrated exactly twice per search — once
    /// raw, once aligned — instead of once per probe. The same argument lets
    /// a probe with `a` aligned domains read one expanded set below the
    /// domain cutoff instead of a per-`a` effective set.
    pub(crate) fn search_scratch(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
    ) -> SearchScratch {
        let p = self.deployment.sublines();
        let tors_per_domain = self.fat_tree.nodes_per_aggregation_domain() / p;
        let n_segments = self.segment_constraints();
        let expanded = self.expand_domains(faults);

        let mut owner = vec![usize::MAX; self.fat_tree.nodes()];
        let mut segments = Vec::with_capacity(n_segments);
        for seg in 0..n_segments {
            let domain = seg / p;
            let subline = seg % p;
            let Ok(nodes) = self
                .deployment
                .subline_segment(subline, domain, tors_per_domain)
            else {
                break;
            };
            for node in &nodes {
                owner[node.index()] = seg;
            }
            segments.push(Arc::new(SegmentCache::new(
                orchestrate_dcn_free(&nodes, request.k, faults, request.nodes_per_group),
                orchestrate_dcn_free(&nodes, request.k, &expanded, request.nodes_per_group),
                RunSummary::scan(&nodes, request.k, request.nodes_per_group, |n| {
                    faults.is_faulty(**n)
                }),
            )));
        }

        let mut scratch = SearchScratch {
            order: Arc::new(self.deployment.deployment_order()),
            owner: Arc::new(owner),
            segments,
            raw: faults.clone(),
            expanded,
            ..SearchScratch::default()
        };
        self.derive_probe_tables(request, &mut scratch, |_| true);
        scratch
    }

    /// Fills the probe tables of `scratch` from its segments and fault sets:
    /// refolds the suffix summaries of every sub-line `refold` selects (a
    /// fresh scratch's empty `suffix` is sized first, so a cold build selects
    /// all), and rebuilds the segment prefix sums and the trailing-rack
    /// summaries, both O(segments + p).
    fn derive_probe_tables(
        &self,
        request: &OrchestrationRequest,
        scratch: &mut SearchScratch,
        refold: impl Fn(usize) -> bool,
    ) {
        let (k, m) = (request.k, request.nodes_per_group);
        let p = self.deployment.sublines();
        let domains = scratch.segments.len() / p;
        scratch
            .suffix
            .resize(p * (domains + 1), RunSummary::default());
        for (subline, folds) in scratch.suffix.chunks_mut(domains + 1).enumerate() {
            if !refold(subline) {
                continue;
            }
            for domain in (0..domains).rev() {
                let segment = &scratch.segments[domain * p + subline];
                folds[domain] = segment.summary.then(folds[domain + 1], k, m);
            }
        }

        let prefix = |count: fn(&SegmentCache) -> usize| {
            std::iter::once(0)
                .chain(scratch.segments.iter().scan(0, |sum, cache| {
                    *sum += count(cache);
                    Some(*sum)
                }))
                .collect::<Vec<usize>>()
        };
        scratch.raw_prefix = prefix(|cache| cache.raw_nodes);
        scratch.aligned_prefix = prefix(|cache| cache.aligned_nodes);

        let tail = &scratch.order[self.deployment.subline_length() * p..];
        let summarize = |faults: &FaultSet| RunSummary::scan(tail, k, m, |n| faults.is_faulty(**n));
        scratch.tail_raw = summarize(&scratch.raw);
        scratch.tail_expanded = summarize(&scratch.expanded);
    }

    /// Derives the scratch for `faults` from a scratch previously built (or
    /// patched) for the same `(k, nodes_per_group)` key under a different
    /// fault set — the incremental half of the oracle-vs-fast-solver pair
    /// whose oracle is the cold [`search_scratch`](Self::search_scratch)
    /// rebuild. Cost is proportional to the *delta* between the two fault
    /// sets, not the cluster, apart from one linear pass rebuilding the
    /// expanded set:
    ///
    /// * the deployment order and ownership mask are layout-only and shared
    ///   by `Arc`;
    /// * an aggregation domain whose fault words are unchanged
    ///   ([`FaultSet::range_eq`] against the old scratch's `raw` set)
    ///   contributes nothing — its segments are `Arc`-cloned, and its
    ///   expanded words are unchanged too because the ToR expansion never
    ///   crosses a domain boundary;
    /// * inside a dirty domain, only segments whose own nodes' raw (resp.
    ///   expanded) bits flipped re-orchestrate their raw (resp. aligned)
    ///   variant; every other variant is carried over;
    /// * only raw-dirty segments re-summarize their runs, and only their
    ///   sub-lines refold their suffix summaries; the segment prefix sums
    ///   and the trailing-rack summaries are rebuilt (O(segments + p)).
    ///
    /// Bit-exactness versus the cold rebuild follows from
    /// `orchestrate_dcn_free` being a deterministic function of the fault
    /// bits on the segment's own nodes: unchanged bits imply an identical
    /// placement, so cloning it is indistinguishable from recomputing it.
    /// Pinned field-for-field by the patch proptests below.
    pub(crate) fn patch_scratch(
        &self,
        request: &OrchestrationRequest,
        old: &SearchScratch,
        faults: &FaultSet,
    ) -> (SearchScratch, ScratchPatchStats) {
        let p = self.deployment.sublines();
        let npd = self.fat_tree.nodes_per_aggregation_domain();
        let tors_per_domain = npd / p;

        let expanded = self.expand_domains(faults);
        let mut raw_dirty = vec![false; old.segments.len()];
        let mut aligned_dirty = vec![false; old.segments.len()];
        let mut stats = ScratchPatchStats::default();
        // Marks the owning segment of every node of `domain` that is faulty
        // in exactly one of `new` and `old`.
        let mark_flips = |flags: &mut [bool], domain: usize, new: &FaultSet, old: &FaultSet| {
            let (lo, hi) = (domain * npd, (domain + 1) * npd);
            let added = new.iter_range(lo, hi).filter(|n| !old.is_faulty(*n));
            let removed = old.iter_range(lo, hi).filter(|n| !new.is_faulty(*n));
            for node in added.chain(removed) {
                if let Some(flag) = flags.get_mut(domain * p + node.index() % p) {
                    *flag = true;
                }
            }
        };

        for domain in 0..self.alignment_constraints() {
            if faults.range_eq(&old.raw, domain * npd, (domain + 1) * npd) {
                continue;
            }
            stats.domains_patched += 1;
            mark_flips(&mut raw_dirty, domain, faults, &old.raw);
            mark_flips(&mut aligned_dirty, domain, &expanded, &old.expanded);
        }

        let mut segments = Vec::with_capacity(old.segments.len());
        for (seg, cache) in old.segments.iter().enumerate() {
            let (raw_hit, aligned_hit) = (raw_dirty[seg], aligned_dirty[seg]);
            if !raw_hit && !aligned_hit {
                segments.push(Arc::clone(cache));
                stats.segments_reused += 1;
                continue;
            }
            stats.segments_reorchestrated += 1;
            let nodes = self
                .deployment
                .subline_segment(seg % p, seg / p, tors_per_domain)
                .expect("segment was defined when the old scratch was built");
            let (raw, summary) = if raw_hit {
                (
                    orchestrate_dcn_free(&nodes, request.k, faults, request.nodes_per_group),
                    RunSummary::scan(&nodes, request.k, request.nodes_per_group, |n| {
                        faults.is_faulty(**n)
                    }),
                )
            } else {
                (cache.raw.clone(), cache.summary)
            };
            let aligned = if aligned_hit {
                orchestrate_dcn_free(&nodes, request.k, &expanded, request.nodes_per_group)
            } else {
                cache.aligned.clone()
            };
            segments.push(Arc::new(SegmentCache::new(raw, aligned, summary)));
        }

        let mut scratch = SearchScratch {
            order: Arc::clone(&old.order),
            owner: Arc::clone(&old.owner),
            segments,
            raw: faults.clone(),
            expanded,
            suffix: old.suffix.clone(),
            ..SearchScratch::default()
        };
        self.derive_probe_tables(request, &mut scratch, |subline| {
            raw_dirty
                .iter()
                .skip(subline)
                .step_by(p)
                .any(|&dirty| dirty)
        });
        (scratch, stats)
    }

    /// [`placement_with_constraints`](Self::placement_with_constraints)
    /// against a prebuilt [`SearchScratch`]: constrained segments copy their
    /// memoized placements, the residual pass streams the cached deployment
    /// order through the linear-scan kernel, and no fault set is cloned.
    /// Bit-identical to the uncached path (pinned by the memoization
    /// invariance test and the chained-patch proptest).
    pub(crate) fn placement_with_constraints_cached(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
    ) -> PlacementScheme {
        let p = self.deployment.sublines();
        let (constrained, aligned_domains) = self.probe_split(scratch, n_constraints);
        let mut scheme = PlacementScheme::new();
        for (seg, cache) in scratch.segments.iter().enumerate().take(constrained) {
            let placed = if seg / p < aligned_domains {
                &cache.aligned
            } else {
                &cache.raw
            };
            scheme.groups.extend_from_slice(&placed.groups);
        }

        let mut cutter = GroupCutter::new(request.nodes_per_group);
        self.scan_residual(request, scratch, constrained, aligned_domains, &mut cutter);
        scheme.extend(cutter.scheme);

        self.assign_dp_ranks(&mut scheme);
        scheme
    }

    /// `placement_with_constraints_cached(request, scratch, n).nodes_placed()`
    /// in O(p) without building the placement or scanning a node. This is
    /// what a search probe evaluates.
    ///
    /// The constrained segments contribute their memoized counts, read off
    /// the prefix sums: aligned ones below segment `a × p`, raw ones above.
    /// The residual line is counted from run summaries. Segments are numbered
    /// domain-major while the deployment order is sub-line-major, so with
    /// `c` constrained segments the residual part of sub-line `i` is its
    /// suffix from domain `⌈(c − i) / p⌉` on (one cached fold), and the line
    /// ends with the trailing partial rack. With `a > 0` aligned domains
    /// every defined segment is constrained and only that rack remains; it
    /// reads the expanded faults when it lies below the alignment cutoff.
    /// Pinned to the residual scan [`placed_count_scan`](Self::placed_count_scan)
    /// and to the placement by proptests.
    pub(crate) fn placed_count_cached(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
    ) -> usize {
        let p = self.deployment.sublines();
        let (k, m) = (request.k, request.nodes_per_group);
        let (constrained, aligned_domains) = self.probe_split(scratch, n_constraints);
        let aligned = (aligned_domains * p).min(constrained);
        let segments = scratch.aligned_prefix[aligned] + scratch.raw_prefix[constrained]
            - scratch.raw_prefix[aligned];

        let domains = scratch.segments.len() / p;
        let mut line = RunSummary::default();
        for subline in 0..p {
            let from = constrained.saturating_sub(subline).div_ceil(p);
            line = line.then(scratch.suffix[subline * (domains + 1) + from], k, m);
        }
        let tail_start = self.deployment.subline_length() * p;
        let tail = if tail_start < aligned_domains * self.fat_tree.nodes_per_aggregation_domain() {
            scratch.tail_expanded
        } else {
            scratch.tail_raw
        };
        segments + line.then(tail, k, m).placed(m)
    }

    /// The residual-scan count [`placed_count_cached`](Self::placed_count_cached)
    /// replaced: memoized segment counts plus the residual line streamed
    /// through the linear-scan kernel into a `GroupCounter`. O(nodes); the
    /// probe's oracle.
    #[cfg(test)]
    pub(crate) fn placed_count_scan(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
    ) -> usize {
        let p = self.deployment.sublines();
        let (constrained, aligned_domains) = self.probe_split(scratch, n_constraints);
        let segments: usize = scratch
            .segments
            .iter()
            .enumerate()
            .take(constrained)
            .map(|(seg, cache)| {
                if seg / p < aligned_domains {
                    cache.aligned_nodes
                } else {
                    cache.raw_nodes
                }
            })
            .sum();

        let mut counter = crate::dcn_free::GroupCounter::new(request.nodes_per_group);
        self.scan_residual(request, scratch, constrained, aligned_domains, &mut counter);
        segments + counter.placed
    }

    /// How a probe of `n_constraints` splits over the scratch: the number of
    /// constrained segments and of aligned aggregation domains.
    fn probe_split(&self, scratch: &SearchScratch, n_constraints: usize) -> (usize, usize) {
        let n_segments = self.segment_constraints();
        let constrained = n_constraints.min(n_segments).min(scratch.segments.len());
        let aligned_domains = n_constraints
            .saturating_sub(n_segments)
            .min(self.alignment_constraints());
        (constrained, aligned_domains)
    }

    /// The residual pass of a placement: every node not owned by one of the
    /// first `constrained` segments, in deployment order, through the
    /// linear-scan kernel into `sink`. Probes count the same line from run
    /// summaries instead.
    fn scan_residual<S: RunSink<NodeId>>(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        constrained: usize,
        aligned_domains: usize,
        sink: &mut S,
    ) {
        // The alignment prefix: the first `aligned_domains` domains see the
        // ToR-expanded faults, everything from the cutoff on the raw ones.
        let cutoff = aligned_domains * self.fat_tree.nodes_per_aggregation_domain();
        let is_faulty = |n: NodeId| {
            if n.index() < cutoff {
                scratch.expanded.is_faulty(n)
            } else {
                scratch.raw.is_faulty(n)
            }
        };
        scan_khop_runs(
            scratch
                .order
                .iter()
                .copied()
                .filter(|n| scratch.owner[n.index()] >= constrained),
            request.k,
            |n| is_faulty(*n),
            sink,
        );
    }

    /// `Orchestration-Fat-Tree` (Algorithms 1 and 5): search the number of
    /// constraints, keeping as many as possible while still satisfying the
    /// job scale. Returns the placement truncated to the job's group count, or
    /// an error if even the fully relaxed placement cannot satisfy the job.
    ///
    /// The paper's binary search probes one constraint count per round; this
    /// implementation is a *multisection* search that probes
    /// [`SEARCH_PROBES`](Self::SEARCH_PROBES) evenly spaced constraint counts
    /// per round and fans the independent probe evaluations out over up to
    /// `threads` scoped threads. The probe ladder is fixed —
    /// `threads` only changes how the probes are *evaluated*, never which
    /// probes are chosen — so the resulting placement is identical for every
    /// thread count, and with one thread the probes are evaluated lazily from
    /// the most constrained end. Keeping the ladder identical across thread
    /// counts is a deliberate trade-off: a `threads == 1` fallback to plain
    /// bisection would be cheaper in the worst case (one evaluation per
    /// halving instead of up to [`SEARCH_PROBES`](Self::SEARCH_PROBES) per
    /// third-ing) but could return a different placement wherever feasibility
    /// is not perfectly monotone in the constraint count, breaking the
    /// harness-wide thread-count-invariance guarantee.
    pub fn orchestrate_par(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
        threads: usize,
    ) -> Result<PlacementScheme> {
        request.validate()?;
        // Everything probe-invariant is computed once: the deployment order,
        // the segment-ownership mask, the raw and ToR-expanded fault sets,
        // both placement variants (and node counts) of every segment, and
        // the probe tables. Each probe is then O(p) table lookups.
        let scratch = self.search_scratch(request, faults);
        self.orchestrate_with_scratch(request, &scratch, threads).0
    }

    /// The constraint search of [`orchestrate_par`](Self::orchestrate_par)
    /// against a prebuilt [`SearchScratch`], so callers answering many
    /// requests against one fault set (the placement service, the max-job
    /// search) can amortize the scratch across searches. The scratch depends
    /// only on `(k, nodes_per_group, faults)` — never on `job_nodes` — so one
    /// scratch serves every job size of a `(k, nodes_per_group)` key.
    ///
    /// A probe asks only whether a constraint count still places enough
    /// nodes, so it is a node count ([`placed_count_cached`](Self::placed_count_cached)),
    /// not a placement; the placement is built once, for the most constrained
    /// feasible count, after the search ends.
    ///
    /// The caller must have validated `request` and built `scratch` for the
    /// same `k` / `nodes_per_group`. Returns the search outcome plus the
    /// number of probes evaluated (with `threads == 1` the lazy evaluation
    /// makes this count exact, with more threads every probe of a round is
    /// evaluated eagerly).
    pub(crate) fn orchestrate_with_scratch(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        threads: usize,
    ) -> (Result<PlacementScheme>, usize) {
        let job_groups = request.job_nodes.div_ceil(request.nodes_per_group);
        let needed_nodes = job_groups * request.nodes_per_group;
        let feasible = |n: usize| self.placed_count_cached(request, scratch, n) >= needed_nodes;
        let mut evaluated = 0usize;

        let mut low = 0usize;
        let mut high = self.segment_constraints() + self.alignment_constraints();
        let mut best: Option<usize> = None;
        while low <= high {
            let probes = Self::probe_ladder(low, high);
            // Find the most constrained feasible probe and the least
            // constrained infeasible probe directly above it.
            let hit = if threads > 1 {
                evaluated += probes.len();
                let verdicts = hbd_types::par::par_map(threads, &probes, |_, &n| feasible(n));
                probes
                    .iter()
                    .zip(verdicts)
                    .rev()
                    .find_map(|(&n, ok)| ok.then_some(n))
            } else {
                probes.iter().rev().copied().find(|&n| {
                    evaluated += 1;
                    feasible(n)
                })
            };
            match hit {
                Some(n) => {
                    // Everything above `n` up to the next probe is still open;
                    // everything from the next probe on is ruled out.
                    if let Some(&next) = probes.iter().find(|&&p| p > n) {
                        high = next - 1;
                    }
                    best = Some(n);
                    low = n + 1;
                }
                None => {
                    // The least constrained probe (== `low`) is infeasible.
                    if low == 0 {
                        break;
                    }
                    high = low - 1;
                }
            }
        }

        let outcome = match best {
            Some(n) => {
                let mut placement = self.placement_with_constraints_cached(request, scratch, n);
                placement.truncate(job_groups);
                Ok(placement)
            }
            None => Err(HbdError::infeasible(format!(
                "job needs {needed_nodes} nodes but the cluster cannot provide them under the current fault pattern"
            ))),
        };
        (outcome, evaluated)
    }

    /// Probes per multisection round of the constraint / job-size searches.
    pub const SEARCH_PROBES: usize = 4;

    /// Evenly spaced probe points covering `[low, high]`, endpoints included,
    /// at most [`SEARCH_PROBES`](Self::SEARCH_PROBES) of them, strictly
    /// increasing.
    pub(crate) fn probe_ladder(low: usize, high: usize) -> Vec<usize> {
        debug_assert!(low <= high);
        let span = high - low + 1;
        let count = Self::SEARCH_PROBES.min(span);
        if count <= 1 {
            return vec![low];
        }
        let mut probes: Vec<usize> = (0..count)
            .map(|i| low + (high - low) * i / (count - 1))
            .collect();
        probes.dedup();
        probes
    }

    /// Orders the groups for DP-rank assignment so that groups whose rank-0
    /// nodes share a ToR (and hence, under alignment, share every rank's ToR)
    /// become DP neighbours — the "align ranks within each ToR" objective.
    fn assign_dp_ranks(&self, scheme: &mut PlacementScheme) {
        scheme.groups.sort_by_key(|group| {
            let head = group.nodes.first().copied().unwrap_or(NodeId(0));
            let tor = head.index() / self.deployment.sublines();
            let domain = head.index() / self.fat_tree.nodes_per_aggregation_domain();
            (domain, tor, head.index())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{cross_tor_rate, TrafficModel};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The patch path's oracle: a patched scratch must be indistinguishable,
    /// field for field, from a cold [`FatTreeOrchestrator::search_scratch`]
    /// rebuild against the same fault set.
    fn assert_matches_cold_rebuild(
        orch: &FatTreeOrchestrator,
        req: &OrchestrationRequest,
        patched: &SearchScratch,
        faults: &FaultSet,
    ) -> SearchScratch {
        let cold = orch.search_scratch(req, faults);
        assert_eq!(*patched.order, *cold.order);
        assert_eq!(*patched.owner, *cold.owner);
        assert_eq!(patched.raw, cold.raw);
        assert_eq!(patched.expanded, cold.expanded);
        assert_eq!(patched.segments.len(), cold.segments.len());
        for (seg, (p, c)) in patched.segments.iter().zip(&cold.segments).enumerate() {
            assert_eq!(p.raw, c.raw, "segment {seg} raw placement");
            assert_eq!(p.aligned, c.aligned, "segment {seg} aligned placement");
            assert_eq!(p.summary, c.summary, "segment {seg} run summary");
        }
        assert_eq!(patched.raw_prefix, cold.raw_prefix);
        assert_eq!(patched.aligned_prefix, cold.aligned_prefix);
        assert_eq!(patched.suffix, cold.suffix, "sub-line suffix folds");
        assert_eq!(patched.tail_raw, cold.tail_raw);
        assert_eq!(patched.tail_expanded, cold.tail_expanded);
        cold
    }

    /// The O(p) probe count equals the residual-scan oracle at every
    /// `stride`-th constraint count and at every count with an aligned
    /// domain.
    fn assert_probes_match_scan(
        orch: &FatTreeOrchestrator,
        req: &OrchestrationRequest,
        scratch: &SearchScratch,
        stride: usize,
    ) {
        let segments = orch.segment_constraints();
        let total = segments + orch.alignment_constraints();
        for n in (0..=total).step_by(stride).chain(segments..=total) {
            assert_eq!(
                orch.placed_count_cached(req, scratch, n),
                orch.placed_count_scan(req, scratch, n),
                "constraint count {n}"
            );
        }
    }

    fn orchestrator() -> FatTreeOrchestrator {
        // 512 nodes, 16 per ToR, 8 ToRs per aggregation domain (so one sub-line
        // segment can host a full 8-node TP group, as in the paper's 8k-GPU
        // setup).
        FatTreeOrchestrator::new(FatTree::new(512, 16, 8).unwrap()).unwrap()
    }

    fn request(job_nodes: usize) -> OrchestrationRequest {
        OrchestrationRequest {
            job_nodes,
            nodes_per_group: 8,
            k: 2,
        }
    }

    #[test]
    fn constraint_pools_match_layout() {
        let orch = orchestrator();
        assert_eq!(orch.alignment_constraints(), 4);
        assert_eq!(orch.segment_constraints(), 4 * 16);
    }

    #[test]
    fn healthy_cluster_satisfies_large_jobs_with_full_constraints() {
        let orch = orchestrator();
        let placement = orch
            .orchestrate_par(&request(384), &FaultSet::new(), 1)
            .unwrap();
        assert!(placement.nodes_placed() >= 384);
        assert!(placement.validate(8, &BTreeSet::new()).is_ok());
    }

    #[test]
    fn orchestrated_placement_has_near_zero_cross_tor_traffic() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..10).map(|i| NodeId(i * 37)));
        let placement = orch.orchestrate_par(&request(400), &faults, 1).unwrap();
        let rate = cross_tor_rate(&placement, orch.fat_tree(), &TrafficModel::paper_tp32());
        assert!(
            rate < 0.02,
            "optimized cross-ToR rate should be near zero, got {rate}"
        );
    }

    #[test]
    fn relaxing_constraints_increases_capacity() {
        let orch = orchestrator();
        // Concentrated faults in domain 0 make constrained placement expensive.
        let faults = FaultSet::from_nodes((0..32).map(NodeId));
        let req = request(400);
        let strict = orch.placement_with_constraints(
            &req,
            &faults,
            orch.segment_constraints() + orch.alignment_constraints(),
        );
        let relaxed = orch.placement_with_constraints(&req, &faults, 0);
        assert!(relaxed.nodes_placed() >= strict.nodes_placed());
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let orch = orchestrator();
        assert!(orch
            .orchestrate_par(&request(1000), &FaultSet::new(), 1)
            .is_err());
        // Invalid request parameters are rejected too.
        let bad = OrchestrationRequest {
            job_nodes: 0,
            nodes_per_group: 8,
            k: 2,
        };
        assert!(orch.orchestrate_par(&bad, &FaultSet::new(), 1).is_err());
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..24).map(|i| NodeId(i * 17)));
        let req = request(400);
        let seq = orch.orchestrate_par(&req, &faults, 1).unwrap();
        let par = orch.orchestrate_par(&req, &faults, 4).unwrap();
        assert_eq!(seq, par);
        let wide = orch.orchestrate_par(&req, &faults, 16).unwrap();
        assert_eq!(seq, wide);
    }

    #[test]
    fn probe_ladder_is_sane() {
        assert_eq!(FatTreeOrchestrator::probe_ladder(3, 3), vec![3]);
        assert_eq!(FatTreeOrchestrator::probe_ladder(0, 2), vec![0, 1, 2]);
        let ladder = FatTreeOrchestrator::probe_ladder(0, 68);
        assert_eq!(ladder.first(), Some(&0));
        assert_eq!(ladder.last(), Some(&68));
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert!(ladder.len() <= FatTreeOrchestrator::SEARCH_PROBES);
    }

    #[test]
    fn cached_search_matches_uncached_probes_for_any_thread_count() {
        // Memoization invariance: every probe of the constraint ladder places
        // identically with and without the per-search cache, and the full
        // search result is identical for 1 / 4 / 16 threads.
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..30).map(|i| NodeId(i * 13)));
        let req = request(360);
        let scratch = orch.search_scratch(&req, &faults);
        let total = orch.segment_constraints() + orch.alignment_constraints();
        for n in 0..=total {
            let cached = orch.placement_with_constraints_cached(&req, &scratch, n);
            let uncached = orch.placement_with_constraints(&req, &faults, n);
            assert_eq!(cached, uncached, "constraint count {n}");
        }
        let seq = orch.orchestrate_par(&req, &faults, 1).unwrap();
        for threads in [4usize, 16] {
            assert_eq!(
                seq,
                orch.orchestrate_par(&req, &faults, threads).unwrap(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn one_scratch_serves_every_job_size_with_unchanged_faults() {
        // The scratch depends only on (k, nodes_per_group, faults): reusing
        // one scratch across consecutive searches with different job sizes
        // must match a fresh scratch per search, including the infeasible
        // outcome past the cluster's capacity.
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..20).map(|i| NodeId(i * 19)));
        let scratch = orch.search_scratch(&request(1), &faults);
        for job_nodes in [8usize, 64, 200, 360, 480, 1000] {
            let req = request(job_nodes);
            let (reused, probes) = orch.orchestrate_with_scratch(&req, &scratch, 1);
            assert!(probes > 0, "job_nodes {job_nodes}");
            assert_eq!(
                reused,
                orch.orchestrate_par(&req, &faults, 1),
                "job_nodes {job_nodes}"
            );
        }
    }

    #[test]
    fn empty_delta_patch_reuses_every_segment() {
        let orch = orchestrator();
        let req = request(360);
        let faults = FaultSet::from_nodes((0..20).map(|i| NodeId(i * 23)));
        let scratch = orch.search_scratch(&req, &faults);
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &faults);
        assert_eq!(stats.domains_patched, 0);
        assert_eq!(stats.segments_reorchestrated, 0);
        assert_eq!(stats.segments_reused, scratch.segments.len());
        assert_matches_cold_rebuild(&orch, &req, &patched, &faults);
    }

    #[test]
    fn full_delta_patch_matches_cold_rebuild_exactly() {
        // A delta flipping a node in every sub-line of every domain dirties
        // every segment; the patched scratch must still equal a cold rebuild.
        let orch = orchestrator();
        let req = request(360);
        let old = FaultSet::from_nodes([NodeId(5)]);
        let scratch = orch.search_scratch(&req, &old);
        let p = orch.deployment().sublines();
        let new = FaultSet::from_nodes((0..orch.fat_tree().nodes() / p).map(|t| NodeId(t * p)));
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &new);
        assert_eq!(stats.domains_patched, orch.alignment_constraints());
        assert_eq!(stats.segments_reorchestrated, scratch.segments.len());
        assert_eq!(stats.segments_reused, 0);
        assert_matches_cold_rebuild(&orch, &req, &patched, &new);
    }

    #[test]
    fn small_delta_patch_reorchestrates_only_touched_sublines() {
        let orch = orchestrator();
        let req = request(360);
        let faults = FaultSet::from_nodes([NodeId(40), NodeId(300)]);
        let scratch = orch.search_scratch(&req, &faults);
        // One added fault: it dirties its own sub-line's raw variant and, via
        // the ToR expansion, the aligned variants of its rack peers' sub-lines
        // — never a segment of another domain.
        let mut bumped = faults.clone();
        bumped.add(NodeId(129));
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &bumped);
        assert_eq!(stats.domains_patched, 1);
        assert!(stats.segments_reorchestrated <= orch.deployment().sublines());
        assert_eq!(
            stats.segments_reused + stats.segments_reorchestrated,
            scratch.segments.len()
        );
        assert_matches_cold_rebuild(&orch, &req, &patched, &bumped);
    }

    #[test]
    fn occupy_release_round_trip_returns_to_the_prior_fingerprint() {
        let orch = orchestrator();
        let req = request(360);
        let base = FaultSet::from_nodes((0..12).map(|i| NodeId(i * 31)));
        let origin = orch.search_scratch(&req, &base);
        // Occupy a handful of nodes, then release them: the fingerprint is
        // back to `base` and the twice-patched scratch must equal the origin.
        let mut occupied = base.clone();
        for id in [64usize, 65, 200, 450] {
            occupied.add(NodeId(id));
        }
        let (mid, _) = orch.patch_scratch(&req, &origin, &occupied);
        assert_matches_cold_rebuild(&orch, &req, &mid, &occupied);
        let (back, _) = orch.patch_scratch(&req, &mid, &base);
        assert_eq!(back.raw, origin.raw);
        assert_matches_cold_rebuild(&orch, &req, &back, &base);
    }

    #[test]
    fn tail_faults_beyond_the_domains_are_patched_raw() {
        // Ids past the last aggregation domain (out-of-cluster trace ids) are
        // never ToR-expanded and own no segment: a delta there patches no
        // domain and reuses every segment.
        let orch = orchestrator();
        let req = request(360);
        let faults = FaultSet::from_nodes([NodeId(3), NodeId(550)]);
        let scratch = orch.search_scratch(&req, &faults);
        let mut moved = faults.clone();
        moved.remove(NodeId(550));
        moved.add(NodeId(600));
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &moved);
        assert_eq!(stats.domains_patched, 0);
        assert_eq!(stats.segments_reorchestrated, 0);
        assert_matches_cold_rebuild(&orch, &req, &patched, &moved);
    }

    #[test]
    fn probes_match_the_scan_at_the_serving_geometry() {
        // 16,384 nodes, 16 per ToR, 8 ToRs per aggregation domain, ~2 %
        // faults: the layout the placement service is benchmarked on. The
        // offline oracle its answers are checked against (`orchestrate_par`)
        // runs this same probe, so only the residual scan can catch a wrong
        // count; it checks a cold and a patched scratch. A stride coprime to
        // the 16 sub-lines still meets every residue of the
        // constrained-segment count.
        let orch = FatTreeOrchestrator::new(FatTree::new(16_384, 16, 8).unwrap()).unwrap();
        let faults = FaultSet::from_nodes((0..330).map(|i| NodeId(i * 7_919 % 16_384)));
        let mut moved = faults.clone();
        for i in 0..16 {
            moved.add(NodeId(i * 1_021 + 5));
        }
        moved.remove(NodeId(0));
        for m in [8usize, 16] {
            let req = OrchestrationRequest {
                job_nodes: 8_192,
                nodes_per_group: m,
                k: 2,
            };
            let scratch = orch.search_scratch(&req, &faults);
            assert_probes_match_scan(&orch, &req, &scratch, 7);
            let (patched, _) = orch.patch_scratch(&req, &scratch, &moved);
            assert_matches_cold_rebuild(&orch, &req, &patched, &moved);
            assert_probes_match_scan(&orch, &req, &patched, 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A search probe's count is the node count of the placement it
        /// stands for and the residual-scan count, at every constraint
        /// count, for random faults and geometries, on the 512-node layout
        /// and on two 520-node ones with a trailing partial rack.
        #[test]
        fn placed_count_matches_the_placement(
            faulty in proptest::collection::vec(0usize..600, 0..80),
            m in 1usize..17,
            k in 1usize..5,
        ) {
            let faults = FaultSet::from_nodes(faulty.iter().map(|&id| NodeId(id)));
            let req = OrchestrationRequest {
                job_nodes: m,
                nodes_per_group: m,
                k,
            };
            let partial_rack = FatTreeOrchestrator::new(FatTree::new(520, 16, 8).unwrap()).unwrap();
            // 5 ToRs per domain: the last domain is cut short and also holds
            // the partial rack.
            let short_domain = FatTreeOrchestrator::new(FatTree::new(520, 16, 5).unwrap()).unwrap();
            for orch in [orchestrator(), partial_rack, short_domain] {
                let scratch = orch.search_scratch(&req, &faults);
                for n in 0..=orch.segment_constraints() + orch.alignment_constraints() {
                    let count = orch.placed_count_cached(&req, &scratch, n);
                    prop_assert_eq!(
                        count,
                        orch.placement_with_constraints_cached(&req, &scratch, n).nodes_placed(),
                        "constraint count {}",
                        n
                    );
                    prop_assert_eq!(
                        count,
                        orch.placed_count_scan(&req, &scratch, n),
                        "constraint count {}",
                        n
                    );
                }
            }
        }

        /// The incremental-publish pin: chained patches over random delta
        /// sequences stay bit-identical to cold rebuilds — scratch fields,
        /// search answers and probe counts alike, for 1 and 4 threads — and
        /// every probe against a patched scratch places exactly like the
        /// uncached oracle, which pins the cutoff view independently of the
        /// scratch layout. The second layout adds a trailing partial rack:
        /// its nodes own no segment, so only there does a fully aligned
        /// probe's residual scan read across the cutoff.
        #[test]
        fn chained_patches_match_cold_rebuilds_over_random_deltas(
            initial in proptest::collection::vec(0usize..600, 0..40),
            deltas in proptest::collection::vec(
                proptest::collection::vec((0usize..600, 0usize..2), 1..12),
                1..5,
            ),
        ) {
            let partial_rack = FatTreeOrchestrator::new(FatTree::new(520, 16, 8).unwrap()).unwrap();
            for orch in [orchestrator(), partial_rack] {
                let req = request(360);
                let mut live = FaultSet::from_nodes(initial.iter().map(|&id| NodeId(id)));
                let mut scratch = orch.search_scratch(&req, &live);
                for delta in &deltas {
                    for &(id, flag) in delta {
                        if flag == 1 {
                            live.add(NodeId(id));
                        } else {
                            live.remove(NodeId(id));
                        }
                    }
                    let (patched, stats) = orch.patch_scratch(&req, &scratch, &live);
                    prop_assert_eq!(
                        stats.segments_reused + stats.segments_reorchestrated,
                        scratch.segments.len()
                    );
                    let cold = assert_matches_cold_rebuild(&orch, &req, &patched, &live);
                    for n in 0..=orch.segment_constraints() + orch.alignment_constraints() {
                        let placement = orch.placement_with_constraints_cached(&req, &patched, n);
                        let count = orch.placed_count_cached(&req, &patched, n);
                        prop_assert_eq!(count, placement.nodes_placed(), "constraint count {}", n);
                        prop_assert_eq!(
                            count,
                            orch.placed_count_scan(&req, &patched, n),
                            "constraint count {}",
                            n
                        );
                        prop_assert_eq!(
                            placement,
                            orch.placement_with_constraints(&req, &live, n),
                            "constraint count {}",
                            n
                        );
                    }
                    for threads in [1usize, 4] {
                        let (fast, fast_probes) =
                            orch.orchestrate_with_scratch(&req, &patched, threads);
                        let (slow, slow_probes) =
                            orch.orchestrate_with_scratch(&req, &cold, threads);
                        prop_assert_eq!(fast, slow, "threads {}", threads);
                        prop_assert_eq!(fast_probes, slow_probes, "threads {}", threads);
                    }
                    scratch = patched;
                }
            }
        }
    }

    #[test]
    fn placement_never_uses_faulty_nodes() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..40).map(|i| NodeId(i * 11)));
        let placement = orch.orchestrate_par(&request(300), &faults, 1).unwrap();
        let faulty: BTreeSet<NodeId> = faults.iter().collect();
        assert!(placement.validate(8, &faulty).is_ok());
    }

    #[test]
    fn groups_respect_the_requested_size() {
        let orch = orchestrator();
        let placement = orch
            .orchestrate_par(&request(128), &FaultSet::new(), 1)
            .unwrap();
        assert!(placement.groups.iter().all(|g| g.len() == 8));
        assert_eq!(placement.len(), 16);
    }
}
