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

use crate::dcn_free::{orchestrate_dcn_free, GroupCutter};
use crate::deployment::DeploymentStrategy;
use crate::scheme::PlacementScheme;
use hbd_types::{HbdError, NodeId, Result};
use std::sync::Arc;
use topology::runscan::{scan_khop_runs, RunSink, RunSummary};
use topology::{FatTree, FaultSet};

/// What the job needs from the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct FatTreeOrchestrator {
    deployment: DeploymentStrategy,
    fat_tree: FatTree,
}

/// Per-search scratch of one constraint search (one
/// [`FatTreeOrchestrator::orchestrate_par`] call): everything the probe
/// ladder would otherwise recompute per probe, built once and shared
/// immutably across the probe-evaluation threads.
///
/// It holds only what depends on the faults: the two fault views, one
/// [`SegmentCache`] per sub-line segment, and the tables that make a probe
/// O(p) (p = nodes per ToR = sub-lines): prefix sums of the segments' node
/// counts for the constrained part, and per-sub-line suffix folds of the
/// segments' [`RunSummary`]s plus summaries of the trailing partial rack
/// for the residual line (see [`FatTreeOrchestrator::placed_count_cached`]).
/// Which nodes a segment or the residual line covers is layout, read from
/// the [`DeploymentStrategy`] when needed.
///
/// The segments live in one `Arc`-shared [`DomainChunk`] per aggregation
/// domain, and the suffix folds in one `Arc`-shared slice per sub-line, so
/// that a [`patch`](FatTreeOrchestrator::patch_scratch) copies only the
/// chunks and folds its delta dirties and shares every other one with the
/// scratch it was patched from. A prefix sum is split the same way: the
/// counts of the domains before the segment's, kept per domain here, plus
/// the counts before it inside its domain, kept in its chunk. Both levels
/// also steer the winning cut past every domain and segment that places
/// nothing.
#[derive(Debug)]
pub(crate) struct SearchScratch {
    /// One chunk per aggregation domain with segments, in domain order:
    /// segment `s` is slot `s % p` of chunk `s / p`. Shorter than the
    /// domain pool when a domain starts past the end of the sub-lines
    /// (mirrors the `break` in the uncached loop).
    chunks: Vec<DomainChunk>,
    /// The fault set this scratch was built from. It doubles as the
    /// per-domain fingerprint: a patch diffs its words against the new
    /// fault set ([`FaultSet::iter_diff_range`]) to decide what to
    /// re-summarize.
    raw: FaultSet,
    /// `raw` with the ToR expansion applied in every aggregation domain. A
    /// probe with `a` aligned domains reads this set below the cutoff
    /// `a × nodes_per_aggregation_domain` and `raw` from the cutoff on.
    expanded: FaultSet,
    /// `raw_cum[q]`: the raw node counts of every segment of the first `q`
    /// chunks, summed (`chunks.len() + 1` entries).
    raw_cum: Vec<usize>,
    /// `aligned_cum[q]`: `aligned_nodes` summed the same way.
    aligned_cum: Vec<usize>,
    /// `suffix[i][q]` is the fold of the raw summaries of sub-line `i`'s
    /// segments in domains `q..chunks.len()`; the last entry of each
    /// sub-line is the empty summary.
    suffix: Vec<Arc<[RunSummary]>>,
    /// Summary of the trailing partial rack (the end of the deployment
    /// order past the sub-lines, in no segment) under `raw`.
    tail_raw: RunSummary,
    /// The same under `expanded`.
    tail_expanded: RunSummary,
}

/// One aggregation domain's segments, one [`ChunkSlot`] per sub-line.
type DomainChunk = Arc<[ChunkSlot]>;

/// A segment's cache and where its domain's prefix sums stand before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkSlot {
    cache: SegmentCache,
    /// Raw node counts of the domain's segments before this one, summed.
    raw_before: usize,
    /// `aligned_nodes` of the domain's segments before this one, summed.
    aligned_before: usize,
}

impl SearchScratch {
    /// The chunk and slot of segment `seg`: every chunk holds p slots.
    fn locate(&self, seg: usize) -> (usize, usize) {
        let p = self.chunks.first().map_or(1, |chunk| chunk.len());
        (seg / p, seg % p)
    }

    /// How many segments the scratch covers.
    fn segment_count(&self) -> usize {
        self.chunks.len() * self.chunks.first().map_or(0, |chunk| chunk.len())
    }

    /// The cache of segment `seg`.
    #[cfg(test)]
    fn segment(&self, seg: usize) -> &SegmentCache {
        let (q, i) = self.locate(seg);
        &self.chunks[q][i].cache
    }

    /// The raw node counts of the first `s` segments, summed.
    fn raw_prefix(&self, s: usize) -> usize {
        let (q, i) = self.locate(s);
        self.raw_cum[q] + self.chunks.get(q).map_or(0, |chunk| chunk[i].raw_before)
    }

    /// `aligned_nodes` of the first `s` segments, summed.
    fn aligned_prefix(&self, s: usize) -> usize {
        let (q, i) = self.locate(s);
        self.aligned_cum[q]
            + self
                .chunks
                .get(q)
                .map_or(0, |chunk| chunk[i].aligned_before)
    }
}

/// What a probe needs of one sub-line segment: the run summary of its raw
/// faults (its raw node count is `summary.placed(m)`, and an unaligned
/// probe's residual line folds it) and the nodes it places when its
/// aggregation domain is aligned (the same for every segment of a domain,
/// see [`FatTreeOrchestrator::domain_aligned_nodes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentCache {
    summary: RunSummary,
    aligned_nodes: usize,
}

/// The run summary of segment `nodes` under `faults`.
fn summarize(
    nodes: impl Iterator<Item = NodeId>,
    request: &OrchestrationRequest,
    faults: &FaultSet,
) -> RunSummary {
    RunSummary::scan(nodes, request.k, request.nodes_per_group, |n| {
        faults.is_faulty(*n)
    })
}

/// Fills in the in-domain prefix sums of `slots`, whose caches are set:
/// returns the domain's raw and aligned totals.
fn sum_chunk(slots: &mut [ChunkSlot], m: usize) -> (usize, usize) {
    let (mut raw, mut aligned) = (0, 0);
    for slot in slots {
        slot.raw_before = raw;
        slot.aligned_before = aligned;
        raw += slot.cache.summary.placed(m);
        aligned += slot.cache.aligned_nodes;
    }
    (raw, aligned)
}

/// What one `FatTreeOrchestrator::patch_scratch` call re-derived versus
/// carried over — the observability hook of the incremental publish path
/// (aggregated by the placement service into its patch tally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchPatchStats {
    /// Sub-line segments re-summarized because a raw or an expanded fault
    /// bit on their nodes flipped.
    pub segments_reorchestrated: usize,
    /// Sub-line segments carried over unchanged.
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

    /// The ids of `node`'s ToR, `start..end`, clamped to the cluster: a
    /// faulty node's failure radius under the alignment constraint
    /// (surviving rack peers keep matching ranks by leaving service
    /// together).
    fn tor_range(&self, node: NodeId) -> (usize, usize) {
        let p = self.deployment.sublines();
        let start = node.index() / p * p;
        (start, (start + p).min(self.fat_tree.nodes()))
    }

    /// `faults` with the ToR expansion applied in every aggregation domain;
    /// ids past the last domain stay raw. The cold scratch build's
    /// expansion; a patch re-expands only its dirty domains, through the
    /// same [`fill_tors`](Self::fill_tors).
    fn expand_domains(&self, faults: &FaultSet) -> FaultSet {
        let mut expanded = faults.clone();
        let in_domains =
            self.alignment_constraints() * self.fat_tree.nodes_per_aggregation_domain();
        self.fill_tors(faults, &mut expanded, 0, in_domains);
        expanded
    }

    /// Fills the ToR of every node of `faults` with an id in `lo..hi` into
    /// `expanded`, for a range of whole aggregation domains. Each faulty
    /// node's ToR is filled with one [`FaultSet::insert_range`], and a ToR
    /// already filled is skipped, so the cost is O(faulty nodes + words) for
    /// any ToR width.
    fn fill_tors(&self, faults: &FaultSet, expanded: &mut FaultSet, lo: usize, hi: usize) {
        let p = self.deployment.sublines();
        let mut filled_to = 0;
        for node in faults.iter_range(lo, hi) {
            if node.index() < filled_to {
                continue;
            }
            let (start, end) = self.tor_range(node);
            expanded.insert_range(start, end);
            filled_to = start + p;
        }
    }

    /// The per-node expansion [`expand_domains`](Self::expand_domains)
    /// replaced: one single-bit `add` per peer of every faulty node's ToR.
    /// The word-level fill's oracle.
    #[cfg(test)]
    fn expand_domains_per_node(&self, faults: &FaultSet) -> FaultSet {
        let p = self.deployment.sublines();
        let mut expanded = faults.clone();
        let in_domains =
            self.alignment_constraints() * self.fat_tree.nodes_per_aggregation_domain();
        for node in faults.iter_range(0, in_domains) {
            let tor_start = node.index() / p * p;
            for peer in tor_start..(tor_start + p).min(self.fat_tree.nodes()) {
                expanded.add(NodeId(peer));
            }
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
    /// Fails with [`HbdError::InvalidConfig`] on a request
    /// [`validate`](OrchestrationRequest::validate) rejects.
    pub fn placement_with_constraints(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
        n_constraints: usize,
    ) -> Result<PlacementScheme> {
        request.validate()?;
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
                    let (start, end) = self.tor_range(node);
                    e.insert_range(start, end);
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

        Self::assign_dp_ranks(&mut scheme);
        Ok(scheme)
    }

    /// The nodes of sub-line segment `seg`, numbered domain-major
    /// (`seg = domain × p + sub-line`), or `None` when its domain starts past
    /// the end of the sub-lines.
    fn segment_nodes(&self, seg: usize) -> Option<impl Iterator<Item = NodeId> + Clone> {
        let p = self.deployment.sublines();
        let tors_per_domain = self.fat_tree.nodes_per_aggregation_domain() / p;
        self.deployment.segment(seg % p, seg / p, tors_per_domain)
    }

    /// The first aggregation domain whose segment of sub-line `subline` is
    /// left to the residual line when the first `constrained` segments are
    /// constrained: `⌈(c − i) / p⌉`. Segments are numbered domain-major
    /// while the deployment order is sub-line-major, so the residual part of
    /// a sub-line is its suffix from this domain on. The one statement of
    /// the residual rule: probes fold summaries from here, placements walk
    /// nodes from here.
    fn residual_from(&self, subline: usize, constrained: usize) -> usize {
        constrained
            .saturating_sub(subline)
            .div_ceil(self.deployment.sublines())
    }

    /// Builds the per-search scratch shared by every probe of one constraint
    /// search: the raw and the ToR-expanded fault sets, the raw run summary
    /// and aligned node count of every sub-line segment, and the probe tables
    /// derived from them.
    ///
    /// A segment's count depends only on the segment and on whether its own
    /// aggregation domain is aligned: ToRs never straddle domains
    /// (`nodes_per_aggregation_domain = p × tors_per_domain`), so the ToR
    /// expansion sourced from other domains cannot touch the segment's nodes.
    /// Each segment is therefore summarized once raw per search, and each
    /// domain once aligned (see
    /// [`domain_aligned_nodes`](Self::domain_aligned_nodes)), instead of once
    /// per probe. The same argument lets a probe with `a` aligned domains
    /// read one expanded set below the domain cutoff instead of a per-`a`
    /// effective set.
    pub(crate) fn search_scratch(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
    ) -> SearchScratch {
        let p = self.deployment.sublines();
        let m = request.nodes_per_group;
        let expanded = self.expand_domains(faults);
        let (mut raw_cum, mut aligned_cum) = (vec![0], vec![0]);
        let chunks: Vec<DomainChunk> = (0..self.alignment_constraints())
            .map_while(|domain| {
                // A domain has all p segments or none.
                let aligned_nodes = self.domain_aligned_nodes(request, &expanded, domain)?;
                let mut chunk: DomainChunk = (0..p)
                    .map(|subline| {
                        let nodes = self
                            .segment_nodes(domain * p + subline)
                            .expect("the domain's first segment is defined");
                        let cache = SegmentCache {
                            summary: summarize(nodes, request, faults),
                            aligned_nodes,
                        };
                        ChunkSlot {
                            cache,
                            raw_before: 0,
                            aligned_before: 0,
                        }
                    })
                    .collect();
                let slots = Arc::get_mut(&mut chunk).expect("a fresh chunk is unshared");
                let (raw, aligned) = sum_chunk(slots, m);
                raw_cum.push(raw_cum[domain] + raw);
                aligned_cum.push(aligned_cum[domain] + aligned);
                Some(chunk)
            })
            .collect();
        let domains = chunks.len();
        let mut suffix: Vec<Arc<[RunSummary]>> = (0..p)
            .map(|_| std::iter::repeat_n(RunSummary::default(), domains + 1).collect())
            .collect();
        Self::refold(request, &chunks, &mut suffix, &vec![domains; p]);
        let mut scratch = SearchScratch {
            chunks,
            raw: faults.clone(),
            expanded,
            raw_cum,
            aligned_cum,
            suffix,
            tail_raw: RunSummary::default(),
            tail_expanded: RunSummary::default(),
        };
        self.summarize_tail(request, &mut scratch);
        scratch
    }

    /// The nodes each segment of `domain` places under the `expanded` view,
    /// or `None` when the domain has no segment. Every sub-line's segment
    /// of a domain reads the same faults there: its position `j` is node
    /// `i + j·p` of ToR `j`, which the expansion makes faulty exactly when
    /// ToR `j` holds a raw fault, whatever the sub-line `i`. So one scan of
    /// sub-line 0's segment counts them all.
    fn domain_aligned_nodes(
        &self,
        request: &OrchestrationRequest,
        expanded: &FaultSet,
        domain: usize,
    ) -> Option<usize> {
        let nodes = self.segment_nodes(domain * self.deployment.sublines())?;
        Some(summarize(nodes, request, expanded).placed(request.nodes_per_group))
    }

    /// Refolds the suffix folds (see [`SearchScratch::suffix`]) of every
    /// sub-line `i` with `to[i] > 0` over domains `to[i] - 1` down to 0,
    /// each from the fold above it; a sub-line with `to[i] = 0` keeps its
    /// folds. A shared fold slice is copied once before it is written. The
    /// chunks are walked from the highest domain down, each once.
    fn refold(
        request: &OrchestrationRequest,
        chunks: &[DomainChunk],
        suffix: &mut [Arc<[RunSummary]>],
        to: &[usize],
    ) {
        let (k, m) = (request.k, request.nodes_per_group);
        let top = to.iter().copied().max().unwrap_or(0);
        let mut dirty: Vec<(usize, usize, &mut [RunSummary])> = suffix
            .iter_mut()
            .zip(to)
            .enumerate()
            .filter(|(_, (_, &to))| to > 0)
            .map(|(subline, (folds, &to))| (subline, to, Arc::make_mut(folds)))
            .collect();
        for domain in (0..top).rev() {
            let chunk = &chunks[domain];
            for (subline, to, folds) in &mut dirty {
                if domain < *to {
                    folds[domain] = chunk[*subline].cache.summary.then(folds[domain + 1], k, m);
                }
            }
        }
    }

    /// Summarizes the trailing partial rack under both fault views.
    fn summarize_tail(&self, request: &OrchestrationRequest, scratch: &mut SearchScratch) {
        let tail = self.deployment.trailing_rack();
        scratch.tail_raw = summarize(tail.clone(), request, &scratch.raw);
        scratch.tail_expanded = summarize(tail, request, &scratch.expanded);
    }

    /// Derives the scratch for `faults` from a scratch previously built (or
    /// patched) for the same `(k, nodes_per_group)` key under a different
    /// fault set — the incremental half of the oracle-vs-fast-solver pair
    /// whose oracle is the cold [`search_scratch`](Self::search_scratch)
    /// rebuild. The patch copies only what its delta dirties:
    ///
    /// * one masked XOR pass ([`FaultSet::iter_diff_range`] against the old
    ///   scratch's `raw` set) finds the raw flips in domain order; an
    ///   aggregation domain without one shares its chunk with the old
    ///   scratch, and its expanded words are kept too, because the ToR
    ///   expansion never crosses a domain boundary;
    /// * a dirty domain's expanded words are rebuilt from the new raw words
    ///   ([`FaultSet::copy_range`] plus [`fill_tors`](Self::fill_tors)), and
    ///   its chunk is copied once: a segment with a raw or an expanded fault
    ///   bit flipped among the domain's ids of its sub-line is re-summarized
    ///   under the view whose bits flipped (one aligned scan serves the
    ///   whole domain), and the in-chunk prefix sums are redone;
    /// * the per-domain prefix sums are carried over and shifted by the
    ///   running count change of the dirty chunks, in the same pass;
    /// * only sub-lines with a raw-dirty segment refold their suffix
    ///   summaries, and only from their highest raw-dirty domain down; every
    ///   other sub-line shares its folds.
    ///
    /// So a patch costs O(domains) pointer and count work plus O(dirty
    /// segments), plus word-level passes over the fault sets (the XOR pass
    /// and two copies), and the old and the new scratch share every clean
    /// chunk and fold.
    ///
    /// Bit-exactness versus the cold rebuild follows from a segment's
    /// [`SegmentCache`] being a deterministic function of the fault bits on
    /// the segment's own nodes: unchanged bits imply an identical value, so
    /// sharing it is indistinguishable from recomputing it. Pinned by the
    /// patch proptests below, which compare every segment, prefix sum and
    /// suffix read with a cold rebuild, and check that clean chunks and
    /// folds are shared.
    pub(crate) fn patch_scratch(
        &self,
        request: &OrchestrationRequest,
        old: &SearchScratch,
        faults: &FaultSet,
    ) -> (SearchScratch, ScratchPatchStats) {
        let p = self.deployment.sublines();
        let npd = self.fat_tree.nodes_per_aggregation_domain();
        let m = request.nodes_per_group;
        let domains = self.alignment_constraints();

        // Ids past the last domain are never expanded: they follow `faults`.
        let mut expanded = old.expanded.clone();
        expanded.copy_range(faults, domains * npd, usize::MAX);
        let mut chunks = old.chunks.clone();
        let (mut raw_cum, mut aligned_cum) = (old.raw_cum.clone(), old.aligned_cum.clone());
        // Per sub-line, one past its highest raw-dirty domain (0: clean).
        let mut refold_to = vec![0; p];
        let mut dirty = vec![(false, false); p];
        let mut stats = ScratchPatchStats::default();
        // The running count change of the chunks patched so far: every
        // per-domain sum past a chunk moves by its change. The shifted sums
        // are exact, so the wrapping add never wraps.
        let (mut raw_shift, mut aligned_shift) = (0isize, 0isize);
        // The raw flips in id order: one masked XOR pass over the domains'
        // words finds the dirty domains and their raw-dirty sub-lines.
        let mut raw_flips = faults
            .iter_diff_range(&old.raw, 0, domains * npd)
            .peekable();
        for domain in 0..domains {
            let (lo, hi) = (domain * npd, (domain + 1) * npd);
            if raw_flips.peek().is_some_and(|node| node.index() < hi) {
                stats.domains_patched += 1;
                dirty.fill((false, false));
                while let Some(node) = raw_flips.next_if(|node| node.index() < hi) {
                    dirty[node.index() % p].0 = true;
                }
                expanded.copy_range(faults, lo, hi);
                self.fill_tors(faults, &mut expanded, lo, hi);
                if let Some(chunk) = chunks.get_mut(domain) {
                    for node in expanded.iter_diff_range(&old.expanded, lo, hi) {
                        dirty[node.index() % p].1 = true;
                    }
                    let (old_raw, old_aligned) = (
                        old.raw_cum[domain + 1] - old.raw_cum[domain],
                        old.aligned_cum[domain + 1] - old.aligned_cum[domain],
                    );
                    let slots = Arc::make_mut(chunk);
                    let mut aligned_nodes = None;
                    for (subline, &(raw_dirty, aligned_dirty)) in dirty.iter().enumerate() {
                        if !(raw_dirty || aligned_dirty) {
                            continue;
                        }
                        stats.segments_reorchestrated += 1;
                        let cache = &mut slots[subline].cache;
                        if raw_dirty {
                            let nodes = self
                                .segment_nodes(domain * p + subline)
                                .expect("segment was defined when the old scratch was built");
                            cache.summary = summarize(nodes, request, faults);
                            refold_to[subline] = domain + 1;
                        }
                        if aligned_dirty {
                            cache.aligned_nodes = *aligned_nodes.get_or_insert_with(|| {
                                self.domain_aligned_nodes(request, &expanded, domain)
                                    .expect("the domain has a chunk")
                            });
                        }
                    }
                    let (new_raw, new_aligned) = sum_chunk(slots, m);
                    raw_shift += new_raw as isize - old_raw as isize;
                    aligned_shift += new_aligned as isize - old_aligned as isize;
                }
            }
            if domain < chunks.len() {
                raw_cum[domain + 1] = raw_cum[domain + 1].wrapping_add_signed(raw_shift);
                aligned_cum[domain + 1] =
                    aligned_cum[domain + 1].wrapping_add_signed(aligned_shift);
            }
        }
        stats.segments_reused = chunks.len() * p - stats.segments_reorchestrated;

        let mut suffix = old.suffix.clone();
        Self::refold(request, &chunks, &mut suffix, &refold_to);
        let mut scratch = SearchScratch {
            chunks,
            raw: faults.clone(),
            expanded,
            raw_cum,
            aligned_cum,
            suffix,
            tail_raw: RunSummary::default(),
            tail_expanded: RunSummary::default(),
        };
        self.summarize_tail(request, &mut scratch);
        (scratch, stats)
    }

    /// [`placement_with_constraints`](Self::placement_with_constraints)
    /// against a prebuilt [`SearchScratch`], cut once from the scratch's
    /// fault views: every constrained segment's nodes stream through one
    /// [`GroupCutter`] with a cut at each segment end, then the residual
    /// line does, and no fault set is cloned.
    ///
    /// The cut follows the scratch's counts: a whole domain whose count is 0
    /// is skipped on its per-domain sums, and inside a domain a constrained
    /// segment whose count is 0 (its step in the chunk's aligned prefix sums
    /// in an aligned domain, in the raw ones otherwise) is skipped. That is
    /// exact because the cut after each segment discards any
    /// partial group, so a segment that places nothing leaves no trace.
    /// Emission order differs from the uncached path, but
    /// [`assign_dp_ranks`](Self::assign_dp_ranks) sorts groups by their
    /// head node, unique per group, so the result is bit-identical (pinned
    /// by the memoization invariance test and the cached-vs-uncached
    /// proptests).
    pub(crate) fn placement_with_constraints_cached(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
    ) -> PlacementScheme {
        let p = self.deployment.sublines();
        let m = request.nodes_per_group;
        let (constrained, aligned_domains) = self.probe_split(scratch, n_constraints);
        let mut cutter = GroupCutter::new(m);
        let constrained_chunks = scratch.chunks.iter().take(constrained.div_ceil(p));
        for (domain, chunk) in constrained_chunks.enumerate() {
            let aligned = domain < aligned_domains;
            let cum = if aligned {
                &scratch.aligned_cum
            } else {
                &scratch.raw_cum
            };
            let total = cum[domain + 1] - cum[domain];
            if total == 0 {
                continue;
            }
            let before = |slot: &ChunkSlot| {
                if aligned {
                    slot.aligned_before
                } else {
                    slot.raw_before
                }
            };
            let ends = chunk.iter().skip(1).map(before).chain([total]);
            let slots = chunk.iter().zip(ends).enumerate();
            for (subline, (slot, end)) in slots.take(constrained - domain * p) {
                if end == before(slot) {
                    continue;
                }
                let nodes = self
                    .segment_nodes(domain * p + subline)
                    .expect("every scratch segment is defined");
                self.scan_view(request, scratch, aligned_domains, nodes, &mut cutter);
                cutter.cut();
            }
        }
        let residual = self.residual_line(constrained);
        self.scan_view(request, scratch, aligned_domains, residual, &mut cutter);

        let mut scheme = cutter.scheme;
        Self::assign_dp_ranks(&mut scheme);
        scheme
    }

    /// `placement_with_constraints_cached(request, scratch, n).nodes_placed()`
    /// in O(p) without building the placement or scanning a node. This is
    /// what a search probe evaluates.
    ///
    /// The constrained segments contribute their counts, read off the prefix
    /// sums: aligned ones below segment `a × p`, raw ones above. The residual
    /// line is counted from run summaries: sub-line `i` contributes its
    /// suffix fold from domain [`residual_from`](Self::residual_from) on, and
    /// the line ends with the trailing partial rack. With `a > 0` aligned
    /// domains every defined segment is constrained and only that rack
    /// remains; it reads the expanded faults when it lies below the
    /// alignment cutoff. Pinned to the residual scan
    /// [`placed_count_scan`](Self::placed_count_scan) and to the placement
    /// by proptests.
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
        let segments = scratch.aligned_prefix(aligned) + scratch.raw_prefix(constrained)
            - scratch.raw_prefix(aligned);

        let mut line = RunSummary::default();
        for (subline, folds) in scratch.suffix.iter().enumerate() {
            let from = self.residual_from(subline, constrained);
            line = line.then(folds[from], k, m);
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
    /// replaced: the segment counts plus the residual line streamed through
    /// the linear-scan kernel into a `GroupCounter`. O(nodes); the probe's
    /// oracle.
    #[cfg(test)]
    pub(crate) fn placed_count_scan(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
    ) -> usize {
        let p = self.deployment.sublines();
        let m = request.nodes_per_group;
        let (constrained, aligned_domains) = self.probe_split(scratch, n_constraints);
        let segments: usize = (0..constrained)
            .map(|seg| {
                let cache = scratch.segment(seg);
                if seg / p < aligned_domains {
                    cache.aligned_nodes
                } else {
                    cache.summary.placed(m)
                }
            })
            .sum();

        let mut counter = crate::dcn_free::GroupCounter::new(m);
        let residual = self.residual_line(constrained);
        self.scan_view(request, scratch, aligned_domains, residual, &mut counter);
        segments + counter.placed
    }

    /// How a probe of `n_constraints` splits over the scratch: the number of
    /// constrained segments and of aligned aggregation domains.
    fn probe_split(&self, scratch: &SearchScratch, n_constraints: usize) -> (usize, usize) {
        let n_segments = self.segment_constraints();
        let constrained = n_constraints.min(n_segments).min(scratch.segment_count());
        let aligned_domains = n_constraints
            .saturating_sub(n_segments)
            .min(self.alignment_constraints());
        (constrained, aligned_domains)
    }

    /// The residual line of a probe with `constrained` segments, in
    /// deployment order: every sub-line from its
    /// [`residual_from`](Self::residual_from) domain on, then the trailing
    /// partial rack.
    fn residual_line(&self, constrained: usize) -> impl Iterator<Item = NodeId> + '_ {
        let len = self.deployment.subline_length();
        let tors_per_domain =
            self.fat_tree.nodes_per_aggregation_domain() / self.deployment.sublines();
        (0..self.deployment.sublines())
            .flat_map(move |subline| {
                let start = (self.residual_from(subline, constrained) * tors_per_domain).min(len);
                self.deployment.subline_nodes(subline, start..len)
            })
            .chain(self.deployment.trailing_rack())
    }

    /// Streams `nodes` through the linear-scan kernel into `sink` under a
    /// probe's fault view: the first `aligned_domains` domains see the
    /// ToR-expanded faults, everything from the cutoff on the raw ones.
    fn scan_view<S: RunSink<NodeId>>(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        aligned_domains: usize,
        nodes: impl Iterator<Item = NodeId>,
        sink: &mut S,
    ) {
        let cutoff = aligned_domains * self.fat_tree.nodes_per_aggregation_domain();
        let faults = |n: &NodeId| {
            if n.index() < cutoff {
                scratch.expanded.is_faulty(*n)
            } else {
                scratch.raw.is_faulty(*n)
            }
        };
        scan_khop_runs(nodes, request.k, faults, sink);
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
        // Everything probe-invariant is computed once: the raw and
        // ToR-expanded fault sets, every segment's run summary and aligned
        // node count, and the probe tables. Each probe is then O(p) table
        // lookups, and the winning placement is cut once at the end.
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
    /// The key is the head node id alone: a node's ToR and aggregation
    /// domain are both monotone in its id, so this is the
    /// `(domain, ToR, head)` order, and heads are unique (groups are
    /// disjoint), so an unstable sort is deterministic.
    fn assign_dp_ranks(scheme: &mut PlacementScheme) {
        scheme
            .groups
            .sort_unstable_by_key(|group| group.nodes[0].index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{cross_tor_rate, TrafficModel};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The patch path's oracle: a patched scratch must be indistinguishable
    /// from a cold [`FatTreeOrchestrator::search_scratch`] rebuild against
    /// the same fault set in everything a probe or a cut reads: both fault
    /// views, every segment, every prefix sum, every suffix fold and both
    /// trailing-rack summaries.
    fn assert_matches_cold_rebuild(
        orch: &FatTreeOrchestrator,
        req: &OrchestrationRequest,
        patched: &SearchScratch,
        faults: &FaultSet,
    ) -> SearchScratch {
        let cold = orch.search_scratch(req, faults);
        assert_eq!(patched.raw, cold.raw);
        assert_eq!(patched.expanded, cold.expanded);
        assert_eq!(patched.segment_count(), cold.segment_count());
        for seg in 0..cold.segment_count() {
            assert_eq!(patched.segment(seg), cold.segment(seg), "segment {seg}");
        }
        for s in 0..=cold.segment_count() {
            assert_eq!(patched.raw_prefix(s), cold.raw_prefix(s), "raw prefix {s}");
            assert_eq!(
                patched.aligned_prefix(s),
                cold.aligned_prefix(s),
                "aligned prefix {s}"
            );
        }
        assert_eq!(patched.suffix.len(), cold.suffix.len());
        for (subline, (folds, cold_folds)) in patched.suffix.iter().zip(&cold.suffix).enumerate() {
            assert_eq!(folds[..], cold_folds[..], "sub-line {subline} suffix folds");
        }
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
        let strict = orch
            .placement_with_constraints(
                &req,
                &faults,
                orch.segment_constraints() + orch.alignment_constraints(),
            )
            .unwrap();
        let relaxed = orch.placement_with_constraints(&req, &faults, 0).unwrap();
        assert!(relaxed.nodes_placed() >= strict.nodes_placed());
    }

    #[test]
    fn placement_with_constraints_rejects_invalid_requests() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes([NodeId(3)]);
        for (nodes_per_group, k) in [(0usize, 2usize), (8, 0)] {
            let bad = OrchestrationRequest {
                job_nodes: 8,
                nodes_per_group,
                k,
            };
            for n in [0, orch.segment_constraints() + 1] {
                assert!(matches!(
                    orch.placement_with_constraints(&bad, &faults, n),
                    Err(HbdError::InvalidConfig { .. })
                ));
            }
        }
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
            let uncached = orch.placement_with_constraints(&req, &faults, n).unwrap();
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
        assert_eq!(stats.segments_reused, scratch.segment_count());
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
        assert_eq!(stats.segments_reorchestrated, scratch.segment_count());
        assert_eq!(stats.segments_reused, 0);
        assert_matches_cold_rebuild(&orch, &req, &patched, &new);
    }

    #[test]
    fn small_delta_patch_reorchestrates_only_touched_sublines() {
        let orch = orchestrator();
        let req = request(360);
        let faults = FaultSet::from_nodes([NodeId(40), NodeId(300)]);
        let scratch = orch.search_scratch(&req, &faults);
        // One added fault: it dirties its own sub-line's segment through its
        // raw bit and, via the ToR expansion, its rack peers' segments
        // through their expanded bits — never a segment of another domain.
        let mut bumped = faults.clone();
        bumped.add(NodeId(129));
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &bumped);
        assert_eq!(stats.domains_patched, 1);
        assert!(stats.segments_reorchestrated <= orch.deployment().sublines());
        assert_eq!(
            stats.segments_reused + stats.segments_reorchestrated,
            scratch.segment_count()
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

        /// The count-guided cut is pinned to the uncached oracle at every
        /// constraint count, for group sizes up to two segments long (from
        /// m = 9 on, every 8-node segment places nothing and is skipped) and
        /// on the 512-node layout plus the three trailing-partial-rack ones.
        #[test]
        fn cached_placement_matches_the_uncached_oracle(
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
            let layouts = [(520, 8), (520, 5), (481, 5)].map(|(nodes, tors)| {
                FatTreeOrchestrator::new(FatTree::new(nodes, 16, tors).unwrap()).unwrap()
            });
            for orch in std::iter::once(orchestrator()).chain(layouts) {
                let scratch = orch.search_scratch(&req, &faults);
                for n in 0..=orch.segment_constraints() + orch.alignment_constraints() {
                    prop_assert_eq!(
                        orch.placement_with_constraints_cached(&req, &scratch, n),
                        orch.placement_with_constraints(&req, &faults, n).unwrap(),
                        "constraint count {}",
                        n
                    );
                }
            }
        }

        /// The word-level ToR expansion equals the per-node oracle for ToR
        /// widths that divide a word, straddle words and fill one, and on
        /// the layouts whose last domain or rack is cut short. Ids past the
        /// cluster stay raw in both. Under the expansion, every sub-line's
        /// segment of a domain reads the same faults position by position,
        /// which lets one scan count the aligned nodes of the whole domain.
        #[test]
        fn word_level_expansion_matches_the_per_node_oracle(
            faulty in proptest::collection::vec(0usize..700, 0..300),
        ) {
            let faults = FaultSet::from_nodes(faulty.iter().map(|&id| NodeId(id)));
            for (nodes, p, tors) in [
                (512, 1, 8),
                (515, 3, 7),
                (600, 12, 4),
                (512, 16, 8),
                (640, 64, 2),
                (520, 16, 5),
                (481, 16, 5),
            ] {
                let orch =
                    FatTreeOrchestrator::new(FatTree::new(nodes, p, tors).unwrap()).unwrap();
                let expanded = orch.expand_domains(&faults);
                prop_assert_eq!(
                    &expanded,
                    &orch.expand_domains_per_node(&faults),
                    "layout ({}, {}, {})",
                    nodes,
                    p,
                    tors
                );
                let pattern = |seg: usize| {
                    orch.segment_nodes(seg)
                        .map(|nodes| nodes.map(|n| expanded.is_faulty(n)).collect::<Vec<bool>>())
                };
                for domain in 0..orch.alignment_constraints() {
                    for subline in 1..p {
                        prop_assert_eq!(
                            pattern(domain * p + subline),
                            pattern(domain * p),
                            "layout ({}, {}, {}), domain {}, sub-line {}",
                            nodes,
                            p,
                            tors,
                            domain,
                            subline
                        );
                    }
                }
            }
        }

        /// The incremental-publish pin: chained patches over random delta
        /// sequences stay bit-identical to cold rebuilds — scratch fields,
        /// search answers and probe counts alike, for 1 and 4 threads — and
        /// every probe against a patched scratch places exactly like the
        /// uncached oracle, which pins the cutoff view independently of the
        /// scratch layout. The second layout adds a trailing partial rack:
        /// its nodes are in no segment, so only there does a fully aligned
        /// probe's residual scan read across the cutoff. In the third the
        /// last domain is cut short, so the residual clamps at the sub-line
        /// end; in the fourth the last domain starts past every sub-line and
        /// has no segment.
        #[test]
        fn chained_patches_match_cold_rebuilds_over_random_deltas(
            initial in proptest::collection::vec(0usize..600, 0..40),
            deltas in proptest::collection::vec(
                proptest::collection::vec((0usize..600, 0usize..2), 1..12),
                1..5,
            ),
        ) {
            let layouts = [(520, 8), (520, 5), (481, 5)].map(|(nodes, tors)| {
                FatTreeOrchestrator::new(FatTree::new(nodes, 16, tors).unwrap()).unwrap()
            });
            for orch in std::iter::once(orchestrator()).chain(layouts) {
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
                        scratch.segment_count()
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
                            orch.placement_with_constraints(&req, &live, n).unwrap(),
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

        /// A patch copies nothing clean: the chunk of every domain whose
        /// fault words did not change, and the suffix folds of every
        /// sub-line with no raw flip in a domain with segments, are the
        /// base scratch's own allocations (`Arc::ptr_eq`), and the patched
        /// scratch reads like a cold rebuild. Deltas toggle WhatIf-sized
        /// (1–8) and publish-sized (16, 256) sets of ids, chained so that a
        /// patched scratch is a base too, at the 16,384-node serving
        /// geometry and on the layouts whose last domain is cut short or
        /// has no segment; a few ids lie past the cluster.
        #[test]
        fn patches_share_every_clean_chunk_and_fold(
            initial in proptest::collection::vec(0usize..20_000, 0..400),
            deltas in proptest::collection::vec(
                (proptest::collection::vec(0usize..20_000, 256), 0usize..10),
                1..4,
            ),
            m in 1usize..17,
            k in 1usize..5,
        ) {
            let req = OrchestrationRequest {
                job_nodes: m,
                nodes_per_group: m,
                k,
            };
            for (nodes, tors) in [(16_384, 8), (512, 8), (520, 5), (481, 5)] {
                let orch = FatTreeOrchestrator::new(FatTree::new(nodes, 16, tors).unwrap()).unwrap();
                let (p, npd) = (16, 16 * tors);
                let span = nodes + 40;
                let mut live = FaultSet::from_nodes(initial.iter().map(|&id| NodeId(id % span)));
                let mut scratch = orch.search_scratch(&req, &live);
                for (ids, width) in &deltas {
                    let width = [1, 2, 3, 4, 5, 6, 7, 8, 16, 256][*width];
                    let mut next = live.clone();
                    for &id in &ids[..width] {
                        let node = NodeId(id % span);
                        if !next.add(node) {
                            next.remove(node);
                        }
                    }
                    let (patched, _) = orch.patch_scratch(&req, &scratch, &next);
                    assert_matches_cold_rebuild(&orch, &req, &patched, &next);
                    for (domain, chunk) in scratch.chunks.iter().enumerate() {
                        let mut dirty = next.iter_diff_range(&live, domain * npd, (domain + 1) * npd);
                        if dirty.next().is_none() {
                            prop_assert!(
                                Arc::ptr_eq(chunk, &patched.chunks[domain]),
                                "clean domain {} copied",
                                domain
                            );
                        }
                    }
                    let raw_dirty: BTreeSet<usize> = next
                        .iter_diff_range(&live, 0, scratch.chunks.len() * npd)
                        .map(|node| node.index() % p)
                        .collect();
                    for (subline, folds) in scratch.suffix.iter().enumerate() {
                        if !raw_dirty.contains(&subline) {
                            prop_assert!(
                                Arc::ptr_eq(folds, &patched.suffix[subline]),
                                "clean sub-line {} refolded",
                                subline
                            );
                        }
                    }
                    live = next;
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
