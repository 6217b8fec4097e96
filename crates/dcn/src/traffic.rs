//! Lowering a placement into the DCN flows it induces.
//!
//! Two levels of fidelity live here:
//!
//! * [`dp_ring_flows`] — the original one-epoch DP-ring expansion: the node
//!   holding TP rank `r` of group `g` exchanges its gradient shard with the
//!   node holding rank `r` of groups `g − 1` and `g + 1` (§4.3, Figure 6).
//! * [`TrafficMatrix`] — the full lowering of an `llmsim` parallelism plan
//!   (DP + PP + CP/SP dimensions) into **per-epoch flow sets**: a *steady*
//!   epoch carrying the pipeline boundary activations and the Ring-Attention
//!   K/V exchange that flow while compute is running, and a *sync* epoch
//!   carrying the end-of-iteration gradient AllReduce. The epochs feed the
//!   multi-job replay engine in [`crate::engine`].
//!
//! A [`TrafficMatrix`] restricted to the DP dimension reproduces
//! [`dp_ring_flows`] flow-for-flow (asserted by the crate's property tests),
//! so the richer lowering is a strict superset of the original model.

use crate::flow::Flow;
use hbd_types::{Bytes, HbdError, Result};
use llmsim::{CommModel, ModelConfig, ParallelismStrategy};
use orchestrator::PlacementScheme;

/// How much each DP neighbour pair exchanges per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Bytes exchanged (per direction) between DP-adjacent nodes per iteration.
    pub bytes_per_dp_pair: Bytes,
    /// Whether the DP dimension wraps around (ring) or stops at the last group
    /// (line, as in the orchestrator's cross-ToR accounting).
    pub dp_ring_wraps: bool,
}

impl TrafficSpec {
    /// A DP-pair volume representative of a Llama-405B-scale job: each node
    /// holds ~3 GiB of gradient shard after TP/PP sharding, and Ring-AllReduce
    /// moves roughly twice that per neighbour per iteration.
    pub fn paper_dp_allreduce() -> Self {
        TrafficSpec {
            bytes_per_dp_pair: Bytes::from_gib(6.0),
            dp_ring_wraps: false,
        }
    }
}

impl Default for TrafficSpec {
    fn default() -> Self {
        Self::paper_dp_allreduce()
    }
}

/// The DP flows induced by a placement: one flow per direction per DP-adjacent
/// node pair (matching ranks of adjacent TP groups).
pub fn dp_ring_flows(scheme: &PlacementScheme, spec: &TrafficSpec) -> Vec<Flow> {
    let groups = &scheme.groups;
    if groups.len() < 2 {
        return Vec::new();
    }
    let pairs = if spec.dp_ring_wraps {
        groups.len()
    } else {
        groups.len() - 1
    };
    let mut flows = Vec::new();
    for g in 0..pairs {
        let a = &groups[g];
        let b = &groups[(g + 1) % groups.len()];
        for rank in 0..a.len().min(b.len()) {
            let (na, nb) = (a.nodes[rank], b.nodes[rank]);
            flows.push(Flow::new(na, nb, spec.bytes_per_dp_pair));
            flows.push(Flow::new(nb, na, spec.bytes_per_dp_pair));
        }
    }
    flows
}

/// How a placement's flat, DP-rank-ordered group list maps onto the logical
/// `PP × CP × DP` grid of a parallelism plan.
///
/// Group index `g` decomposes as `g = dp + shape.dp · (cp + shape.cp · pp)`:
/// DP is the fastest-varying dimension, so for `pp = cp = 1` the mapping
/// degenerates to the original "group order = DP rank" convention of
/// [`PlacementScheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogicalShape {
    /// Data-parallel extent (groups per CP rank per stage).
    pub dp: usize,
    /// Pipeline-parallel extent (stages).
    pub pp: usize,
    /// Context/sequence-parallel extent.
    pub cp: usize,
}

impl LogicalShape {
    /// The shape of an `llmsim` plan (its DP/PP/CP extents; TP lives inside
    /// one group and never reaches the DCN).
    pub fn of_plan(strategy: &ParallelismStrategy) -> Self {
        LogicalShape {
            dp: strategy.dp,
            pp: strategy.pp,
            cp: strategy.cp,
        }
    }

    /// Total TP groups the shape addresses.
    pub fn groups(&self) -> usize {
        self.dp * self.pp * self.cp
    }

    /// Index of the group at logical coordinates `(pp, cp, dp)`.
    fn index(&self, pp: usize, cp: usize, dp: usize) -> usize {
        dp + self.dp * (cp + self.cp * pp)
    }

    fn validate(&self, scheme: &PlacementScheme) -> Result<()> {
        if self.dp == 0 || self.pp == 0 || self.cp == 0 {
            return Err(HbdError::invalid_config(
                "all logical-shape extents must be positive",
            ));
        }
        if self.groups() != scheme.len() {
            return Err(HbdError::invalid_config(format!(
                "logical shape addresses {} groups but the placement has {}",
                self.groups(),
                scheme.len()
            )));
        }
        Ok(())
    }
}

/// Per-pair volumes of each DCN-visible dimension, plus the ring/line choice.
///
/// The volumes are exactly [`llmsim::DcnPairVolumes`]; the extra flags choose
/// whether the DP and CP dimensions close into rings (Ring-AllReduce /
/// Ring-Attention proper) or stay open lines (the conservative accounting the
/// orchestrator's cross-ToR metric uses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficProfile {
    /// Bytes per direction between DP-adjacent ranks per iteration.
    pub dp_pair_bytes: Bytes,
    /// Bytes per direction between PP-adjacent stages per iteration.
    pub pp_pair_bytes: Bytes,
    /// Bytes per direction between CP-adjacent ranks per iteration.
    pub cp_pair_bytes: Bytes,
    /// Gradient-sync bytes per direction between CP-adjacent ranks per
    /// iteration (CP replicates weights, so partial gradients ring over CP
    /// too — part of the *sync* epoch).
    pub cp_grad_pair_bytes: Bytes,
    /// Whether the DP dimension closes into a ring.
    pub dp_ring_wraps: bool,
    /// Whether the CP dimension closes into a ring.
    pub cp_ring_wraps: bool,
}

impl TrafficProfile {
    /// Derives the profile of an `llmsim` plan from the analytic per-pair
    /// volumes of [`CommModel::dcn_pair_volumes`].
    pub fn of_plan(model: &ModelConfig, strategy: &ParallelismStrategy, comm: &CommModel) -> Self {
        let volumes = comm.dcn_pair_volumes(model, strategy);
        TrafficProfile {
            dp_pair_bytes: volumes.dp_pair_bytes,
            pp_pair_bytes: volumes.pp_pair_bytes,
            cp_pair_bytes: volumes.cp_pair_bytes,
            cp_grad_pair_bytes: volumes.cp_grad_pair_bytes,
            dp_ring_wraps: false,
            cp_ring_wraps: false,
        }
    }
}

/// One set of flows that are live on the DCN at the same time.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEpoch {
    /// Human-readable phase name (`"steady"` or `"sync"` for lowered plans).
    pub label: String,
    /// The concurrent flows of the epoch.
    pub flows: Vec<Flow>,
}

impl TrafficEpoch {
    /// Creates an epoch.
    pub fn new(label: impl Into<String>, flows: Vec<Flow>) -> Self {
        TrafficEpoch {
            label: label.into(),
            flows,
        }
    }

    /// Total payload of the epoch.
    pub fn total_bytes(&self) -> Bytes {
        Bytes(self.flows.iter().map(|f| f.bytes.value()).sum())
    }
}

/// One job's DCN traffic: a cycle of epochs replayed `iterations` times.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTraffic {
    /// Job name (carried into the interference report).
    pub name: String,
    /// The epoch cycle of one training iteration, in replay order.
    pub epochs: Vec<TrafficEpoch>,
    /// How many iterations the replay engine runs.
    pub iterations: usize,
}

impl JobTraffic {
    /// Creates a job from its epoch cycle.
    pub fn new(name: impl Into<String>, epochs: Vec<TrafficEpoch>, iterations: usize) -> Self {
        JobTraffic {
            name: name.into(),
            epochs,
            iterations: iterations.max(1),
        }
    }

    /// Total epoch instances a replay of this job processes
    /// (`iterations × epochs`).
    pub fn total_instances(&self) -> usize {
        self.iterations * self.epochs.len()
    }
}

/// The `TrafficMatrix` builder: lowers a parallelism plan over a placement
/// into the per-epoch flow sets of one job.
///
/// The lowering walks the logical `PP × CP × DP` grid defined by
/// [`LogicalShape`] and emits, per adjacent pair of each dimension and per TP
/// rank, one flow in each direction, sized by the [`TrafficProfile`]:
///
/// * **steady epoch** — PP boundary flows (between matching ranks of
///   PP-adjacent groups) and CP K/V flows (ring/line over the CP dimension),
///   which overlap with compute in a real schedule;
/// * **sync epoch** — the end-of-iteration gradient burst: DP gradient flows
///   (ring/line over the DP dimension) plus the CP gradient reduction
///   (partial gradients over different sequence slices ring over CP too).
///
/// Epochs that lower to zero flows are omitted, so a DP-only matrix produces
/// the single epoch the original [`dp_ring_flows`] model simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficMatrix {
    /// The logical grid the placement's groups are arranged into.
    pub shape: LogicalShape,
    /// Per-pair volumes of each dimension.
    pub profile: TrafficProfile,
}

impl TrafficMatrix {
    /// Creates a matrix from an explicit shape and profile.
    pub fn new(shape: LogicalShape, profile: TrafficProfile) -> Self {
        TrafficMatrix { shape, profile }
    }

    /// Derives shape and volumes from an `llmsim` plan.
    pub fn of_plan(model: &ModelConfig, strategy: &ParallelismStrategy, comm: &CommModel) -> Self {
        TrafficMatrix {
            shape: LogicalShape::of_plan(strategy),
            profile: TrafficProfile::of_plan(model, strategy, comm),
        }
    }

    /// The DP gradient-sync flows of the placement (part of the *sync*
    /// epoch). Errors if the shape does not match the placement.
    pub fn dp_flows(&self, scheme: &PlacementScheme) -> Result<Vec<Flow>> {
        self.shape.validate(scheme)?;
        Ok(self.dp_lanes(scheme))
    }

    /// The PP boundary-activation flows of the placement (part of the
    /// *steady* epoch). Errors if the shape does not match the placement.
    pub fn pp_flows(&self, scheme: &PlacementScheme) -> Result<Vec<Flow>> {
        self.shape.validate(scheme)?;
        Ok(self.pp_lanes(scheme))
    }

    /// The CP Ring-Attention K/V flows of the placement (part of the *steady*
    /// epoch). Errors if the shape does not match the placement.
    pub fn cp_flows(&self, scheme: &PlacementScheme) -> Result<Vec<Flow>> {
        self.shape.validate(scheme)?;
        Ok(self.cp_lanes(scheme, self.profile.cp_pair_bytes))
    }

    /// The CP gradient-reduction flows of the placement (part of the *sync*
    /// epoch). Errors if the shape does not match the placement.
    pub fn cp_grad_flows(&self, scheme: &PlacementScheme) -> Result<Vec<Flow>> {
        self.shape.validate(scheme)?;
        Ok(self.cp_lanes(scheme, self.profile.cp_grad_pair_bytes))
    }

    fn dp_lanes(&self, scheme: &PlacementScheme) -> Vec<Flow> {
        if self.shape.dp < 2 {
            return Vec::new();
        }
        let pairs = if self.profile.dp_ring_wraps {
            self.shape.dp
        } else {
            self.shape.dp - 1
        };
        self.pair_flows(scheme, self.profile.dp_pair_bytes, |flows| {
            for pp in 0..self.shape.pp {
                for cp in 0..self.shape.cp {
                    for dp in 0..pairs {
                        flows.push((
                            self.shape.index(pp, cp, dp),
                            self.shape.index(pp, cp, (dp + 1) % self.shape.dp),
                        ));
                    }
                }
            }
        })
    }

    fn pp_lanes(&self, scheme: &PlacementScheme) -> Vec<Flow> {
        if self.shape.pp < 2 {
            return Vec::new();
        }
        self.pair_flows(scheme, self.profile.pp_pair_bytes, |flows| {
            for pp in 0..self.shape.pp - 1 {
                for cp in 0..self.shape.cp {
                    for dp in 0..self.shape.dp {
                        flows.push((
                            self.shape.index(pp, cp, dp),
                            self.shape.index(pp + 1, cp, dp),
                        ));
                    }
                }
            }
        })
    }

    fn cp_lanes(&self, scheme: &PlacementScheme, bytes: Bytes) -> Vec<Flow> {
        if self.shape.cp < 2 {
            return Vec::new();
        }
        let pairs = if self.profile.cp_ring_wraps {
            self.shape.cp
        } else {
            self.shape.cp - 1
        };
        self.pair_flows(scheme, bytes, |flows| {
            for pp in 0..self.shape.pp {
                for cp in 0..pairs {
                    for dp in 0..self.shape.dp {
                        flows.push((
                            self.shape.index(pp, cp, dp),
                            self.shape.index(pp, (cp + 1) % self.shape.cp, dp),
                        ));
                    }
                }
            }
        })
    }

    /// Expands group-index pairs into per-rank bidirectional flows of `bytes`
    /// each; zero-volume dimensions lower to no flows.
    fn pair_flows(
        &self,
        scheme: &PlacementScheme,
        bytes: Bytes,
        emit_pairs: impl Fn(&mut Vec<(usize, usize)>),
    ) -> Vec<Flow> {
        if bytes.value() <= 0.0 {
            return Vec::new();
        }
        let mut pairs = Vec::new();
        emit_pairs(&mut pairs);
        let mut flows = Vec::new();
        for (ga, gb) in pairs {
            let (a, b) = (&scheme.groups[ga], &scheme.groups[gb]);
            for rank in 0..a.len().min(b.len()) {
                let (na, nb) = (a.nodes[rank], b.nodes[rank]);
                flows.push(Flow::new(na, nb, bytes));
                flows.push(Flow::new(nb, na, bytes));
            }
        }
        flows
    }

    /// Lowers the placement into a job's epoch cycle: a *steady* epoch (PP
    /// boundary + CP K/V flows) followed by a *sync* epoch (DP + CP gradient
    /// flows), skipping epochs that carry nothing.
    pub fn lower(
        &self,
        scheme: &PlacementScheme,
        name: impl Into<String>,
        iterations: usize,
    ) -> Result<JobTraffic> {
        self.shape.validate(scheme)?;
        let mut epochs = Vec::new();
        let mut steady = self.pp_lanes(scheme);
        steady.extend(self.cp_lanes(scheme, self.profile.cp_pair_bytes));
        if !steady.is_empty() {
            epochs.push(TrafficEpoch::new("steady", steady));
        }
        let mut sync = self.dp_lanes(scheme);
        sync.extend(self.cp_lanes(scheme, self.profile.cp_grad_pair_bytes));
        if !sync.is_empty() {
            epochs.push(TrafficEpoch::new("sync", sync));
        }
        Ok(JobTraffic::new(name, epochs, iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;
    use orchestrator::TpGroup;

    fn scheme(groups: &[&[usize]]) -> PlacementScheme {
        PlacementScheme {
            groups: groups
                .iter()
                .map(|g| TpGroup::new(g.iter().map(|&n| NodeId(n)).collect()))
                .collect(),
        }
    }

    fn spec(bytes_per_dp_pair: Bytes, dp_ring_wraps: bool) -> TrafficSpec {
        TrafficSpec {
            bytes_per_dp_pair,
            dp_ring_wraps,
        }
    }

    /// The DP-only profile equivalent to `spec`.
    fn dp_profile(spec: &TrafficSpec) -> TrafficProfile {
        TrafficProfile {
            dp_pair_bytes: spec.bytes_per_dp_pair,
            pp_pair_bytes: Bytes(0.0),
            cp_pair_bytes: Bytes(0.0),
            cp_grad_pair_bytes: Bytes(0.0),
            dp_ring_wraps: spec.dp_ring_wraps,
            cp_ring_wraps: false,
        }
    }

    fn grid_scheme(groups: usize, ranks: usize) -> PlacementScheme {
        PlacementScheme {
            groups: (0..groups)
                .map(|g| TpGroup::new((0..ranks).map(|r| NodeId(g * ranks + r)).collect()))
                .collect(),
        }
    }

    #[test]
    fn adjacent_groups_exchange_per_rank_flows_in_both_directions() {
        let scheme = scheme(&[&[0, 1], &[2, 3], &[4, 5]]);
        let flows = dp_ring_flows(&scheme, &spec(Bytes::from_gib(1.0), false));
        // 2 group pairs x 2 ranks x 2 directions.
        assert_eq!(flows.len(), 8);
        assert!(flows.contains(&Flow::new(NodeId(0), NodeId(2), Bytes::from_gib(1.0))));
        assert!(flows.contains(&Flow::new(NodeId(2), NodeId(0), Bytes::from_gib(1.0))));
        assert!(flows.contains(&Flow::new(NodeId(3), NodeId(5), Bytes::from_gib(1.0))));
        // No wraparound by default.
        assert!(!flows.contains(&Flow::new(NodeId(4), NodeId(0), Bytes::from_gib(1.0))));
    }

    #[test]
    fn wraparound_adds_the_closing_pairs() {
        let scheme = scheme(&[&[0], &[1], &[2]]);
        let spec = spec(Bytes(1.0), true);
        let flows = dp_ring_flows(&scheme, &spec);
        assert_eq!(flows.len(), 6);
        assert!(flows.contains(&Flow::new(NodeId(2), NodeId(0), Bytes(1.0))));
    }

    #[test]
    fn single_group_or_empty_scheme_produces_no_flows() {
        assert!(dp_ring_flows(&scheme(&[&[0, 1]]), &TrafficSpec::default()).is_empty());
        assert!(dp_ring_flows(&PlacementScheme::new(), &TrafficSpec::default()).is_empty());
    }

    #[test]
    fn mismatched_group_sizes_pair_the_common_prefix() {
        let scheme = scheme(&[&[0, 1, 2], &[3, 4]]);
        let flows = dp_ring_flows(&scheme, &spec(Bytes(1.0), false));
        assert_eq!(flows.len(), 4);
    }

    #[test]
    fn dp_only_matrix_reproduces_dp_ring_flows_exactly() {
        for wraps in [false, true] {
            let scheme = grid_scheme(5, 3);
            let spec = spec(Bytes::from_gib(2.0), wraps);
            let matrix = TrafficMatrix::new(
                LogicalShape {
                    dp: scheme.len(),
                    pp: 1,
                    cp: 1,
                },
                dp_profile(&spec),
            );
            assert_eq!(
                matrix.dp_flows(&scheme).unwrap(),
                dp_ring_flows(&scheme, &spec)
            );
            let job = matrix.lower(&scheme, "solo", 1).unwrap();
            assert_eq!(job.epochs.len(), 1);
            assert_eq!(job.epochs[0].label, "sync");
            assert_eq!(job.epochs[0].flows, dp_ring_flows(&scheme, &spec));
        }
    }

    #[test]
    fn full_grid_lowering_counts_pairs_per_dimension() {
        // dp = 3, pp = 2, cp = 2 → 12 groups of 2 ranks.
        let shape = LogicalShape {
            dp: 3,
            pp: 2,
            cp: 2,
        };
        let scheme = grid_scheme(shape.groups(), 2);
        let profile = TrafficProfile {
            dp_pair_bytes: Bytes(5.0),
            pp_pair_bytes: Bytes(7.0),
            cp_pair_bytes: Bytes(11.0),
            cp_grad_pair_bytes: Bytes(13.0),
            dp_ring_wraps: false,
            cp_ring_wraps: false,
        };
        let matrix = TrafficMatrix::new(shape, profile);
        // DP: (dp−1) pairs × pp × cp planes × 2 ranks × 2 directions.
        assert_eq!(matrix.dp_flows(&scheme).unwrap().len(), 2 * 2 * 2 * 2 * 2);
        // PP: (pp−1)=1 pair × cp × dp planes × 2 ranks × 2 directions.
        assert_eq!(matrix.pp_flows(&scheme).unwrap().len(), 2 * 3 * 2 * 2);
        // CP: (cp−1)=1 pair × pp × dp planes × 2 ranks × 2 directions.
        assert_eq!(matrix.cp_flows(&scheme).unwrap().len(), 2 * 3 * 2 * 2);
        // CP gradient sync mirrors the CP geometry with its own volume.
        assert_eq!(matrix.cp_grad_flows(&scheme).unwrap().len(), 2 * 3 * 2 * 2);

        let job = matrix.lower(&scheme, "grid", 4).unwrap();
        assert_eq!(job.epochs.len(), 2);
        assert_eq!(job.epochs[0].label, "steady");
        assert_eq!(job.epochs[1].label, "sync");
        assert_eq!(job.iterations, 4);
        let expected = 5.0 * 32.0 + 7.0 * 24.0 + 11.0 * 24.0 + 13.0 * 24.0;
        let per_iteration: f64 = job.epochs.iter().map(|e| e.total_bytes().value()).sum();
        assert!((per_iteration - expected).abs() < 1e-9);
        // The CP gradient flows land in the sync epoch, not the steady one.
        assert_eq!(job.epochs[1].flows.len(), 32 + 24);
    }

    #[test]
    fn lowering_rejects_mismatched_shapes() {
        let scheme = grid_scheme(6, 2);
        let matrix = TrafficMatrix::new(
            LogicalShape {
                dp: 2,
                pp: 2,
                cp: 2,
            },
            dp_profile(&TrafficSpec::default()),
        );
        assert!(matrix.lower(&scheme, "bad", 1).is_err());
        let zero = TrafficMatrix::new(
            LogicalShape {
                dp: 0,
                pp: 1,
                cp: 1,
            },
            dp_profile(&TrafficSpec::default()),
        );
        assert!(zero.lower(&scheme, "zero", 1).is_err());
    }

    #[test]
    fn plan_derived_matrix_uses_llmsim_volumes() {
        let model = ModelConfig::llama31_405b();
        let comm = CommModel::paper_defaults();
        let strategy = ParallelismStrategy::new(8, 2, 4).with_cp(2);
        let matrix = TrafficMatrix::of_plan(&model, &strategy, &comm);
        assert_eq!(
            matrix.shape,
            LogicalShape {
                dp: 4,
                pp: 2,
                cp: 2
            }
        );
        let volumes = comm.dcn_pair_volumes(&model, &strategy);
        assert_eq!(matrix.profile.dp_pair_bytes, volumes.dp_pair_bytes);
        assert_eq!(matrix.profile.pp_pair_bytes, volumes.pp_pair_bytes);
        assert_eq!(matrix.profile.cp_pair_bytes, volumes.cp_pair_bytes);
    }
}
