//! Property tests for the `TrafficMatrix` lowering: the lowered flow sets
//! must conserve the analytic `llmsim::comm` volumes per parallelism
//! dimension, and the DP-only restriction must reproduce the original
//! single-epoch model byte-for-byte.

use dcn::{
    dp_ring_flows, DcnNetwork, Flow, FlowSimulation, LogicalShape, NetworkParams, TrafficMatrix,
    TrafficProfile, TrafficSpec,
};
use hbd_types::{Bytes, NodeId};
use llmsim::{CommModel, ModelConfig, ParallelismStrategy};
use orchestrator::{PlacementScheme, TpGroup};
use proptest::prelude::*;
use topology::FatTree;

/// A placement of `groups` TP groups of `ranks` nodes each, numbered densely.
fn grid_scheme(groups: usize, ranks: usize) -> PlacementScheme {
    PlacementScheme {
        groups: (0..groups)
            .map(|g| TpGroup::new((0..ranks).map(|r| NodeId(g * ranks + r)).collect()))
            .collect(),
    }
}

fn total_bytes(flows: &[Flow]) -> f64 {
    flows.iter().map(|f| f.bytes.value()).sum()
}

fn arbitrary_shape() -> impl Strategy<Value = (LogicalShape, usize)> {
    (1usize..5, 1usize..4, 1usize..3, 1usize..4)
        .prop_map(|(dp, pp, cp, ranks)| (LogicalShape { dp, pp, cp }, ranks))
}

proptest! {
    /// Total lowered bytes per dimension equal the analytic per-pair volume
    /// times the pair count of the logical grid times the two directions.
    #[test]
    fn lowered_totals_match_the_analytic_volumes(
        (shape, ranks) in arbitrary_shape(),
        dp_pair in 1.0f64..1e10,
        pp_pair in 1.0f64..1e10,
        cp_pair in 1.0f64..1e10,
        cp_grad_pair in 1.0f64..1e10,
        dp_wraps in (0usize..2).prop_map(|b| b == 1),
        cp_wraps in (0usize..2).prop_map(|b| b == 1),
    ) {
        let scheme = grid_scheme(shape.groups(), ranks);
        let profile = TrafficProfile {
            dp_pair_bytes: Bytes(dp_pair),
            pp_pair_bytes: Bytes(pp_pair),
            cp_pair_bytes: Bytes(cp_pair),
            cp_grad_pair_bytes: Bytes(cp_grad_pair),
            dp_ring_wraps: dp_wraps,
            cp_ring_wraps: cp_wraps,
        };
        let matrix = TrafficMatrix::new(shape, profile);

        let dp_pairs = if shape.dp < 2 { 0 } else if dp_wraps { shape.dp } else { shape.dp - 1 };
        let cp_pairs = if shape.cp < 2 { 0 } else if cp_wraps { shape.cp } else { shape.cp - 1 };
        let pp_pairs = shape.pp.saturating_sub(1);

        let expected_dp = (dp_pairs * shape.pp * shape.cp * ranks * 2) as f64 * dp_pair;
        let expected_pp = (pp_pairs * shape.cp * shape.dp * ranks * 2) as f64 * pp_pair;
        let expected_cp = (cp_pairs * shape.pp * shape.dp * ranks * 2) as f64 * cp_pair;
        let expected_cp_grad = (cp_pairs * shape.pp * shape.dp * ranks * 2) as f64 * cp_grad_pair;

        let relative = |actual: f64, expected: f64| {
            (actual - expected).abs() <= 1e-9 * expected.max(1.0)
        };
        prop_assert!(relative(total_bytes(&matrix.dp_flows(&scheme).unwrap()), expected_dp));
        prop_assert!(relative(total_bytes(&matrix.pp_flows(&scheme).unwrap()), expected_pp));
        prop_assert!(relative(total_bytes(&matrix.cp_flows(&scheme).unwrap()), expected_cp));
        prop_assert!(relative(
            total_bytes(&matrix.cp_grad_flows(&scheme).unwrap()),
            expected_cp_grad
        ));

        // The lowered job conserves the sum of all four components.
        let job = matrix.lower(&scheme, "prop", 1).unwrap();
        let expected_total = expected_dp + expected_pp + expected_cp + expected_cp_grad;
        let per_iteration: f64 = job.epochs.iter().map(|e| e.total_bytes().value()).sum();
        prop_assert!(relative(per_iteration, expected_total));

        // A mismatched placement is an error, not a panic.
        let wrong = grid_scheme(shape.groups() + 1, ranks);
        prop_assert!(matrix.dp_flows(&wrong).is_err());
        prop_assert!(matrix.lower(&wrong, "wrong", 1).is_err());
    }

    /// A plan-derived matrix conserves the `llmsim::comm` volumes: the lowered
    /// DP/PP/CP totals are the `CommModel` per-pair formulas times the grid's
    /// pair counts.
    #[test]
    fn plan_lowering_matches_llmsim_comm_volumes(
        dp in 1usize..5,
        pp in 1usize..4,
        cp in 1usize..3,
        ranks in 1usize..3,
    ) {
        let model = ModelConfig::llama31_405b();
        let comm = CommModel::paper_defaults();
        let strategy = ParallelismStrategy::new(8, pp, dp).with_cp(cp);
        let matrix = TrafficMatrix::of_plan(&model, &strategy, &comm);
        let scheme = grid_scheme(dp * pp * cp, ranks);

        let lanes = |pairs: usize, planes: usize| (pairs * planes * ranks * 2) as f64;
        let expected_dp =
            lanes(dp.saturating_sub(1), pp * cp) * comm.dp_pair_bytes(&model, &strategy).value();
        let expected_pp =
            lanes(pp.saturating_sub(1), dp * cp) * comm.pp_pair_bytes(&model, &strategy).value();
        let expected_cp =
            lanes(cp.saturating_sub(1), dp * pp) * comm.cp_pair_bytes(&model, &strategy).value();
        let expected_cp_grad = lanes(cp.saturating_sub(1), dp * pp)
            * comm.cp_grad_pair_bytes(&model, &strategy).value();

        let relative = |actual: f64, expected: f64| {
            (actual - expected).abs() <= 1e-9 * expected.max(1.0)
        };
        prop_assert!(relative(total_bytes(&matrix.dp_flows(&scheme).unwrap()), expected_dp));
        prop_assert!(relative(total_bytes(&matrix.pp_flows(&scheme).unwrap()), expected_pp));
        prop_assert!(relative(total_bytes(&matrix.cp_flows(&scheme).unwrap()), expected_cp));
        prop_assert!(relative(
            total_bytes(&matrix.cp_grad_flows(&scheme).unwrap()),
            expected_cp_grad
        ));
    }

    /// The DP-only restriction of the matrix reproduces the original
    /// `dp_ring_flows` lowering byte-for-byte — same flows, same order — and
    /// therefore the same `FlowSimulation` congestion report, serialised to
    /// the same JSON bytes.
    #[test]
    fn dp_only_lowering_is_byte_identical_to_the_single_job_model(
        groups in 1usize..9,
        ranks in 1usize..4,
        gib in 0.5f64..8.0,
        wraps in (0usize..2).prop_map(|b| b == 1),
    ) {
        let scheme = grid_scheme(groups, ranks);
        let spec = TrafficSpec {
            bytes_per_dp_pair: Bytes::from_gib(gib),
            dp_ring_wraps: wraps,
        };
        // The DP-only profile equivalent to `spec`.
        let profile = TrafficProfile {
            dp_pair_bytes: spec.bytes_per_dp_pair,
            pp_pair_bytes: Bytes(0.0),
            cp_pair_bytes: Bytes(0.0),
            cp_grad_pair_bytes: Bytes(0.0),
            dp_ring_wraps: wraps,
            cp_ring_wraps: false,
        };
        let matrix = TrafficMatrix::new(LogicalShape { dp: groups, pp: 1, cp: 1 }, profile);

        let legacy = dp_ring_flows(&scheme, &spec);
        let lowered = matrix.dp_flows(&scheme).unwrap();
        prop_assert_eq!(&lowered, &legacy);

        // End to end: both flow sets produce byte-identical congestion
        // reports on the same network.
        let tree = FatTree::new(32, 4, 4).unwrap();
        let network = DcnNetwork::new(tree, NetworkParams::non_blocking(4, 4)).unwrap();
        let legacy_report = FlowSimulation::run(&network, legacy).unwrap().report(&network);
        let lowered_report = FlowSimulation::run(&network, lowered).unwrap().report(&network);
        let legacy_json = serde_json::to_string(&serde_json::to_value(&legacy_report)).unwrap();
        let lowered_json = serde_json::to_string(&serde_json::to_value(&lowered_report)).unwrap();
        prop_assert_eq!(legacy_json, lowered_json);
    }
}
