//! Black-box tests of the `hbd-types` public API — the surface every other
//! crate in the workspace consumes. Unlike the in-module unit tests these only
//! see what `pub use` actually exports, so they catch accidental visibility or
//! re-export regressions in the crate everything depends on.

use hbd_types::{
    Bytes, ClusterConfig, Dollars, GBps, Gbps, GpuId, GpuSpec, HbdError, LinkId, Microseconds,
    NodeId, NodeSize, Result, Seconds, SwitchId, ToRId, TrxId, Watts,
};
use std::collections::BTreeMap;

#[test]
fn unit_conversions_compose() {
    // 800 Gbps OCSTrx -> 100 GBps payload; 348-day trace; 80 µs fast switch.
    assert!((Gbps(800.0).to_gbytes_per_sec().value() - 100.0).abs() < 1e-12);
    assert!((Seconds::from_days(348.0).value() - 348.0 * 86_400.0).abs() < 1e-6);
    assert!((Seconds::from_hours(24.0).as_days() - 1.0).abs() < 1e-12);
    assert!((Microseconds(80.0).to_seconds().to_micros().value() - 80.0).abs() < 1e-12);
    assert!((Bytes::from_mb(4.0).value() - 4e6).abs() < 1e-9);
    // Transfer timing feeds the alpha-beta cost model: 1 GiB at 100 GBps.
    let t = GBps(100.0).transfer_time(Bytes::from_gib(1.0));
    assert!((t.value() - (1u64 << 30) as f64 / 1e11).abs() < 1e-15);
}

#[test]
fn units_serialize_transparently() {
    // `#[serde(transparent)]`: a unit must serialise as its bare number so
    // traces and reports stay tool-friendly.
    let json = serde_json::to_string(&Seconds(12.5)).unwrap();
    assert_eq!(json, "12.5");
    let back: Seconds = serde_json::from_str(&json).unwrap();
    assert_eq!(back, Seconds(12.5));
    let w: Watts = serde_json::from_str("75.95").unwrap();
    assert_eq!(w, Watts(75.95));
}

#[test]
fn id_newtypes_are_distinct_types_with_shared_behaviour() {
    // Every id kind exposes the same index API...
    assert_eq!(NodeId::new(7).index(), 7);
    assert_eq!(GpuId::new(3).offset(2), GpuId(5));
    assert_eq!(TrxId(0).checked_sub(1), None);
    assert_eq!(ToRId(9).checked_sub(4), Some(ToRId(5)));
    assert_eq!(SwitchId::from(11usize), SwitchId(11));
    assert_eq!(usize::from(LinkId(13)), 13);
    // ...and serialises as a bare index (transparent newtype).
    assert_eq!(serde_json::to_string(&NodeId(42)).unwrap(), "42");
    let back: NodeId = serde_json::from_str("42").unwrap();
    assert_eq!(back, NodeId(42));
}

#[test]
fn ids_work_as_ordered_map_keys() {
    let mut per_node: BTreeMap<NodeId, usize> = BTreeMap::new();
    for raw in [5usize, 1, 3] {
        per_node.insert(NodeId(raw), raw * 10);
    }
    let keys: Vec<NodeId> = per_node.keys().copied().collect();
    assert_eq!(keys, vec![NodeId(1), NodeId(3), NodeId(5)]);
    // Id-keyed maps round-trip through JSON (encoded as [key, value] pairs).
    let json = serde_json::to_string(&per_node).unwrap();
    let back: BTreeMap<NodeId, usize> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, per_node);
}

#[test]
fn gpu_node_arithmetic_is_consistent_for_both_node_sizes() {
    for node_size in [NodeSize::Four, NodeSize::Eight] {
        let r = node_size.gpus();
        let gpu = GpuId(3 * r + (r - 1)); // last GPU of node 3
        assert_eq!(gpu.node(r), NodeId(3));
        assert_eq!(NodeId(3).gpus(r).last(), Some(gpu));
        assert_eq!(GpuId::from_node_rank(NodeId(3), r - 1, r), Ok(gpu));
        assert_eq!(NodeId(3).gpus(r).count(), r);
    }
}

#[test]
fn config_validation_reports_each_degenerate_parameter() {
    let cases: [(Result<ClusterConfig>, &str); 3] = [
        (ClusterConfig::new(0, NodeSize::Four, 16, 4), "node"),
        (
            ClusterConfig::new(720, NodeSize::Four, 0, 4),
            "nodes_per_tor",
        ),
        (
            ClusterConfig::new(720, NodeSize::Four, 16, 0),
            "tors_per_aggregation_domain",
        ),
    ];
    for (result, expected_fragment) in cases {
        match result {
            Err(HbdError::InvalidConfig { reason }) => assert!(
                reason.contains(expected_fragment),
                "reason {reason:?} should mention {expected_fragment:?}"
            ),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
    let mut config = ClusterConfig::paper_2880_gpu();
    config.gpu.peak_tflops = -1.0;
    assert!(matches!(
        config.validate(),
        Err(HbdError::InvalidConfig { .. })
    ));
}

#[test]
fn node_size_rejects_unsupported_gpu_counts() {
    // The enum admits only the two evaluated form factors, so a config that
    // names any other GPU count fails to parse.
    for gpus in ["0", "1", "2", "6", "16", "\"Six\""] {
        assert!(serde_json::from_str::<NodeSize>(gpus).is_err(), "{gpus}");
    }
    for size in [NodeSize::Four, NodeSize::Eight] {
        let json = serde_json::to_string(&size).unwrap();
        assert_eq!(serde_json::from_str::<NodeSize>(&json).unwrap(), size);
    }
}

#[test]
fn cluster_config_round_trips_through_json() {
    let config = ClusterConfig::paper_8192_gpu();
    let json = serde_json::to_string_pretty(&config).unwrap();
    let back: ClusterConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, config);
    assert_eq!(back.total_gpus(), 8192);
}

#[test]
fn gpu_spec_defaults_to_the_papers_h100() {
    let spec = GpuSpec::default();
    assert_eq!(spec, GpuSpec::h100());
    assert!((spec.hbd_bandwidth.to_gbytes_per_sec().value() - 800.0).abs() < 1e-9);
    let json = serde_json::to_string(&spec).unwrap();
    let back: GpuSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, spec);
}

#[test]
fn error_constructors_match_variants_and_display() {
    let err = HbdError::infeasible("job needs 4096 GPUs");
    assert_eq!(err.to_string(), "infeasible request: job needs 4096 GPUs");
    assert!(matches!(err, HbdError::Infeasible { .. }));
    let err = HbdError::unknown_entity("N99");
    assert!(matches!(err, HbdError::UnknownEntity { .. }));
    let err = HbdError::invalid_operation("double activation");
    assert!(matches!(err, HbdError::InvalidOperation { .. }));
    // HbdError satisfies std::error::Error so it can cross ?-boundaries.
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("invalid operation"));
}

#[test]
fn dollars_and_watts_normalise_per_gbps() {
    // The Table-6 normalisation: cost / bandwidth and power / bandwidth are
    // plain f64 ratios, not unit types.
    let per_gbps: f64 = Dollars(9000.0) / GBps(900.0);
    assert!((per_gbps - 10.0).abs() < 1e-12);
    let watts_per_gbps: f64 = Watts(90.0) / GBps(900.0);
    assert!((watts_per_gbps - 0.1).abs() < 1e-12);
}
