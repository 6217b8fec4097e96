//! Extension experiment: flow-level consequence of orchestration quality.
//!
//! Figure 17 counts cross-ToR traffic; this harness pushes the same scenarios
//! through the flow-level DCN simulator and reports the exposed DP AllReduce
//! slowdown for the greedy baseline and the HBD-DCN orchestration, across ToR
//! oversubscription ratios — the ablation that connects "fewer cross-ToR
//! pairs" to "faster training iterations".

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::dcn::{dp_ring_flows, DcnNetwork, FlowSimulation, NetworkParams, TrafficSpec};
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let nodes = 512usize;
    let tree = FatTree::new(nodes, 16, 8).expect("valid fat-tree");
    let orchestrator = FatTreeOrchestrator::new(tree.clone()).expect("orchestrator");
    let mut rng = ctx.rng();
    let faults = FaultSet::from_nodes(IidFaultModel::new(nodes, 0.05).sample_exact(&mut rng));
    let request = OrchestrationRequest {
        job_nodes: nodes * 85 / 100 / 8 * 8,
        nodes_per_group: 8,
        k: 2,
    };
    let optimized = orchestrator
        .orchestrate_par(&request, &faults, ctx.threads)
        .expect("job fits");
    let baseline = greedy_placement(nodes, &faults, 8, request.job_nodes, &mut rng)
        .expect("positive group size");
    let spec = TrafficSpec::paper_dp_allreduce();

    let header = [
        "oversubscription",
        "scheme",
        "cross-ToR flows (%)",
        "slowdown",
        "max link util (%)",
    ];
    let mut rows = Vec::new();
    for &ratio in ctx.select(&[1.0f64, 2.0, 4.0, 8.0]) {
        for (label, scheme) in [("greedy", &baseline), ("optimized", &optimized)] {
            let params = NetworkParams::non_blocking(16, 4).oversubscribed(ratio);
            let network = DcnNetwork::new(tree.clone(), params).expect("network");
            let sim = FlowSimulation::run(&network, dp_ring_flows(scheme, &spec)).expect("sim");
            let report = sim.report(&network);
            rows.push(vec![
                format!("{ratio}:1"),
                label.to_string(),
                fmt(
                    100.0 * report.cross_tor_flows as f64
                        / (report.flows - report.local_flows).max(1) as f64,
                    1,
                ),
                fmt(report.slowdown, 2),
                fmt(report.max_link_utilization * 100.0, 0),
            ]);
        }
    }
    vec![Table::new(
        "Extension: DP AllReduce slowdown vs ToR oversubscription (2,048 GPUs, TP-32, 5% faults)",
        &header,
        rows,
    )]
}
