//! Fig 17c: cross-ToR traffic rate versus node fault ratio on the 8,192-GPU
//! cluster at an 85% job-scale ratio.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let config = ClusterConfig::paper_8192_gpu();
    let tree = FatTree::from_config(&config).expect("valid fat-tree");
    let orch = FatTreeOrchestrator::new(tree.clone()).expect("valid orchestrator");
    let model = TrafficModel::paper_tp32();
    let header = ["fault ratio (%)", "baseline (%)", "optimized (%)"];
    let mut rows = Vec::new();
    let request = OrchestrationRequest {
        job_nodes: config.nodes * 85 / 100 / 8 * 8,
        nodes_per_group: 8,
        k: 2,
    };
    for &ratio in ctx.select(&[0.0, 0.01, 0.03, 0.05, 0.07, 0.09]) {
        let mut rng = ctx.rng();
        let faults =
            FaultSet::from_nodes(IidFaultModel::new(config.nodes, ratio).sample_exact(&mut rng));
        let baseline = greedy_placement(config.nodes, &faults, 8, request.job_nodes, &mut rng)
            .expect("positive group size");
        let optimized = match orch.orchestrate_par(&request, &faults, ctx.threads) {
            Ok(p) => fmt(cross_tor_rate(&p, &tree, &model) * 100.0, 2),
            Err(_) => "wait".to_string(),
        };
        rows.push(vec![
            fmt(ratio * 100.0, 0),
            fmt(cross_tor_rate(&baseline, &tree, &model) * 100.0, 2),
            optimized,
        ]);
    }
    vec![Table::new(
        "Fig 17c: cross-ToR rate vs node fault ratio (8,192 GPUs, 85% job)",
        &header,
        rows,
    )]
}
