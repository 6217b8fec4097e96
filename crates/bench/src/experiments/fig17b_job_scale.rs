//! Fig 17b: cross-ToR traffic rate versus job-scale ratio on the 8,192-GPU
//! cluster with 5% node faults, plus the largest orchestratable job under the
//! same fault pattern (the parallel job-size search).

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let config = ClusterConfig::paper_8192_gpu();
    let tree = FatTree::from_config(&config).expect("valid fat-tree");
    let orch = FatTreeOrchestrator::new(tree.clone()).expect("valid orchestrator");
    let model = TrafficModel::paper_tp32();
    let header = ["job-scale ratio (%)", "baseline (%)", "optimized (%)"];
    let mut rows = Vec::new();
    for &scale in ctx.select(&[70usize, 75, 80, 85, 90]) {
        let mut rng = ctx.rng();
        let faults =
            FaultSet::from_nodes(IidFaultModel::new(config.nodes, 0.05).sample_exact(&mut rng));
        let request = OrchestrationRequest {
            job_nodes: config.nodes * scale / 100 / 8 * 8,
            nodes_per_group: 8,
            k: 2,
        };
        let baseline = greedy_placement(config.nodes, &faults, 8, request.job_nodes, &mut rng)
            .expect("positive group size");
        let optimized = match orch.orchestrate_par(&request, &faults, ctx.threads) {
            Ok(p) => fmt(cross_tor_rate(&p, &tree, &model) * 100.0, 2),
            Err(_) => "wait".to_string(),
        };
        rows.push(vec![
            scale.to_string(),
            fmt(cross_tor_rate(&baseline, &tree, &model) * 100.0, 2),
            optimized,
        ]);
    }
    let mut tables = vec![Table::new(
        "Fig 17b: cross-ToR rate vs job-scale ratio (8,192 GPUs, 5% faults)",
        &header,
        rows,
    )];

    // Capacity planning: the largest job the orchestrator can place under the
    // same 5% fault pattern, found by the parallel multisection search.
    let faults =
        FaultSet::from_nodes(IidFaultModel::new(config.nodes, 0.05).sample_exact(&mut ctx.rng()));
    let report = max_orchestratable_job(&orch, 8, 2, &faults, ctx.threads);
    tables.push(Table::new(
        "Fig 15b (ext): largest orchestratable job under 5% faults",
        &["metric", "value"],
        vec![
            vec!["max job (nodes)".to_string(), report.job_nodes.to_string()],
            vec![
                "max job (GPUs)".to_string(),
                (report.job_nodes * config.node_size.gpus()).to_string(),
            ],
            vec![
                "max job-scale ratio (%)".to_string(),
                fmt(report.job_nodes as f64 / config.nodes as f64 * 100.0, 1),
            ],
            vec!["feasibility probes".to_string(), report.probes.to_string()],
        ],
    ));
    tables
}
