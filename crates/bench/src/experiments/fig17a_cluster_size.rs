//! Fig 17a: cross-ToR traffic rate versus cluster size, baseline (greedy) vs
//! optimized (HBD-DCN orchestration), TP-32 at an 85% job-scale ratio with 5%
//! node faults. The orchestrator's constraint search fans its probes out over
//! the thread pool.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let header = ["cluster (GPUs)", "baseline (%)", "optimized (%)"];
    let mut rows = Vec::new();
    for &nodes in ctx.select(&[512usize, 1024, 2048, 4096]) {
        let tree = FatTree::new(nodes, 16, 8).expect("valid fat-tree");
        let orch = FatTreeOrchestrator::new(tree.clone()).expect("valid orchestrator");
        let mut rng = ctx.rng();
        let faults = FaultSet::from_nodes(IidFaultModel::new(nodes, 0.05).sample_exact(&mut rng));
        let request = OrchestrationRequest {
            job_nodes: nodes * 85 / 100 / 8 * 8,
            nodes_per_group: 8,
            k: 2,
        };
        let model = TrafficModel::paper_tp32();
        let baseline = greedy_placement(nodes, &faults, 8, request.job_nodes, &mut rng)
            .expect("positive group size");
        let optimized = orch
            .orchestrate_par(&request, &faults, ctx.threads)
            .expect("job fits");
        rows.push(vec![
            (nodes * 4).to_string(),
            fmt(cross_tor_rate(&baseline, &tree, &model) * 100.0, 2),
            fmt(cross_tor_rate(&optimized, &tree, &model) * 100.0, 2),
        ]);
    }
    vec![Table::new(
        "Fig 17a: cross-ToR rate vs cluster size (TP-32, 85% job, 5% faults)",
        &header,
        rows,
    )]
}
