//! HBD-DCN orchestration: place a large TP-32 job on a faulty cluster with the
//! greedy baseline and with the paper's binary-search orchestrator, and compare
//! the cross-ToR traffic (the §6.4 experiment).
//!
//! Run with: `cargo run -p infinitehbd --example orchestration --release`

use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<()> {
    // The paper's 8,192-GPU cluster: 2,048 nodes, 16 per ToR, 8 ToRs/domain.
    let config = ClusterConfig::paper_8192_gpu();
    let fat_tree = FatTree::from_config(&config)?;
    let orchestrator = FatTreeOrchestrator::new(fat_tree.clone())?;

    // 5% of nodes are faulty; the job wants 85% of the cluster at TP-32.
    let model = IidFaultModel::new(config.nodes, 0.05);
    let faults = FaultSet::from_nodes(model.sample_exact(&mut StdRng::seed_from_u64(7)));
    let request = OrchestrationRequest {
        job_nodes: (config.nodes as f64 * 0.85) as usize,
        nodes_per_group: 32 / config.node_size.gpus(),
        k: 2,
    };

    let optimized = orchestrator.orchestrate_par(&request, &faults, 1)?;
    let baseline = greedy_placement(
        config.nodes,
        &faults,
        request.nodes_per_group,
        request.job_nodes,
        &mut StdRng::seed_from_u64(7),
    );

    let traffic = TrafficModel::paper_tp32();
    println!(
        "job: {} nodes (TP-32), fault ratio {:.1}%",
        request.job_nodes,
        faults.node_fault_ratio(config.nodes) * 100.0
    );
    println!(
        "baseline  : {:4} groups placed, cross-ToR traffic {:.2}%",
        baseline.len(),
        cross_tor_rate(&baseline, &fat_tree, &traffic) * 100.0
    );
    println!(
        "optimized : {:4} groups placed, cross-ToR traffic {:.2}%",
        optimized.len(),
        cross_tor_rate(&optimized, &fat_tree, &traffic) * 100.0
    );
    Ok(())
}
