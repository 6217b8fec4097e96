//! From placement quality to DCN congestion: what the HBD-DCN orchestration
//! algorithm buys at flow level.
//!
//! The paper's Figure 17 reports the *fraction of traffic* that crosses a ToR
//! under the baseline (greedy) and optimized placements. This example pushes
//! the comparison one level further: it expands both placements into the DP
//! flows they induce, runs them through the flow-level Fat-Tree simulator
//! (ECMP + max-min fair sharing on an oversubscribed fabric), and reports the
//! resulting congestion — link utilisation, completion-time slowdown, and the
//! exposed DP communication time a training iteration would see.
//!
//! Run with: `cargo run -p infinitehbd --example dcn_congestion`

use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<()> {
    // 512 nodes (2,048 GPUs), 16 nodes per ToR, 8 ToRs per aggregation domain.
    let nodes = 512usize;
    let tree = FatTree::new(nodes, 16, 8)?;
    let orchestrator = FatTreeOrchestrator::new(tree.clone())?;
    let mut rng = StdRng::seed_from_u64(42);

    // 5% of nodes are down; the job wants 85% of the cluster at TP-32
    // (8 nodes per TP group on 4-GPU nodes).
    let faults = FaultSet::from_nodes(IidFaultModel::new(nodes, 0.05).sample_exact(&mut rng));
    let request = OrchestrationRequest {
        job_nodes: nodes * 85 / 100 / 8 * 8,
        nodes_per_group: 8,
        k: 2,
    };

    let baseline = greedy_placement(nodes, &faults, 8, request.job_nodes, &mut rng);
    let optimized = orchestrator.orchestrate_par(&request, &faults, 1)?;

    // A 2:1 oversubscribed fabric — the regime where placement starts to
    // matter for wall-clock time, not just for traffic accounting.
    let network = DcnNetwork::new(
        tree.clone(),
        NetworkParams::non_blocking(16, 4).oversubscribed(2.0),
    )?;
    let spec = TrafficSpec::paper_dp_allreduce();

    println!(
        "job: {} nodes, TP-32, 5% node faults, 2:1 oversubscribed Fat-Tree\n",
        request.job_nodes
    );
    let model = TrafficModel::paper_tp32();
    for (label, scheme) in [
        ("greedy baseline", &baseline),
        ("HBD-DCN optimized", &optimized),
    ] {
        let flows = dp_ring_flows(scheme, &spec);
        let sim = FlowSimulation::run(&network, flows)?;
        let report = sim.report(&network);
        println!("-- {label}");
        println!(
            "   cross-ToR rate (traffic accounting): {:.2}%",
            cross_tor_rate(scheme, &tree, &model) * 100.0
        );
        println!(
            "   DP flows: {}   crossing a ToR: {}   cross-ToR bytes: {:.1}%",
            report.flows,
            report.cross_tor_flows,
            report.cross_tor_byte_fraction * 100.0
        );
        println!(
            "   exposed DP time: {:.3} s (uncongested lower bound {:.3} s, slowdown {:.2}x)",
            report.max_completion.value(),
            report.ideal_completion.value(),
            report.slowdown
        );
        println!(
            "   busiest link utilisation: {:.0}%   mean loaded-link utilisation: {:.0}%\n",
            report.max_link_utilization * 100.0,
            report.mean_loaded_link_utilization * 100.0
        );
    }

    println!(
        "The optimized placement keeps substantially more DP pairs under their ToR than the greedy\n\
         baseline, so less traffic contends for the oversubscribed uplinks and the exposed DP time\n\
         moves towards the access-link bound."
    );
    Ok(())
}
