//! Extension experiment: interference as a function of job count.
//!
//! Packing more concurrent jobs onto one Fat-Tree raises the odds that two
//! jobs' DP/PP flows meet on a ToR uplink. This sweep adds identical 64-node
//! jobs one at a time, replays every mix through the traffic engine for both
//! placement policies, and tracks how the mean/worst slowdown and the hot-link
//! count grow with the mix size — the shared-fabric scaling axis the
//! single-job figures cannot see.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::dcn::jobmix::satisfied_jobs;
use infinitehbd::dcn::{greedy_place_mix, place_mix, replay_mix_par, JobTraffic, MixJob};
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let nodes = 512usize;
    let tree = FatTree::new(nodes, 16, 8).expect("valid fat-tree");
    let orchestrator = FatTreeOrchestrator::new(tree.clone()).expect("orchestrator");
    let network = DcnNetwork::new(tree, NetworkParams::non_blocking(16, 4).oversubscribed(4.0))
        .expect("network");
    let mut rng = ctx.rng();
    let faults = FaultSet::from_nodes(IidFaultModel::new(nodes, 0.05).sample_exact(&mut rng));

    let model = ModelConfig::llama31_405b();
    let comm = CommModel::paper_defaults();
    // Every job: 64 nodes = 8 TP-32 groups, sliced DP-2 × PP-4.
    let strategy = ParallelismStrategy::new(32, 4, 2);
    let matrix = TrafficMatrix::of_plan(&model, &strategy, &comm);
    let request = OrchestrationRequest {
        job_nodes: 64,
        nodes_per_group: 8,
        k: 2,
    };

    let header = [
        "jobs",
        "scheme",
        "makespan (s)",
        "mean slowdown",
        "max slowdown",
        "links >=95% peak",
    ];
    let mut rows = Vec::new();
    for &count in ctx.select(&[1usize, 2, 3, 4, 5]) {
        let requests: Vec<MixJob> = (0..count)
            .map(|i| MixJob::new(format!("job{i}"), request))
            .collect();

        let optimized =
            place_mix(&orchestrator, &requests, &faults, ctx.threads).expect("mix fits");
        // Drop greedy shortfall jobs (partial placements cannot be lowered
        // into the fixed DP2×PP4 shape, and they have no optimized analogue).
        let (greedy, _) = satisfied_jobs(
            greedy_place_mix(nodes, &requests, &faults, &mut rng),
            &requests,
        );

        for (label, placements) in [("optimized", optimized), ("greedy", greedy)] {
            let jobs: Vec<JobTraffic> = placements
                .iter()
                .map(|p| {
                    matrix
                        .lower(&p.scheme, p.name.clone(), 4)
                        .expect("shape matches the placement")
                })
                .collect();
            let outcome = replay_mix_par(&network, &jobs, ctx.threads).expect("replay");
            rows.push(vec![
                count.to_string(),
                label.to_string(),
                fmt(outcome.makespan.value(), 2),
                fmt(outcome.mean_slowdown(), 2),
                fmt(outcome.max_slowdown(), 2),
                outcome.hot_links(0.95).to_string(),
            ]);
        }
    }
    vec![Table::new(
        "Extension: interference vs concurrent job count (64-node DP2×PP4 jobs, 4:1 oversubscription)",
        &header,
        rows,
    )]
}
