//! Extension experiment: multi-job interference on the shared DCN.
//!
//! Mission Apollo's hard lesson (and the congestion regime PULSE targets) is
//! that landing optics at datacenter scale means several jobs *sharing* the
//! electrical spill-over fabric. This harness places a three-job mix on one
//! Fat-Tree — once with the HBD-DCN orchestration, once with the greedy
//! baseline — lowers each job's DP+PP plan into epochs, replays them
//! concurrently, and reports what each job pays for its neighbours: slowdown
//! vs. the isolated run, p99 epoch stretch, and the link hot-spot profile.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::dcn::jobmix::satisfied_jobs;
use infinitehbd::dcn::{greedy_place_mix, place_mix, replay_mix_par, MixJob};
use infinitehbd::prelude::*;

/// The fixed three-job mix: (name, job nodes, DP, PP).
const JOBS: [(&str, usize, usize, usize); 3] = [
    ("large", 128, 4, 4),
    ("medium", 96, 3, 4),
    ("small", 64, 2, 4),
];

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
    let requests: Vec<MixJob> = JOBS
        .iter()
        .map(|&(name, job_nodes, _, _)| {
            MixJob::new(
                name,
                OrchestrationRequest {
                    job_nodes,
                    nodes_per_group: 8,
                    k: 2,
                },
            )
        })
        .collect();

    // Optimized: the HBD-DCN orchestration, job after job.
    let optimized = place_mix(&orchestrator, &requests, &faults, ctx.threads).expect("mix fits");
    // Greedy baseline: random node picking, also job after job. The greedy
    // packer returns partial placements when the node pool runs out; only
    // fully satisfied jobs are comparable to the optimized mix, so shortfall
    // jobs are dropped rather than lowered into a mismatched shape.
    let (greedy, _) = satisfied_jobs(
        greedy_place_mix(nodes, &requests, &faults, &mut rng).expect("positive group sizes"),
        &requests,
    );

    let lower = |name: &str, scheme: &PlacementScheme| {
        let &(_, _, dp, pp) = JOBS
            .iter()
            .find(|(n, ..)| *n == name)
            .expect("job is in the mix");
        let strategy = ParallelismStrategy::new(32, pp, dp);
        TrafficMatrix::of_plan(&model, &strategy, &comm)
            .lower(scheme, name, 4)
            .expect("shape matches the placement")
    };

    let per_job_header = [
        "scheme",
        "job",
        "isolated (s)",
        "shared (s)",
        "slowdown",
        "p99 stretch",
    ];
    let mix_header = [
        "scheme",
        "makespan (s)",
        "mean slowdown",
        "max slowdown",
        "links >=95% peak",
    ];
    let mut per_job_rows = Vec::new();
    let mut mix_rows = Vec::new();
    for (label, placements) in [("optimized", optimized), ("greedy", greedy)] {
        let jobs: Vec<_> = placements
            .iter()
            .map(|p| lower(&p.name, &p.scheme))
            .collect();
        let outcome = replay_mix_par(&network, &jobs, ctx.threads).expect("replay");
        for job in &outcome.jobs {
            per_job_rows.push(vec![
                label.to_string(),
                job.name.clone(),
                fmt(job.isolated_time.value(), 2),
                fmt(job.shared_time.value(), 2),
                fmt(job.slowdown, 2),
                fmt(job.p99_stretch, 2),
            ]);
        }
        mix_rows.push(vec![
            label.to_string(),
            fmt(outcome.makespan.value(), 2),
            fmt(outcome.mean_slowdown(), 2),
            fmt(outcome.max_slowdown(), 2),
            outcome.hot_links(0.95).to_string(),
        ]);
    }
    vec![
        Table::new(
            "Extension: per-job interference in a 3-job mix (512 nodes, TP-32, DP+PP, 5% faults)",
            &per_job_header,
            per_job_rows,
        ),
        Table::new(
            "Extension: mix-level congestion summary",
            &mix_header,
            mix_rows,
        ),
    ]
}
