//! Criterion benchmarks for the flow-level DCN simulator: routing plus max-min
//! fair allocation over the DP flows of increasingly large jobs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use infinitehbd::dcn::{dp_ring_flows, DcnNetwork, FlowSimulation, NetworkParams, TrafficSpec};
use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario(nodes: usize) -> (DcnNetwork, Vec<infinitehbd::dcn::Flow>) {
    let tree = FatTree::new(nodes, 16, 8).unwrap();
    let orchestrator = FatTreeOrchestrator::new(tree.clone()).unwrap();
    let faults = FaultSet::from_nodes(
        IidFaultModel::new(nodes, 0.05).sample_exact(&mut StdRng::seed_from_u64(5)),
    );
    let request = OrchestrationRequest {
        job_nodes: nodes * 85 / 100 / 8 * 8,
        nodes_per_group: 8,
        k: 2,
    };
    let placement = orchestrator.orchestrate_par(&request, &faults, 1).unwrap();
    let network =
        DcnNetwork::new(tree, NetworkParams::non_blocking(16, 4).oversubscribed(2.0)).unwrap();
    let flows = dp_ring_flows(&placement, &TrafficSpec::paper_dp_allreduce());
    (network, flows)
}

fn bench_flow_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcn_flow_simulation");
    group.sample_size(20);
    for nodes in [256usize, 1024, 4096] {
        let (network, flows) = scenario(nodes);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                let sim = FlowSimulation::run(&network, flows.clone()).unwrap();
                black_box(sim.report(&network).slowdown)
            })
        });
    }
    group.finish();
}

fn bench_routing_only(c: &mut Criterion) {
    let (network, flows) = scenario(1024);
    c.bench_function("dcn_route_1024_nodes", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for flow in &flows {
                hops += network.route(flow).unwrap().hops();
            }
            black_box(hops)
        })
    });
}

criterion_group!(benches, bench_flow_simulation, bench_routing_only);
criterion_main!(benches);
