//! Criterion benchmarks for the HBD-DCN orchestration algorithms (the paper's
//! complexity claim is O(n log n) for the Fat-Tree orchestration), plus the
//! `dcn_free_kernel` group pitting the linear-scan placement kernel against
//! the graph + DFS formulation it replaced (kept in the orchestrator as a
//! `#[cfg(test)]` oracle; re-stated here so the ratio is measured on every
//! bench pass and lands in `bench_results.json`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use infinitehbd::orchestrator::{orchestrate_dcn_free, TpGroup};
use infinitehbd::prelude::*;
use infinitehbd::topology::NodeGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The graph + DFS formulation of Algorithm 2 — a faithful copy of the
/// orchestrator's `#[cfg(test)]` oracle (benches cannot see test-gated items),
/// used as the baseline the linear scan is measured against.
fn dcn_free_graph_oracle(
    order: &[NodeId],
    k: usize,
    faults: &FaultSet,
    nodes_per_group: usize,
) -> PlacementScheme {
    if order.is_empty() {
        return PlacementScheme::new();
    }
    let mut graph = NodeGraph::new(order.len());
    for i in 0..order.len() {
        for hop in 1..=k {
            if i + hop < order.len() {
                graph.add_edge(NodeId(i), NodeId(i + hop));
            }
        }
    }
    let healthy_positions: Vec<NodeId> = order
        .iter()
        .enumerate()
        .filter(|(_, node)| !faults.is_faulty(**node))
        .map(|(i, _)| NodeId(i))
        .collect();
    let healthy_graph = graph
        .induced_subgraph(|pos| pos.index() < order.len() && !faults.is_faulty(order[pos.index()]));
    let components = healthy_graph.connected_components(&healthy_positions);
    let mut scheme = PlacementScheme::new();
    for component in components {
        let nodes: Vec<NodeId> = component.iter().map(|pos| order[pos.index()]).collect();
        for chunk in nodes.chunks(nodes_per_group) {
            if chunk.len() == nodes_per_group {
                scheme.push(TpGroup::new(chunk.to_vec()));
            }
        }
    }
    scheme
}

/// Linear-scan kernel vs graph oracle, across cluster sizes and fault ratios.
/// Throughput is nodes scanned per second, so the two variants are directly
/// comparable per size.
fn bench_dcn_free_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcn_free_kernel");
    group.sample_size(20);
    for &nodes in &[512usize, 2048, 8192] {
        for &fault_pct in &[1usize, 5, 10] {
            let order: Vec<NodeId> = (0..nodes).map(NodeId).collect();
            let faults = FaultSet::from_nodes(
                IidFaultModel::new(nodes, fault_pct as f64 / 100.0)
                    .sample_exact(&mut StdRng::seed_from_u64(11)),
            );
            group.throughput(Throughput::Elements(nodes as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("linear_scan/{fault_pct}pct"), nodes),
                &nodes,
                |b, _| b.iter(|| black_box(orchestrate_dcn_free(&order, 2, &faults, 8).len())),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("graph_oracle/{fault_pct}pct"), nodes),
                &nodes,
                |b, _| b.iter(|| black_box(dcn_free_graph_oracle(&order, 2, &faults, 8).len())),
            );
        }
    }
    group.finish();
}

fn bench_orchestration(c: &mut Criterion) {
    let mut group = c.benchmark_group("fat_tree_orchestration");
    group.sample_size(20);
    for nodes in [512usize, 2048, 8192, 16384] {
        let tree = FatTree::new(nodes, 16, 8).unwrap();
        let orch = FatTreeOrchestrator::new(tree).unwrap();
        let faults = FaultSet::from_nodes(
            IidFaultModel::new(nodes, 0.05).sample_exact(&mut StdRng::seed_from_u64(1)),
        );
        let request = OrchestrationRequest {
            job_nodes: nodes * 85 / 100 / 8 * 8,
            nodes_per_group: 8,
            k: 2,
        };
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(orch.orchestrate_par(&request, &faults, 1).unwrap().len()))
        });
    }
    group.finish();
}

/// The largest-job search (`MaxJob` queries of the placement service) on
/// the same 5 %-faulty clusters as `fat_tree_orchestration`.
fn bench_max_job(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_orchestratable_job");
    group.sample_size(20);
    for nodes in [2048usize, 8192, 16384] {
        let orch = FatTreeOrchestrator::new(FatTree::new(nodes, 16, 8).unwrap()).unwrap();
        let faults = FaultSet::from_nodes(
            IidFaultModel::new(nodes, 0.05).sample_exact(&mut StdRng::seed_from_u64(1)),
        );
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(max_orchestratable_job(&orch, 8, 2, &faults, 1).job_nodes))
        });
    }
    group.finish();
}

fn bench_greedy_baseline(c: &mut Criterion) {
    c.bench_function("greedy_placement_2048_nodes", |b| {
        let faults = FaultSet::from_nodes(
            IidFaultModel::new(2048, 0.05).sample_exact(&mut StdRng::seed_from_u64(2)),
        );
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(
                greedy_placement(2048, &faults, 8, 1740, &mut rng)
                    .unwrap()
                    .len(),
            )
        })
    });
}

fn bench_cross_tor_accounting(c: &mut Criterion) {
    let tree = FatTree::new(2048, 16, 8).unwrap();
    let orch = FatTreeOrchestrator::new(tree.clone()).unwrap();
    let faults = FaultSet::from_nodes(
        IidFaultModel::new(2048, 0.05).sample_exact(&mut StdRng::seed_from_u64(4)),
    );
    let request = OrchestrationRequest {
        job_nodes: 1740,
        nodes_per_group: 8,
        k: 2,
    };
    let placement = orch.orchestrate_par(&request, &faults, 1).unwrap();
    c.bench_function("cross_tor_rate_2048_nodes", |b| {
        b.iter(|| {
            black_box(cross_tor_rate(
                &placement,
                &tree,
                &TrafficModel::paper_tp32(),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_dcn_free_kernel,
    bench_orchestration,
    bench_max_job,
    bench_greedy_baseline,
    bench_cross_tor_accounting
);
criterion_main!(benches);
