//! Criterion benchmarks for incremental epoch publishing: the delta-publish
//! path against the wholesale publish (the cost of swapping a new fault
//! state in), and patched scratch materialization against cold rebuilds (the
//! cost of the first placement probe after a publish), across cluster sizes
//! and delta widths. The delta legs should scale with the delta; the full /
//! cold legs with the cluster.

use bench::service::{PlacementService, SnapshotDelta, SnapshotStore};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const CLUSTERS: [usize; 4] = [1024, 4096, 16_384, 65_536];
const DELTAS: [usize; 3] = [1, 16, 256];

fn store(nodes: usize) -> Arc<SnapshotStore> {
    let orch = Arc::new(FatTreeOrchestrator::new(FatTree::new(nodes, 16, 8).unwrap()).unwrap());
    let faults = FaultSet::from_nodes(
        IidFaultModel::new(nodes, 0.02).sample_exact(&mut StdRng::seed_from_u64(33)),
    );
    Arc::new(SnapshotStore::new(orch, faults))
}

/// An occupy/release delta pair of `width` healthy nodes spread evenly over
/// the cluster, so publishing the pair toggles exactly `width` exclusion
/// bits there and back.
fn delta_pair(nodes: usize, width: usize, base: &FaultSet) -> (SnapshotDelta, SnapshotDelta) {
    let stride = (nodes / width).max(1);
    let mut occupy = SnapshotDelta::new();
    for id in (0..nodes).step_by(stride) {
        if !base.is_faulty(NodeId(id)) {
            occupy.occupied.add(NodeId(id));
        }
        if occupy.occupied.len() == width {
            break;
        }
    }
    // Top up from the front if the stride landed on faulty nodes.
    let mut id = 0;
    while occupy.occupied.len() < width {
        if !base.is_faulty(NodeId(id)) {
            occupy.occupied.add(NodeId(id));
        }
        id += 1;
    }
    let mut release = SnapshotDelta::new();
    release.released = occupy.occupied.clone();
    (occupy, release)
}

/// Raw publish cost: applying an occupy/release delta pair through
/// `publish_delta` versus republishing the whole fault set. Throughput is
/// flipped nodes per second for the delta leg.
fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish_epoch");
    group.sample_size(10);
    for &nodes in &CLUSTERS {
        let store = store(nodes);
        let base = store.load().value.faults().clone();
        for &width in &DELTAS {
            let (occupy, release) = delta_pair(nodes, width, &base);
            group.throughput(Throughput::Elements(2 * width as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("publish_delta_{nodes}"), width),
                &width,
                |b, _| {
                    b.iter(|| {
                        black_box(store.publish_delta(&occupy));
                        black_box(store.publish_delta(&release))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("publish_full_{nodes}"), width),
                &width,
                |b, _| {
                    b.iter(|| {
                        let faults = store.load().value.faults().clone();
                        black_box(store.publish(faults))
                    })
                },
            );
        }
    }
    group.finish();
}

/// First-probe-after-publish cost: a long-lived service that patches its
/// previous epoch's scratch forward versus a fresh service that must build
/// cold. Each iteration publishes the occupy delta, probes, publishes the
/// release delta and probes again.
fn bench_scratch_materialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("scratch_materialization");
    group.sample_size(10);
    for &nodes in &CLUSTERS {
        let store = store(nodes);
        let base = store.load().value.faults().clone();
        let probe = OrchestrationRequest {
            job_nodes: 64,
            nodes_per_group: 16,
            k: 2,
        };
        for &width in &DELTAS {
            let (occupy, release) = delta_pair(nodes, width, &base);
            group.throughput(Throughput::Elements(2));
            group.bench_with_input(
                BenchmarkId::new(format!("patched_{nodes}"), width),
                &width,
                |b, _| {
                    let service = PlacementService::new(Arc::clone(&store));
                    let _ = service.place(&probe);
                    b.iter(|| {
                        store.publish_delta(&occupy);
                        black_box(service.place(&probe).is_ok());
                        store.publish_delta(&release);
                        black_box(service.place(&probe).is_ok())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("cold_{nodes}"), width),
                &width,
                |b, _| {
                    b.iter(|| {
                        store.publish_delta(&occupy);
                        let fresh = PlacementService::new(Arc::clone(&store));
                        black_box(fresh.place(&probe).is_ok());
                        store.publish_delta(&release);
                        let fresh = PlacementService::new(Arc::clone(&store));
                        black_box(fresh.place(&probe).is_ok())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_publish, bench_scratch_materialization);
criterion_main!(benches);
