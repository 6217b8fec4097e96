//! Criterion benchmarks for the placement-query service layer: batched
//! `answer_batch` (one memoized scratch per `(k, nodes_per_group)` key,
//! amortised over the batch) against the unbatched oracle loop that rebuilds
//! its scratch per query (`orchestrate_par` per query, the path every answer
//! is pinned bit-identical to), WhatIf batches on a warm shared scratch
//! (each query patches a private scratch and runs a constraint search), plus
//! the raw snapshot-store swap/load costs.

use bench::service::{PlacementQuery, PlacementService, SnapshotStore};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const NODES: usize = 2048;

fn store() -> Arc<SnapshotStore> {
    store_of(NODES, 0.05)
}

fn store_of(nodes: usize, fault_ratio: f64) -> Arc<SnapshotStore> {
    let orch = Arc::new(FatTreeOrchestrator::new(FatTree::new(nodes, 16, 8).unwrap()).unwrap());
    let faults = FaultSet::from_nodes(
        IidFaultModel::new(nodes, fault_ratio).sample_exact(&mut StdRng::seed_from_u64(21)),
    );
    Arc::new(SnapshotStore::new(orch, faults))
}

/// A placement-only batch over two TP-group geometries, so the batched side
/// amortises exactly two shared scratches per epoch.
fn place_batch(len: usize) -> Vec<PlacementQuery> {
    (0..len)
        .map(|i| {
            let nodes_per_group = [8usize, 16][i % 2];
            PlacementQuery::Place(OrchestrationRequest {
                job_nodes: NODES / 4 / nodes_per_group * nodes_per_group,
                nodes_per_group,
                k: 2,
            })
        })
        .collect()
}

/// Batched service vs the per-query oracle loop, per batch size. Throughput
/// is queries per second, so the amortisation gain reads off directly.
fn bench_placement_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement_service");
    group.sample_size(10);
    let store = store();
    let snapshot = store.load();
    for &len in &[8usize, 32, 128] {
        let queries = place_batch(len);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("batched", len), &len, |b, _| {
            let service = PlacementService::new(Arc::clone(&store));
            b.iter(|| black_box(service.answer_batch(&queries, 4).answers.len()))
        });
        group.bench_with_input(BenchmarkId::new("unbatched_oracle", len), &len, |b, _| {
            b.iter(|| {
                let mut answered = 0usize;
                for query in &queries {
                    let PlacementQuery::Place(request) = query else {
                        unreachable!("placement-only batch");
                    };
                    answered += usize::from(
                        snapshot
                            .value
                            .orchestrator()
                            .orchestrate_par(request, snapshot.value.faults(), 1)
                            .is_ok(),
                    );
                }
                black_box(answered)
            })
        });
    }
    group.finish();
}

/// 32 WhatIf queries over two group sizes, each overlaying 1–8 extra faults
/// drawn at random from the whole cluster, after one Place query per group
/// size. WhatIf queries only patch from a shared scratch that their batch
/// holds, and only Place / MaxJob queries put one there.
fn what_if_batch(nodes: usize) -> Vec<PlacementQuery> {
    let mut rng = StdRng::seed_from_u64(5);
    let what_ifs = (0..32).map(|i| {
        let nodes_per_group = [8usize, 16][i % 2];
        PlacementQuery::WhatIf {
            request: OrchestrationRequest {
                job_nodes: nodes / 2 / nodes_per_group * nodes_per_group,
                nodes_per_group,
                k: 2,
            },
            extra_faults: FaultSet::from_nodes(
                (0..1 + i % 8).map(|_| NodeId(rng.gen_range(0..nodes))),
            ),
        }
    });
    place_batch(2).into_iter().chain(what_ifs).collect()
}

/// WhatIf batches at a 2 % fault ratio on a warm shared scratch: a warm-up
/// batch has built both shared scratches of the epoch and memoized the two
/// Place answers, so every timed WhatIf patches its private scratch from a
/// shared one and searches it. The service keeps no WhatIf memo, so every
/// iteration redoes that work. Throughput counts the 32 WhatIf queries.
fn bench_what_if(c: &mut Criterion) {
    let mut group = c.benchmark_group("what_if");
    group.sample_size(10);
    for &nodes in &[4096usize, 16_384] {
        let service = PlacementService::new(store_of(nodes, 0.02));
        let queries = what_if_batch(nodes);
        let _ = service.answer_batch(&queries, 1);
        group.throughput(Throughput::Elements(32));
        group.bench_with_input(BenchmarkId::new("batch_32", nodes), &nodes, |b, _| {
            b.iter(|| black_box(service.answer_batch(&queries, 1).stats.probes))
        });
    }
    group.finish();
}

/// The raw store costs: pinning the current snapshot and publishing a new
/// epoch (full fault-set clone included, as a publisher would pay it).
fn bench_snapshot_store(c: &mut Criterion) {
    let store = store();
    c.bench_function("snapshot_store_load", |b| {
        b.iter(|| black_box(store.load().epoch))
    });
    let faults = store.load().value.faults().clone();
    c.bench_function("snapshot_store_publish", |b| {
        b.iter(|| black_box(store.publish(faults.clone())))
    });
}

criterion_group!(
    benches,
    bench_placement_service,
    bench_what_if,
    bench_snapshot_store
);
criterion_main!(benches);
