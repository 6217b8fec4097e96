//! Criterion benchmarks for the cluster fault-resilience pipeline: utilization
//! reports across architectures, full trace replays, trace generation, and
//! the fault/repair edge streams the simulators and perfbench's serving
//! workloads start from (`fault_schedule`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use infinitehbd::fault::sim_events::{generate_events, trace_events};
use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_utilization(c: &mut Criterion) {
    let mut group = c.benchmark_group("utilization_tp32_5pct_faults");
    let faults = FaultSet::from_nodes(
        IidFaultModel::new(720, 0.05).sample_exact(&mut StdRng::seed_from_u64(1)),
    );
    for arch in paper_architectures(720, 4, 32).expect("valid architectures") {
        group.bench_with_input(
            BenchmarkId::from_parameter(arch.name().to_string()),
            &arch,
            |b, arch| b.iter(|| black_box(arch.utilization(&faults, 32).waste_ratio())),
        );
    }
    group.finish();
}

fn bench_trace_replay(c: &mut Criterion) {
    let generator = TraceGenerator::new(GeneratorConfig {
        nodes: 720,
        duration: Seconds::from_days(348.0),
        steady_state_fault_ratio: 0.0117,
        mean_time_to_repair: Seconds::from_hours(12.0),
    })
    .unwrap();
    let trace = generator.generate(&mut StdRng::seed_from_u64(2));
    let ring = KHopRing::new(720, 4, 3).unwrap();
    c.bench_function("waste_over_trace_348_samples", |b| {
        b.iter(|| black_box(waste_over_trace_par(&ring, &trace, 32, 348, 1).len()))
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let generator = TraceGenerator::new(GeneratorConfig::paper_8gpu_cluster()).unwrap();
    c.bench_function("trace_generation_400_nodes_348_days", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(generator.generate(&mut rng).len())
        })
    });
}

/// The fault history of perfbench's serving workloads (2 % faulty nodes,
/// 1 h mean repair): `serve_churn` builds it at 16,384 nodes × 256 h and
/// `serve_steady` at 4,096 nodes × 512 h.
fn serving_history(nodes: usize, hours: f64) -> GeneratorConfig {
    GeneratorConfig {
        nodes,
        duration: Seconds::from_hours(hours),
        steady_state_fault_ratio: 0.02,
        mean_time_to_repair: Seconds::from_hours(1.0),
    }
}

fn bench_fault_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_schedule");
    for (nodes, hours) in [(16_384, 256.0), (4_096, 512.0)] {
        let config = serving_history(nodes, hours);
        let id = BenchmarkId::new("generate_events", format!("{nodes}x{hours}h"));
        group.bench_function(id, |b| {
            b.iter(|| black_box(generate_events(&config, 1).unwrap().len()))
        });
    }
    let trace = TraceGenerator::new(serving_history(16_384, 256.0))
        .unwrap()
        .generate(&mut StdRng::seed_from_u64(1));
    group.bench_function("trace_events/16384x256h", |b| {
        b.iter(|| black_box(trace_events(&trace).len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_utilization,
    bench_trace_replay,
    bench_trace_generation,
    bench_fault_schedule
);
criterion_main!(benches);
