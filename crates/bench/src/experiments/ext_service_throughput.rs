//! Extension experiment: sustained-load throughput and tail latency of the
//! placement-query service layer (`orchestrator::service`).
//!
//! A seeded open-loop Poisson arrival stream of mixed queries — placements,
//! max-job probes and what-if overlays — is driven against epoch-swapped
//! snapshots of 1k / 4k / 16k-node Fat-Trees while a seeded fault/repair
//! schedule churns in the background (published as new snapshot epochs at
//! fixed stream positions, a deliberate timescale compression: hours of
//! churn replayed over one query stream). The service batches whatever has
//! arrived, up to a cap, and answers each batch against one pinned epoch.
//!
//! Latency is a **deterministic model**, never wall-clock: the per-query
//! [`QueryCost`](crate::service::QueryCost) counters and batch-level
//! scratch build/reuse counters are
//! priced by the shared [`ModeledLatency`] model (fixed per-probe /
//! per-search / per-build terms scaled by cluster size, dealt round-robin
//! onto a fixed-width modeled lane pool — the same pricing the admission
//! controller uses), and an open-loop single-server queue simulation turns the
//! modeled service times into sojourn times. Every cell is bit-stable in the
//! seed and invariant in `--threads` (the batch answers themselves are pinned
//! thread-invariant by the `service_oracle` suite).

use crate::par::stream_seed;
use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::fault::sim_events::{generate_events, NodeEvent, NodeEventKind};
use infinitehbd::fault::GeneratorConfig;
use infinitehbd::hbd_types::{Microseconds, NodeId, Seconds};
use infinitehbd::orchestrator::service::{
    ModeledLatency, PlacementAnswer, PlacementQuery, PlacementService, SnapshotStore,
};
use infinitehbd::orchestrator::{FatTreeOrchestrator, OrchestrationRequest};
use infinitehbd::topology::{FatTree, FaultSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The snapshot sizes of the throughput sweep (nodes; 16 per ToR, 8 ToRs per
/// K-Hop domain, as in the cluster-size figure).
pub const CLUSTERS: [usize; 3] = [1024, 4096, 16384];

/// Batch caps of the batching sweep.
pub const BATCH_CAPS: [usize; 4] = [1, 8, 32, 128];

/// Batch cap of the cluster-size table.
const DEFAULT_BATCH_CAP: usize = 32;

/// Snapshot epochs published (beyond epoch 0) while a stream runs.
const CHURN_PUBLISHES: usize = 6;

/// Mean interarrival time of the open-loop stream. Scaling with cluster
/// size keeps every row in a comparable utilisation regime, so the tail
/// columns show queueing, not trivial overload.
pub fn mean_interarrival(nodes: usize) -> Microseconds {
    Microseconds(0.15 * nodes as f64)
}

/// Interarrival shrink factor of the batching sweep: the sweep stream is
/// deliberately overloaded for a serial (cap-1) server, so the table shows
/// where batching starts sustaining the offered load.
const SWEEP_OVERLOAD: f64 = 0.5;

/// One random query of the mix: ~70 % placements, ~10 % max-job probes,
/// ~20 % what-if overlays, over two TP-group geometries and three job sizes.
/// Shared with the overload/storm robustness experiments so every service
/// experiment stresses the same query mix.
pub fn random_query(rng: &mut StdRng, nodes: usize) -> PlacementQuery {
    let nodes_per_group = [8usize, 16][rng.gen_range(0..2usize)];
    let fraction = [8usize, 4, 2][rng.gen_range(0..3usize)];
    let job_nodes = ((nodes / fraction) / nodes_per_group).max(1) * nodes_per_group;
    let request = OrchestrationRequest {
        job_nodes,
        nodes_per_group,
        k: 2,
    };
    match rng.gen_range(0..10) {
        0..=6 => PlacementQuery::Place(request),
        7 => PlacementQuery::MaxJob {
            nodes_per_group,
            k: 2,
        },
        _ => {
            let extra = FaultSet::from_nodes(
                (0..rng.gen_range(1..=8)).map(|_| NodeId(rng.gen_range(0..nodes))),
            );
            PlacementQuery::WhatIf {
                request,
                extra_faults: extra,
            }
        }
    }
}

/// A seeded query stream plus its open-loop arrival times, with the given
/// mean interarrival time.
pub fn build_stream(
    nodes: usize,
    count: usize,
    seed: u64,
    interarrival: Microseconds,
) -> (Vec<PlacementQuery>, Vec<Microseconds>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = Microseconds::ZERO;
    let mut queries = Vec::with_capacity(count);
    let mut arrivals = Vec::with_capacity(count);
    for _ in 0..count {
        at += -interarrival * (1.0 - rng.gen::<f64>()).ln();
        arrivals.push(at);
        queries.push(random_query(&mut rng, nodes));
    }
    (queries, arrivals)
}

/// The background churn schedule: a seeded fault/repair edge stream, replayed
/// in *stream position* (not wall time) at [`CHURN_PUBLISHES`] publish points.
fn churn_schedule(nodes: usize, seed: u64) -> Vec<NodeEvent> {
    generate_events(
        &GeneratorConfig {
            nodes,
            duration: Seconds::from_hours(8.0),
            steady_state_fault_ratio: 0.02,
            mean_time_to_repair: Seconds::from_hours(1.0),
        },
        seed,
    )
    .expect("churn schedule")
}

/// Aggregates of one simulated stream.
struct StreamOutcome {
    batches: usize,
    epochs_published: usize,
    placed: usize,
    infeasible: usize,
    max_job_mean: f64,
    scratch_builds: usize,
    scratch_reuses: usize,
    probes: usize,
    qps: f64,
    sojourns_ms: Vec<f64>,
}

impl StreamOutcome {
    fn sojourn_percentile(&self, q: f64) -> f64 {
        infinitehbd::fault::stats::percentile_unsorted(&self.sojourns_ms, q)
    }
}

/// Drives one query stream through a fresh service under a batch cap: a
/// single-server queue takes whatever has arrived by the time the server
/// frees up (at most `batch_cap`, at least one query — open-loop arrivals
/// are never dropped), answers it as one batch against the pinned snapshot,
/// and charges the modeled batch service time. Churn edges are applied and
/// published when the stream position crosses each publish point.
fn run_stream(
    orchestrator: &Arc<FatTreeOrchestrator>,
    queries: &[PlacementQuery],
    arrivals: &[Microseconds],
    churn: &[NodeEvent],
    batch_cap: usize,
    threads: usize,
) -> StreamOutcome {
    let store = Arc::new(SnapshotStore::new(
        Arc::clone(orchestrator),
        FaultSet::new(),
    ));
    let service = PlacementService::new(Arc::clone(&store));
    let model = ModeledLatency::for_cluster(orchestrator.fat_tree().nodes());
    let total = queries.len();
    let chunk = churn.len().div_ceil(CHURN_PUBLISHES.max(1));

    let mut live = FaultSet::new();
    let mut published = 0usize;
    let mut free_at = Microseconds::ZERO;
    let mut next = 0usize;
    let mut outcome = StreamOutcome {
        batches: 0,
        epochs_published: 0,
        placed: 0,
        infeasible: 0,
        max_job_mean: 0.0,
        scratch_builds: 0,
        scratch_reuses: 0,
        probes: 0,
        qps: 0.0,
        sojourns_ms: Vec::with_capacity(total),
    };
    let mut max_job_sum = 0usize;
    let mut max_job_count = 0usize;

    while next < total {
        // Publish pending churn chunks once the stream position crosses their
        // publish point (evenly spaced over the stream).
        while published < CHURN_PUBLISHES && next >= (published + 1) * total / (CHURN_PUBLISHES + 1)
        {
            for event in churn.iter().skip(published * chunk).take(chunk) {
                match event.kind {
                    NodeEventKind::Fault => live.add(event.node),
                    NodeEventKind::Repair => live.remove(event.node),
                };
            }
            store.publish(live.clone());
            published += 1;
            outcome.epochs_published += 1;
        }

        let start = free_at.max(arrivals[next]);
        let mut end = next + 1;
        while end < total && end - next < batch_cap && arrivals[end] <= start {
            end += 1;
        }
        let report = service.answer_batch(&queries[next..end], threads);
        let done = start + model.batch_service(&report);
        for &arrived in &arrivals[next..end] {
            outcome.sojourns_ms.push((done - arrived).value() / 1_000.0);
        }
        for answer in &report.answers {
            match answer {
                PlacementAnswer::Placement(Ok(_)) => outcome.placed += 1,
                PlacementAnswer::Placement(Err(_)) => outcome.infeasible += 1,
                PlacementAnswer::MaxJob { job_nodes } => {
                    max_job_sum += job_nodes;
                    max_job_count += 1;
                }
            }
        }
        outcome.scratch_builds +=
            report.stats.shared_scratch_builds + report.stats.private_scratch_builds;
        outcome.scratch_reuses += report.stats.shared_scratch_reuses;
        outcome.probes += report.stats.probes;
        outcome.batches += 1;
        free_at = done;
        next = end;
    }

    if max_job_count > 0 {
        outcome.max_job_mean = max_job_sum as f64 / max_job_count as f64;
    }
    // Sustained rate: queries per modeled second of makespan.
    outcome.qps = total as f64 / free_at.to_seconds().value();
    outcome
}

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let clusters = ctx.select(&CLUSTERS);
    let queries_per_stream = ctx.count(288);

    let mut size_rows = Vec::new();
    let mut orchestrators = Vec::new();
    for (idx, &nodes) in clusters.iter().enumerate() {
        let orchestrator = Arc::new(
            FatTreeOrchestrator::new(FatTree::new(nodes, 16, 8).expect("valid fat-tree"))
                .expect("orchestrator"),
        );
        let (queries, arrivals) = build_stream(
            nodes,
            queries_per_stream,
            stream_seed(ctx.seed, idx as u64),
            mean_interarrival(nodes),
        );
        let churn = churn_schedule(nodes, stream_seed(ctx.seed, 100 + idx as u64));
        let outcome = run_stream(
            &orchestrator,
            &queries,
            &arrivals,
            &churn,
            DEFAULT_BATCH_CAP,
            ctx.threads,
        );
        size_rows.push(vec![
            nodes.to_string(),
            queries_per_stream.to_string(),
            outcome.epochs_published.to_string(),
            outcome.placed.to_string(),
            outcome.infeasible.to_string(),
            fmt(outcome.max_job_mean, 1),
            outcome.scratch_builds.to_string(),
            outcome.scratch_reuses.to_string(),
            fmt(outcome.probes as f64 / queries_per_stream as f64, 2),
            fmt(outcome.qps, 0),
            fmt(outcome.sojourn_percentile(0.5), 3),
            fmt(outcome.sojourn_percentile(0.99), 3),
        ]);
        orchestrators.push(orchestrator);
    }

    // The batching sweep runs on the middle retained cluster, over one shared
    // stream so the caps are directly comparable.
    let sweep_idx = clusters.len() / 2;
    let sweep_nodes = clusters[sweep_idx];
    let sweep_queries = ctx.count(192);
    let (queries, arrivals) = build_stream(
        sweep_nodes,
        sweep_queries,
        stream_seed(ctx.seed, 50),
        mean_interarrival(sweep_nodes) * SWEEP_OVERLOAD,
    );
    let churn = churn_schedule(sweep_nodes, stream_seed(ctx.seed, 150));
    let mut batch_rows = Vec::new();
    for &cap in &BATCH_CAPS {
        let outcome = run_stream(
            &orchestrators[sweep_idx],
            &queries,
            &arrivals,
            &churn,
            cap,
            ctx.threads,
        );
        batch_rows.push(vec![
            cap.to_string(),
            outcome.batches.to_string(),
            outcome.scratch_builds.to_string(),
            outcome.scratch_reuses.to_string(),
            fmt(outcome.qps, 0),
            fmt(outcome.sojourn_percentile(0.5), 3),
            fmt(outcome.sojourn_percentile(0.99), 3),
        ]);
    }

    vec![
        Table::new(
            format!(
                "Service sustained load vs cluster size (batch cap {DEFAULT_BATCH_CAP}, \
                 {CHURN_PUBLISHES} churn epochs, modeled latency)"
            ),
            &[
                "nodes",
                "queries",
                "epochs",
                "placed",
                "infeasible",
                "max-job mean",
                "scratch builds",
                "scratch reuses",
                "probes/query",
                "qps",
                "p50 (ms)",
                "p99 (ms)",
            ],
            size_rows,
        ),
        Table::new(
            format!("Batch-cap sweep on the {sweep_nodes}-node snapshot (modeled latency)"),
            &[
                "batch cap",
                "batches",
                "scratch builds",
                "scratch reuses",
                "qps",
                "p50 (ms)",
                "p99 (ms)",
            ],
            batch_rows,
        ),
    ]
}
