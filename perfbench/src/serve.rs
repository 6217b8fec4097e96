//! `serve_churn` and `serve_steady`: one closed-loop client sending batches
//! of 32 queries to `PlacementService::answer_batch` while it publishes
//! fault/repair deltas through an `ExclusionLedger` into the `SnapshotStore`.

use crate::trace::{quantile, Digest, Tracer};
use crate::{Metric, Session};
use bench::experiments::ext_service_throughput::random_query;
use bench::par::stream_seed;
use infinitehbd::dcn::jobmix::ExclusionLedger;
use infinitehbd::fault::sim_events::{generate_events, NodeEvent, NodeEventKind};
use infinitehbd::fault::GeneratorConfig;
use infinitehbd::hbd_types::{Result, Seconds};
use infinitehbd::orchestrator::service::{
    BatchStats, PlacementAnswer, PlacementQuery, PlacementService, SnapshotStore,
};
use infinitehbd::orchestrator::{
    max_orchestratable_job, FatTreeOrchestrator, OrchestrationRequest, PlacementScheme,
};
use infinitehbd::topology::{FatTree, FaultSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Queries per `answer_batch` call.
const BATCH: usize = 32;
/// Fault/repair edges folded into one published delta.
const FLIPS_PER_DELTA: usize = 16;
/// Distinct queries generated per run; the client cycles through them (the
/// answer memo dies with every epoch, so a repeat across epochs is new work).
const STREAM_QUERIES: usize = 4096;

/// The shape of one serving workload.
pub struct ServeShape {
    /// Fat-Tree size (16 nodes per ToR, 8 ToRs per K-Hop domain).
    pub nodes: usize,
    /// Whether the query mix keeps its WhatIf overlays.
    pub what_if: bool,
    /// Batches answered between two delta publishes.
    pub publish_every: usize,
    /// Hours of fault/repair history generated; enough edges for far more
    /// publishes than one run makes.
    pub history_hours: f64,
}

/// 16k nodes, full mix, a delta every 4 batches.
pub const CHURN: ServeShape = ServeShape {
    nodes: 16_384,
    what_if: true,
    publish_every: 4,
    history_hours: 256.0,
};

/// 4k nodes, no WhatIf, a delta every 500 batches.
pub const STEADY: ServeShape = ServeShape {
    nodes: 4096,
    what_if: false,
    publish_every: 500,
    history_hours: 512.0,
};

pub struct ServeSession {
    shape: &'static ServeShape,
    orchestrator: Arc<FatTreeOrchestrator>,
    store: Arc<SnapshotStore>,
    service: PlacementService,
    ledger: ExclusionLedger,
    queries: Vec<PlacementQuery>,
    edges: Vec<NodeEvent>,
    next_edge: usize,
    batch: usize,
    /// The newest epoch the client published.
    epoch: u64,
    last: Option<(usize, Vec<PlacementAnswer>, u64)>,
    stats: BatchStats,
    oracle: Oracle,
}

/// Offline answers of the current epoch, memoized per shape.
#[derive(Default)]
struct Oracle {
    epoch: u64,
    place: BTreeMap<(usize, usize, usize), Result<PlacementScheme>>,
    max_job: BTreeMap<(usize, usize), usize>,
}

pub fn setup(shape: &'static ServeShape, seed: u64, tracer: &mut Tracer) -> ServeSession {
    tracer
        .time("client.setup", "", |tracer| {
            let (orchestrator, _) = tracer.time("fat_tree.new", "", |_| {
                let tree = FatTree::new(shape.nodes, 16, 8).expect("valid fat-tree");
                Arc::new(FatTreeOrchestrator::new(tree).expect("orchestrator"))
            });
            let (edges, _) = tracer.time("sim_events.generate_events", "", |_| {
                generate_events(
                    &GeneratorConfig {
                        nodes: shape.nodes,
                        duration: Seconds::from_hours(shape.history_hours),
                        steady_state_fault_ratio: 0.02,
                        mean_time_to_repair: Seconds::from_hours(1.0),
                    },
                    stream_seed(seed, 1),
                )
                .expect("fault history")
            });
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0));
            let queries = (0..STREAM_QUERIES)
                .map(|_| loop {
                    let query = random_query(&mut rng, shape.nodes);
                    if shape.what_if || !matches!(query, PlacementQuery::WhatIf { .. }) {
                        break query;
                    }
                })
                .collect();
            let store = Arc::new(SnapshotStore::new(
                Arc::clone(&orchestrator),
                FaultSet::new(),
            ));
            let service = PlacementService::new(Arc::clone(&store));
            // Fill the epoch-0 scratches and answer memo before any timing: one
            // Place per (group size, job fraction) and one MaxJob per group size.
            let warm: Vec<PlacementQuery> = [8usize, 16]
                .into_iter()
                .flat_map(|m| {
                    [8usize, 4, 2]
                        .into_iter()
                        .map(move |f| PlacementQuery::Place(request(shape.nodes, m, f)))
                        .chain([PlacementQuery::MaxJob {
                            nodes_per_group: m,
                            k: 2,
                        }])
                })
                .collect();
            tracer.time("service.answer_batch", "warmup", |_| {
                service.answer_batch(&warm, 1)
            });
            ServeSession {
                shape,
                orchestrator,
                store,
                service,
                ledger: ExclusionLedger::new(),
                queries,
                edges,
                next_edge: 0,
                batch: 0,
                epoch: 0,
                last: None,
                stats: BatchStats::default(),
                oracle: Oracle::default(),
            }
        })
        .0
}

/// The `random_query` job shape for group size `m` and job fraction `f`.
fn request(nodes: usize, m: usize, f: usize) -> OrchestrationRequest {
    OrchestrationRequest {
        job_nodes: ((nodes / f) / m).max(1) * m,
        nodes_per_group: m,
        k: 2,
    }
}

impl ServeSession {
    fn answer_is_correct(
        &mut self,
        query: &PlacementQuery,
        answer: &PlacementAnswer,
        faults: &FaultSet,
        tracer: &mut Tracer,
    ) -> bool {
        let orchestrator = &*self.orchestrator;
        let oracle = &mut self.oracle;
        match query {
            PlacementQuery::Place(req) => {
                let key = (req.k, req.nodes_per_group, req.job_nodes);
                let expected = oracle.place.entry(key).or_insert_with(|| {
                    tracer
                        .time("fat_tree.orchestrate_par", "place", |_| {
                            orchestrator.orchestrate_par(req, faults, 1)
                        })
                        .0
                });
                *answer == PlacementAnswer::Placement(expected.clone())
            }
            PlacementQuery::MaxJob { nodes_per_group, k } => {
                let expected = *oracle
                    .max_job
                    .entry((*k, *nodes_per_group))
                    .or_insert_with(|| {
                        tracer
                            .time("fat_tree.max_orchestratable_job", "", |_| {
                                max_orchestratable_job(
                                    orchestrator,
                                    *nodes_per_group,
                                    *k,
                                    faults,
                                    1,
                                )
                            })
                            .0
                            .job_nodes
                    });
                *answer
                    == PlacementAnswer::MaxJob {
                        job_nodes: expected,
                    }
            }
            PlacementQuery::WhatIf {
                request,
                extra_faults,
            } => {
                let merged = faults.union(extra_faults);
                let (expected, _) = tracer.time("fat_tree.orchestrate_par", "what_if", |_| {
                    orchestrator.orchestrate_par(request, &merged, 1)
                });
                *answer == PlacementAnswer::Placement(expected)
            }
        }
    }
}

fn digest_answer(digest: &mut Digest, answer: &PlacementAnswer) {
    match answer {
        PlacementAnswer::Placement(Ok(scheme)) => {
            digest.word(1);
            for group in &scheme.groups {
                digest.word(group.nodes.len() as u64);
                for node in &group.nodes {
                    digest.word(node.index() as u64);
                }
            }
        }
        PlacementAnswer::Placement(Err(error)) => {
            digest.word(2);
            digest.text(&error.to_string());
        }
        PlacementAnswer::MaxJob { job_nodes } => {
            digest.word(3);
            digest.word(*job_nodes as u64);
        }
    }
}

impl Session for ServeSession {
    fn units_per_op(&self) -> usize {
        BATCH
    }

    fn has_next(&self) -> bool {
        let publishes = self.batch / self.shape.publish_every;
        self.edges.len() >= publishes * FLIPS_PER_DELTA
    }

    fn step(&mut self, tracer: &mut Tracer) -> f64 {
        let index = self.batch;
        self.batch += 1;
        let start = (index * BATCH) % STREAM_QUERIES;
        let publish = index > 0 && index.is_multiple_of(self.shape.publish_every);
        // The measured call is `answer_batch` alone: the op span around it
        // also covers the delta publish, which the call time leaves out.
        let ((report, batch_s), _op_s) = tracer.time("client.op", "", |tracer| {
            if publish {
                let edges = &self.edges[self.next_edge..self.next_edge + FLIPS_PER_DELTA];
                self.next_edge += FLIPS_PER_DELTA;
                let ledger = &mut self.ledger;
                let (delta, _) = tracer.time("jobmix.apply_availability_burst", "", |_| {
                    ledger.apply_availability_burst(
                        edges
                            .iter()
                            .map(|e| (e.node, e.kind == NodeEventKind::Fault)),
                    );
                    ledger.take_pending_delta()
                });
                let store = &self.store;
                self.epoch = tracer
                    .time("service.publish_delta", "", |_| store.publish_delta(&delta))
                    .0;
            }
            let tag = if publish { "first" } else { "warm" };
            let queries = &self.queries[start..start + BATCH];
            let service = &self.service;
            tracer.time("service.answer_batch", tag, |_| {
                service.answer_batch(queries, 1)
            })
        });
        let s = &mut self.stats;
        s.queries += report.stats.queries;
        s.shared_scratch_builds += report.stats.shared_scratch_builds;
        s.shared_scratch_reuses += report.stats.shared_scratch_reuses;
        s.private_scratch_builds += report.stats.private_scratch_builds;
        s.probes += report.stats.probes;
        s.rejected += report.stats.rejected;
        self.last = Some((start, report.answers, report.epoch));
        batch_s
    }

    fn check(&mut self, tracer: &mut Tracer, digest: &mut Digest) -> usize {
        let Some((start, answers, epoch)) = self.last.take() else {
            return 0;
        };
        tracer
            .time("client.check", "", |tracer| {
                let mut failures = 0;
                // Cross-layer invariant: the batch was answered on the newest
                // epoch, whose snapshot is exactly the ledger's exclusion set.
                let snapshot = self.store.load();
                let faults = snapshot.value.faults().clone();
                if epoch != self.epoch
                    || snapshot.epoch != epoch
                    || *self.ledger.excluded() != faults
                {
                    return answers.len();
                }
                if self.oracle.epoch != epoch {
                    self.oracle = Oracle {
                        epoch,
                        ..Oracle::default()
                    };
                }
                for (i, answer) in answers.iter().enumerate() {
                    let query = self.queries[start + i].clone();
                    failures +=
                        usize::from(!self.answer_is_correct(&query, answer, &faults, tracer));
                    digest_answer(digest, answer);
                }
                failures
            })
            .0
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let s = &self.stats;
        let tally = self.service.patch_tally();
        let p = tally.stats;
        let segments = p.segments_reused + p.segments_reorchestrated;
        vec![
            ("service.queries", s.queries as f64),
            (
                "service.shared_scratch_builds",
                s.shared_scratch_builds as f64,
            ),
            (
                "service.shared_scratch_reuses",
                s.shared_scratch_reuses as f64,
            ),
            (
                "service.private_scratch_builds",
                s.private_scratch_builds as f64,
            ),
            ("service.probes", s.probes as f64),
            ("service.rejected", s.rejected as f64),
            ("service.patched_builds", tally.patched_builds as f64),
            ("service.cold_builds", tally.cold_builds as f64),
            (
                "service.probes_per_query",
                s.probes as f64 / s.queries.max(1) as f64,
            ),
            (
                "fat_tree.segments_reorchestrated",
                p.segments_reorchestrated as f64,
            ),
            ("fat_tree.segments_reused", p.segments_reused as f64),
            ("fat_tree.domains_patched", p.domains_patched as f64),
            (
                "fat_tree.segment_reuse_ratio",
                p.segments_reused as f64 / segments.max(1) as f64,
            ),
        ]
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let p50 = |name: &str, tag: &str, scale: f64| {
            quantile(&tracer.durations(name, tag), 0.5).map(|v| v * scale)
        };
        // Publish → first answer: from the start of `publish_delta` to the
        // end of the batch answered on the epoch it published.
        let mut publish_start = BTreeMap::new();
        let mut fresh = Vec::new();
        for span in &tracer.spans {
            match (span.name, span.tag) {
                ("service.publish_delta", _) => {
                    publish_start.insert(span.op, span.start_ns);
                }
                ("service.answer_batch", "first") => {
                    if let Some(start) = publish_start.get(&span.op) {
                        fresh.push((span.end_ns - start) as f64 * 1e-6);
                    }
                }
                _ => {}
            }
        }
        let mut cold = tracer.durations("fat_tree.orchestrate_par", "place");
        cold.extend(tracer.durations("fat_tree.orchestrate_par", "what_if"));
        let cold_place = quantile(&cold, 0.5).map(|v| v * 1e3);
        vec![
            Metric::new(
                "service.publish_delta_us",
                "us",
                p50("service.publish_delta", "", 1e6),
            ),
            Metric::new(
                "service.first_batch_ms",
                "ms",
                p50("service.answer_batch", "first", 1e3),
            ),
            Metric::new(
                "service.warm_batch_ms",
                "ms",
                p50("service.answer_batch", "warm", 1e3),
            ),
            Metric::new("service.publish_to_answer_ms", "ms", quantile(&fresh, 0.5)),
            Metric::new("fat_tree.cold_place_ms", "ms", cold_place),
            Metric::new(
                "fat_tree.max_job_ms",
                "ms",
                p50("fat_tree.max_orchestratable_job", "", 1e3),
            ),
            Metric::new(
                "sim_events.generate_ms",
                "ms",
                p50("sim_events.generate_events", "", 1e3),
            ),
        ]
    }
}
