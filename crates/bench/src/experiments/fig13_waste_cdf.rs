//! Figs 13 and 21: CDF of the GPU waste ratio of every architecture over the
//! production-calibrated fault trace (2,880 GPUs, 4-GPU nodes), for
//! TP-8/16/32/64. The per-instant trace replay fans out over the thread pool.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::cluster::waste::waste_cdf;
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let config = ClusterConfig::paper_2880_gpu();
    let days = ctx.days(348.0);
    let samples = ctx.count(348);
    let mut tables = Vec::new();
    for tp in [8usize, 16, 32, 64] {
        let study = ClusterStudy::new(config.clone(), tp, Seconds::from_days(days), ctx.seed)
            .expect("valid study");
        let header = [
            "architecture",
            "p50 waste (%)",
            "p90 waste (%)",
            "p99 waste (%)",
            "mean (%)",
        ];
        let mut rows = Vec::new();
        for arch in paper_architectures(config.nodes, config.node_size.gpus(), tp)
            .expect("valid architectures")
        {
            let points =
                waste_over_trace_par(arch.as_ref(), study.trace(), tp, samples, ctx.threads);
            let cdf = waste_cdf(&points);
            let pick = |q: f64| cdf[(q * (cdf.len() - 1) as f64) as usize].0;
            let mean = points.iter().map(|p| p.waste_ratio).sum::<f64>() / points.len() as f64;
            rows.push(vec![
                arch.name().to_string(),
                fmt(pick(0.50) * 100.0, 2),
                fmt(pick(0.90) * 100.0, 2),
                fmt(pick(0.99) * 100.0, 2),
                fmt(mean * 100.0, 2),
            ]);
        }
        tables.push(Table::new(
            format!("Fig 13/21: GPU waste ratio CDF summary, TP-{tp}"),
            &header,
            rows,
        ));
    }
    tables
}
