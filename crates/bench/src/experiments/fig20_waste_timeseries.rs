//! Fig 20: GPU waste ratio over time (trace replay) for every architecture,
//! TP-32 on the 2,880-GPU / 4-GPU-node cluster. The replay fans out over the
//! thread pool.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let config = ClusterConfig::paper_2880_gpu();
    let tp = 32;
    let days = ctx.days(348.0);
    let samples = ctx.count(58);
    let study = ClusterStudy::new(config.clone(), tp, Seconds::from_days(days), ctx.seed)
        .expect("valid study");
    let archs = paper_architectures(config.nodes, config.node_size.gpus(), tp)
        .expect("valid architectures");
    let series: Vec<(String, Vec<f64>)> = archs
        .iter()
        .map(|arch| {
            let points =
                waste_over_trace_par(arch.as_ref(), study.trace(), tp, samples, ctx.threads);
            (
                arch.name().to_string(),
                points.iter().map(|p| p.waste_ratio).collect(),
            )
        })
        .collect();
    let mut header: Vec<&str> = vec!["day"];
    let names: Vec<String> = series.iter().map(|(n, _)| n.clone()).collect();
    header.extend(names.iter().map(|s| s.as_str()));
    let mut rows = Vec::new();
    for i in 0..samples {
        let mut row = vec![fmt(i as f64 * days / samples as f64, 0)];
        for (_, values) in &series {
            row.push(fmt(values[i] * 100.0, 2));
        }
        rows.push(row);
    }
    vec![Table::new(
        "Fig 20: waste ratio (%) over the trace, TP-32",
        &header,
        rows,
    )]
}
