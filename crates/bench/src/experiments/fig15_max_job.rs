//! Fig 15: maximal job scale supported by the 2,880-GPU cluster over the fault
//! trace, for TP-8/16/32/64. The per-instant trace scan fans out over the
//! thread pool.

use crate::registry::RunCtx;
use crate::Table;
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let config = ClusterConfig::paper_2880_gpu();
    let days = ctx.days(348.0);
    let samples = ctx.count(348);
    let mut header: Vec<String> = vec!["architecture".to_string()];
    header.extend(
        ["TP8", "TP16", "TP32", "TP64"]
            .iter()
            .map(|s| s.to_string()),
    );
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let arch_names: Vec<String> = paper_architectures(config.nodes, 4, 32)
        .expect("valid architectures")
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let mut table: Vec<Vec<String>> = arch_names.iter().map(|n| vec![n.clone()]).collect();
    for tp in [8usize, 16, 32, 64] {
        let study = ClusterStudy::new(config.clone(), tp, Seconds::from_days(days), ctx.seed)
            .expect("valid study");
        let archs = paper_architectures(config.nodes, 4, tp).expect("valid architectures");
        for (i, arch) in archs.iter().enumerate() {
            let job =
                max_job_over_trace_par(arch.as_ref(), study.trace(), tp, samples, ctx.threads);
            table[i].push(job.to_string());
        }
    }
    vec![Table::new(
        "Fig 15: maximal job scale (GPUs) supported by 2,880 GPUs",
        &header_refs,
        table,
    )]
}
