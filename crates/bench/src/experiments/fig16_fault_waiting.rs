//! Figs 16 and 23: job fault-waiting rate versus job scale over the fault
//! trace, for TP-16 and TP-32 (plus TP-8/64 for the appendix figure). The
//! per-instant trace scan fans out over the thread pool.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let config = ClusterConfig::paper_2880_gpu();
    let days = ctx.days(348.0);
    let samples = ctx.count(348);
    let mut tables = Vec::new();
    for tp in [8usize, 16, 32, 64] {
        let study = ClusterStudy::new(config.clone(), tp, Seconds::from_days(days), ctx.seed)
            .expect("valid study");
        let archs = paper_architectures(config.nodes, 4, tp).expect("valid architectures");
        let job_scales: Vec<usize> = [0.80, 0.85, 0.90, 0.95, 1.0]
            .iter()
            .map(|f| ((2880.0 * f) as usize / tp) * tp)
            .collect();
        let mut header: Vec<String> = vec!["architecture".to_string()];
        header.extend(job_scales.iter().map(|j| format!("{j} GPUs")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut rows = Vec::new();
        for arch in &archs {
            let mut row = vec![arch.name().to_string()];
            for &job in &job_scales {
                let rate = fault_waiting_rate_par(
                    arch.as_ref(),
                    study.trace(),
                    tp,
                    job,
                    samples,
                    ctx.threads,
                );
                row.push(fmt(rate * 100.0, 1));
            }
            rows.push(row);
        }
        tables.push(Table::new(
            format!("Fig 16/23: fault-waiting rate (%) vs job scale, TP-{tp}"),
            &header_refs,
            rows,
        ));
    }
    tables
}
