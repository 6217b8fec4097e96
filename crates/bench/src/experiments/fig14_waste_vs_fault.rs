//! Figs 14 and 22: GPU waste ratio versus node fault ratio (i.i.d. fault
//! model), for TP-8/16/32/64 on the 2,880-GPU / 4-GPU-node cluster.
//!
//! The Monte-Carlo grid (fault ratio × trial) fans out over the scoped thread
//! pool with one RNG stream per shard, so the curves depend only on the master
//! seed — never on `--threads`.

use crate::par::stream_seed;
use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::prelude::*;

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let nodes = 720;
    let ratios = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12];
    let trials = ctx.count(10);
    let mut tables = Vec::new();
    for (tp_index, tp) in [8usize, 16, 32, 64].into_iter().enumerate() {
        let archs = paper_architectures(nodes, 4, tp).expect("valid architectures");
        let mut header: Vec<String> = vec!["fault ratio (%)".to_string()];
        header.extend(archs.iter().map(|a| a.name().to_string()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for (arch_index, arch) in archs.iter().enumerate() {
            // One master stream per (TP, architecture) sweep, derived from the
            // grid position so the layout — not the loop schedule — fixes it.
            let master = stream_seed(ctx.seed, (tp_index * archs.len() + arch_index) as u64);
            let points =
                waste_vs_fault_ratio_par(arch.as_ref(), tp, &ratios, trials, master, ctx.threads);
            columns.push(points.iter().map(|p| p.waste_ratio).collect());
        }
        let mut rows = Vec::new();
        for (i, ratio) in ratios.iter().enumerate() {
            let mut row = vec![fmt(ratio * 100.0, 0)];
            for column in &columns {
                row.push(fmt(column[i] * 100.0, 2));
            }
            rows.push(row);
        }
        tables.push(Table::new(
            format!("Fig 14/22: waste ratio (%) vs node fault ratio, TP-{tp}"),
            &header_refs,
            rows,
        ));
    }
    tables
}
