//! Fault-resilience study: replay a production-calibrated fault trace against
//! every HBD architecture of the paper's comparison (the §6.2 experiments).
//!
//! Run with: `cargo run -p infinitehbd --example fault_resilience --release`

use infinitehbd::prelude::*;

fn main() -> Result<()> {
    // TP-32 on the paper's 2,880-GPU cluster, 348 simulated days.
    let study = ClusterStudy::paper_cluster(32, 42)?;
    let stats = TraceStats::daily(study.trace());
    println!(
        "fault trace: mean {:.2}% faulty nodes, p99 {:.2}% ({} events over {:.0} days)",
        stats.mean_ratio * 100.0,
        stats.p99_ratio * 100.0,
        study.trace().len(),
        study.trace().duration().as_days()
    );

    println!(
        "\n{:<18} {:>12} {:>12} {:>14} {:>16}",
        "architecture", "mean waste", "max waste", "min job (GPU)", "wait@90% job"
    );
    for report in study.run_par(348, 1)? {
        println!(
            "{:<18} {:>11.2}% {:>11.2}% {:>14} {:>15.1}%",
            report.architecture,
            report.mean_waste_ratio * 100.0,
            report.max_waste_ratio * 100.0,
            report.min_supported_job,
            report.fault_waiting_rate_90pct * 100.0
        );
    }

    // The closed-form Appendix-C bound for the same setting.
    let bound = infinitehbd::cluster::waste_ratio_upper_bound(
        &infinitehbd::cluster::theory::WasteBoundInput {
            gpus_per_node: 4,
            k: 3,
            tp_size: 32,
            node_failure_probability: infinitehbd::cluster::theory::paper_node_failure_probability(
                4,
            ),
        },
    );
    println!(
        "\nAppendix-C upper bound for K=3, R=4, TP-32: {:.3}%",
        bound * 100.0
    );
    Ok(())
}
