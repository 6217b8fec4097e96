//! Normalised and aggregate cost analysis (Table 6 and Fig 17d).

use crate::bom::ArchitectureBom;
use hbd_types::Dollars;

/// One row of Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedCost {
    /// Architecture name.
    pub name: String,
    /// Interconnect cost per GPU, in dollars.
    pub cost_per_gpu: f64,
    /// Interconnect power per GPU, in watts.
    pub watts_per_gpu: f64,
    /// Interconnect cost per GBps of per-GPU bandwidth.
    pub cost_per_gbyteps: f64,
    /// Interconnect power per GBps of per-GPU bandwidth.
    pub watts_per_gbyteps: f64,
}

impl NormalizedCost {
    /// Computes every Table-6 row.
    pub fn table6() -> Vec<NormalizedCost> {
        ArchitectureBom::table6_rows()
            .iter()
            .map(|bom| NormalizedCost {
                name: bom.name.clone(),
                cost_per_gpu: bom.cost_per_gpu().value(),
                watts_per_gpu: bom.power_per_gpu().value(),
                cost_per_gbyteps: bom.cost_per_gbyteps(),
                watts_per_gbyteps: bom.power_per_gbyteps(),
            })
            .collect()
    }
}

/// Inputs of the Fig-17d aggregate-cost formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateCostInput {
    /// Price of one GPU (the paper's formula weights wasted and faulty GPUs by
    /// the GPU price).
    pub gpu_cost: Dollars,
    /// Total GPUs in the cluster.
    pub total_gpus: usize,
    /// GPUs on faulty nodes.
    pub faulty_gpus: usize,
    /// Healthy GPUs that the architecture cannot use under this fault pattern.
    pub wasted_gpus: usize,
    /// Interconnect cost per GPU of the architecture.
    pub interconnect_cost_per_gpu: Dollars,
}

/// The aggregate cost of §6.5:
/// `Cost_GPU · (N_wasted + N_faulty) + Cost_interconnect`.
pub fn aggregate_cost(input: &AggregateCostInput) -> Dollars {
    input.gpu_cost * (input.wasted_gpus + input.faulty_gpus)
        + input.interconnect_cost_per_gpu * input.total_gpus
}

/// Aggregate cost normalised so that comparisons across architectures are
/// independent of the absolute GPU price: the paper plots the cost in units of
/// "per-mille of the cluster's GPU capital cost".
pub fn normalized_aggregate_cost(input: &AggregateCostInput) -> f64 {
    let capital = input.gpu_cost * input.total_gpus;
    if capital.value() == 0.0 {
        return 0.0;
    }
    aggregate_cost(input).value() / capital.value() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_has_all_seven_rows_in_order() {
        let table = NormalizedCost::table6();
        let names: Vec<&str> = table.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "TPUv4",
                "NVL-36",
                "NVL-72",
                "NVL-36x2",
                "NVL-576",
                "InfiniteHBD(K=2)",
                "InfiniteHBD(K=3)"
            ]
        );
        for row in &table {
            assert!(row.cost_per_gpu > 0.0);
            assert!(row.watts_per_gpu > 0.0);
            assert!(row.cost_per_gbyteps > 0.0);
            assert!(row.watts_per_gbyteps > 0.0);
        }
    }

    #[test]
    fn aggregate_cost_formula() {
        let input = AggregateCostInput {
            gpu_cost: Dollars(25_000.0),
            total_gpus: 2880,
            faulty_gpus: 64,
            wasted_gpus: 32,
            interconnect_cost_per_gpu: Dollars(2626.8),
        };
        let cost = aggregate_cost(&input);
        let expected = 25_000.0 * 96.0 + 2626.8 * 2880.0;
        assert!((cost.value() - expected).abs() < 1.0);
        let normalized = normalized_aggregate_cost(&input);
        assert!((normalized - expected / (25_000.0 * 2880.0) * 1000.0).abs() < 1e-9);
    }

    #[test]
    fn more_waste_means_higher_aggregate_cost() {
        let mut input = AggregateCostInput {
            gpu_cost: Dollars(25_000.0),
            total_gpus: 2880,
            faulty_gpus: 64,
            wasted_gpus: 0,
            interconnect_cost_per_gpu: Dollars(9563.2),
        };
        let low = aggregate_cost(&input);
        input.wasted_gpus = 300;
        let high = aggregate_cost(&input);
        assert!(high.value() > low.value());
    }

    #[test]
    fn zero_capital_normalisation_is_zero() {
        let input = AggregateCostInput {
            gpu_cost: Dollars(0.0),
            total_gpus: 0,
            faulty_gpus: 0,
            wasted_gpus: 0,
            interconnect_cost_per_gpu: Dollars(0.0),
        };
        assert_eq!(normalized_aggregate_cost(&input), 0.0);
    }

    #[test]
    fn fault_resilience_can_flip_the_cheaper_architecture() {
        // At equal fault ratios, the architecture with much lower waste
        // (InfiniteHBD) ends up cheaper in aggregate than NVL-72 despite both
        // paying for their interconnect - and the gap widens with waste.
        let infinite = AggregateCostInput {
            gpu_cost: Dollars(25_000.0),
            total_gpus: 2880,
            faulty_gpus: 144,
            wasted_gpus: 10,
            interconnect_cost_per_gpu: Dollars(2626.8),
        };
        let nvl = AggregateCostInput {
            gpu_cost: Dollars(25_000.0),
            total_gpus: 2880,
            faulty_gpus: 144,
            wasted_gpus: 320,
            interconnect_cost_per_gpu: Dollars(9563.2),
        };
        assert!(aggregate_cost(&infinite).value() < aggregate_cost(&nvl).value());
    }
}
