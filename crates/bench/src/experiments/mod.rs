//! One module per registered experiment. Each module exposes
//! `pub fn run(&RunCtx) -> Vec<Table>`; the `experiments` binary runs it by
//! name (`experiments --only <name>`).

pub mod appg_alltoall;
pub mod appg_alltoall_fastswitch;
pub mod ext_dcn_congestion;
pub mod ext_failover_recovery;
pub mod ext_fault_storms;
pub mod ext_incremental_publish;
pub mod ext_interference_vs_jobs;
pub mod ext_lifecycle_churn;
pub mod ext_lifecycle_faults;
pub mod ext_lifecycle_slo;
pub mod ext_multijob_interference;
pub mod ext_overload_shedding;
pub mod ext_pp_traffic;
pub mod ext_replay_scale;
pub mod ext_service_throughput;
pub mod fig10_11_insertion_loss;
pub mod fig10b_power;
pub mod fig12_ber;
pub mod fig13_waste_cdf;
pub mod fig14_waste_vs_fault;
pub mod fig15_max_job;
pub mod fig16_fault_waiting;
pub mod fig17a_cluster_size;
pub mod fig17b_job_scale;
pub mod fig17c_fault_ratio;
pub mod fig17d_aggregate_cost;
pub mod fig18_trace_stats;
pub mod fig20_waste_timeseries;
pub mod sec52_allreduce_util;
pub mod sim_seeds;
pub mod table2_llama_mfu;
pub mod table3_traffic_volume;
pub mod table4_tp_vs_ep;
pub mod table5_moe_mfu;
pub mod table6_cost_power;
pub mod table7_waste_bound;
pub mod table8_bom;
