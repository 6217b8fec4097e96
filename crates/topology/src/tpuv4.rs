//! The switch-GPU hybrid baseline: **TPUv4** — 4³ cubes of 64 TPUs joined by
//! centralized OCS-based switches.
//!
//! Scheduling on TPUv4 is cube-granular (§2.2 / §6.2): a TP group of up to 64
//! accelerators must be carved out of a single cube, and groups larger than a
//! cube are built from *whole healthy* cubes stitched together by the central
//! OCS. A fault anywhere in a cube therefore removes capacity at cube
//! granularity — the "coarse 4³ cube-based resource management, which amplifies
//! the fault explosion radius" the paper calls out. Concretely:
//!
//! * TP ≤ 64: each cube contributes `floor(healthy_in_cube / TP)` groups,
//! * TP > 64: only *fully healthy* cubes participate, and `TP / 64` of them are
//!   needed per group.

use crate::arch::{ArchitectureKind, FaultSet, HbdArchitecture, UtilizationReport};
use serde::{Deserialize, Serialize};

/// GPUs (TPUs) per cube: 4 × 4 × 4.
pub const CUBE_GPUS: usize = 64;

/// A TPUv4-style cluster: cubes of 64 accelerators behind central OCS switches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TpuV4 {
    nodes: usize,
    gpus_per_node: usize,
}

impl TpuV4 {
    /// Creates a TPUv4-style cluster. Nodes are assigned to cubes in deployment
    /// order (a 4-GPU node contributes 4 TPUs, so 16 nodes form a cube).
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        TpuV4 {
            nodes,
            gpus_per_node,
        }
    }

    /// Nodes per cube.
    fn nodes_per_cube(&self) -> usize {
        (CUBE_GPUS / self.gpus_per_node).max(1)
    }

    /// Number of cubes (the last may be partial).
    pub fn cubes(&self) -> usize {
        self.nodes.div_ceil(self.nodes_per_cube())
    }

    /// Healthy GPUs per cube under the given fault pattern.
    fn healthy_gpus_per_cube(&self, faults: &FaultSet) -> Vec<usize> {
        let per_cube = self.nodes_per_cube();
        (0..self.cubes())
            .map(|c| {
                let start = c * per_cube;
                let end = ((c + 1) * per_cube).min(self.nodes);
                (end - start - faults.count_in_range(start, end)) * self.gpus_per_node
            })
            .collect()
    }
}

impl HbdArchitecture for TpuV4 {
    fn name(&self) -> &str {
        "TPUv4"
    }

    fn kind(&self) -> ArchitectureKind {
        ArchitectureKind::SwitchGpuHybrid
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    fn utilization(&self, faults: &FaultSet, tp_size: usize) -> UtilizationReport {
        assert!(tp_size > 0, "TP size must be positive");
        let faulty_nodes = faults.count_in_range(0, self.nodes);
        let faulty_gpus = faulty_nodes * self.gpus_per_node;
        let per_cube = self.healthy_gpus_per_cube(faults);

        let usable = if tp_size <= CUBE_GPUS {
            // Groups are carved from individual cubes.
            per_cube
                .iter()
                .map(|&healthy| (healthy / tp_size) * tp_size)
                .sum()
        } else {
            // Groups span whole cubes; only fully healthy, full-size cubes count.
            let full_cubes = per_cube.iter().filter(|&&h| h == CUBE_GPUS).count();
            let cubes_per_group = tp_size / CUBE_GPUS
                + if tp_size.is_multiple_of(CUBE_GPUS) {
                    0
                } else {
                    1
                };
            let groups = full_cubes / cubes_per_group;
            groups * tp_size
        };
        // Usable can never exceed the healthy pool (guard for TP not dividing
        // the cube size cleanly).
        let healthy = self.total_gpus() - faulty_gpus;
        UtilizationReport::new(self.total_gpus(), faulty_gpus, usable.min(healthy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;

    #[test]
    fn sixteen_four_gpu_nodes_form_a_cube() {
        let hbd = TpuV4::new(720, 4);
        assert_eq!(hbd.nodes_per_cube(), 16);
        assert_eq!(hbd.cubes(), 45);
        assert_eq!(hbd.total_gpus(), 2880);
    }

    #[test]
    fn healthy_cluster_has_no_waste_for_divisor_tp() {
        let hbd = TpuV4::new(720, 4);
        for tp in [8, 16, 32, 64] {
            let report = hbd.utilization(&FaultSet::new(), tp);
            assert_eq!(report.wasted_healthy_gpus, 0, "TP {tp}");
        }
    }

    #[test]
    fn one_fault_wastes_a_slice_of_its_cube() {
        let hbd = TpuV4::new(720, 4);
        let faults = FaultSet::from_nodes([NodeId(0)]);
        // Cube 0 drops to 60 healthy GPUs.
        let r16 = hbd.utilization(&faults, 16);
        // floor(60/16)*16 = 48: 12 healthy GPUs wasted.
        assert_eq!(r16.wasted_healthy_gpus, 12);
        let r32 = hbd.utilization(&faults, 32);
        // floor(60/32)*32 = 32: 28 healthy GPUs wasted - the waste grows with
        // TP size, which is the trend the paper highlights.
        assert_eq!(r32.wasted_healthy_gpus, 28);
        let r64 = hbd.utilization(&faults, 64);
        assert_eq!(r64.wasted_healthy_gpus, 60);
        assert!(r16.wasted_healthy_gpus < r32.wasted_healthy_gpus);
        assert!(r32.wasted_healthy_gpus < r64.wasted_healthy_gpus);
    }

    #[test]
    fn groups_larger_than_a_cube_need_fully_healthy_cubes() {
        let hbd = TpuV4::new(720, 4);
        // TP-128 = 2 cubes per group. With one fault, 44 healthy cubes remain:
        // 22 groups of 128 = 2816 usable.
        let faults = FaultSet::from_nodes([NodeId(3)]);
        let report = hbd.utilization(&faults, 128);
        assert_eq!(report.usable_gpus, 22 * 128);
        assert_eq!(report.wasted_healthy_gpus, 2880 - 4 - 22 * 128);
    }

    #[test]
    fn cube_level_explosion_radius_exceeds_node_level() {
        let hbd = TpuV4::new(720, 4);
        // Losing one 4-GPU node costs far more than 4 GPUs of capacity at
        // TP-64: the whole cube can no longer host a TP-64 group.
        assert!(hbd.fault_explosion_radius(64) >= 64);
    }

    #[test]
    fn partial_trailing_cube_is_handled() {
        let hbd = TpuV4::new(20, 4);
        assert_eq!(hbd.cubes(), 2);
        let healthy = hbd.healthy_gpus_per_cube(&FaultSet::new());
        assert_eq!(healthy, vec![64, 16]);
        let report = hbd.utilization(&FaultSet::new(), 64);
        assert_eq!(report.usable_gpus, 64);
        assert_eq!(report.wasted_healthy_gpus, 16);
    }
}
