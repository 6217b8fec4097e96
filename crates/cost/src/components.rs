//! The interconnect component catalogue of Appendix F (Table 8).

use hbd_types::{Dollars, GBps, Watts};

/// The kinds of interconnect components that appear in the evaluated
/// architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Centralised optical circuit switch (Google Palomar-class).
    OcsSwitch,
    /// NVLink switch tray.
    NvlinkSwitch,
    /// Electrical packet switch (Tomahawk-5-class, for the HPN reference).
    ElectricalPacketSwitch,
    /// Passive direct-attach copper cable.
    DacCable,
    /// Active copper cable.
    AccCable,
    /// Conventional optical transceiver module.
    OpticalModule,
    /// The paper's OCS transceiver.
    OcsTrx,
    /// Single-mode fiber patch cable.
    Fiber,
}

/// One catalogue entry: a purchasable component with unit cost, unit bandwidth
/// and unit power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// What kind of part this is.
    pub kind: ComponentKind,
    /// Unit cost in dollars.
    pub unit_cost: Dollars,
    /// Unit bandwidth in GBps (per the Table-8 column).
    pub unit_bandwidth: GBps,
    /// Unit power in watts.
    pub unit_power: Watts,
}

impl Component {
    /// Creates a catalogue entry.
    pub const fn new(kind: ComponentKind, cost: f64, bandwidth: f64, power: f64) -> Self {
        Component {
            kind,
            unit_cost: Dollars(cost),
            unit_bandwidth: GBps(bandwidth),
            unit_power: Watts(power),
        }
    }

    /// Google Palomar-class OCS switch (TPUv4 row of Table 8).
    pub const fn ocs_switch() -> Self {
        Self::new(ComponentKind::OcsSwitch, 80_000.0, 6400.0, 108.0)
    }

    /// NVLink switch tray (GB200 rows of Table 8).
    pub const fn nvlink_switch() -> Self {
        Self::new(ComponentKind::NvlinkSwitch, 28_000.0, 3600.0, 275.0)
    }

    /// 51.2 Tbps electrical packet switch (Alibaba HPN row of Table 8).
    pub const fn electrical_packet_switch() -> Self {
        Self::new(
            ComponentKind::ElectricalPacketSwitch,
            14_960.0,
            6400.0,
            3145.0,
        )
    }

    /// 400G OSFP passive DAC used by TPUv4.
    pub const fn dac_tpuv4() -> Self {
        Self::new(ComponentKind::DacCable, 63.60, 50.0, 0.1)
    }

    /// 200G QSFP56 passive DAC used inside GB200 racks and HPN.
    pub const fn dac_nvl() -> Self {
        Self::new(ComponentKind::DacCable, 35.60, 25.0, 0.1)
    }

    /// 1.6T OSFP passive DAC used between InfiniteHBD GPU pairs that skip the
    /// OCSTrx (the cost-reduced idle-bundle option).
    pub const fn dac_infinitehbd() -> Self {
        Self::new(ComponentKind::DacCable, 199.60, 200.0, 0.1)
    }

    /// 1.6T ACC cable (NVL-36x2 cross-rack links).
    pub const fn acc_cable() -> Self {
        Self::new(ComponentKind::AccCable, 320.0, 200.0, 2.5)
    }

    /// 400G FR4 optical transceiver (TPUv4 / HPN).
    pub const fn optical_module_400g() -> Self {
        Self::new(ComponentKind::OpticalModule, 360.0, 50.0, 12.0)
    }

    /// 1.6T optical transceiver (NVL-576 spine).
    pub const fn optical_module_1600g() -> Self {
        Self::new(ComponentKind::OpticalModule, 850.0, 200.0, 25.0)
    }

    /// The paper's QSFP-DD 800G OCSTrx.
    pub const fn ocstrx() -> Self {
        Self::new(ComponentKind::OcsTrx, 600.0, 100.0, 12.0)
    }

    /// Single-mode duplex fiber patch cable (cost only, bandwidth of the module
    /// it connects).
    pub const fn fiber(bandwidth_gbyteps: f64) -> Self {
        Self::new(ComponentKind::Fiber, 6.80, bandwidth_gbyteps, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_table8_prices() {
        assert_eq!(Component::ocs_switch().unit_cost, Dollars(80_000.0));
        assert_eq!(Component::nvlink_switch().unit_cost, Dollars(28_000.0));
        assert_eq!(
            Component::electrical_packet_switch().unit_power,
            Watts(3145.0)
        );
        assert_eq!(Component::dac_tpuv4().unit_cost, Dollars(63.60));
        assert_eq!(Component::dac_nvl().unit_cost, Dollars(35.60));
        assert_eq!(Component::dac_infinitehbd().unit_cost, Dollars(199.60));
        assert_eq!(Component::acc_cable().unit_cost, Dollars(320.0));
        assert_eq!(Component::optical_module_400g().unit_cost, Dollars(360.0));
        assert_eq!(Component::optical_module_1600g().unit_cost, Dollars(850.0));
        assert_eq!(Component::ocstrx().unit_cost, Dollars(600.0));
        assert_eq!(Component::fiber(100.0).unit_cost, Dollars(6.80));
    }

    #[test]
    fn passive_parts_draw_negligible_power() {
        assert_eq!(Component::fiber(50.0).unit_power, Watts(0.0));
        assert!(Component::dac_nvl().unit_power.value() <= 0.1);
        assert!(Component::ocstrx().unit_power.value() > 0.0);
    }
}
