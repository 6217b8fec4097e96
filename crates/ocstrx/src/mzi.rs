//! Mach–Zehnder interferometer (MZI) switch element.
//!
//! The OCSTrx steers light with a cascade of 2×2 MZI elements. Each element
//! splits the incoming light over two *phase arms*; a thermo-optic (TO) heater
//! on one arm controls the relative phase, and the output combiner interferes
//! the two arms so that (ideally) all optical power exits through one of the two
//! output ports (§4.1, Fig 3b).
//!
//! The model here captures what the rest of the simulator needs:
//!
//! * the **bar / cross routing state** driven by the heater,
//! * the **switching time** of the TO phase shifter (tens of microseconds — the
//!   dominant term of the 60–80 µs reconfiguration latency),
//! * the **per-element insertion loss**, which accumulates along the light
//!   path and feeds the optics model.

use hbd_types::{HbdError, Result};

/// Routing state of a 2×2 MZI element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MziState {
    /// Input 0 → output 0, input 1 → output 1 (no phase difference).
    Bar,
    /// Input 0 → output 1, input 1 → output 0 (π phase difference).
    Cross,
}

impl MziState {
    /// Output port that input `input` (0 or 1) is routed to in this state;
    /// any other input is an [`HbdError::UnknownEntity`].
    pub fn route(self, input: usize) -> Result<usize> {
        if input >= 2 {
            return Err(HbdError::unknown_entity(format!(
                "input port {input} of a 2x2 MZI element"
            )));
        }
        Ok(match self {
            MziState::Bar => input,
            MziState::Cross => 1 - input,
        })
    }

    /// The opposite state.
    pub fn toggled(self) -> Self {
        match self {
            MziState::Bar => MziState::Cross,
            MziState::Cross => MziState::Bar,
        }
    }
}

/// A single thermo-optically tuned 2×2 MZI switch element.
#[derive(Debug, Clone, PartialEq)]
pub struct MziElement {
    state: MziState,
    /// Insertion loss contributed by this element when light passes through it,
    /// in dB. Typical SiPh MZI elements contribute a fraction of a dB.
    insertion_loss_db: f64,
    /// Heater drive power required to hold the Cross state, in milliwatts.
    heater_power_mw: f64,
    /// Thermo-optic switching time in microseconds.
    switch_time_us: f64,
}

impl MziElement {
    /// Default element parameters used by the OCSTrx model: 0.35 dB insertion
    /// loss, 20 mW heater drive and 30 µs TO response.
    pub fn new() -> Self {
        MziElement {
            state: MziState::Bar,
            insertion_loss_db: 0.35,
            heater_power_mw: 20.0,
            switch_time_us: 30.0,
        }
    }

    /// Current routing state.
    pub fn state(&self) -> MziState {
        self.state
    }

    /// Sets the routing state, returning the time the thermo-optic phase arm
    /// needs to settle (zero if the state does not change).
    pub fn set_state(&mut self, state: MziState) -> f64 {
        if self.state == state {
            0.0
        } else {
            self.state = state;
            self.switch_time_us
        }
    }

    /// Routes an input port (0/1) to an output port according to the current
    /// state, as [`MziState::route`] does.
    pub fn route(&self, input: usize) -> Result<usize> {
        self.state.route(input)
    }

    /// Insertion loss of this element in dB.
    pub fn insertion_loss_db(&self) -> f64 {
        self.insertion_loss_db
    }

    /// Heater power currently dissipated, in milliwatts. The Bar state is the
    /// relaxed state and dissipates no heater power.
    pub fn heater_power_mw(&self) -> f64 {
        match self.state {
            MziState::Bar => 0.0,
            MziState::Cross => self.heater_power_mw,
        }
    }

    /// Thermo-optic switching time in microseconds.
    pub fn switch_time_us(&self) -> f64 {
        self.switch_time_us
    }
}

impl Default for MziElement {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_state_routes_straight_through() {
        assert_eq!(MziState::Bar.route(0), Ok(0));
        assert_eq!(MziState::Bar.route(1), Ok(1));
    }

    #[test]
    fn cross_state_swaps_ports() {
        assert_eq!(MziState::Cross.route(0), Ok(1));
        assert_eq!(MziState::Cross.route(1), Ok(0));
    }

    #[test]
    fn route_rejects_out_of_range_input() {
        let element = MziElement::new();
        for input in [2, usize::MAX] {
            for routed in [
                MziState::Bar.route(input),
                MziState::Cross.route(input),
                element.route(input),
            ] {
                assert!(matches!(routed, Err(HbdError::UnknownEntity { .. })));
            }
        }
        assert_eq!(element.route(1), Ok(1));
    }

    #[test]
    fn toggling_is_an_involution() {
        assert_eq!(MziState::Bar.toggled(), MziState::Cross);
        assert_eq!(MziState::Cross.toggled().toggled(), MziState::Cross);
    }

    #[test]
    fn switching_costs_time_only_on_change() {
        let mut element = MziElement::new();
        assert_eq!(element.state(), MziState::Bar);
        assert_eq!(element.set_state(MziState::Bar), 0.0);
        let t = element.set_state(MziState::Cross);
        assert!(t > 0.0);
        assert_eq!(element.state(), MziState::Cross);
        assert_eq!(element.set_state(MziState::Cross), 0.0);
    }

    #[test]
    fn heater_power_only_in_cross_state() {
        let mut element = MziElement::new();
        assert_eq!(element.heater_power_mw(), 0.0);
        element.set_state(MziState::Cross);
        assert!(element.heater_power_mw() > 0.0);
    }
}
