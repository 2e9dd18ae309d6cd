//! Linecard functional units, their health, and the paper's failure
//! rates.
//!
//! The unit names follow the paper exactly: PIU (physical interface
//! unit), PDLU (protocol-dependent logic unit — only present under
//! DRA; BDR folds its function into PIU/SRU), SRU (segmentation and
//! reassembly unit), LFE (local forwarding engine), plus the per-LC
//! EIB bus controller that DRA adds.

use std::fmt;

/// One functional unit of a linecard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Physical interface unit (per-port media interface).
    Piu,
    /// Protocol-dependent logic unit (DRA only).
    Pdlu,
    /// Segmentation and reassembly unit.
    Sru,
    /// Local forwarding engine (FIB lookup).
    Lfe,
    /// EIB bus controller (DRA only).
    BusController,
}

impl ComponentKind {
    /// All unit kinds, in a fixed order.
    pub const ALL: [ComponentKind; 5] = [
        ComponentKind::Piu,
        ComponentKind::Pdlu,
        ComponentKind::Sru,
        ComponentKind::Lfe,
        ComponentKind::BusController,
    ];
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentKind::Piu => write!(f, "PIU"),
            ComponentKind::Pdlu => write!(f, "PDLU"),
            ComponentKind::Sru => write!(f, "SRU"),
            ComponentKind::Lfe => write!(f, "LFE"),
            ComponentKind::BusController => write!(f, "BC"),
        }
    }
}

/// Health of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Health {
    /// Functioning normally.
    #[default]
    Healthy,
    /// Permanently failed (until repaired/replaced).
    Failed,
}

/// Health of every unit on one linecard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LcComponents {
    /// Physical interface unit health.
    pub piu: Health,
    /// Protocol-dependent logic unit health.
    pub pdlu: Health,
    /// Segmentation/reassembly unit health.
    pub sru: Health,
    /// Forwarding engine health.
    pub lfe: Health,
    /// EIB bus controller health.
    pub bus_controller: Health,
}

impl LcComponents {
    /// A fully healthy linecard.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Health of one unit.
    pub(crate) fn get(&self, kind: ComponentKind) -> Health {
        match kind {
            ComponentKind::Piu => self.piu,
            ComponentKind::Pdlu => self.pdlu,
            ComponentKind::Sru => self.sru,
            ComponentKind::Lfe => self.lfe,
            ComponentKind::BusController => self.bus_controller,
        }
    }

    /// Set the health of one unit.
    pub fn set(&mut self, kind: ComponentKind, health: Health) {
        match kind {
            ComponentKind::Piu => self.piu = health,
            ComponentKind::Pdlu => self.pdlu = health,
            ComponentKind::Sru => self.sru = health,
            ComponentKind::Lfe => self.lfe = health,
            ComponentKind::BusController => self.bus_controller = health,
        }
    }

    /// Repair everything (hot-swap replaces the whole card).
    pub(crate) fn repair_all(&mut self) {
        *self = Self::healthy();
    }

    /// Units currently failed.
    pub(crate) fn failed_units(&self) -> Vec<ComponentKind> {
        ComponentKind::ALL
            .into_iter()
            .filter(|&k| self.get(k) == Health::Failed)
            .collect()
    }

    /// All units healthy?
    pub fn all_healthy(&self) -> bool {
        self.failed_units().is_empty()
    }

    /// Can this linecard route packets *without any external help*
    /// (the BDR operational condition)? PDLU and bus controller are
    /// DRA-only units, but a failed PDLU means the LC cannot frame
    /// traffic, so it counts; a failed BC does not affect the regular
    /// fabric path.
    pub fn operational_standalone(&self) -> bool {
        self.piu == Health::Healthy
            && self.pdlu == Health::Healthy
            && self.sru == Health::Healthy
            && self.lfe == Health::Healthy
    }

    /// Are the paper's "PI units" (SRU, LFE) all healthy?
    pub fn pi_units_healthy(&self) -> bool {
        self.sru == Health::Healthy && self.lfe == Health::Healthy
    }
}

/// One linecard's unit health and its PIU ports: the fail and repair
/// rule shared by the chassis's linecards and `dra-core`'s per-router
/// health state.
///
/// A PIU failure takes down *one port* (the paper: "An LC may have one
/// or multiple ports", each behind its own PIU); `components.piu` reads
/// `Failed` only once every port is gone. Each dead PIU disconnects one
/// external link — losing `failed/ports` of the card's traffic — which
/// no coverage scheme can recover (§3.2, Case 2/3 PIU). A hot-swap
/// repair restores every unit and every port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardHealth {
    components: LcComponents,
    ports: u16,
    piu_failed_ports: u16,
}

impl CardHealth {
    /// A fully healthy card with `ports` external ports.
    pub fn healthy(ports: u16) -> Self {
        assert!(ports > 0, "linecards need a port");
        CardHealth {
            components: LcComponents::healthy(),
            ports,
            piu_failed_ports: 0,
        }
    }

    /// Unit health; `piu` aggregates the ports.
    #[inline]
    pub fn components(&self) -> LcComponents {
        self.components
    }

    /// Fail one unit: a PIU failure takes down one more port (failures
    /// past the last port saturate), any other kind the unit itself.
    pub fn fail(&mut self, kind: ComponentKind) {
        if kind == ComponentKind::Piu {
            self.piu_failed_ports = (self.piu_failed_ports + 1).min(self.ports);
            if self.piu_failed_ports == self.ports {
                self.components.piu = Health::Failed;
            }
        } else {
            self.components.set(kind, Health::Failed);
        }
    }

    /// Hot-swap repair: all units and all ports.
    pub fn repair_all(&mut self) {
        self.components.repair_all();
        self.piu_failed_ports = 0;
    }

    /// Fraction of the card's external links currently disconnected.
    pub(crate) fn piu_loss_fraction(&self) -> f64 {
        self.piu_failed_ports as f64 / self.ports as f64
    }
}

/// Component failure rates per hour — the paper's §5 constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureRates {
    /// λ_LC: whole-linecard failure rate (BDR granularity).
    pub lc: f64,
    /// λ_LPD: PDLU failure rate.
    pub pdlu: f64,
    /// λ_LPI: protocol-independent units (SRU + LFE combined).
    pub pi_units: f64,
    /// λ_BC: per-LC bus controller.
    pub bus_controller: f64,
    /// λ_BUS: the EIB passive lines.
    pub eib: f64,
}

impl FailureRates {
    /// The exact constants from §5 of the paper (per hour).
    pub const PAPER: FailureRates = FailureRates {
        lc: 2.0e-5,
        pdlu: 6.0e-6,
        pi_units: 1.4e-5,
        bus_controller: 1.0e-6,
        eib: 1.0e-6,
    };

    /// λ_PD: combined LC_inter PDLU + its bus controller (paper: 7e-6).
    pub fn inter_pdlu(&self) -> f64 {
        self.pdlu + self.bus_controller
    }

    /// λ_PI: combined LC_inter PI units + its bus controller (paper: 1.5e-5).
    pub fn inter_pi(&self) -> f64 {
        self.pi_units + self.bus_controller
    }

    /// Sanity check: the split rates must sum to the LC rate.
    pub fn is_consistent(&self) -> bool {
        (self.pdlu + self.pi_units - self.lc).abs() < 1e-12
            && self.pdlu > 0.0
            && self.pi_units > 0.0
            && self.bus_controller >= 0.0
            && self.eib >= 0.0
    }
}

impl Default for FailureRates {
    fn default() -> Self {
        Self::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates_match_section_5() {
        let r = FailureRates::PAPER;
        assert_eq!(r.lc, 2.0e-5);
        assert_eq!(r.pdlu, 6.0e-6);
        assert_eq!(r.pi_units, 1.4e-5);
        assert_eq!(r.bus_controller, 1.0e-6);
        assert_eq!(r.eib, 1.0e-6);
        // Derived combined rates quoted in the paper's assumption 4.
        assert!((r.inter_pdlu() - 7.0e-6).abs() < 1e-18);
        assert!((r.inter_pi() - 1.5e-5).abs() < 1e-18);
        assert!(r.is_consistent());
    }

    #[test]
    fn inconsistent_rates_detected() {
        let mut r = FailureRates::PAPER;
        r.pdlu = 1.0e-5; // no longer sums to lc
        assert!(!r.is_consistent());
    }

    #[test]
    fn health_get_set_round_trip() {
        let mut c = LcComponents::healthy();
        assert!(c.all_healthy());
        for kind in ComponentKind::ALL {
            c.set(kind, Health::Failed);
            assert_eq!(c.get(kind), Health::Failed);
            c.set(kind, Health::Healthy);
        }
        assert!(c.all_healthy());
    }

    #[test]
    fn failed_units_lists_exactly_failures() {
        let mut c = LcComponents::healthy();
        c.set(ComponentKind::Lfe, Health::Failed);
        c.set(ComponentKind::Piu, Health::Failed);
        assert_eq!(
            c.failed_units(),
            vec![ComponentKind::Piu, ComponentKind::Lfe]
        );
    }

    #[test]
    fn standalone_operation_rules() {
        let mut c = LcComponents::healthy();
        assert!(c.operational_standalone());
        c.set(ComponentKind::BusController, Health::Failed);
        assert!(
            c.operational_standalone(),
            "BC failure must not affect the fabric path"
        );
        c.set(ComponentKind::Sru, Health::Failed);
        assert!(!c.operational_standalone());
        c.repair_all();
        assert!(c.operational_standalone() && c.all_healthy());
    }

    #[test]
    fn pi_units_healthy_tracks_sru_lfe() {
        let mut c = LcComponents::healthy();
        assert!(c.pi_units_healthy());
        c.set(ComponentKind::Pdlu, Health::Failed);
        assert!(c.pi_units_healthy());
        c.set(ComponentKind::Lfe, Health::Failed);
        assert!(!c.pi_units_healthy());
    }

    #[test]
    fn per_port_piu_failures_aggregate() {
        let mut card = CardHealth::healthy(4);
        assert_eq!(card.piu_loss_fraction(), 0.0);
        card.fail(ComponentKind::Piu);
        assert_eq!(card.piu_loss_fraction(), 0.25);
        assert_eq!(card.components.piu, Health::Healthy, "3 ports still up");
        for _ in 0..3 {
            card.fail(ComponentKind::Piu);
        }
        assert_eq!(card.piu_loss_fraction(), 1.0);
        assert_eq!(card.components.piu, Health::Failed, "all ports gone");
        // Extra failures saturate.
        card.fail(ComponentKind::Piu);
        assert_eq!(card.piu_failed_ports, 4);
        // Hot swap restores everything.
        card.repair_all();
        assert_eq!(card, CardHealth::healthy(4));
    }

    #[test]
    fn single_port_card_piu_failure_is_total() {
        let mut card = CardHealth::healthy(1);
        card.fail(ComponentKind::Piu);
        assert_eq!(card.components.piu, Health::Failed);
        assert_eq!(card.piu_loss_fraction(), 1.0);
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = ComponentKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, vec!["PIU", "PDLU", "SRU", "LFE", "BC"]);
    }
}
