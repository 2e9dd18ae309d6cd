//! A steppable per-router simulation handle (test code): the reference
//! oracle for `dra_core::health::NodeHealth` in the
//! `health_differential` test.
//!
//! The single-router simulators ([`BdrRouter`], [`DraRouter`]) own a
//! whole [`Simulation`] and are normally driven to completion by one
//! caller. A network of routers needs each router's health as its
//! private fault timeline unfolds. The network layer gets it from the
//! compact `NodeHealth`; this handle derives the same answers from a
//! full embedded simulation, and `health_differential` compares the
//! two.
//!
//! [`RouterHandle`] wraps either architecture behind one interface:
//!
//! * **Lazy time advance** — [`RouterHandle::advance_to`] runs the
//!   embedded simulation exactly to the requested time, interleaving
//!   any due actions from the attached fault schedule (the same
//!   interleaving contract as [`Scenario::run_windowed`]). Callers advance a
//!   router only when they touch it, so a quiescent router costs
//!   nothing between touches.
//! * **Fault schedule injection** — [`RouterHandle::set_fault_schedule`]
//!   attaches a [`Scenario`] timeline (scripted or sampled from a
//!   [`FaultProcess`](crate::scenario::FaultProcess)); actions fire at
//!   their scheduled times as the handle advances.
//! * **Serviceability queries** — [`RouterHandle::lc_serviceable`]
//!   answers "can this linecard pass traffic *right now*" under each
//!   architecture's own rule: BDR requires the card standalone-healthy,
//!   DRA additionally accepts EIB-covered cards (§3.2 fault model), and
//!   [`RouterHandle::lc_covered`] distinguishes the covered case so the
//!   network layer can charge the EIB detour.
//!
//! Embedded routers are usually configured with
//! `arrival_stop_s = Some(0.0)` so they generate no internal traffic of
//! their own: the handle then models *health dynamics only* and the
//! network layer supplies all packets.

use dra_core::health::ArchKind;
use dra_core::scenario::{Action, Scenario, ScriptedRouter};
use dra_core::sim::{DraConfig, DraRouter};
use dra_des::sim::Simulation;
use dra_router::bdr::{BdrConfig, BdrRouter};
use dra_router::chassis::Chassis;

// The variants differ in size (DRA carries the EIB state on top of
// the BDR core); handles are built one at a time as a test oracle, so
// boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Inner {
    Bdr(Simulation<BdrRouter>),
    Dra(Simulation<DraRouter>),
}

/// A steppable, fault-schedulable wrapper around one router simulation.
pub struct RouterHandle {
    inner: Inner,
    /// Time-ordered fault actions still to be applied.
    schedule: Vec<(f64, Action)>,
    cursor: usize,
}

impl RouterHandle {
    fn new(inner: Inner) -> Self {
        RouterHandle {
            inner,
            schedule: Vec::new(),
            cursor: 0,
        }
    }

    /// Wrap a BDR simulation (start event queued at t = 0).
    pub fn bdr(config: BdrConfig, seed: u64) -> Self {
        RouterHandle::new(Inner::Bdr(BdrRouter::simulation(config, seed)))
    }

    /// Wrap a DRA simulation (start event queued at t = 0).
    pub fn dra(config: DraConfig, seed: u64) -> Self {
        RouterHandle::new(Inner::Dra(DraRouter::simulation(config, seed)))
    }

    /// Build a handle for `arch` from one shared base config, stopping
    /// the router's internal traffic so the handle models health
    /// dynamics only (the network-of-routers use).
    pub fn quiescent(arch: ArchKind, mut base: BdrConfig, seed: u64) -> Self {
        base.arrival_stop_s = Some(0.0);
        match arch {
            ArchKind::Bdr => RouterHandle::bdr(base, seed),
            ArchKind::Dra => RouterHandle::dra(
                DraConfig {
                    router: base,
                    ..DraConfig::default()
                },
                seed,
            ),
        }
    }

    /// The wrapped architecture.
    pub fn arch(&self) -> ArchKind {
        match self.inner {
            Inner::Bdr(_) => ArchKind::Bdr,
            Inner::Dra(_) => ArchKind::Dra,
        }
    }

    fn chassis(&self) -> &Chassis {
        match &self.inner {
            Inner::Bdr(sim) => sim.model(),
            Inner::Dra(sim) => sim.model(),
        }
    }

    /// Current simulation time of the embedded router.
    pub fn now(&self) -> f64 {
        match &self.inner {
            Inner::Bdr(sim) => sim.now(),
            Inner::Dra(sim) => sim.now(),
        }
    }

    /// Number of linecards.
    pub fn n_lcs(&self) -> usize {
        self.chassis().config.n_lcs
    }

    /// Events processed by the embedded simulation so far.
    pub fn events_processed(&self) -> u64 {
        match &self.inner {
            Inner::Bdr(sim) => sim.events_processed(),
            Inner::Dra(sim) => sim.events_processed(),
        }
    }

    /// Attach a fault timeline. Events are applied at their scheduled
    /// times as the handle advances; times already in the past are
    /// applied on the next advance. Replaces any previous schedule.
    pub fn set_fault_schedule(&mut self, scenario: &Scenario) {
        let mut ev: Vec<(f64, Action)> = scenario.events().to_vec();
        ev.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        self.schedule = ev;
        self.cursor = 0;
    }

    /// Remaining (not yet applied) scheduled actions.
    pub fn pending_actions(&self) -> usize {
        self.schedule.len() - self.cursor
    }

    /// Advance the embedded simulation to time `t`, applying every
    /// scheduled action whose time is ≤ `t` at its exact time (the
    /// [`Scenario`] interleaving contract). `t` earlier than the
    /// current time is a no-op for the clock, but overdue actions
    /// still apply.
    pub fn advance_to(&mut self, t: f64) {
        while self.cursor < self.schedule.len() && self.schedule[self.cursor].0 <= t {
            let (at, action) = self.schedule[self.cursor].clone();
            self.run_until(at);
            self.apply(&action);
            self.cursor += 1;
        }
        self.run_until(t);
    }

    /// Apply one action at the router's current time (the injection
    /// hook for unscheduled, externally-decided faults), through
    /// [`ScriptedRouter::apply`]: EIB actions are no-ops on BDR.
    pub fn apply(&mut self, action: &Action) {
        fn apply_now<R: ScriptedRouter>(sim: &mut Simulation<R>, action: &Action) {
            let now = sim.now();
            sim.model_mut().apply(action, now);
        }
        match &mut self.inner {
            Inner::Bdr(sim) => apply_now(sim, action),
            Inner::Dra(sim) => apply_now(sim, action),
        }
    }

    /// Can linecard `lc` pass traffic right now, under the wrapped
    /// architecture's rule (BDR: standalone-healthy; DRA: standalone
    /// or EIB-covered)?
    pub fn lc_serviceable(&self, lc: u16) -> bool {
        match &self.inner {
            Inner::Bdr(sim) => sim.model().lc_operational(lc),
            Inner::Dra(sim) => sim.model().lc_serviceable(lc),
        }
    }

    /// Is linecard `lc` currently operating *through EIB coverage*
    /// (serviceable but not standalone-healthy)? Always false on BDR.
    pub fn lc_covered(&self, lc: u16) -> bool {
        self.lc_serviceable(lc) && !self.chassis().lc_operational(lc)
    }

    /// Is the switching fabric operational (enough healthy planes)?
    pub fn fabric_operational(&self) -> bool {
        self.chassis().fabric.operational()
    }

    fn run_until(&mut self, t: f64) {
        if t <= self.now() {
            return;
        }
        match &mut self.inner {
            Inner::Bdr(sim) => sim.run_until(t),
            Inner::Dra(sim) => sim.run_until(t),
        };
    }
}

mod tests {
    use super::*;
    use dra_router::components::ComponentKind;

    fn base(n: usize) -> BdrConfig {
        BdrConfig {
            n_lcs: n,
            ..BdrConfig::default()
        }
    }

    #[test]
    fn quiescent_router_is_cheap_to_advance() {
        let mut h = RouterHandle::quiescent(ArchKind::Bdr, base(4), 7);
        h.advance_to(1.0);
        // Start + one kick-off arrival per LC + periodic purges; far
        // below what live traffic would generate.
        assert!(h.events_processed() < 1_000, "{}", h.events_processed());
        assert_eq!(h.now(), 1.0);
    }

    #[test]
    fn schedule_applies_at_exact_times() {
        let sc = Scenario::new(1.0)
            .at(0.25, Action::FailComponent(1, ComponentKind::Sru))
            .at(0.75, Action::RepairLc(1));
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            let mut h = RouterHandle::quiescent(arch, base(4), 11);
            h.set_fault_schedule(&sc);
            h.advance_to(0.2);
            assert!(h.lc_serviceable(1), "{arch:?}: healthy before failure");
            h.advance_to(0.5);
            // BDR loses the card; DRA covers the SRU failure via EIB.
            assert_eq!(h.lc_serviceable(1), arch == ArchKind::Dra, "{arch:?}");
            assert_eq!(h.lc_covered(1), arch == ArchKind::Dra, "{arch:?}");
            h.advance_to(1.0);
            assert!(h.lc_serviceable(1), "{arch:?}: repaired");
            assert!(!h.lc_covered(1), "{arch:?}: standalone after repair");
            assert_eq!(h.pending_actions(), 0);
        }
    }

    #[test]
    fn apply_injects_at_current_time() {
        let mut h = RouterHandle::quiescent(ArchKind::Dra, base(4), 3);
        h.advance_to(0.1);
        h.apply(&Action::FailComponent(0, ComponentKind::Lfe));
        assert!(h.lc_covered(0));
        h.apply(&Action::FailEib);
        assert!(!h.lc_serviceable(0), "no EIB, no coverage");
        assert!(h.fabric_operational());
    }
}
