//! A steppable per-router simulation handle (test code): the reference
//! oracle for `dra_core::health::NodeHealth` in the
//! `health_differential` test.
//!
//! The single-router simulators ([`BdrRouter`], [`DraRouter`]) own a
//! whole [`Simulation`] and are normally driven to completion by one
//! caller. A network of routers needs each router's health as the
//! network's fault actions reach it. The network layer gets it from the
//! compact `NodeHealth`; this handle derives the same answers from a
//! full embedded simulation, and `health_differential` compares the
//! two.
//!
//! [`RouterHandle`] wraps either architecture behind one interface:
//!
//! * **Time advance** — [`RouterHandle::advance_to`] runs the embedded
//!   simulation exactly to the requested time.
//! * **Action injection** — [`RouterHandle::apply`] applies one
//!   [`Action`] at the router's current time, through
//!   [`ScriptedRouter::apply`].
//! * **Serviceability queries** — [`RouterHandle::lc_serviceable`]
//!   answers "can this linecard pass traffic *right now*" under each
//!   architecture's own rule: BDR requires the card standalone-healthy,
//!   DRA additionally accepts EIB-covered cards (§3.2 fault model), and
//!   [`RouterHandle::lc_covered`] distinguishes the covered case so the
//!   network layer can charge the EIB detour.
//!
//! Embedded routers are configured with `arrival_stop_s = Some(0.0)`
//! so they generate no internal traffic of their own: the handle then
//! models *health dynamics only* and the network layer supplies all
//! packets.

use dra_core::health::ArchKind;
use dra_core::scenario::{Action, ScriptedRouter};
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

/// A steppable wrapper around one router simulation.
pub struct RouterHandle {
    inner: Inner,
}

impl RouterHandle {
    /// Build a handle for `arch` from one shared base config, stopping
    /// the router's internal traffic so the handle models health
    /// dynamics only (the network-of-routers use).
    pub fn quiescent(arch: ArchKind, mut base: BdrConfig, seed: u64) -> Self {
        base.arrival_stop_s = Some(0.0);
        let inner = match arch {
            ArchKind::Bdr => Inner::Bdr(BdrRouter::simulation(base, seed)),
            ArchKind::Dra => Inner::Dra(DraRouter::simulation(
                DraConfig {
                    router: base,
                    ..DraConfig::default()
                },
                seed,
            )),
        };
        RouterHandle { inner }
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

    /// Number of linecards.
    pub fn n_lcs(&self) -> usize {
        self.chassis().config.n_lcs
    }

    /// Advance the embedded simulation to time `t`; a `t` at or
    /// before the current time is a no-op.
    pub fn advance_to(&mut self, t: f64) {
        match &mut self.inner {
            Inner::Bdr(sim) if t > sim.now() => _ = sim.run_until(t),
            Inner::Dra(sim) if t > sim.now() => _ = sim.run_until(t),
            _ => {}
        }
    }

    /// Apply one action at the router's current time, through
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
