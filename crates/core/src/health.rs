//! Per-router health state for network-of-routers simulation.
//!
//! The network layer (`dra-topo`) asks each transit router three
//! questions per hop: can this linecard pass traffic, is it doing so
//! through EIB coverage, and is the fabric up? With the router's own
//! traffic switched off, the answers change only when a scripted fault
//! [`Action`] applies — exactly the view the paper's Fig-5 model takes
//! of a linecard (its health state, not its packet pipeline).
//!
//! [`NodeHealth`] is that state and nothing else: per linecard the
//! unit and port health ([`CardHealth`], the chassis linecard's own
//! fail/repair rule), the EIB flag and the failed fabric-plane count,
//! plus per-linecard `serviceable` / `covered` flags recomputed
//! whenever an action applies. The rules are the single-router
//! simulators' own: BDR needs a card standalone-healthy
//! ([`operational_standalone`]); DRA also accepts cards the §3.2
//! coverage rules rescue (`lc_serviceable_with`). Queries are field
//! reads. The state holds no timeline: the network engine applies
//! every fault, scripted or sampled, as a scheduled event
//! through [`NodeHealth::apply`].
//!
//! The full simulators ([`DraRouter`](crate::sim::DraRouter) and
//! `dra_router::bdr::BdrRouter`) remain the reference: `dra-topo`'s
//! `health_differential` test wraps them in a steppable `RouterHandle`
//! (its own support code), applies the same action sequences to both
//! and compares every answer.
//!
//! [`operational_standalone`]: dra_router::components::LcComponents::operational_standalone

use crate::coverage::{lc_serviceable_with, LcView};
use crate::scenario::Action;
use dra_net::protocol::ProtocolKind;
use dra_router::bdr::BdrConfig;
use dra_router::components::CardHealth;

/// Which router architecture a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Basic distributed router (baseline).
    Bdr,
    /// Dependable router architecture (EIB coverage).
    Dra,
}

impl ArchKind {
    /// Stable lowercase label (used in artifacts).
    pub fn label(self) -> &'static str {
        match self {
            ArchKind::Bdr => "bdr",
            ArchKind::Dra => "dra",
        }
    }
}

/// One linecard's health plus its cached verdicts.
#[derive(Debug, Clone, Copy)]
struct LcHealth {
    health: CardHealth,
    protocol: ProtocolKind,
    serviceable: bool,
    covered: bool,
}

/// The health state of one router, changed only by [`NodeHealth::apply`].
#[derive(Debug, Clone)]
pub struct NodeHealth {
    arch: ArchKind,
    lcs: Vec<LcHealth>,
    /// Spare capacity each card lends (the planner's ψ); carried into
    /// the coverage views exactly as the DRA simulator builds them.
    spare_bps: f64,
    eib_healthy: bool,
    planes_total: usize,
    planes_failed: usize,
    applied: u64,
}

impl NodeHealth {
    /// A fully healthy `arch` router shaped by `config`: its linecard
    /// count, per-card protocols and ports, and fabric plane count.
    /// Traffic and fault-injection settings are ignored — the state
    /// changes only through [`apply`](Self::apply).
    pub fn new(arch: ArchKind, config: &BdrConfig) -> Self {
        if arch == ArchKind::Dra {
            assert!(config.n_lcs >= 3, "DRA needs N >= 3");
        }
        let lcs = (0..config.n_lcs)
            .map(|i| LcHealth {
                health: CardHealth::healthy(config.ports_per_lc),
                protocol: config.protocol_of(i),
                serviceable: true,
                covered: false,
            })
            .collect();
        NodeHealth {
            arch,
            lcs,
            spare_bps: config.port_rate_bps * (1.0 - config.load),
            eib_healthy: true,
            planes_total: config.fabric_planes_total,
            planes_failed: 0,
            applied: 0,
        }
    }

    /// The router's architecture.
    pub fn arch(&self) -> ArchKind {
        self.arch
    }

    /// Number of linecards.
    pub fn n_lcs(&self) -> usize {
        self.lcs.len()
    }

    /// Fault actions applied so far.
    pub fn events_processed(&self) -> u64 {
        self.applied
    }

    /// Apply one action now. EIB actions are no-ops on BDR, and route
    /// updates never change health, as in `ScriptedRouter::apply`.
    pub fn apply(&mut self, action: &Action) {
        self.applied += 1;
        match *action {
            Action::FailComponent(lc, kind) => self.lcs[lc as usize].health.fail(kind),
            Action::RepairLc(lc) => self.lcs[lc as usize].health.repair_all(),
            Action::FailEib | Action::RepairEib if self.arch == ArchKind::Bdr => return,
            Action::FailEib => self.eib_healthy = false,
            Action::RepairEib => self.eib_healthy = true,
            Action::FailFabricPlane => {
                self.planes_failed = (self.planes_failed + 1).min(self.planes_total);
                return;
            }
            Action::RepairFabricPlane => {
                self.planes_failed = self.planes_failed.saturating_sub(1);
                return;
            }
            Action::AnnounceRoute(..) | Action::WithdrawRoute(_) => return,
        }
        self.refresh();
    }

    /// Can linecard `lc` pass traffic right now (BDR: standalone
    /// healthy; DRA: standalone or EIB-covered)?
    #[inline]
    pub fn lc_serviceable(&self, lc: u16) -> bool {
        self.lcs[lc as usize].serviceable
    }

    /// Is linecard `lc` serviceable only through EIB coverage? Always
    /// false on BDR.
    #[inline]
    pub fn lc_covered(&self, lc: u16) -> bool {
        self.lcs[lc as usize].covered
    }

    /// Is the switching fabric operational (any plane left)?
    #[inline]
    pub fn fabric_operational(&self) -> bool {
        self.planes_failed < self.planes_total
    }

    /// Recompute every card's cached verdicts. Under DRA one card's
    /// health decides whether it can help the others, so all of them
    /// are re-derived; faults are rare next to hops, so this stays off
    /// the hot path.
    fn refresh(&mut self) {
        let n = self.lcs.len();
        for i in 0..n {
            let standalone = self.lcs[i].health.components().operational_standalone();
            let serviceable = match self.arch {
                ArchKind::Bdr => standalone,
                ArchKind::Dra => {
                    let (lcs, spare_bps) = (&self.lcs, self.spare_bps);
                    lc_serviceable_with(
                        |j| LcView {
                            protocol: lcs[j].protocol,
                            components: lcs[j].health.components(),
                            spare_bps,
                        },
                        n,
                        i as u16,
                        None,
                        self.eib_healthy,
                    )
                }
            };
            let card = &mut self.lcs[i];
            card.serviceable = serviceable;
            card.covered = serviceable && !standalone;
        }
    }
}

// The tests name unit kinds through `super::*`.
#[cfg(test)]
use dra_router::components::ComponentKind;

#[cfg(test)]
mod tests {
    use super::*;

    fn health(arch: ArchKind, n: usize) -> NodeHealth {
        NodeHealth::new(
            arch,
            &BdrConfig {
                n_lcs: n,
                ..BdrConfig::default()
            },
        )
    }

    #[test]
    fn actions_apply_in_sequence() {
        let fail = Action::FailComponent(1, ComponentKind::Sru);
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            let mut h = health(arch, 4);
            assert!(h.lc_serviceable(1), "{arch:?}: healthy before failure");
            h.apply(&fail);
            assert_eq!(h.lc_serviceable(1), arch == ArchKind::Dra, "{arch:?}");
            assert_eq!(h.lc_covered(1), arch == ArchKind::Dra, "{arch:?}");
            h.apply(&Action::RepairLc(1));
            assert!(h.lc_serviceable(1) && !h.lc_covered(1), "{arch:?}");
            assert_eq!(h.events_processed(), 2);
        }
    }

    #[test]
    fn eib_failure_withdraws_coverage_on_dra_only() {
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            let mut h = health(arch, 4);
            h.apply(&Action::FailComponent(0, ComponentKind::Lfe));
            h.apply(&Action::FailEib);
            assert!(!h.lc_serviceable(0), "{arch:?}: no EIB, no coverage");
            h.apply(&Action::RepairEib);
            assert_eq!(h.lc_covered(0), arch == ArchKind::Dra, "{arch:?}");
        }
    }

    #[test]
    fn piu_ports_and_fabric_planes_saturate() {
        let mut h = NodeHealth::new(
            ArchKind::Dra,
            &BdrConfig {
                n_lcs: 3,
                ports_per_lc: 2,
                ..BdrConfig::default()
            },
        );
        h.apply(&Action::FailComponent(2, ComponentKind::Piu));
        assert!(h.lc_serviceable(2), "one of two ports left");
        h.apply(&Action::FailComponent(2, ComponentKind::Piu));
        assert!(
            !h.lc_serviceable(2) && !h.lc_covered(2),
            "PIU loss is uncoverable"
        );
        h.apply(&Action::RepairLc(2));
        assert!(h.lc_serviceable(2));
        for _ in 0..6 {
            h.apply(&Action::FailFabricPlane);
        }
        assert!(!h.fabric_operational());
        h.apply(&Action::RepairFabricPlane);
        assert!(
            h.fabric_operational(),
            "failures saturate at the plane count"
        );
    }
}
