//! The fault-coverage planner: given the health of every linecard and
//! the EIB, decide how a packet flow survives failures (§3.2's Cases
//! 1–3).
//!
//! Case 1 (fabric failures) is absorbed by plane redundancy in
//! `dra-router`'s crossbar and never reaches this planner. Cases 2 and
//! 3 are decided here, as pure functions over an [`LcView`] snapshot —
//! which is exactly the "global view of the faulty component locations"
//! every LC maintains via the control-line processing tier.

use dra_net::protocol::ProtocolKind;
use dra_router::components::{Health, LcComponents};
use dra_router::metrics::DropCause;

/// What the planner knows about one linecard (replicated at every LC
/// through processing-tier control packets).
#[derive(Debug, Clone, Copy)]
pub struct LcView {
    /// Protocol this linecard implements.
    pub protocol: ProtocolKind,
    /// Unit health.
    pub components: LcComponents,
    /// Spare capacity this LC can lend (ψ = c_LC − L·c_LC in §5.3).
    pub spare_bps: f64,
}

impl LcView {
    /// A healthy view with the given protocol and spare capacity.
    pub fn healthy(protocol: ProtocolKind, spare_bps: f64) -> Self {
        LcView {
            protocol,
            components: LcComponents::healthy(),
            spare_bps,
        }
    }

    fn bc_ok(&self) -> bool {
        self.components.bus_controller == Health::Healthy
    }
}

/// How ingress traffic of a (possibly faulty) LC_in is handled — the
/// paper's Case 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressRoute {
    /// LC_in healthy: the regular PIU → PDLU → SRU/LFE → fabric path.
    Normal,
    /// Service impossible; drop with this cause.
    Blocked(DropCause),
    /// PDLU failed: PIU forwards the raw stream over the EIB data
    /// lines to `helper`'s PDLU (same protocol required); the helper
    /// runs PDLU + SRU + LFE and injects cells into the fabric.
    PdluCover {
        /// The covering LC_inter.
        helper: u16,
    },
    /// SRU failed: the PDLU output crosses the EIB to `helper`'s SRU;
    /// the helper segments, looks up, and injects cells.
    SruCover {
        /// The covering LC_inter.
        helper: u16,
    },
    /// LFE failed: lookups ride the control lines (REQ_L → `helper`'s
    /// LFE → REP_L); data then uses LC_in's own fabric path.
    RemoteLookup {
        /// The LC answering lookups.
        helper: u16,
    },
}

/// How traffic destined for a (possibly faulty) LC_out is delivered —
/// the paper's Case 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EgressRoute {
    /// LC_out healthy: fabric → SRU reassembly → PDLU → PIU.
    Normal,
    /// Delivery impossible; drop with this cause.
    Blocked(DropCause),
    /// LC_out's PDLU failed and LC_in shares its protocol: LC_in's
    /// PDLU frames the packet and sends it over the EIB directly to
    /// LC_out's PIU.
    PdluDirect,
    /// LC_out's PDLU failed, protocols differ: cells cross the fabric
    /// to `inter` (same protocol as LC_out), whose PDLU frames the
    /// reassembled packet and forwards it over the EIB to LC_out's PIU.
    PdluViaInter {
        /// The intermediate LC.
        inter: u16,
    },
    /// LC_out's SRU failed: LC_in sends the whole packet over the EIB
    /// to LC_out's PDLU (bypassing the failed SRU).
    SruCover,
}

/// The planner. Holds router-global state that isn't per-LC.
///
/// ```
/// use dra_core::coverage::{CoveragePlanner, IngressRoute, LcView};
/// use dra_net::protocol::ProtocolKind;
/// use dra_router::components::{ComponentKind, Health};
///
/// // Three Ethernet cards; LC0's forwarding engine dies.
/// let mut lcs: Vec<LcView> = (0..3)
///     .map(|_| LcView::healthy(ProtocolKind::Ethernet, 8.5e9))
///     .collect();
/// lcs[0].components.set(ComponentKind::Lfe, Health::Failed);
///
/// let planner = CoveragePlanner::new(true);
/// // Lookups are outsourced; the data path stays local.
/// assert!(matches!(
///     planner.plan_ingress(&lcs, 0, 2),
///     IngressRoute::RemoteLookup { .. }
/// ));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CoveragePlanner {
    /// Are the EIB passive lines up? Without them no coverage works
    /// (the T′ regime of the Markov model).
    pub eib_healthy: bool,
}

/// A complete per-packet decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoverageRoute {
    /// Case-2 decision for the ingress side.
    pub ingress: IngressRoute,
    /// Case-3 decision for the egress side.
    pub egress: EgressRoute,
}

impl CoverageRoute {
    /// Does this plan use the EIB data lines at all?
    /// The first blocking cause, if the plan cannot deliver.
    pub(crate) fn blocked_by(&self) -> Option<DropCause> {
        if let IngressRoute::Blocked(c) = self.ingress {
            return Some(c);
        }
        if let EgressRoute::Blocked(c) = self.egress {
            return Some(c);
        }
        None
    }
}

impl CoveragePlanner {
    /// Planner over a healthy EIB.
    pub fn new(eib_healthy: bool) -> Self {
        CoveragePlanner { eib_healthy }
    }

    /// Select the best eligible helper: maximum spare bandwidth, ties
    /// to the lowest index (the paper leaves this to "first REP_D to
    /// win the control lines"; a deterministic rule keeps runs
    /// reproducible — an ablation bench compares policies).
    fn pick_helper(
        &self,
        lcs: &[LcView],
        exclude: &[u16],
        eligible: impl Fn(&LcView) -> bool,
    ) -> Option<u16> {
        let mut best: Option<(u16, f64)> = None;
        for (i, lc) in lcs.iter().enumerate() {
            let i = i as u16;
            if exclude.contains(&i) || !lc.bc_ok() || !eligible(lc) || lc.spare_bps <= 0.0 {
                continue;
            }
            match best {
                Some((_, spare)) if spare >= lc.spare_bps => {}
                _ => best = Some((i, lc.spare_bps)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Case-2 decision for traffic entering at `ingress` bound for
    /// `egress`.
    ///
    /// The paper's Case 2 allows "any healthy LC" to help — including
    /// LC_out itself (the N−2 helper pool of §5 is an analysis
    /// simplification, honoured by `lc_serviceable_with`'s `exclude_out`
    /// but not imposed on the packet path).
    pub fn plan_ingress(&self, lcs: &[LcView], ingress: u16, _egress: u16) -> IngressRoute {
        let me = &lcs[ingress as usize];
        let c = me.components;
        if c.piu == Health::Failed {
            // Paper: "For a failure at the PIU, packet transfer is
            // stalled" — the external link itself is gone.
            return IngressRoute::Blocked(DropCause::IngressDown);
        }
        if c.pdlu == Health::Healthy && c.sru == Health::Healthy && c.lfe == Health::Healthy {
            return IngressRoute::Normal;
        }
        // Any coverage needs the EIB and this LC's bus controller.
        if !self.eib_healthy || !me.bc_ok() {
            return IngressRoute::Blocked(DropCause::IngressDown);
        }
        let exclude = [ingress];
        if c.pdlu == Health::Failed {
            // The helper takes over from the PDLU on: it needs a PDLU
            // of the same protocol plus working SRU/LFE. Its own PIU
            // is *not* on this path (the stream arrives over the EIB
            // and leaves through the fabric).
            let proto = me.protocol;
            return match self.pick_helper(lcs, &exclude, |lc| {
                lc.components.pdlu == Health::Healthy
                    && lc.components.pi_units_healthy()
                    && lc.protocol == proto
            }) {
                Some(helper) => IngressRoute::PdluCover { helper },
                None => IngressRoute::Blocked(DropCause::NoCoverage),
            };
        }
        if c.sru == Health::Failed {
            // The helper runs SRU + LFE: its PI units must be healthy
            // (protocol-independent, so any protocol qualifies).
            return match self.pick_helper(lcs, &exclude, |lc| lc.components.pi_units_healthy()) {
                Some(helper) => IngressRoute::SruCover { helper },
                None => IngressRoute::Blocked(DropCause::NoCoverage),
            };
        }
        // Only the LFE is down: lookups are outsourced, data stays local.
        match self.pick_helper(lcs, &exclude, |lc| lc.components.lfe == Health::Healthy) {
            Some(helper) => IngressRoute::RemoteLookup { helper },
            None => IngressRoute::Blocked(DropCause::NoCoverage),
        }
    }

    /// Case-3 decision for traffic leaving at `egress`, entering at
    /// `ingress`.
    pub(crate) fn plan_egress(&self, lcs: &[LcView], ingress: u16, egress: u16) -> EgressRoute {
        let out = &lcs[egress as usize];
        let c = out.components;
        if c.piu == Health::Failed {
            return EgressRoute::Blocked(DropCause::EgressDown);
        }
        if c.pdlu == Health::Healthy && c.sru == Health::Healthy {
            // LFE is not on the egress path.
            return EgressRoute::Normal;
        }
        if !self.eib_healthy || !out.bc_ok() {
            return EgressRoute::Blocked(DropCause::EgressDown);
        }
        if c.pdlu == Health::Failed {
            let inn = &lcs[ingress as usize];
            if inn.protocol == out.protocol && inn.components.pdlu == Health::Healthy && inn.bc_ok()
            {
                return EgressRoute::PdluDirect;
            }
            // Find an LC_inter implementing LC_out's protocol whose
            // reassembly (SRU) and framing (PDLU) work; its LFE and
            // PIU are not on this path.
            let exclude = [ingress, egress];
            return match self.pick_helper(lcs, &exclude, |lc| {
                lc.components.pdlu == Health::Healthy
                    && lc.components.sru == Health::Healthy
                    && lc.protocol == out.protocol
            }) {
                Some(inter) => EgressRoute::PdluViaInter { inter },
                None => EgressRoute::Blocked(DropCause::NoCoverage),
            };
        }
        // SRU failed (PDLU healthy): LC_in ships the whole packet over
        // the EIB to LC_out's PDLU — LC_in needs a working BC.
        if lcs[ingress as usize].bc_ok() {
            EgressRoute::SruCover
        } else {
            EgressRoute::Blocked(DropCause::EgressDown)
        }
    }

    /// Full decision for a flow `ingress → egress`.
    pub(crate) fn plan(&self, lcs: &[LcView], ingress: u16, egress: u16) -> CoverageRoute {
        CoverageRoute {
            ingress: self.plan_ingress(lcs, ingress, egress),
            egress: self.plan_egress(lcs, ingress, egress),
        }
    }
}

/// Structural serviceability of `lc_ua`'s traffic under DRA — the
/// predicate the Markov models and the Monte Carlo validator share.
///
/// `lc_ua` is serviceable when, for every failed unit on it, the §3.2
/// coverage rules find help; with a dead EIB or bus controller it must
/// stand alone (the T′ regime). `exclude_out` removes LC_out from the
/// helper pool, matching the model's "(N−2) LC_inter's" assumption.
///
/// Deliberate divergence from [`CoveragePlanner`]: this predicate
/// mirrors the *paper's model accounting* — a PDLU cover needs only a
/// same-protocol PDLU plus bus controller (the model's λ_PD), and a
/// PI cover needs the PI-unit pair plus bus controller (λ_PI) — while
/// the planner enforces the *physical packet path* (a PDLU helper also
/// runs its SRU/LFE; an LFE helper needs only its LFE). Keeping both
/// lets the reproduction quantify how optimistic the paper's counting
/// is (it is second-order at the paper's rates).
///
/// Views are read through the indexed accessor `lc_at` over `n_lcs`
/// cards, not a materialized slice: the network engine health-checks
/// every transit, so the predicate must read views in place rather
/// than `collect()` a `Vec<LcView>` per call.
pub(crate) fn lc_serviceable_with(
    lc_at: impl Fn(usize) -> LcView,
    n_lcs: usize,
    lc_ua: u16,
    exclude_out: Option<u16>,
    eib_healthy: bool,
) -> bool {
    let me = lc_at(lc_ua as usize);
    let c = me.components;
    if c.piu == Health::Failed {
        return false;
    }
    if c.pdlu == Health::Healthy && c.sru == Health::Healthy && c.lfe == Health::Healthy {
        return true;
    }
    // Faulty and needing the bus: EIB + own bus controller must be up.
    if !eib_healthy || !me.bc_ok() {
        return false;
    }
    let candidate = |i: usize, lc: &LcView| -> bool {
        i as u16 != lc_ua && Some(i as u16) != exclude_out && lc.bc_ok()
    };
    if c.pdlu == Health::Failed {
        let covered = (0..n_lcs).any(|i| {
            let lc = lc_at(i);
            candidate(i, &lc) && lc.protocol == me.protocol && lc.components.pdlu == Health::Healthy
        });
        if !covered {
            return false;
        }
    }
    if c.sru == Health::Failed || c.lfe == Health::Failed {
        let covered = (0..n_lcs).any(|i| {
            let lc = lc_at(i);
            candidate(i, &lc) && lc.components.pi_units_healthy()
        });
        if !covered {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`lc_serviceable_with`] over a slice of views.
    fn lc_serviceable(lcs: &[LcView], lc_ua: u16, exclude_out: Option<u16>, eib: bool) -> bool {
        lc_serviceable_with(|i| lcs[i], lcs.len(), lc_ua, exclude_out, eib)
    }
    use dra_router::components::ComponentKind;

    const GBPS: f64 = 1e9;

    fn views(protocols: &[ProtocolKind]) -> Vec<LcView> {
        protocols
            .iter()
            .map(|&p| LcView::healthy(p, 8.5 * GBPS))
            .collect()
    }

    fn eth6() -> Vec<LcView> {
        views(&[ProtocolKind::Ethernet; 6])
    }

    fn fail(views: &mut [LcView], lc: usize, kind: ComponentKind) {
        views[lc].components.set(kind, Health::Failed);
    }

    fn planner() -> CoveragePlanner {
        CoveragePlanner::new(true)
    }

    #[test]
    fn healthy_flow_uses_normal_paths() {
        let lcs = eth6();
        let route = planner().plan(&lcs, 0, 3);
        assert_eq!(route.ingress, IngressRoute::Normal);
        assert_eq!(route.egress, EgressRoute::Normal);
        assert_eq!(route.blocked_by(), None);
    }

    #[test]
    fn ingress_piu_failure_stalls_traffic() {
        let mut lcs = eth6();
        fail(&mut lcs, 0, ComponentKind::Piu);
        assert_eq!(
            planner().plan_ingress(&lcs, 0, 3),
            IngressRoute::Blocked(DropCause::IngressDown)
        );
    }

    #[test]
    fn ingress_lfe_failure_uses_remote_lookup() {
        let mut lcs = eth6();
        fail(&mut lcs, 0, ComponentKind::Lfe);
        match planner().plan_ingress(&lcs, 0, 3) {
            IngressRoute::RemoteLookup { helper } => {
                assert_ne!(helper, 0, "a card cannot help itself");
            }
            other => panic!("expected RemoteLookup, got {other:?}"),
        }
    }

    #[test]
    fn ingress_sru_failure_covered_by_any_protocol() {
        let mut lcs = views(&[ProtocolKind::Ethernet, ProtocolKind::Atm, ProtocolKind::Pos]);
        fail(&mut lcs, 0, ComponentKind::Sru);
        match planner().plan_ingress(&lcs, 0, 2) {
            IngressRoute::SruCover { helper } => assert_eq!(helper, 1),
            other => panic!("expected SruCover, got {other:?}"),
        }
    }

    #[test]
    fn ingress_pdlu_failure_requires_same_protocol() {
        let mut lcs = views(&[
            ProtocolKind::Ethernet,
            ProtocolKind::Atm,
            ProtocolKind::Ethernet,
            ProtocolKind::Pos,
        ]);
        fail(&mut lcs, 0, ComponentKind::Pdlu);
        match planner().plan_ingress(&lcs, 0, 3) {
            IngressRoute::PdluCover { helper } => {
                assert_eq!(helper, 2, "only LC2 shares Ethernet");
            }
            other => panic!("expected PdluCover, got {other:?}"),
        }
        // Remove the only same-protocol helper: no coverage.
        fail(&mut lcs, 2, ComponentKind::Sru);
        assert_eq!(
            planner().plan_ingress(&lcs, 0, 3),
            IngressRoute::Blocked(DropCause::NoCoverage)
        );
    }

    #[test]
    fn combined_pdlu_and_lfe_failure_handled_by_pdlu_cover() {
        let mut lcs = eth6();
        fail(&mut lcs, 0, ComponentKind::Pdlu);
        fail(&mut lcs, 0, ComponentKind::Lfe);
        assert!(matches!(
            planner().plan_ingress(&lcs, 0, 3),
            IngressRoute::PdluCover { .. }
        ));
    }

    #[test]
    fn dead_eib_blocks_all_ingress_coverage() {
        let mut lcs = eth6();
        fail(&mut lcs, 0, ComponentKind::Lfe);
        let p = CoveragePlanner::new(false);
        assert_eq!(
            p.plan_ingress(&lcs, 0, 3),
            IngressRoute::Blocked(DropCause::IngressDown)
        );
    }

    #[test]
    fn dead_bus_controller_blocks_own_coverage() {
        let mut lcs = eth6();
        fail(&mut lcs, 0, ComponentKind::Sru);
        fail(&mut lcs, 0, ComponentKind::BusController);
        assert_eq!(
            planner().plan_ingress(&lcs, 0, 3),
            IngressRoute::Blocked(DropCause::IngressDown)
        );
    }

    #[test]
    fn helpers_with_dead_bus_controllers_are_ineligible() {
        let mut lcs = views(&[ProtocolKind::Ethernet; 3]);
        fail(&mut lcs, 0, ComponentKind::Lfe);
        fail(&mut lcs, 1, ComponentKind::BusController);
        // LC1's BC is down; LC2 (also the egress) still helps.
        assert_eq!(
            planner().plan_ingress(&lcs, 0, 2),
            IngressRoute::RemoteLookup { helper: 2 }
        );
        // Kill LC2's BC too: nobody can help.
        fail(&mut lcs, 2, ComponentKind::BusController);
        assert_eq!(
            planner().plan_ingress(&lcs, 0, 2),
            IngressRoute::Blocked(DropCause::NoCoverage)
        );
    }

    #[test]
    fn helper_selection_prefers_most_spare() {
        let mut lcs = eth6();
        fail(&mut lcs, 0, ComponentKind::Lfe);
        lcs[2].spare_bps = 1.0 * GBPS;
        lcs[4].spare_bps = 9.0 * GBPS;
        match planner().plan_ingress(&lcs, 0, 3) {
            IngressRoute::RemoteLookup { helper } => assert_eq!(helper, 4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn helpers_without_spare_are_skipped() {
        let mut lcs = views(&[ProtocolKind::Ethernet; 3]);
        fail(&mut lcs, 0, ComponentKind::Lfe);
        lcs[1].spare_bps = 0.0;
        lcs[2].spare_bps = 0.0;
        // Neither remaining card has spare capacity: blocked.
        assert_eq!(
            planner().plan_ingress(&lcs, 0, 2),
            IngressRoute::Blocked(DropCause::NoCoverage)
        );
    }

    #[test]
    fn egress_piu_failure_blocks() {
        let mut lcs = eth6();
        fail(&mut lcs, 3, ComponentKind::Piu);
        assert_eq!(
            planner().plan_egress(&lcs, 0, 3),
            EgressRoute::Blocked(DropCause::EgressDown)
        );
    }

    #[test]
    fn egress_pdlu_same_protocol_goes_direct() {
        let mut lcs = eth6();
        fail(&mut lcs, 3, ComponentKind::Pdlu);
        assert_eq!(planner().plan_egress(&lcs, 0, 3), EgressRoute::PdluDirect);
    }

    #[test]
    fn egress_pdlu_cross_protocol_uses_inter() {
        let mut lcs = views(&[
            ProtocolKind::Pos,      // ingress
            ProtocolKind::Ethernet, // helper candidate (matches egress)
            ProtocolKind::Atm,
            ProtocolKind::Ethernet, // egress
        ]);
        fail(&mut lcs, 3, ComponentKind::Pdlu);
        match planner().plan_egress(&lcs, 0, 3) {
            EgressRoute::PdluViaInter { inter } => assert_eq!(inter, 1),
            other => panic!("expected PdluViaInter, got {other:?}"),
        }
    }

    #[test]
    fn egress_pdlu_no_matching_protocol_blocks() {
        let mut lcs = views(&[ProtocolKind::Pos, ProtocolKind::Atm, ProtocolKind::Ethernet]);
        fail(&mut lcs, 2, ComponentKind::Pdlu);
        assert_eq!(
            planner().plan_egress(&lcs, 0, 2),
            EgressRoute::Blocked(DropCause::NoCoverage)
        );
    }

    #[test]
    fn egress_sru_failure_ships_packets_to_pdlu() {
        let mut lcs = eth6();
        fail(&mut lcs, 3, ComponentKind::Sru);
        assert_eq!(planner().plan_egress(&lcs, 0, 3), EgressRoute::SruCover);
    }

    #[test]
    fn egress_pdlu_and_sru_both_failed_still_direct() {
        // PdluDirect bypasses both the SRU and the PDLU of LC_out.
        let mut lcs = eth6();
        fail(&mut lcs, 3, ComponentKind::Pdlu);
        fail(&mut lcs, 3, ComponentKind::Sru);
        assert_eq!(planner().plan_egress(&lcs, 0, 3), EgressRoute::PdluDirect);
    }

    #[test]
    fn egress_lfe_failure_is_irrelevant() {
        let mut lcs = eth6();
        fail(&mut lcs, 3, ComponentKind::Lfe);
        assert_eq!(planner().plan_egress(&lcs, 0, 3), EgressRoute::Normal);
    }

    #[test]
    fn serviceable_matches_planner_for_ingress_failures() {
        let mut lcs = eth6();
        assert!(lc_serviceable(&lcs, 0, Some(3), true));
        fail(&mut lcs, 0, ComponentKind::Sru);
        assert!(lc_serviceable(&lcs, 0, Some(3), true));
        assert!(!lc_serviceable(&lcs, 0, Some(3), false), "dead EIB");
        // Kill every helper's PI units.
        for i in 1..6 {
            fail(&mut lcs, i, ComponentKind::Lfe);
        }
        assert!(!lc_serviceable(&lcs, 0, Some(3), true));
    }

    #[test]
    fn serviceable_respects_same_protocol_for_pdlu() {
        let mut lcs = views(&[ProtocolKind::Ethernet, ProtocolKind::Atm, ProtocolKind::Atm]);
        fail(&mut lcs, 0, ComponentKind::Pdlu);
        assert!(
            !lc_serviceable(&lcs, 0, None, true),
            "no Ethernet helper exists"
        );
        lcs[1].protocol = ProtocolKind::Ethernet;
        assert!(lc_serviceable(&lcs, 0, None, true));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn health_strategy() -> impl Strategy<Value = LcComponents> {
            (
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(|(piu, pdlu, sru, lfe, bc)| {
                    let h = |b: bool| if b { Health::Failed } else { Health::Healthy };
                    let mut c = LcComponents::healthy();
                    c.piu = h(piu);
                    c.pdlu = h(pdlu);
                    c.sru = h(sru);
                    c.lfe = h(lfe);
                    c.bus_controller = h(bc);
                    c
                })
        }

        fn views_strategy(n: usize) -> impl Strategy<Value = Vec<LcView>> {
            proptest::collection::vec(
                (health_strategy(), 0usize..3).prop_map(|(components, p)| LcView {
                    protocol: ProtocolKind::ALL[p],
                    components,
                    spare_bps: 1e9, // positive so eligibility = health rules
                }),
                n..=n,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any helper the planner returns satisfies the §3.2
            /// eligibility rules, and "Normal" means exactly "no unit
            /// on the ingress path failed".
            #[test]
            fn ingress_plans_are_always_legal(views in views_strategy(6),
                                              egress in 1u16..6) {
                let planner = CoveragePlanner::new(true);
                let me = &views[0];
                match planner.plan_ingress(&views, 0, egress) {
                    IngressRoute::Normal => {
                        prop_assert!(me.components.piu == Health::Healthy);
                        prop_assert!(me.components.pdlu == Health::Healthy);
                        prop_assert!(me.components.sru == Health::Healthy);
                        prop_assert!(me.components.lfe == Health::Healthy);
                    }
                    IngressRoute::PdluCover { helper } => {
                        prop_assert_ne!(helper, 0);
                        let h = &views[helper as usize];
                        prop_assert!(h.components.pdlu == Health::Healthy);
                        prop_assert!(h.components.pi_units_healthy());
                        prop_assert!(h.components.bus_controller == Health::Healthy);
                        prop_assert_eq!(h.protocol, me.protocol);
                        prop_assert!(me.components.bus_controller == Health::Healthy);
                    }
                    IngressRoute::SruCover { helper } => {
                        prop_assert_ne!(helper, 0);
                        let h = &views[helper as usize];
                        prop_assert!(h.components.pi_units_healthy());
                        prop_assert!(h.components.bus_controller == Health::Healthy);
                        // SRU cover is only planned when the PDLU works.
                        prop_assert!(me.components.pdlu == Health::Healthy);
                    }
                    IngressRoute::RemoteLookup { helper } => {
                        prop_assert_ne!(helper, 0);
                        let h = &views[helper as usize];
                        prop_assert!(h.components.lfe == Health::Healthy);
                        prop_assert!(h.components.bus_controller == Health::Healthy);
                        // Only the LFE is down.
                        prop_assert!(me.components.pdlu == Health::Healthy);
                        prop_assert!(me.components.sru == Health::Healthy);
                    }
                    IngressRoute::Blocked(_) => {}
                }
            }

            /// Relationships between the physical planner and the
            /// model-accounting predicate (see `lc_serviceable` docs):
            /// they agree exactly on healthy cards, on PIU failures,
            /// and on dead-bus cases; elsewhere each can be stricter
            /// only in its documented direction.
            #[test]
            fn serviceable_and_planner_are_consistent(views in views_strategy(5),
                                                      eib in any::<bool>()) {
                let planner = CoveragePlanner::new(eib);
                for lc in 0..5u16 {
                    let route = planner.plan_ingress(&views, lc, (lc + 1) % 5);
                    let plan_ok = !matches!(route, IngressRoute::Blocked(_));
                    let serviceable = lc_serviceable(&views, lc, None, eib);
                    let me = &views[lc as usize].components;

                    if me.piu == Health::Failed {
                        prop_assert!(!plan_ok && !serviceable);
                        continue;
                    }
                    if me.operational_standalone() {
                        prop_assert!(plan_ok && serviceable);
                        continue;
                    }
                    // Faulty and needing the bus: both demand EIB + BC.
                    if !eib || me.bus_controller == Health::Failed {
                        prop_assert!(!plan_ok && !serviceable);
                        continue;
                    }
                    // PDLU-failure cases: the planner additionally
                    // requires the helper's PI units — it may block
                    // where the model says serviceable, never the
                    // reverse.
                    if me.pdlu == Health::Failed && plan_ok {
                        prop_assert!(serviceable, "planner ok must imply model ok for PDLU");
                    }
                    // Pure LFE failure: the model requires a helper
                    // with *both* PI units, the planner only an LFE —
                    // serviceable implies plan_ok there.
                    if me.pdlu == Health::Healthy
                        && me.sru == Health::Healthy
                        && me.lfe == Health::Failed
                        && serviceable
                    {
                        prop_assert!(plan_ok, "model ok must imply planner ok for LFE");
                    }
                    // SRU failure (PDLU healthy): identical rules.
                    if me.pdlu == Health::Healthy && me.sru == Health::Failed {
                        prop_assert_eq!(plan_ok, serviceable, "SRU case must coincide");
                    }
                }
            }

            /// Egress plans never name an ineligible intermediate.
            #[test]
            fn egress_plans_are_always_legal(views in views_strategy(6)) {
                let planner = CoveragePlanner::new(true);
                let out = &views[3];
                match planner.plan_egress(&views, 0, 3) {
                    EgressRoute::Normal => {
                        prop_assert!(out.components.piu == Health::Healthy);
                        prop_assert!(out.components.pdlu == Health::Healthy);
                        prop_assert!(out.components.sru == Health::Healthy);
                    }
                    EgressRoute::PdluDirect => {
                        prop_assert_eq!(views[0].protocol, out.protocol);
                        prop_assert!(views[0].components.pdlu == Health::Healthy);
                        prop_assert!(views[0].components.bus_controller == Health::Healthy);
                        prop_assert!(out.components.bus_controller == Health::Healthy);
                    }
                    EgressRoute::PdluViaInter { inter } => {
                        prop_assert!(inter != 0 && inter != 3);
                        let h = &views[inter as usize];
                        prop_assert!(h.components.pdlu == Health::Healthy);
                        prop_assert!(h.components.sru == Health::Healthy);
                        prop_assert!(h.components.bus_controller == Health::Healthy);
                        prop_assert_eq!(h.protocol, out.protocol);
                    }
                    EgressRoute::SruCover => {
                        prop_assert!(out.components.pdlu == Health::Healthy);
                        prop_assert!(out.components.bus_controller == Health::Healthy);
                        prop_assert!(views[0].components.bus_controller == Health::Healthy);
                    }
                    EgressRoute::Blocked(_) => {}
                }
            }
        }
    }

    #[test]
    fn serviceable_excludes_lc_out() {
        let mut lcs = views(&[ProtocolKind::Ethernet; 3]);
        fail(&mut lcs, 0, ComponentKind::Sru);
        fail(&mut lcs, 1, ComponentKind::Sru);
        // Only LC2 could help, but it is the excluded LC_out.
        assert!(!lc_serviceable(&lcs, 0, Some(2), true));
        assert!(lc_serviceable(&lcs, 0, None, true));
    }
}
