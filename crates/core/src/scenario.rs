//! Declarative fault-scenario scripting.
//!
//! Experiments, examples, and the CLI all need the same shape of code:
//! run a simulator to *t₁*, inject something, run to *t₂*, repair
//! something, … A [`Scenario`] captures that timeline as data, runs it
//! against either architecture, and returns the final metrics —
//! guaranteeing that BDR/DRA comparisons execute *exactly* the same
//! timeline.

use crate::sim::{DraConfig, DraRouter};
use dra_des::{Model, Simulation};
use dra_net::addr::Ipv4Prefix;
use dra_router::bdr::{BdrConfig, BdrRouter};
use dra_router::chassis::Chassis;
use dra_router::components::ComponentKind;
use dra_router::faults::FaultInjector;
use dra_router::metrics::RouterMetrics;
use rand::Rng;
use std::ops::DerefMut;

/// One scripted action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Fail one unit of one linecard.
    FailComponent(u16, ComponentKind),
    /// Hot-swap repair a linecard (all units).
    RepairLc(u16),
    /// Fail the EIB passive lines (DRA only; ignored on BDR).
    FailEib,
    /// Repair the EIB lines (DRA only; ignored on BDR).
    RepairEib,
    /// Fail one switching-fabric plane.
    FailFabricPlane,
    /// Repair one switching-fabric plane.
    RepairFabricPlane,
    /// Announce a route; every card forwards by it.
    AnnounceRoute(Ipv4Prefix, u16),
    /// Withdraw a route from every card.
    WithdrawRoute(Ipv4Prefix),
}

/// A single-router simulation a [`Scenario`] drives: either
/// architecture, as the [`Chassis`] it dereferences to (fabric, routes,
/// metrics) plus the health actions each answers its own way.
/// [`ScriptedRouter::apply`] is the one dispatch of an [`Action`].
pub trait ScriptedRouter: Model + DerefMut<Target = Chassis> {
    /// Fail one unit of linecard `lc` at `now`.
    fn fail_component(&mut self, lc: u16, kind: ComponentKind, now: f64);

    /// Hot-swap repair linecard `lc` (all units) at `now`.
    fn repair_lc(&mut self, lc: u16, now: f64);

    /// Fail (`healthy = false`) or repair the EIB lines at `now`. BDR
    /// has no EIB, so by default the action is a no-op.
    fn set_eib(&mut self, _healthy: bool, _now: f64) {}

    /// Apply one scripted action at `now`.
    fn apply(&mut self, action: &Action, now: f64) {
        match *action {
            Action::FailComponent(lc, kind) => self.fail_component(lc, kind, now),
            Action::RepairLc(lc) => self.repair_lc(lc, now),
            Action::FailEib => self.set_eib(false, now),
            Action::RepairEib => self.set_eib(true, now),
            Action::FailFabricPlane => self.fabric.fail_plane(),
            Action::RepairFabricPlane => self.fabric.repair_plane(),
            Action::AnnounceRoute(p, nh) => self.announce_route(p, nh),
            Action::WithdrawRoute(p) => self.withdraw_route(p),
        }
    }
}

impl ScriptedRouter for BdrRouter {
    fn fail_component(&mut self, lc: u16, kind: ComponentKind, now: f64) {
        self.fail_component_now(lc, kind, now);
    }

    fn repair_lc(&mut self, lc: u16, now: f64) {
        self.repair_lc_now(lc, now);
    }
}

impl ScriptedRouter for DraRouter {
    fn fail_component(&mut self, lc: u16, kind: ComponentKind, now: f64) {
        self.fail_component_now(lc, kind, now);
    }

    fn repair_lc(&mut self, lc: u16, now: f64) {
        self.repair_lc_now(lc, now);
    }

    fn set_eib(&mut self, healthy: bool, now: f64) {
        self.set_eib_now(healthy, now);
    }
}

/// A timeline of actions over a fixed horizon.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// `(time_s, action)` pairs; executed in time order.
    events: Vec<(f64, Action)>,
    horizon_s: f64,
}

impl Scenario {
    /// An empty scenario ending at `horizon_s`.
    pub fn new(horizon_s: f64) -> Self {
        assert!(horizon_s > 0.0 && horizon_s.is_finite());
        Scenario {
            events: Vec::new(),
            horizon_s,
        }
    }

    /// Schedule an action (builder style).
    ///
    /// # Panics
    /// Panics when `at_s` lies outside `[0, horizon]`.
    pub fn at(mut self, at_s: f64, action: Action) -> Self {
        assert!(
            (0.0..=self.horizon_s).contains(&at_s),
            "action at {at_s}s outside horizon {}s",
            self.horizon_s
        );
        self.events.push((at_s, action));
        self
    }

    /// The configured horizon.
    pub fn horizon(&self) -> f64 {
        self.horizon_s
    }

    /// The scripted `(time_s, action)` pairs, in insertion order.
    pub fn events(&self) -> &[(f64, Action)] {
        &self.events
    }

    /// Number of scripted actions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no actions are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn ordered(&self) -> Vec<(f64, Action)> {
        let mut ev = self.events.clone();
        ev.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        ev
    }

    /// Drive `sim` through the timeline to the horizon, snapshotting
    /// the metrics at `measure_from_s` so callers can compute
    /// post-warmup (windowed) quantities — e.g. the delivery fraction
    /// *after* a failure, excluding the healthy warmup traffic (the
    /// Figure-8 validation measures exactly this).
    ///
    /// Each action runs at its exact time, between the events due by
    /// then and the ones after. Actions scheduled at exactly
    /// `measure_from_s` execute before the snapshot, so "fail at t,
    /// measure from t" windows start in the failed state.
    pub fn run_windowed<R: ScriptedRouter>(
        &self,
        sim: &mut Simulation<R>,
        measure_from_s: f64,
    ) -> WindowedMetrics {
        assert!((0.0..=self.horizon_s).contains(&measure_from_s));
        let mut snapshot: Option<RouterMetrics> = None;
        for (at, action) in self.ordered() {
            if snapshot.is_none() && at > measure_from_s {
                sim.run_until(measure_from_s);
                snapshot = Some(sim.model().metrics.clone());
            }
            sim.run_until(at);
            let now = sim.now();
            sim.model_mut().apply(&action, now);
        }
        if snapshot.is_none() {
            sim.run_until(measure_from_s);
            snapshot = Some(sim.model().metrics.clone());
        }
        sim.run_until(self.horizon_s);
        WindowedMetrics {
            full: sim.model().metrics.clone(),
            at_window_start: snapshot.expect("snapshot taken"),
        }
    }

    /// [`Self::run_windowed`] without a window: drive `sim` through
    /// the timeline to the horizon.
    pub fn run<R: ScriptedRouter>(&self, sim: &mut Simulation<R>) {
        self.run_windowed(sim, self.horizon_s);
    }

    /// Run the identical timeline on both architectures and return
    /// `(bdr_metrics, dra_metrics)`.
    pub fn compare(&self, base: BdrConfig, seed: u64) -> (RouterMetrics, RouterMetrics) {
        let dra = DraConfig {
            router: base.clone(),
            ..Default::default()
        };
        let bdr = self.run_windowed(&mut BdrRouter::simulation(base, seed), self.horizon_s);
        let dra = self.run_windowed(&mut DraRouter::simulation(dra, seed), self.horizon_s);
        (bdr.full, dra.full)
    }
}

/// Final metrics plus a snapshot taken at the measurement-window
/// start, so monotone counters can be differenced into window-only
/// quantities.
#[derive(Debug, Clone)]
pub struct WindowedMetrics {
    /// Metrics at the horizon (the whole run).
    pub full: RouterMetrics,
    /// Metrics snapshot at `measure_from_s`.
    pub at_window_start: RouterMetrics,
}

impl WindowedMetrics {
    /// Bytes offered to linecard `lc` inside the window.
    pub fn window_offered_bytes(&self, lc: usize) -> u64 {
        self.full.lcs[lc].offered_bytes - self.at_window_start.lcs[lc].offered_bytes
    }

    /// Bytes delivered by linecard `lc` inside the window.
    pub fn window_delivered_bytes(&self, lc: usize) -> u64 {
        self.full.lcs[lc].delivered_bytes - self.at_window_start.lcs[lc].delivered_bytes
    }

    /// Router-wide delivered/offered byte ratio inside the window
    /// (1.0 when nothing was offered).
    pub fn window_byte_delivery_ratio(&self) -> f64 {
        let n = self.full.lcs.len();
        let offered: u64 = (0..n).map(|lc| self.window_offered_bytes(lc)).sum();
        let delivered: u64 = (0..n).map(|lc| self.window_delivered_bytes(lc)).sum();
        if offered == 0 {
            1.0
        } else {
            delivered as f64 / offered as f64
        }
    }
}

/// A stochastic fault/repair process that materializes as an explicit
/// [`Scenario`] timeline.
///
/// This generalizes the fault-level sampling of [`crate::montecarlo`]
/// to the packet simulators: component lifetimes are drawn from a
/// [`FaultInjector`] (exponential, at the paper's §5 rates unless
/// overridden), and the sampled timeline is *data*, so BDR and DRA
/// replay the **identical** failure history. It is the only way
/// stochastic faults reach a router simulation.
#[derive(Debug, Clone)]
pub struct FaultProcess {
    /// Lifetime/repair sampler (rates, repair time, granularity).
    pub injector: FaultInjector,
    /// Sampled delays are in the injector's rate units (hours for the
    /// paper's rates); they are multiplied by this to become
    /// simulation seconds. 3600 maps paper-hours faithfully;
    /// experiments use small values to compress time.
    pub delay_scale: f64,
    /// Schedule hot-swap repairs (`repair_time_h` after the first
    /// failure of a card, restoring every unit); without repair each
    /// card fails at most once per unit.
    pub repair: bool,
}

impl FaultProcess {
    /// Sample one fault timeline for `n_lcs` linecards over
    /// `horizon_s` simulated seconds.
    ///
    /// Per linecard this is a renewal process: arm every unit, fire
    /// the failures that precede the hot swap, repair, re-arm. Units
    /// armed before a repair but sampled to fail after it never fire:
    /// the hot swap replaced them. The EIB line gets its own renewal stream
    /// (a no-op when replayed on BDR).
    ///
    /// Sampling order is fixed (cards in index order, then the EIB),
    /// so one seed yields one timeline regardless of caller context.
    pub fn sample<R: Rng + ?Sized>(&self, n_lcs: usize, horizon_s: f64, rng: &mut R) -> Scenario {
        assert!(self.delay_scale > 0.0);
        let horizon_h = horizon_s / self.delay_scale;
        let mut sc = Scenario::new(horizon_s);
        for lc in 0..n_lcs as u16 {
            let mut t_h = 0.0;
            while t_h < horizon_h {
                let armed = self.injector.arm_linecard(rng);
                let first = armed.iter().map(|&(_, d)| d).fold(f64::INFINITY, f64::min);
                if !self.repair {
                    for (kind, d) in armed {
                        if t_h + d < horizon_h {
                            sc = sc.at(
                                (t_h + d) * self.delay_scale,
                                Action::FailComponent(lc, kind),
                            );
                        }
                    }
                    break;
                }
                let swap_h = first + self.injector.repair_delay_h();
                for (kind, d) in armed {
                    // Units that outlive the hot swap are replaced
                    // before they fail.
                    if d < swap_h && t_h + d < horizon_h {
                        sc = sc.at(
                            (t_h + d) * self.delay_scale,
                            Action::FailComponent(lc, kind),
                        );
                    }
                }
                t_h += swap_h;
                if t_h < horizon_h {
                    sc = sc.at(t_h * self.delay_scale, Action::RepairLc(lc));
                }
            }
        }
        let mut t_h = 0.0;
        while let Some(d) = self.injector.arm_eib(rng) {
            if t_h + d >= horizon_h {
                break;
            }
            sc = sc.at((t_h + d) * self.delay_scale, Action::FailEib);
            if !self.repair {
                break;
            }
            t_h += d + self.injector.repair_delay_h();
            if t_h >= horizon_h {
                break;
            }
            sc = sc.at(t_h * self.delay_scale, Action::RepairEib);
        }
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_router::metrics::DropCause;

    fn base(n: usize, load: f64) -> BdrConfig {
        BdrConfig {
            n_lcs: n,
            load,
            ..BdrConfig::default()
        }
    }

    fn dra_sim(n: usize, load: f64, seed: u64) -> Simulation<DraRouter> {
        let config = DraConfig {
            router: base(n, load),
            ..Default::default()
        };
        DraRouter::simulation(config, seed)
    }

    #[test]
    fn builder_validates_times() {
        let s = Scenario::new(1e-3)
            .at(0.2e-3, Action::FailComponent(0, ComponentKind::Lfe))
            .at(0.7e-3, Action::RepairLc(0));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.horizon(), 1e-3);
    }

    #[test]
    #[should_panic(expected = "outside horizon")]
    fn actions_past_horizon_rejected() {
        let _ = Scenario::new(1e-3).at(2e-3, Action::FailEib);
    }

    #[test]
    fn out_of_order_actions_execute_in_time_order() {
        // Scripted repair-before-failure in the list; time order wins.
        let s = Scenario::new(3e-3)
            .at(2e-3, Action::RepairLc(0))
            .at(1e-3, Action::FailComponent(0, ComponentKind::Sru));
        let mut dra = dra_sim(4, 0.2, 5);
        s.run(&mut dra);
        // Coverage happened (failure preceded repair), then recovered.
        let m = &dra.model().metrics;
        assert!(m.lcs[0].covered_packets > 0);
        assert!(m.byte_delivery_ratio() > 0.98);
    }

    #[test]
    fn compare_runs_identical_timelines() {
        let s = Scenario::new(3e-3).at(1e-3, Action::FailComponent(0, ComponentKind::Lfe));
        let (bdr, dra) = s.compare(base(4, 0.2), 42);
        // Identical offered traffic, divergent outcomes.
        for lc in 0..4 {
            assert_eq!(bdr.lcs[lc].offered_packets, dra.lcs[lc].offered_packets);
        }
        assert!(bdr.lcs[0].drops(DropCause::IngressDown) > 0);
        assert_eq!(dra.lcs[0].drops(DropCause::IngressDown), 0);
        assert!(dra.byte_delivery_ratio() > bdr.byte_delivery_ratio());
    }

    #[test]
    fn eib_actions_are_noops_on_bdr() {
        let s = Scenario::new(2e-3)
            .at(0.5e-3, Action::FailEib)
            .at(1.5e-3, Action::RepairEib);
        let mut bdr = BdrRouter::simulation(base(3, 0.15), 7);
        s.run(&mut bdr);
        assert!(bdr.model().metrics.byte_delivery_ratio() > 0.98);
    }

    #[test]
    fn fabric_plane_actions_flow_through() {
        let s = Scenario::new(2e-3)
            .at(0.5e-3, Action::FailFabricPlane)
            .at(0.6e-3, Action::FailFabricPlane)
            .at(1.2e-3, Action::RepairFabricPlane);
        let mut dra = dra_sim(3, 0.15, 9);
        s.run(&mut dra);
        assert_eq!(dra.model().fabric.planes_failed(), 1);
    }

    #[test]
    fn windowed_run_diffs_monotone_counters() {
        let s = Scenario::new(4e-3).at(2e-3, Action::FailComponent(0, ComponentKind::Sru));
        let mut dra = dra_sim(4, 0.2, 3);
        let w = s.run_windowed(&mut dra, 2e-3);
        // Window counters are a strict subset of the full run.
        for lc in 0..4 {
            assert!(w.window_offered_bytes(lc) <= dra.model().metrics.lcs[lc].offered_bytes);
            assert!(w.window_offered_bytes(lc) > 0, "traffic flows in window");
        }
        // Packets offered just before the window can be delivered just
        // inside it, so the ratio may slightly exceed 1; it must still
        // be finite and near the unit interval.
        let r = w.window_byte_delivery_ratio();
        assert!(r.is_finite() && r > 0.0 && r < 1.1, "ratio {r}");
    }

    #[test]
    fn windowed_snapshot_follows_same_instant_actions() {
        // "Fail at t, measure from t": the snapshot sees pre-failure
        // counters, so windowed delivery reflects the failed state.
        let s = Scenario::new(6e-3).at(2e-3, Action::FailComponent(0, ComponentKind::Sru));
        let bdr = s.run_windowed(&mut BdrRouter::simulation(base(4, 0.2), 3), 2e-3);
        // A failed BDR card delivers (almost) nothing post-failure.
        let off = bdr.window_offered_bytes(0);
        let del = bdr.window_delivered_bytes(0);
        assert!(off > 0);
        assert!(
            (del as f64) < 0.2 * off as f64,
            "faulty BDR card delivered {del}/{off} in window"
        );
    }

    #[test]
    fn windowed_full_run_matches_plain_run() {
        let s = Scenario::new(3e-3).at(1e-3, Action::FailComponent(0, ComponentKind::Lfe));
        let mut plain = dra_sim(4, 0.2, 11);
        s.run(&mut plain);
        let mut windowed = dra_sim(4, 0.2, 11);
        s.run_windowed(&mut windowed, 1.5e-3);
        // The snapshot must not perturb the simulation.
        for lc in 0..4 {
            assert_eq!(
                plain.model().metrics.lcs[lc].delivered_bytes,
                windowed.model().metrics.lcs[lc].delivered_bytes
            );
        }
        assert_eq!(plain.events_processed(), windowed.events_processed());
    }

    #[test]
    fn sampled_schedule_is_deterministic_by_seed() {
        use dra_router::faults::FaultGranularity;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let proc = FaultProcess {
            injector: {
                let mut inj = FaultInjector::new(3.0, FaultGranularity::PerComponent);
                inj.rates = crate::montecarlo::inflated_rates(1000.0);
                inj
            },
            delay_scale: 4e-3 / 50.0,
            repair: true,
        };
        let a = proc.sample(6, 40e-3, &mut SmallRng::seed_from_u64(9));
        let b = proc.sample(6, 40e-3, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a.events(), b.events());
        let c = proc.sample(6, 40e-3, &mut SmallRng::seed_from_u64(10));
        assert_ne!(a.events(), c.events());
        // Inflated rates over a long compressed horizon must produce
        // a non-trivial timeline with both failures and repairs.
        assert!(!a.is_empty(), "no faults sampled");
        assert!(a
            .events()
            .iter()
            .any(|(_, act)| matches!(act, Action::RepairLc(_))));
        // All events respect the horizon.
        assert!(a.events().iter().all(|&(t, _)| t < 40e-3));
    }

    #[test]
    fn stochastic_faults_fire_and_repair() {
        use dra_router::faults::FaultGranularity;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        // Accelerated: MTTF (1/2e-5 = 50000 rate-units) scaled so
        // failures land inside a 20 ms run, repairs (3 units) follow.
        let proc = FaultProcess {
            injector: FaultInjector::new(3.0, FaultGranularity::WholeLc),
            delay_scale: 1e-3 / 50_000.0,
            repair: true,
        };
        let sc = proc.sample(4, 20e-3, &mut SmallRng::seed_from_u64(11));
        let mut sim = BdrRouter::simulation(base(4, 0.1), 11);
        sc.run(&mut sim);
        let m = &sim.model().metrics;
        let total_ingress_drops: u64 = m.lcs.iter().map(|l| l.drops(DropCause::IngressDown)).sum();
        assert!(total_ingress_drops > 0, "accelerated faults never fired");
        // Availability strictly between 0 and 1 on average.
        let now = sim.now();
        let avg: f64 = m
            .lcs
            .iter()
            .map(|l| l.availability.average(now))
            .sum::<f64>()
            / m.lcs.len() as f64;
        assert!(avg > 0.0 && avg < 1.0, "avg availability {avg}");
    }

    #[test]
    fn sampled_schedule_replays_identically_on_both_archs() {
        use dra_router::faults::FaultGranularity;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let proc = FaultProcess {
            injector: {
                let mut inj = FaultInjector::new(3.0, FaultGranularity::WholeLc);
                inj.rates = crate::montecarlo::inflated_rates(1000.0);
                inj
            },
            delay_scale: 4e-3 / 50.0,
            repair: false,
        };
        let sc = proc.sample(4, 10e-3, &mut SmallRng::seed_from_u64(21));
        let (bdr, dra) = sc.compare(base(4, 0.2), 5);
        for lc in 0..4 {
            assert_eq!(bdr.lcs[lc].offered_packets, dra.lcs[lc].offered_packets);
        }
    }

    #[test]
    fn route_actions_update_the_rib() {
        use dra_net::addr::Ipv4Addr;
        use dra_net::fib::Fib;
        // 10.1.128.0/17 overrides LC1's 10.1.0.0/16 with LC2.
        let p = Ipv4Prefix::new(Ipv4Addr::from_octets(10, 1, 128, 0), 17);
        let inside = Ipv4Addr::from_octets(10, 1, 200, 1);
        let mut dra = dra_sim(3, 0.15, 11);
        Scenario::new(1e-3)
            .at(0.5e-3, Action::AnnounceRoute(p, 2))
            .run(&mut dra);
        assert_eq!(dra.model().fib.len(), 4, "the announce adds one route");
        assert_eq!(dra.model().fib.lookup(inside), Some(2));
        Scenario::new(2e-3)
            .at(1.5e-3, Action::WithdrawRoute(p))
            .run(&mut dra);
        assert_eq!(dra.model().fib.len(), 3, "announce+withdraw nets out");
        assert_eq!(dra.model().fib.lookup(inside), Some(1));
    }
}
