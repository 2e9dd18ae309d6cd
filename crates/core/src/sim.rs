//! The DRA packet-level router model: the BDR [`Chassis`] plus EIB
//! coverage.
//!
//! Until a failure appears a packet takes BDR's path; then the
//! [`crate::coverage::CoveragePlanner`] turns each packet's journey
//! into a sequence of [`Stage`]s that may detour over the EIB:
//!
//! * data-line hops run at the flow's promised bandwidth
//!   (`B_prom`, recomputed whenever the set of covered flows changes),
//!   with over-subscription realized as drops — exactly the paper's
//!   scale-back rule;
//! * remote lookups (failed LFE) ride the CSMA/CD control lines as
//!   REQ_L/REP_L control packets, with binary-exponential backoff on
//!   collisions;
//! * the first data transfer of a newly covered flow pays the
//!   REQ_D/REP_D logical-path setup handshake on the control lines.
//!
//! The data lines are modelled as a fluid server per logical path at
//! its promised rate. The slot-level TDM arbiter of §4 is implemented
//! and verified in [`crate::eib::arbiter`]; at the timescales the
//! experiments measure (milliseconds, thousands of packets), the
//! round-robin slot interleaving is indistinguishable from the fluid
//! approximation, which keeps the event count tractable.

use crate::coverage::{CoveragePlanner, EgressRoute, IngressRoute, LcView};
use crate::eib::control::{CsmaChannel, TxResult};
use dra_des::{Ctx, Model, Simulation};
use dra_net::addr::Ipv4Addr;
use dra_net::packet::{Packet, PacketId, PacketMap};
use dra_router::bdr::BdrConfig;
use dra_router::chassis::{Chassis, ChassisEvent};
use dra_router::components::{ComponentKind, Health};
use dra_router::metrics::DropCause;
use std::ops::{Deref, DerefMut};

/// EIB parameters.
#[derive(Debug, Clone)]
pub struct EibConfig {
    /// Data-line capacity `B_BUS` (bits/second).
    pub data_rate_bps: f64,
    /// Control-line rate (bits/second).
    pub control_rate_bps: f64,
    /// Control-line propagation delay (seconds).
    pub prop_delay_s: f64,
    /// Longest tolerated data-line backlog before packets are shed
    /// (realizes the `B_prom` scale-back as drops).
    pub max_backlog_s: f64,
    /// Give up a control transaction after this many collisions.
    pub max_control_attempts: u32,
    /// Fault-table dissemination delay: how long until *other* cards
    /// learn of a health change (the paper's processing-tier control
    /// packets are not instantaneous). Zero = oracle gossip. During
    /// the window, peers plan against the stale view and their traffic
    /// to/via the changed card is lost — measurably.
    pub gossip_delay_s: f64,
}

impl Default for EibConfig {
    fn default() -> Self {
        EibConfig {
            data_rate_bps: 40e9,
            control_rate_bps: 1e9,
            prop_delay_s: 50e-9,
            max_backlog_s: 2e-3,
            max_control_attempts: 16,
            gossip_delay_s: 0.0,
        }
    }
}

/// Configuration of a DRA simulation: the BDR base plus the EIB.
#[derive(Debug, Clone, Default)]
pub struct DraConfig {
    /// Linecards, fabric, traffic — shared with the BDR baseline.
    pub router: BdrConfig,
    /// The Enhanced Internal Bus.
    pub eib: EibConfig,
}

/// Flow-account key offset distinguishing egress-coverage traffic
/// (packets *to* a faulty LC) from ingress-coverage traffic (packets
/// *from* it); the two directions hold separate promised-bandwidth
/// accounts, as only the ingress direction consumes helper capacity.
const EGRESS_FLOW_OFFSET: u16 = 0x8000;

/// One EIB flow's data-line account.
#[derive(Debug, Clone, Copy, Default)]
struct FlowAccount {
    /// Promised bandwidth, bit/s (0 while the flow's card needs no
    /// coverage).
    b_prom: f64,
    /// Data-line virtual finish time (sim time starts at 0).
    busy_until: f64,
    /// Is the REQ_D/REP_D logical path already set up?
    lp_established: bool,
}

/// The [`DraRouter::flows`] index of flow key `flow`: each linecard's
/// ingress account, then its egress account.
#[inline]
fn flow_index(flow: u16) -> usize {
    2 * (flow & !EGRESS_FLOW_OFFSET) as usize + usize::from(flow & EGRESS_FLOW_OFFSET != 0)
}

/// One step of a packet's (possibly coverage-detoured) journey.
/// Public because it appears inside [`DraEvent`]; constructed only by
/// the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    /// Full ingress pipeline at a healthy LC.
    IngressProc {
        /// The processing linecard.
        lc: u16,
    },
    /// REQ_L/REP_L remote lookup through `helper` (control lines).
    RemoteLookup {
        /// The LC answering the lookup.
        helper: u16,
    },
    /// EIB data-line hop.
    EibHop {
        /// Destination linecard of the hop.
        to: u16,
        /// The faulty LC whose promised-bandwidth account this rides.
        flow: u16,
    },
    /// PDLU+SRU(+LFE) processing at a covering helper.
    HelperProc {
        /// The covering linecard.
        lc: u16,
    },
    /// Cells across the crossbar.
    Fabric {
        /// Fabric input port.
        src: u16,
        /// Fabric output port.
        dst: u16,
    },
    /// Reassembly + PDLU framing at an LC_inter (Case 3, cross-protocol).
    InterProc {
        /// The intermediate linecard.
        lc: u16,
    },
    /// Final egress (PDLU/PIU/wire as health allows) and delivery.
    EgressProc {
        /// The egress linecard.
        lc: u16,
    },
}

/// Longest possible plan: ingress coverage contributes at most two
/// stages (remote lookup or EIB hop + processing) and egress coverage
/// at most four (fabric + LC_inter + EIB hop + egress).
pub(crate) const MAX_STAGES: usize = 6;

/// A packet's full stage plan, inline and `Copy` — events carry it by
/// value instead of heap-allocating a `Vec<Stage>` per packet.
#[derive(Debug, Clone, Copy)]
pub struct StagePlan {
    stages: [Stage; MAX_STAGES],
    len: u8,
}

impl StagePlan {
    /// An empty plan.
    fn new() -> Self {
        StagePlan {
            stages: [Stage::IngressProc { lc: 0 }; MAX_STAGES],
            len: 0,
        }
    }

    /// Append a stage. Panics if the plan exceeds [`MAX_STAGES`] —
    /// impossible by construction in [`DraRouter::plan_stages`].
    fn push(&mut self, stage: Stage) {
        self.stages[self.len as usize] = stage;
        self.len += 1;
    }

    /// The planned stages, in execution order.
    pub(crate) fn as_slice(&self) -> &[Stage] {
        &self.stages[..self.len as usize]
    }
}

impl std::ops::Index<usize> for StagePlan {
    type Output = Stage;

    fn index(&self, idx: usize) -> &Stage {
        &self.as_slice()[idx]
    }
}

impl PartialEq for StagePlan {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Which coverage machinery (if any) a packet's journey used — the
/// key for per-path latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// The regular PIU→PDLU→SRU/LFE→fabric→egress pipeline.
    Normal,
    /// Only the lookup detoured (REQ_L/REP_L on the control lines).
    RemoteLookup,
    /// The ingress side crossed the EIB data lines to a helper.
    IngressEib,
    /// The egress side crossed the EIB data lines.
    EgressEib,
    /// Both sides needed coverage.
    Both,
}

impl PathKind {
    /// All kinds, in reporting order.
    pub const ALL: [PathKind; 5] = [
        PathKind::Normal,
        PathKind::RemoteLookup,
        PathKind::IngressEib,
        PathKind::EgressEib,
        PathKind::Both,
    ];

    /// Dense index for metric arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            PathKind::Normal => 0,
            PathKind::RemoteLookup => 1,
            PathKind::IngressEib => 2,
            PathKind::EgressEib => 3,
            PathKind::Both => 4,
        }
    }

    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            PathKind::Normal => "normal",
            PathKind::RemoteLookup => "remote-lookup",
            PathKind::IngressEib => "ingress-eib",
            PathKind::EgressEib => "egress-eib",
            PathKind::Both => "both-sides",
        }
    }
}

/// Per-packet bookkeeping carried through the stages. Public because
/// it appears inside [`DraEvent`]; fields stay private to the model.
#[derive(Debug, Clone, Copy)]
pub struct FlowMeta {
    id: PacketId,
    ip_bytes: u32,
    arrived_at: f64,
    ingress: u16,
    covered: bool,
    path: PathKind,
}

/// Events of the DRA model.
#[derive(Debug)]
pub enum DraEvent {
    /// Kick-off, arrivals, fabric slots and the purge timer.
    Chassis(ChassisEvent),
    /// Run stage `idx` of a packet's plan.
    StageStart {
        /// Packet bookkeeping.
        meta: FlowMeta,
        /// The full stage plan.
        stages: StagePlan,
        /// Index of the stage to execute.
        idx: usize,
    },
    /// Retry a control-line transmission after busy/collision.
    ControlRetry {
        /// Packet bookkeeping.
        meta: FlowMeta,
        /// The full stage plan.
        stages: StagePlan,
        /// Stage being served by this transaction.
        idx: usize,
        /// Control packets still to send in this transaction.
        remaining: u8,
        /// Collision count so far.
        attempt: u32,
    },
    /// A control-line transmission finished; check for collision.
    ControlDone {
        /// Packet bookkeeping.
        meta: FlowMeta,
        /// The full stage plan.
        stages: StagePlan,
        /// Stage being served.
        idx: usize,
        /// Control packets still to send after this one.
        remaining: u8,
        /// Collision count so far.
        attempt: u32,
        /// Channel token.
        tx: u64,
    },
}

impl From<ChassisEvent> for DraEvent {
    fn from(event: ChassisEvent) -> Self {
        DraEvent::Chassis(event)
    }
}

/// The DRA router model: a [`Chassis`] (which it dereferences to; its
/// linecards carry meaningful PDLU health, unlike BDR's) plus the EIB.
#[derive(Debug)]
pub struct DraRouter {
    chassis: Chassis,
    /// The Enhanced Internal Bus configuration.
    pub eib: EibConfig,
    /// Are the EIB passive lines healthy?
    pub eib_healthy: bool,
    control: CsmaChannel,
    /// Packets inside the fabric: resumed on reassembly completion.
    in_fabric: PacketMap<(FlowMeta, StagePlan, usize)>,
    /// EIB flow accounts, two per linecard, indexed by [`flow_index`].
    flows: Vec<FlowAccount>,
    /// The planner's snapshot of every linecard, refreshed on each
    /// health change (all of which go through this type's fault
    /// methods), so admitting a packet reads it instead of rebuilding
    /// it.
    views: Vec<LcView>,
    /// Gossip staleness: per-LC health as peers last saw it, with the
    /// change timestamp (see `EibConfig::gossip_delay_s`).
    gossip: Vec<GossipCell>,
    gossip_eib: GossipEibCell,
    /// Delivered-packet latency per [`PathKind`].
    latency_by_path: [dra_des::stats::Welford; 5],
    /// Latency distributions per [`PathKind`] (log buckets, 100 ns–10 ms).
    latency_hist_by_path: [dra_des::stats::LogHistogram; 5],
}

impl Deref for DraRouter {
    type Target = Chassis;

    fn deref(&self) -> &Chassis {
        &self.chassis
    }
}

impl DerefMut for DraRouter {
    fn deref_mut(&mut self) -> &mut Chassis {
        &mut self.chassis
    }
}

/// Stale-view bookkeeping for one linecard.
#[derive(Debug, Clone, Copy)]
struct GossipCell {
    /// Health before the most recent change.
    prev: dra_router::components::LcComponents,
    /// When the most recent change happened.
    changed_at: f64,
}

/// Stale-view bookkeeping for the EIB lines.
#[derive(Debug, Clone, Copy)]
struct GossipEibCell {
    prev: bool,
    changed_at: f64,
}

impl DraRouter {
    /// Build the router. `seed` feeds the chassis's per-LC traffic RNG
    /// streams — seeded identically to [`dra_router::bdr::BdrRouter::new`],
    /// so both architectures see byte-identical offered traffic under
    /// the same seed no matter how much randomness their internals
    /// consume.
    pub fn new(config: DraConfig, seed: u64) -> Self {
        let DraConfig { router, eib } = config;
        assert!(router.n_lcs >= 3, "DRA needs N >= 3");
        let n_lcs = router.n_lcs;
        let spare = router.port_rate_bps * (1.0 - router.load);
        let chassis = Chassis::new(router, seed);
        let views = chassis
            .linecards
            .iter()
            .map(|lc| LcView {
                protocol: lc.protocol,
                components: lc.health.components(),
                spare_bps: spare,
            })
            .collect();
        DraRouter {
            chassis,
            eib_healthy: true,
            control: CsmaChannel::new(eib.control_rate_bps, eib.prop_delay_s),
            eib,
            in_fabric: PacketMap::default(),
            flows: vec![FlowAccount::default(); 2 * n_lcs],
            views,
            gossip: vec![
                GossipCell {
                    prev: dra_router::components::LcComponents::healthy(),
                    changed_at: f64::NEG_INFINITY,
                };
                n_lcs
            ],
            gossip_eib: GossipEibCell {
                prev: true,
                changed_at: f64::NEG_INFINITY,
            },
            latency_by_path: Default::default(),
            latency_hist_by_path: [(); 5].map(|_| dra_router::metrics::latency_histogram()),
        }
    }

    /// Wrap in a seeded simulation with the start event queued.
    pub fn simulation(config: DraConfig, seed: u64) -> Simulation<DraRouter> {
        let mut sim = Simulation::new(DraRouter::new(config, seed), seed);
        sim.schedule(0.0, ChassisEvent::Start.into());
        sim
    }

    /// Bring the planner's snapshot up to the linecards' health.
    fn refresh_views(&mut self) {
        for (view, lc) in self.views.iter_mut().zip(&self.chassis.linecards) {
            view.components = lc.health.components();
        }
    }

    /// Is `lc`'s service currently deliverable (directly or covered)?
    /// Uses ground-truth health (the metric, not any card's view).
    pub fn lc_serviceable(&self, lc: u16) -> bool {
        // Reads linecard state in place instead of materializing a
        // `Vec<LcView>`. The network layer never calls this: it reads
        // the verdicts `crate::health::NodeHealth` caches, and dra-topo's
        // `health_differential` test checks those against this answer.
        let spare = self.chassis.config.port_rate_bps * (1.0 - self.chassis.config.load);
        crate::coverage::lc_serviceable_with(
            |i| LcView {
                protocol: self.chassis.linecards[i].protocol,
                components: self.chassis.linecards[i].health.components(),
                spare_bps: spare,
            },
            self.chassis.linecards.len(),
            lc,
            None,
            self.eib_healthy,
        )
    }

    /// Turn the snapshot into the router as `origin` believes it to be
    /// at `now`, or back: its own health is always current; a peer's
    /// is its pre-change state until the gossip delay elapses. Swaps
    /// each stale peer's view with its [`GossipCell::prev`], so a
    /// second call with the same arguments restores both.
    fn swap_stale_views(&mut self, origin: u16, now: f64) {
        let delay = self.eib.gossip_delay_s;
        if delay <= 0.0 {
            return;
        }
        for (i, (view, cell)) in self.views.iter_mut().zip(&mut self.gossip).enumerate() {
            if i as u16 != origin && now < cell.changed_at + delay {
                std::mem::swap(&mut view.components, &mut cell.prev);
            }
        }
    }

    /// Record a health change for gossip staleness tracking. Must be
    /// called *before* mutating the true state.
    fn note_change(&mut self, lc: u16, now: f64) {
        self.gossip[lc as usize] = GossipCell {
            prev: self.chassis.linecards[lc as usize].health.components(),
            changed_at: now,
        };
    }

    fn note_eib_change(&mut self, now: f64) {
        self.gossip_eib = GossipEibCell {
            prev: self.eib_healthy,
            changed_at: now,
        };
    }

    /// Recompute `B_prom` for every covered flow (§4's allocation).
    ///
    /// Two constraints apply, mirroring §5.3's analysis:
    /// * ingress-coverage flows (a helper *processes* the stream) are
    ///   limited by the pooled spare capacity `Σψ` of fully healthy
    ///   linecards;
    /// * all flows together are limited by the data-line capacity
    ///   `B_BUS`, shared proportionally (`B_prom`).
    fn recompute_bandwidth(&mut self) {
        let views = &self.views;
        let r = &self.chassis.config;
        let covered: Vec<u16> = (0..r.n_lcs as u16)
            .filter(|&i| {
                let c = views[i as usize].components;
                c.pdlu == Health::Failed || c.sru == Health::Failed || c.lfe == Health::Failed
            })
            .collect();
        let healthy = views.iter().filter(|v| v.components.all_healthy()).count();
        let spare_pool = healthy as f64 * r.port_rate_bps * (1.0 - r.load);
        let k = covered.len();
        for account in &mut self.flows {
            account.b_prom = 0.0;
        }
        if k == 0 {
            return;
        }

        // The TDM arbiter is work-conserving: an LP's *share* of the
        // data lines is proportional to its posted requirement, but an
        // LP may use idle slots, so the realized rate is the weighted
        // share of the whole bus (never below B_prom). Each account is
        // additionally capped by the line rate of the card it feeds,
        // and ingress accounts by their share of the helpers' pooled
        // spare capacity (a helper must *process* that stream).
        // Equal posted requirements (every covered LC asks L·c) make
        // the weighted share an equal share.
        let bus_share = self.eib.data_rate_bps / (2 * k) as f64;
        let spare_share = spare_pool / k as f64;
        let ing_rate = r.port_rate_bps.min(bus_share).min(spare_share);
        let egr_rate = r.port_rate_bps.min(bus_share);
        for &lc in &covered {
            self.flows[flow_index(lc)].b_prom = ing_rate;
            self.flows[flow_index(lc | EGRESS_FLOW_OFFSET)].b_prom = egr_rate;
        }
    }

    fn refresh_availability(&mut self, now: f64) {
        for lc in 0..self.chassis.config.n_lcs as u16 {
            let up = if self.lc_serviceable(lc) { 1.0 } else { 0.0 };
            self.chassis.metrics.lcs[lc as usize]
                .availability
                .update(now, up);
        }
    }

    fn on_health_change(&mut self, now: f64) {
        self.refresh_views();
        self.recompute_bandwidth();
        self.refresh_availability(now);
    }

    /// Deterministic fault scripting. A PIU failure takes down one
    /// port (the paper's per-port PIUs); the aggregate PIU health
    /// reads failed only when every port is gone.
    pub fn fail_component_now(&mut self, lc: u16, kind: ComponentKind, now: f64) {
        self.note_change(lc, now);
        self.chassis.linecards[lc as usize].health.fail(kind);
        self.on_health_change(now);
    }

    /// Deterministic repair scripting.
    pub fn repair_lc_now(&mut self, lc: u16, now: f64) {
        self.note_change(lc, now);
        self.chassis.linecards[lc as usize].health.repair_all();
        self.flows[flow_index(lc)].lp_established = false;
        self.flows[flow_index(lc | EGRESS_FLOW_OFFSET)].lp_established = false;
        self.on_health_change(now);
    }

    /// Deterministic EIB-line failure (`healthy = false`) or repair.
    pub(crate) fn set_eib_now(&mut self, healthy: bool, now: f64) {
        self.note_eib_change(now);
        self.eib_healthy = healthy;
        self.on_health_change(now);
    }

    /// Deterministic EIB-line failure.
    pub fn fail_eib_now(&mut self, now: f64) {
        self.set_eib_now(false, now);
    }

    /// Deterministic EIB repair.
    pub fn repair_eib_now(&mut self, now: f64) {
        self.set_eib_now(true, now);
    }

    fn drop(&mut self, meta: &FlowMeta, cause: DropCause) {
        self.chassis.drop_packet(meta.id, meta.ingress, cause);
        // The paper's B_prom scale-back realized as drops is the
        // anomaly the flight recorder is armed for: freeze the event
        // window at the first occurrence.
        if cause == DropCause::EibOversubscribed {
            dra_telemetry::anomaly("first eib-oversubscribed drop");
        }
    }

    /// Build the stage plan for a packet entering at `ingress` bound
    /// for `egress` — using what `ingress` *believes* the router looks
    /// like — or decide to drop it.
    fn plan_stages(
        &mut self,
        ingress: u16,
        egress: u16,
        now: f64,
    ) -> Result<(StagePlan, PathKind), DropCause> {
        let delay = self.eib.gossip_delay_s;
        let eib_seen = if delay > 0.0 && now < self.gossip_eib.changed_at + delay {
            self.gossip_eib.prev
        } else {
            self.eib_healthy
        };
        self.swap_stale_views(ingress, now);
        let route = CoveragePlanner::new(eib_seen).plan(&self.views, ingress, egress);
        self.swap_stale_views(ingress, now);
        if let Some(cause) = route.blocked_by() {
            return Err(cause);
        }
        let mut stages = StagePlan::new();
        let mut ingress_covered = false;
        let mut lookup_only = false;
        let mut egress_covered = false;
        // Where cells (if any) enter the fabric from.
        let mut fabric_src = ingress;
        match route.ingress {
            IngressRoute::Normal => stages.push(Stage::IngressProc { lc: ingress }),
            IngressRoute::RemoteLookup { helper } => {
                lookup_only = true;
                stages.push(Stage::RemoteLookup { helper });
                stages.push(Stage::IngressProc { lc: ingress });
            }
            IngressRoute::PdluCover { helper } | IngressRoute::SruCover { helper } => {
                ingress_covered = true;
                stages.push(Stage::EibHop {
                    to: helper,
                    flow: ingress,
                });
                stages.push(Stage::HelperProc { lc: helper });
                fabric_src = helper;
            }
            IngressRoute::Blocked(_) => unreachable!("blocked handled above"),
        }
        match route.egress {
            EgressRoute::Normal => {
                stages.push(Stage::Fabric {
                    src: fabric_src,
                    dst: egress,
                });
                stages.push(Stage::EgressProc { lc: egress });
            }
            EgressRoute::SruCover | EgressRoute::PdluDirect => {
                egress_covered = true;
                // Whole packets cross the EIB straight to the egress
                // card (to its PDLU or PIU) — no fabric hop.
                stages.push(Stage::EibHop {
                    to: egress,
                    flow: egress | EGRESS_FLOW_OFFSET,
                });
                stages.push(Stage::EgressProc { lc: egress });
            }
            EgressRoute::PdluViaInter { inter } => {
                egress_covered = true;
                stages.push(Stage::Fabric {
                    src: fabric_src,
                    dst: inter,
                });
                stages.push(Stage::InterProc { lc: inter });
                stages.push(Stage::EibHop {
                    to: egress,
                    flow: egress | EGRESS_FLOW_OFFSET,
                });
                stages.push(Stage::EgressProc { lc: egress });
            }
            EgressRoute::Blocked(_) => unreachable!("blocked handled above"),
        }
        let path = match (ingress_covered || lookup_only, egress_covered) {
            (false, false) => PathKind::Normal,
            (true, false) if lookup_only => PathKind::RemoteLookup,
            (true, false) => PathKind::IngressEib,
            (false, true) => PathKind::EgressEib,
            (true, true) => PathKind::Both,
        };
        Ok((stages, path))
    }

    /// DRA's admission rule, in this order: the packet's ingress port
    /// is up (PIU coin), it has a route, the egress port is up (PIU
    /// coin), the fabric runs, and the coverage planner finds a path.
    /// Per-port PIU losses are the one thing coverage cannot help
    /// (§3.2); the coins draw from the simulation RNG only while ports
    /// are down.
    fn admit(
        &mut self,
        lc: u16,
        route: Option<u16>,
        ctx: &mut Ctx<'_, DraEvent>,
    ) -> Result<(StagePlan, PathKind), DropCause> {
        let ch = &self.chassis;
        if ch.port_down(lc, ctx.rng()) {
            return Err(DropCause::IngressDown);
        }
        // The lookup target is known to the model regardless of which
        // LFE will be charged for it; latency is charged per plan.
        let egress = route.ok_or(DropCause::NoRoute)?;
        if ch.port_down(egress, ctx.rng()) {
            return Err(DropCause::EgressDown);
        }
        if !ch.fabric.operational() {
            return Err(DropCause::FabricDown);
        }
        self.plan_stages(lc, egress, ctx.now())
    }

    fn handle_arrival(&mut self, lc: u16, ctx: &mut Ctx<'_, DraEvent>) {
        let (packet, route) = self.chassis.arrive(lc, ctx);
        let meta = FlowMeta {
            id: packet.id,
            ip_bytes: packet.ip_bytes,
            arrived_at: packet.arrived_at,
            ingress: lc,
            covered: false,
            path: PathKind::Normal,
        };
        match self.admit(lc, route, ctx) {
            Err(cause) => self.drop(&meta, cause),
            Ok((stages, path)) => {
                let meta = FlowMeta {
                    covered: path != PathKind::Normal,
                    path,
                    ..meta
                };
                self.start_stage(meta, stages, 0, 0.0, ctx);
            }
        }
    }

    fn finish(&mut self, meta: &FlowMeta, now: f64) {
        let latency = now - meta.arrived_at;
        self.chassis
            .deliver(meta.ingress, meta.ingress, meta.id, meta.ip_bytes, latency);
        if meta.covered {
            self.chassis.metrics.lcs[meta.ingress as usize].covered_packets += 1;
        }
        self.latency_by_path[meta.path.index()].push(latency);
        self.latency_hist_by_path[meta.path.index()].record(latency);
    }

    /// Latency statistics of delivered packets, per [`PathKind`].
    pub fn latency_by_path(&self, path: PathKind) -> &dra_des::stats::Welford {
        &self.latency_by_path[path.index()]
    }

    /// Latency distribution (log histogram) per [`PathKind`].
    pub fn latency_hist_by_path(&self, path: PathKind) -> &dra_des::stats::LogHistogram {
        &self.latency_hist_by_path[path.index()]
    }

    /// Start stage `idx` of a packet's plan `delay` from now, and each
    /// stage after it that follows on a fixed delay. Every caller makes
    /// this its last schedule call, so a stage runs inline whenever
    /// [`Ctx::try_advance`] allows and is queued as a
    /// [`DraEvent::StageStart`] otherwise.
    fn start_stage(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        mut idx: usize,
        mut delay: f64,
        ctx: &mut Ctx<'_, DraEvent>,
    ) {
        loop {
            if !ctx.try_advance(ctx.now() + delay) {
                ctx.schedule(delay, DraEvent::StageStart { meta, stages, idx });
                return;
            }
            match self.run_stage(meta, stages, idx, ctx) {
                Some(next) => {
                    idx += 1;
                    delay = next;
                }
                None => return,
            }
        }
    }

    /// Run stage `idx` of a packet's plan. Returns the delay until the
    /// next stage starts when that is all the stage leaves to do;
    /// `None` when the packet finished, dropped, or waits on the fabric
    /// or the control lines.
    fn run_stage(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        idx: usize,
        ctx: &mut Ctx<'_, DraEvent>,
    ) -> Option<f64> {
        let Some(&stage) = stages.as_slice().get(idx) else {
            // Plan exhausted: the packet has left the router.
            self.finish(&meta, ctx.now());
            return None;
        };
        match stage {
            Stage::IngressProc { lc } => {
                let p = self.as_packet(&meta);
                Some(self.chassis.linecards[lc as usize].ingress_delay(&p))
            }
            Stage::HelperProc { lc } | Stage::InterProc { lc } => {
                // Ground truth check: the plan may rest on a stale view
                // (gossip window) — a helper that just died can't help.
                // An LC_inter (Case 3) additionally frames with its
                // PDLU, which therefore must be alive.
                let c = self.chassis.linecards[lc as usize].health.components();
                let pdlu_needed = matches!(stage, Stage::InterProc { .. });
                if !c.pi_units_healthy()
                    || c.bus_controller == Health::Failed
                    || (pdlu_needed && c.pdlu == Health::Failed)
                {
                    self.drop(&meta, DropCause::NoCoverage);
                    return None;
                }
                let p = self.as_packet(&meta);
                Some(self.chassis.linecards[lc as usize].ingress_delay(&p))
            }
            Stage::RemoteLookup { helper: _ } => {
                // REQ_L + REP_L: two control packets.
                self.control_attempt(meta, stages, idx, 2, 0, ctx);
                None
            }
            Stage::EibHop { to: _, flow } => {
                if !self.eib_healthy {
                    self.drop(&meta, DropCause::NoCoverage);
                    return None;
                }
                // First use of a flow pays the LP setup handshake.
                let account = &mut self.flows[flow_index(flow)];
                if !account.lp_established {
                    account.lp_established = true;
                    self.control_attempt(meta, stages, idx, 2, 0, ctx);
                    return None;
                }
                self.eib_transfer(meta, stages, idx, ctx)
            }
            Stage::Fabric { src, dst } => {
                let p = self.as_packet(&meta);
                if self.chassis.enqueue(&p, src, dst, meta.ingress, ctx) {
                    self.in_fabric.insert(meta.id, (meta, stages, idx + 1));
                }
                None
            }
            Stage::EgressProc { lc } => {
                // Ground truth checks against stale plans: a fabric →
                // egress step requires the egress SRU+PDLU; an EIB →
                // egress step bypasses them; the PIU is always needed.
                let c = self.chassis.linecards[lc as usize].health.components();
                let via_fabric = idx > 0 && matches!(stages[idx - 1], Stage::Fabric { .. });
                let units_ok = if via_fabric {
                    c.sru == Health::Healthy && c.pdlu == Health::Healthy
                } else {
                    true
                };
                if c.piu == Health::Failed || !units_ok {
                    self.drop(&meta, DropCause::EgressDown);
                    return None;
                }
                Some(self.chassis.linecards[lc as usize].egress_delay(meta.ip_bytes))
            }
        }
    }

    fn as_packet(&self, meta: &FlowMeta) -> Packet {
        Packet::new(
            meta.id,
            BdrConfig::dst_base_of(meta.ingress as usize),
            Ipv4Addr(0),
            meta.ip_bytes,
            self.chassis.linecards[meta.ingress as usize].protocol,
            meta.arrived_at,
        )
    }

    /// EIB data-line transfer at the flow's promised rate. Returns the
    /// delay until the next stage, or `None` when the packet is shed.
    fn eib_transfer(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        idx: usize,
        ctx: &mut Ctx<'_, DraEvent>,
    ) -> Option<f64> {
        let Stage::EibHop { flow, .. } = stages[idx] else {
            unreachable!("eib_transfer on a non-EIB stage");
        };
        let account = &mut self.flows[flow_index(flow)];
        let rate = if account.b_prom > 0.0 {
            account.b_prom
        } else {
            // Health changed underneath us (e.g. repaired): fall back
            // to the full data-line rate.
            self.eib.data_rate_bps
        };
        let now = ctx.now();
        let start = account.busy_until.max(now);
        let done = start + meta.ip_bytes as f64 * 8.0 / rate;
        if done - now > self.eib.max_backlog_s {
            // Promised bandwidth exceeded: shed the packet (§4).
            self.drop(&meta, DropCause::EibOversubscribed);
            return None;
        }
        account.busy_until = done;
        self.chassis.metrics.eib_packets += 1;
        self.chassis.metrics.eib_bytes += meta.ip_bytes as u64;
        if dra_telemetry::enabled() {
            use dra_telemetry as tm;
            tm::counter_add(tm::ids::EIB_DETOURS, 1);
            tm::event(
                tm::EventKind::EibDetour,
                meta.id.0,
                flow as u32,
                meta.ip_bytes,
            );
            tm::mark_eib_hop(meta.id.0, start, done - start);
        }
        Some(done - now)
    }

    /// Try to put a control packet on the CSMA/CD lines.
    fn control_attempt(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        idx: usize,
        remaining: u8,
        attempt: u32,
        ctx: &mut Ctx<'_, DraEvent>,
    ) {
        if !self.eib_healthy {
            self.drop(&meta, DropCause::NoCoverage);
            return;
        }
        if attempt >= self.eib.max_control_attempts {
            self.drop(&meta, DropCause::EibOversubscribed);
            return;
        }
        match self.control.attempt(ctx.now()) {
            TxResult::Started { tx, done_at } => {
                self.chassis.metrics.eib_control_packets += 1;
                dra_telemetry::counter_add(dra_telemetry::ids::EIB_CONTROL_ATTEMPTS, 1);
                ctx.schedule(
                    done_at - ctx.now(),
                    DraEvent::ControlDone {
                        meta,
                        stages,
                        idx,
                        remaining: remaining - 1,
                        attempt,
                        tx,
                    },
                );
            }
            TxResult::Deferred { until } => {
                let wait = (until - ctx.now()).max(1e-9);
                ctx.schedule(
                    wait,
                    DraEvent::ControlRetry {
                        meta,
                        stages,
                        idx,
                        remaining,
                        attempt,
                    },
                );
            }
            TxResult::Collided { jam_until } => {
                self.chassis.metrics.eib_collisions += 1;
                dra_telemetry::counter_add(dra_telemetry::ids::EIB_COLLISIONS, 1);
                let backoff = self.control.backoff_delay(ctx.rng(), attempt + 1);
                let wait = (jam_until - ctx.now()).max(0.0) + backoff + 1e-9;
                ctx.schedule(
                    wait,
                    DraEvent::ControlRetry {
                        meta,
                        stages,
                        idx,
                        remaining,
                        attempt: attempt + 1,
                    },
                );
            }
        }
    }

    // The argument list mirrors the `ControlDone` event's fields.
    #[allow(clippy::too_many_arguments)]
    fn handle_control_done(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        idx: usize,
        remaining: u8,
        attempt: u32,
        tx: u64,
        ctx: &mut Ctx<'_, DraEvent>,
    ) {
        if !self.control.complete(tx) {
            // Our transmission got garbled by a collision: back off.
            let backoff = self.control.backoff_delay(ctx.rng(), attempt + 1);
            ctx.schedule(
                backoff + 1e-9,
                DraEvent::ControlRetry {
                    meta,
                    stages,
                    idx,
                    remaining: remaining + 1,
                    attempt: attempt + 1,
                },
            );
            return;
        }
        if remaining > 0 {
            // Next control packet of the transaction (e.g. the reply),
            // after the responder's turnaround (one lookup delay).
            let turnaround = dra_router::linecard::LFE_LOOKUP_DELAY_S;
            ctx.schedule(
                turnaround,
                DraEvent::ControlRetry {
                    meta,
                    stages,
                    idx,
                    remaining,
                    attempt: 0,
                },
            );
            return;
        }
        // Transaction complete: resume the stage it was serving.
        let next = match stages[idx] {
            Stage::RemoteLookup { .. } => Some(0.0),
            // LP handshake done; now the data transfer itself.
            Stage::EibHop { .. } => self.eib_transfer(meta, stages, idx, ctx),
            _ => unreachable!("control transaction on unexpected stage"),
        };
        if let Some(delay) = next {
            self.start_stage(meta, stages, idx + 1, delay, ctx);
        }
    }

    fn handle_fabric_slot(&mut self, ctx: &mut Ctx<'_, DraEvent>) {
        let in_fabric = &mut self.in_fabric;
        self.chassis.fabric_slot(ctx, |_, ctx, _, packet, _| {
            if let Some((meta, stages, idx)) = in_fabric.remove(&packet) {
                ctx.schedule(0.0, DraEvent::StageStart { meta, stages, idx });
            }
        });
    }
}

impl Model for DraRouter {
    type Event = DraEvent;

    fn handle(&mut self, event: DraEvent, ctx: &mut Ctx<'_, DraEvent>) {
        match event {
            DraEvent::Chassis(ChassisEvent::Start) => {
                self.recompute_bandwidth();
                self.chassis.start(ctx);
            }
            DraEvent::Chassis(ChassisEvent::Arrival { lc }) => self.handle_arrival(lc, ctx),
            DraEvent::Chassis(ChassisEvent::FabricSlot) => self.handle_fabric_slot(ctx),
            DraEvent::Chassis(ChassisEvent::PurgeReassembly) => {
                let in_fabric = &mut self.in_fabric;
                self.chassis.purge(ctx, |packet| {
                    in_fabric.remove(&packet).map(|(meta, _, _)| meta.ingress)
                });
            }
            DraEvent::StageStart { meta, stages, idx } => {
                if let Some(delay) = self.run_stage(meta, stages, idx, ctx) {
                    self.start_stage(meta, stages, idx + 1, delay, ctx);
                }
            }
            DraEvent::ControlRetry {
                meta,
                stages,
                idx,
                remaining,
                attempt,
            } => self.control_attempt(meta, stages, idx, remaining, attempt, ctx),
            DraEvent::ControlDone {
                meta,
                stages,
                idx,
                remaining,
                attempt,
                tx,
            } => self.handle_control_done(meta, stages, idx, remaining, attempt, tx, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_keys_index_one_account_each() {
        // Ingress key `lc` and egress key `lc | EGRESS_FLOW_OFFSET`
        // fill `0..2n` without sharing an account.
        let n = 16u16;
        let mut indices: Vec<usize> = (0..n)
            .flat_map(|lc| [flow_index(lc), flow_index(lc | EGRESS_FLOW_OFFSET)])
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..2 * n as usize).collect::<Vec<_>>());
    }

    fn config(n: usize, load: f64) -> DraConfig {
        DraConfig {
            router: BdrConfig {
                n_lcs: n,
                load,
                ..BdrConfig::default()
            },
            eib: EibConfig::default(),
        }
    }

    #[test]
    fn healthy_dra_behaves_like_bdr() {
        let mut sim = DraRouter::simulation(config(4, 0.3), 42);
        sim.run_until(3e-3);
        let m = &sim.model().metrics;
        assert!(m.total_offered_bytes() > 0);
        assert!(
            m.byte_delivery_ratio() > 0.98,
            "{}",
            m.byte_delivery_ratio()
        );
        assert_eq!(m.eib_packets, 0, "EIB must be idle with no failures");
        assert_eq!(m.eib_control_packets, 0);
    }

    #[test]
    fn lfe_failure_is_covered_by_remote_lookup() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 7);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        let delivered_before = sim.model().metrics.lcs[0].delivered_packets;
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        assert!(
            m.lcs[0].delivered_packets > delivered_before,
            "LC0 must keep delivering via remote lookups"
        );
        assert!(m.lcs[0].covered_packets > 0);
        assert!(
            m.eib_control_packets > 0,
            "REQ_L/REP_L must ride the control lines"
        );
        assert_eq!(
            m.lcs[0].drops(DropCause::IngressDown),
            0,
            "DRA must not drop what BDR would"
        );
    }

    #[test]
    fn sru_failure_is_covered_over_data_lines() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 8);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Sru, now);
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        assert!(m.lcs[0].covered_packets > 0, "coverage must kick in");
        assert!(m.eib_packets > 0, "packets must cross the EIB data lines");
        assert!(m.eib_bytes > 0);
    }

    #[test]
    fn pdlu_failure_requires_same_protocol_peer() {
        use dra_net::protocol::ProtocolKind;
        // LC0/LC2 Ethernet, LC1/LC3 ATM: a PDLU failure at 0 is covered
        // by 2.
        let mut cfg = config(4, 0.2);
        cfg.router.protocols = vec![
            ProtocolKind::Ethernet,
            ProtocolKind::Atm,
            ProtocolKind::Ethernet,
            ProtocolKind::Atm,
        ];
        let mut sim = DraRouter::simulation(cfg, 9);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Pdlu, now);
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        assert!(m.lcs[0].covered_packets > 0, "Ethernet peer must cover");

        // Now break the only same-protocol peer's SRU (its PIU would
        // not matter — it is not on the coverage path): drops appear.
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        sim.run_until(8e-3);
        let m = &sim.model().metrics;
        assert!(
            m.lcs[0].drops(DropCause::NoCoverage) > 0,
            "no same-protocol helper left"
        );
    }

    #[test]
    fn egress_sru_failure_bypassed_via_eib() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 10);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        // Packets already planned onto LC2's fabric→egress path at the
        // failure instant may still be lost to the ground-truth check;
        // let them drain before demanding steady-state coverage.
        sim.run_until(1.5e-3);
        let in_flight_losses: u64 = (0..4)
            .map(|i| sim.model().metrics.lcs[i].drops(DropCause::EgressDown))
            .sum();
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        // Peers keep delivering *to* LC2 over the EIB.
        assert!(m.eib_packets > 0);
        let egress_drops: u64 = (0..4).map(|i| m.lcs[i].drops(DropCause::EgressDown)).sum();
        assert_eq!(
            egress_drops, in_flight_losses,
            "DRA must cover the failed egress SRU once in-flight traffic drains"
        );
    }

    #[test]
    fn dead_eib_reduces_dra_to_bdr() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 11);
        sim.run_until(0.5e-3);
        let now = sim.now();
        sim.model_mut().fail_eib_now(now);
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        assert!(
            m.lcs[0].drops(DropCause::IngressDown) > 0,
            "no EIB, no coverage"
        );
        assert_eq!(m.lcs[0].covered_packets, 0);
    }

    #[test]
    fn piu_failure_is_not_coverable() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 12);
        sim.run_until(0.5e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Piu, now);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        assert!(m.lcs[0].drops(DropCause::IngressDown) > 0);
        assert_eq!(m.lcs[0].covered_packets, 0);
    }

    #[test]
    fn multi_port_piu_failure_degrades_proportionally() {
        // Four ports; one PIU dies: ~25% of LC0's ingress traffic is
        // lost, and nothing can cover it — but the rest still flows.
        let mut cfg = config(4, 0.2);
        cfg.router.ports_per_lc = 4;
        let mut sim = DraRouter::simulation(cfg, 55);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Piu, now);
        let offered_at_fail = sim.model().metrics.lcs[0].offered_packets;
        let drops_at_fail = sim.model().metrics.lcs[0].drops(DropCause::IngressDown);
        sim.run_until(6e-3);
        let m = &sim.model().metrics;
        let offered = m.lcs[0].offered_packets - offered_at_fail;
        let dropped = m.lcs[0].drops(DropCause::IngressDown) - drops_at_fail;
        let frac = dropped as f64 / offered as f64;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "one of four ports down should cost ~25%, got {frac}"
        );
        assert_eq!(m.lcs[0].covered_packets, 0, "PIU loss is uncoverable");
        // The card is still serviceable overall (3 ports live).
        assert!(sim.model().lc_serviceable(0));
        // Repair restores all ports.
        let now = sim.now();
        sim.model_mut().repair_lc_now(0, now);
        assert_eq!(
            sim.model().linecards[0].health,
            dra_router::components::CardHealth::healthy(4)
        );
    }

    #[test]
    fn serviceability_signal_tracks_coverage() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 13);
        sim.run_until(0.5e-3);
        assert!(sim.model().lc_serviceable(0));
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Sru, now);
        assert!(
            sim.model().lc_serviceable(0),
            "covered LC still serviceable"
        );
        let now = sim.now();
        sim.model_mut().fail_eib_now(now);
        assert!(!sim.model().lc_serviceable(0), "no EIB, not serviceable");
        sim.model_mut().repair_eib_now(now);
        sim.model_mut().repair_lc_now(0, now);
        assert!(sim.model().lc_serviceable(0));
    }

    #[test]
    fn repair_restores_normal_path_and_releases_lp() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 14);
        sim.run_until(0.5e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Sru, now);
        sim.run_until(2e-3);
        let eib_before = sim.model().metrics.eib_packets;
        assert!(eib_before > 0);
        let now = sim.now();
        sim.model_mut().repair_lc_now(0, now);
        sim.run_until(4e-3);
        // After repair traffic goes back to the fabric; EIB growth stops.
        let eib_after = sim.model().metrics.eib_packets;
        let grown = eib_after - eib_before;
        // A handful already in flight may still land.
        assert!(
            grown < 10,
            "EIB still carrying traffic after repair: {grown}"
        );
    }

    #[test]
    fn latency_accounting_splits_by_path() {
        let mut sim = DraRouter::simulation(config(4, 0.15), 70);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        sim.run_until(4e-3);
        let model = sim.model();
        let normal = model.latency_by_path(PathKind::Normal);
        let lookup = model.latency_by_path(PathKind::RemoteLookup);
        assert!(normal.count() > 0 && lookup.count() > 0);
        assert!(
            lookup.mean() > normal.mean(),
            "remote lookups must cost latency: {} vs {}",
            lookup.mean(),
            normal.mean()
        );
        // No EIB data path was exercised in this scenario.
        assert_eq!(model.latency_by_path(PathKind::IngressEib).count(), 0);
        // Per-path deliveries sum to total deliveries.
        let by_path: u64 = PathKind::ALL
            .iter()
            .map(|&p| model.latency_by_path(p).count())
            .sum();
        let total: u64 = model.metrics.lcs.iter().map(|l| l.delivered_packets).sum();
        assert_eq!(by_path, total);
    }

    #[test]
    fn gossip_window_drops_then_recovers() {
        // With a 1 ms dissemination delay, peers keep using the normal
        // path toward a card whose SRU just died — those packets are
        // lost at the egress ground-truth check — until the fault table
        // converges and coverage takes over.
        let mut cfg = config(4, 0.2);
        cfg.eib.gossip_delay_s = 1e-3;
        let mut sim = DraRouter::simulation(cfg, 77);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        sim.run_until(5e-3);
        let m = &sim.model().metrics;
        let window_drops: u64 = (0..4).map(|i| m.lcs[i].drops(DropCause::EgressDown)).sum();
        assert!(
            window_drops > 0,
            "stale views must cost packets during the gossip window"
        );
        assert!(m.eib_packets > 0, "after convergence, coverage must engage");

        // The same scenario with oracle gossip loses nothing.
        let mut cfg0 = config(4, 0.2);
        cfg0.eib.gossip_delay_s = 0.0;
        let mut sim0 = DraRouter::simulation(cfg0, 77);
        sim0.run_until(1e-3);
        let now = sim0.now();
        sim0.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        sim0.run_until(5e-3);
        let m0 = &sim0.model().metrics;
        let drops0: u64 = (0..4).map(|i| m0.lcs[i].drops(DropCause::EgressDown)).sum();
        assert_eq!(drops0, 0, "oracle gossip must not lose packets");
        assert!(
            m0.byte_delivery_ratio() > m.byte_delivery_ratio(),
            "the gossip window must cost measurable goodput"
        );
    }

    #[test]
    fn route_churn_in_service() {
        use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
        use dra_net::fib::Fib;
        let mut sim = DraRouter::simulation(config(4, 0.2), 81);
        sim.run_until(0.5e-3);
        // Announce a more-specific override steering 10.1.128.0/17 to
        // LC3 instead of LC1; traffic keeps flowing.
        let p = Ipv4Prefix::new(Ipv4Addr::from_octets(10, 1, 128, 0), 17);
        let inside = Ipv4Addr::from_octets(10, 1, 200, 1);
        sim.model_mut().announce_route(p, 3);
        assert_eq!(sim.model().fib.len(), 5);
        assert_eq!(sim.model().fib.lookup(inside), Some(3));
        sim.run_until(1.5e-3);
        sim.model_mut().withdraw_route(p);
        assert_eq!(sim.model().fib.len(), 4);
        assert_eq!(sim.model().fib.lookup(inside), Some(1));
        sim.run_until(2.5e-3);
        let m = &sim.model().metrics;
        assert!(m.byte_delivery_ratio() > 0.98);
        assert_eq!(m.total_drops(DropCause::NoRoute), 0);
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut sim = DraRouter::simulation(config(4, 0.25), seed);
            sim.run_until(1.5e-3);
            (
                sim.model().metrics.total_offered_bytes(),
                sim.model().metrics.total_delivered_bytes(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).0, run(22).0);
    }

    #[test]
    fn dra_delivers_more_than_bdr_under_identical_failure() {
        use dra_router::bdr::BdrRouter;
        let seed = 99;
        let horizon = 4e-3;
        let fail_at = 1e-3;

        let mut dra = DraRouter::simulation(config(4, 0.2), seed);
        dra.run_until(fail_at);
        let now = dra.now();
        dra.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        dra.run_until(horizon);
        let d = &dra.model().metrics;

        let mut bdr = BdrRouter::simulation(
            BdrConfig {
                n_lcs: 4,
                load: 0.2,
                ..BdrConfig::default()
            },
            seed,
        );
        bdr.run_until(fail_at);
        let now = bdr.now();
        bdr.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        bdr.run_until(horizon);
        let b = &bdr.model().metrics;

        assert!(
            d.lcs[0].delivered_packets > b.lcs[0].delivered_packets,
            "DRA {} must beat BDR {} on the failed card",
            d.lcs[0].delivered_packets,
            b.lcs[0].delivered_packets
        );
        assert!(d.byte_delivery_ratio() > b.byte_delivery_ratio());
    }
}
