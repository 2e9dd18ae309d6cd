//! The serial reference model: one network as one [`dra_des`] model on
//! one clock, breaking exact time ties by scheduling sequence. Test
//! code only — it is the oracle the router-group engine
//! ([`crate::pdes`]) is pinned against, not a way to run a network.

use crate::link::LinkOffer;
use crate::net::{hop, CompiledNetAction, HopOutcome, NetPacket, NetworkSim};
use crate::stats::{NetDropCause, NetStats};
use dra_des::random::exponential;
use dra_des::sim::{Ctx, Model, Simulation};

/// Event alphabet of the serial model.
#[derive(Debug, Clone)]
enum NetEvent {
    /// Kick off flows and the fault timeline.
    Start,
    /// Next arrival of one flow.
    FlowNext { flow: u32 },
    /// A packet begins transit at `node`, having arrived on `in_port`.
    Transit {
        pkt: NetPacket,
        node: u32,
        in_port: u16,
    },
    /// A packet cleared `node`'s transit and enters the link at
    /// `out_port`.
    Forward {
        pkt: NetPacket,
        node: u32,
        out_port: u16,
    },
    /// A packet reaches its destination's host port.
    Deliver { pkt: NetPacket },
    /// Apply scripted network action `idx`.
    Act { idx: u32 },
}

/// A network under the serial model.
struct Serial {
    net: NetworkSim,
    next_pkt_id: u64,
}

/// Run `net` to `horizon` on the serial DES kernel and return its
/// statistics (the ledger counts `in_flight` by inject/terminate).
pub(crate) fn run_serial(mut net: NetworkSim, seed: u64, horizon: f64) -> NetStats {
    net.stats = NetStats::new(net.flows.len());
    let mut sim = Simulation::new(
        Serial {
            net,
            next_pkt_id: 0,
        },
        seed,
    );
    sim.schedule(0.0, NetEvent::Start);
    sim.run_until(horizon);
    sim.into_model().net.stats
}

impl Serial {
    fn transit(
        &mut self,
        mut pkt: NetPacket,
        node: u32,
        in_port: u16,
        ctx: &mut Ctx<'_, NetEvent>,
    ) {
        let net = &mut self.net;
        let outcome = hop(
            node,
            &mut net.nodes[node as usize],
            &net.forwarding.fibs()[node as usize],
            &mut net.covered_busy[node as usize],
            &net.cfg,
            ctx.now(),
            &mut pkt,
            in_port,
        );
        match outcome {
            HopOutcome::Drop(cause) => net.stats.drop_packet(cause),
            HopOutcome::Deliver { delay_s } => ctx.schedule(delay_s, NetEvent::Deliver { pkt }),
            HopOutcome::Forward { delay_s, out_port } => ctx.schedule(
                delay_s,
                NetEvent::Forward {
                    pkt,
                    node,
                    out_port,
                },
            ),
        }
    }
}

impl Model for Serial {
    type Event = NetEvent;

    fn handle(&mut self, event: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
        match event {
            NetEvent::Start => {
                for (idx, &(at, _)) in self.net.scenario.iter().enumerate() {
                    ctx.schedule(at, NetEvent::Act { idx: idx as u32 });
                }
                for flow in 0..self.net.flows.len() as u32 {
                    let dt = exponential(ctx.rng(), self.net.flows[flow as usize].rate_pps);
                    ctx.schedule(dt, NetEvent::FlowNext { flow });
                }
            }
            NetEvent::FlowNext { flow } => {
                if ctx.now() >= self.net.cfg.traffic_stop_s {
                    return; // injection window closed; don't reschedule
                }
                let f = self.net.flows[flow as usize];
                let dt = exponential(ctx.rng(), f.rate_pps);
                ctx.schedule(dt, NetEvent::FlowNext { flow });
                let pkt = NetPacket {
                    id: self.next_pkt_id,
                    injected_at: ctx.now(),
                    flow,
                    dst: f.dst as u16,
                    ttl: self.net.forwarding.hop_budget(),
                    hops: 0,
                };
                self.next_pkt_id += 1;
                self.net.stats.inject(flow);
                let host = self.net.topo.host_port(f.src);
                self.transit(pkt, f.src, host, ctx);
            }
            NetEvent::Transit { pkt, node, in_port } => self.transit(pkt, node, in_port, ctx),
            NetEvent::Forward {
                pkt,
                node,
                out_port,
            } => {
                let net = &mut self.net;
                let offer = net.links.at_mut(node, out_port).offer(
                    &net.cfg.link,
                    ctx.now(),
                    net.cfg.packet_bytes,
                );
                match offer {
                    LinkOffer::Down => net.stats.drop_packet(NetDropCause::LinkDown),
                    LinkOffer::Congested => net.stats.drop_packet(NetDropCause::LinkCongested),
                    LinkOffer::Sent { delay_s } => {
                        let peer = net.topo.adj[node as usize][out_port as usize];
                        let in_port = net.topo.rev_port[node as usize][out_port as usize];
                        ctx.schedule(
                            delay_s,
                            NetEvent::Transit {
                                pkt,
                                node: peer,
                                in_port,
                            },
                        );
                    }
                }
            }
            NetEvent::Deliver { pkt } => {
                self.net
                    .stats
                    .deliver(pkt.flow, ctx.now() - pkt.injected_at, pkt.hops as u32);
            }
            NetEvent::Act { idx } => {
                let now = ctx.now();
                let net = &mut self.net;
                match net.compiled[idx as usize].clone() {
                    CompiledNetAction::Router { node, action } => {
                        let h = &mut net.nodes[node as usize];
                        h.advance_to(now);
                        h.apply(&action);
                    }
                    CompiledNetAction::Cable { a, pa, b, pb, up } => {
                        net.links.at_mut(a, pa).set_up(up);
                        net.links.at_mut(b, pb).set_up(up);
                    }
                }
            }
        }
    }
}
