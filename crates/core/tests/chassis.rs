//! The shared router chassis under both architectures: each datapath
//! property is one test body, run on BDR and on DRA.

use dra_core::scenario::ScriptedRouter;
use dra_core::sim::{DraConfig, DraRouter};
use dra_des::Simulation;
use dra_net::packet::PacketId;
use dra_net::sar::Cell;
use dra_router::bdr::{BdrConfig, BdrRouter};
use dra_router::chassis::ChassisEvent;
use dra_router::metrics::DropCause;

fn config(load: f64) -> BdrConfig {
    BdrConfig {
        n_lcs: 4,
        load,
        ..BdrConfig::default()
    }
}

fn dra(router: BdrConfig) -> DraConfig {
    DraConfig {
        router,
        ..Default::default()
    }
}

/// 3-of-4 planes (capacity 0.75): a busy period that drains
/// mid-credit-cycle must not bank the fractional remainder — the next
/// busy period after an idle gap has to re-earn a full credit before
/// its first transfer, or degraded fabrics would open every busy
/// period with an above-capacity burst.
fn credit_does_not_bank<R: ScriptedRouter>(router: R)
where
    R::Event: From<ChassisEvent>,
{
    let cell = |id: u64| Cell {
        src_lc: 0,
        dst_lc: 1,
        packet: PacketId(id),
        seq: 0,
        total: 1,
        payload_bytes: 48,
    };
    // No Start event: the only activity is the slots we inject.
    let mut sim = Simulation::new(router, 5);
    sim.model_mut().fabric.fail_plane(); // spare absorbs it
    sim.model_mut().fabric.fail_plane(); // 3 of 4 required
    assert_eq!(sim.model().fabric.capacity_fraction(), 0.75);

    // Busy period 1: two cells. Credit walks 0.75 (no serve), 1.5
    // (serve), 1.25 (serve, drain) — ending with 0.25 earned but
    // unspent as the slot train stops.
    sim.model_mut().fabric.enqueue(cell(1)).unwrap();
    sim.model_mut().fabric.enqueue(cell(2)).unwrap();
    sim.schedule(0.0, ChassisEvent::FabricSlot.into());
    sim.run_until(0.5e-3);
    assert!(sim.model().fabric.is_empty(), "period 1 should drain");

    // Idle gap, then busy period 2. The first slot after the gap must
    // NOT transfer: 0.75 credit is below a full slot. Banked credit
    // (0.25 + 0.75 = 1.0) would serve immediately.
    sim.model_mut().fabric.enqueue(cell(3)).unwrap();
    sim.model_mut().fabric.enqueue(cell(4)).unwrap();
    sim.schedule(0.5e-3, ChassisEvent::FabricSlot.into());
    sim.step().expect("injected slot should fire");
    assert_eq!(
        sim.model().fabric.queued_cells(),
        2,
        "first post-idle slot served on banked credit"
    );
    // The period still drains at the degraded rate.
    let horizon = sim.now() + 0.5e-3;
    sim.run_until(horizon);
    assert!(sim.model().fabric.is_empty(), "period 2 should drain");
}

#[test]
fn degraded_fabric_credit_does_not_bank_across_idle_gaps() {
    credit_does_not_bank(BdrRouter::new(config(0.3), 5));
    credit_does_not_bank(DraRouter::new(dra(config(0.3)), 5));
}

/// Kill the fabric under live traffic while a packet is half switched:
/// its partial strands in the egress reassembler, and the purge must
/// charge it as a reassembly-timeout drop against its ingress card.
fn stranded_partials_time_out<R: ScriptedRouter>(mut sim: Simulation<R>, label: &str) {
    let partials = |sim: &Simulation<R>| -> usize {
        let lcs = &sim.model().linecards;
        lcs.iter().map(|lc| lc.reassembler.in_flight()).sum()
    };
    sim.run_until(0.5e-3);
    while partials(&sim) == 0 {
        sim.step().expect("traffic keeps the calendar busy");
    }
    assert_eq!(
        sim.model()
            .metrics
            .total_drops(DropCause::ReassemblyTimeout),
        0
    );
    while sim.model().fabric.operational() {
        sim.model_mut().fabric.fail_plane();
    }
    let horizon = sim.now() + 3.0 * sim.model().config.reassembly_timeout_s;
    sim.run_until(horizon);
    let m = &sim.model().metrics;
    assert!(
        m.total_drops(DropCause::ReassemblyTimeout) > 0,
        "{label}: no stranded partial timed out"
    );
    assert!(
        m.total_drops(DropCause::FabricDown) > 0,
        "{label}: fabric never died"
    );
}

#[test]
fn reassembly_purge_charges_stranded_partials() {
    let cfg = BdrConfig {
        reassembly_timeout_s: 0.2e-3,
        ..config(0.6)
    };
    stranded_partials_time_out(BdrRouter::simulation(cfg.clone(), 17), "bdr");
    stranded_partials_time_out(DraRouter::simulation(dra(cfg), 17), "dra");
}
