//! The open-loop traffic source.
//!
//! The paper's performance analysis depends on one traffic parameter:
//! the mean link utilization `L` (15%–70%, citing its reference \[3\]).
//! [`PoissonGen`] produces a packet arrival process with a controllable
//! mean load so the simulator can sweep the same axis.

use crate::addr::Ipv4Addr;
use dra_des::random::{self, Discrete};
use rand::Rng;

/// The next packet to inject: wait `dt` seconds, then `packet` arrives.
///
/// `Copy`: 16 bytes of plain data, so the generator and the ingress
/// lookup trains hand arrivals around by value without cloning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Inter-arrival gap from the previous packet (seconds).
    pub dt: f64,
    /// IP bytes of the arriving packet.
    pub ip_bytes: u32,
    /// Destination address to look up.
    pub dst: Ipv4Addr,
}

/// The classic trimodal Internet packet-size mix (IMIX-like):
/// 40 B (58%), 576 B (33%), 1500 B (9%).
pub(crate) fn imix_sizes() -> Discrete<u32> {
    Discrete::new(&[(40u32, 0.58), (576, 0.33), (1500, 0.09)]).expect("static weights valid")
}

/// Mean size in bytes of the [`imix_sizes`] mix.
pub(crate) fn imix_mean_bytes() -> f64 {
    40.0 * 0.58 + 576.0 * 0.33 + 1500.0 * 0.09
}

/// Draw a uniformly random destination address covered by one of the
/// generator's target prefixes — a cheap stand-in for real flow
/// structure (only the FIB lookup result matters downstream).
fn random_dst<R: Rng + ?Sized>(rng: &mut R, space: &Discrete<Ipv4Addr>) -> Ipv4Addr {
    let base = *space.sample(rng);
    // Randomize the low byte to spread across a /24 around the base.
    Ipv4Addr((base.0 & 0xFFFF_FF00) | (rng.gen::<u8>() as u32))
}

/// Poisson arrivals with IMIX sizes at a target mean load.
#[derive(Debug)]
pub struct PoissonGen {
    /// Packet arrival rate (packets/second) derived from the load.
    rate_pps: f64,
    sizes: Discrete<u32>,
    dsts: Discrete<Ipv4Addr>,
}

impl PoissonGen {
    /// A generator offering `load_bps` toward addresses drawn around
    /// the given bases (all equally likely).
    pub fn new(load_bps: f64, dst_bases: &[Ipv4Addr]) -> Self {
        assert!(load_bps > 0.0, "load must be positive");
        assert!(!dst_bases.is_empty(), "need at least one destination");
        let sizes = imix_sizes();
        let rate_pps = load_bps / (imix_mean_bytes() * 8.0);
        let dsts = Discrete::new(&dst_bases.iter().map(|&a| (a, 1.0)).collect::<Vec<_>>())
            .expect("nonempty");
        PoissonGen {
            rate_pps,
            sizes,
            dsts,
        }
    }

    /// Draw the next arrival.
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Arrival {
        Arrival {
            dt: random::exponential(rng, self.rate_pps),
            ip_bytes: *self.sizes.sample(rng),
            dst: random_dst(rng, &self.dsts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn bases() -> Vec<Ipv4Addr> {
        vec![
            Ipv4Addr::from_octets(10, 0, 0, 0),
            Ipv4Addr::from_octets(10, 1, 0, 0),
        ]
    }

    fn measure_load(gen: &mut PoissonGen, n: usize, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bits = 0.0;
        let mut time = 0.0;
        for _ in 0..n {
            let a = gen.next_arrival(&mut rng);
            bits += a.ip_bytes as f64 * 8.0;
            time += a.dt;
        }
        bits / time
    }

    #[test]
    fn poisson_hits_target_load() {
        let target = 1.5e9; // 1.5 Gbps = 15% of a 10G port
        let mut gen = PoissonGen::new(target, &bases());
        let measured = measure_load(&mut gen, 200_000, 7);
        assert!(
            (measured / target - 1.0).abs() < 0.03,
            "measured {measured:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn imix_mean_is_consistent() {
        let mut rng = SmallRng::seed_from_u64(3);
        let sizes = imix_sizes();
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| *sizes.sample(&mut rng) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean / imix_mean_bytes() - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn destinations_spread_across_bases() {
        let mut gen = PoissonGen::new(1e9, &bases());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut in_first = 0;
        let n = 10_000;
        for _ in 0..n {
            let a = gen.next_arrival(&mut rng);
            if a.dst.octets()[1] == 0 {
                in_first += 1;
            }
        }
        let frac = in_first as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "base split {frac}");
    }
}
