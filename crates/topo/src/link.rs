//! The inter-router link model: fixed propagation latency, a fluid
//! FIFO serialization queue per direction, and an up/down state.
//!
//! A directed link is busy until `busy_until`; a packet arriving at
//! `t` starts serializing at `max(t, busy_until)` and finishes
//! `bytes·8 / bandwidth` later. If that would queue the packet more
//! than `max_backlog_s` behind real time the link is congested and the
//! packet is dropped — a fluid stand-in for a finite egress buffer
//! that keeps per-link state to three scalars.
//!
//! Propagation latency lives **per directed link** (seeded uniformly
//! from [`LinkConfig::latency_s`], overridable via
//! [`NetworkSim::set_link_latency`](crate::net::NetworkSim::set_link_latency)),
//! so heterogeneous topologies — a slow WAN edge on a fast mesh — are
//! expressible.

/// Link parameters (uniform across a topology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay, seconds (the uniform default; see
    /// the module docs for per-link overrides).
    pub latency_s: f64,
    /// Serialization rate, bits per second.
    pub bandwidth_bps: f64,
    /// Maximum tolerated serialization backlog before tail drop,
    /// seconds of queued transmission time.
    pub max_backlog_s: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency_s: 10e-6,
            bandwidth_bps: 10e9,
            max_backlog_s: 500e-6,
        }
    }
}

/// Mutable state of one *directed* link.
#[derive(Debug, Clone, Copy)]
pub struct LinkState {
    /// Serialization queue drains at this absolute time.
    pub busy_until: f64,
    /// This direction's propagation latency, seconds.
    pub latency_s: f64,
    /// Both directions of a cable fail together; each carries a copy.
    pub up: bool,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState::new(LinkConfig::default().latency_s)
    }
}

/// Outcome of offering a packet to a directed link at time `now`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkOffer {
    /// Accepted; arrives at the far end after `delay_s`.
    Sent {
        /// Queueing + serialization + propagation, from `now`.
        delay_s: f64,
    },
    /// The link is administratively/physically down.
    Down,
    /// The serialization backlog exceeded `max_backlog_s`.
    Congested,
}

impl LinkState {
    /// An idle, up link with the given propagation latency.
    pub fn new(latency_s: f64) -> Self {
        assert!(
            latency_s.is_finite() && latency_s > 0.0,
            "link latency must be positive and finite, got {latency_s}"
        );
        LinkState {
            busy_until: 0.0,
            latency_s,
            up: true,
        }
    }

    /// Set the up/down state. A down → up transition clears
    /// `busy_until`: the serialization queue that was pending when the
    /// cable was cut died with the cut, so a repaired link starts with
    /// an idle wire rather than delaying (or tail-dropping) its first
    /// packets against a stale pre-cut backlog.
    pub fn set_up(&mut self, up: bool) {
        if up && !self.up {
            self.busy_until = 0.0;
        }
        self.up = up;
    }

    /// Offer `bytes` to this direction at `now` under `cfg`.
    pub fn offer(&mut self, cfg: &LinkConfig, now: f64, bytes: u32) -> LinkOffer {
        if !self.up {
            return LinkOffer::Down;
        }
        let start = self.busy_until.max(now);
        let finish = start + bytes as f64 * 8.0 / cfg.bandwidth_bps;
        if finish - now > cfg.max_backlog_s {
            return LinkOffer::Congested;
        }
        self.busy_until = finish;
        LinkOffer::Sent {
            delay_s: finish - now + self.latency_s,
        }
    }
}

/// Every directed link of a network in one flat slab, indexed by
/// `(node, port)` through a per-node offset table — one contiguous
/// allocation instead of N inner `Vec`s.
#[derive(Debug, Clone)]
pub struct LinkArena {
    states: Vec<LinkState>,
    /// `offsets[n]..offsets[n+1]` is node `n`'s port range.
    offsets: Vec<u32>,
}

impl LinkArena {
    /// Build from per-node degrees, all links idle and up at
    /// `latency_s`.
    pub fn from_degrees(degrees: impl Iterator<Item = usize>, latency_s: f64) -> LinkArena {
        let mut offsets = vec![0u32];
        let mut total = 0u32;
        for d in degrees {
            total += d as u32;
            offsets.push(total);
        }
        LinkArena {
            states: vec![LinkState::new(latency_s); total as usize],
            offsets,
        }
    }

    /// Directed link out of `node` via `port`.
    #[inline]
    pub fn at(&self, node: u32, port: u16) -> &LinkState {
        &self.states[self.offsets[node as usize] as usize + port as usize]
    }

    /// Mutable access to the directed link out of `node` via `port`.
    #[inline]
    pub fn at_mut(&mut self, node: u32, port: u16) -> &mut LinkState {
        &mut self.states[self.offsets[node as usize] as usize + port as usize]
    }

    /// Total directed links.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no links exist.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_backlog_and_congestion() {
        let cfg = LinkConfig {
            latency_s: 1e-6,
            bandwidth_bps: 8e9, // 1 ns per byte
            max_backlog_s: 2e-6,
        };
        let mut l = LinkState::new(cfg.latency_s);
        // 1000 B = 1 µs of wire time.
        assert_eq!(l.offer(&cfg, 0.0, 1000), LinkOffer::Sent { delay_s: 2e-6 });
        // Second packet queues behind the first: 2 µs backlog, at limit.
        assert_eq!(l.offer(&cfg, 0.0, 1000), LinkOffer::Sent { delay_s: 3e-6 });
        // Third exceeds the backlog bound.
        assert_eq!(l.offer(&cfg, 0.0, 1000), LinkOffer::Congested);
        // After the queue drains, service resumes.
        assert!(matches!(l.offer(&cfg, 10e-6, 1000), LinkOffer::Sent { .. }));
        l.up = false;
        assert_eq!(l.offer(&cfg, 20e-6, 1000), LinkOffer::Down);
    }

    #[test]
    fn per_link_latency_overrides_config() {
        let cfg = LinkConfig {
            latency_s: 1e-6,
            bandwidth_bps: 8e9,
            max_backlog_s: 2e-6,
        };
        // The state's own latency, not the config's, prices the hop.
        let mut slow = LinkState::new(50e-6);
        assert_eq!(
            slow.offer(&cfg, 0.0, 1000),
            LinkOffer::Sent { delay_s: 51e-6 }
        );
    }

    #[test]
    fn repair_clears_precut_backlog() {
        let cfg = LinkConfig {
            latency_s: 1e-6,
            bandwidth_bps: 8e9, // 1 ns per byte
            max_backlog_s: 2e-6,
        };
        let mut l = LinkState::new(cfg.latency_s);
        // Two 1000 B packets at t = 0 queue 2 µs of backlog
        // (busy_until = 2 µs), then the cable is cut while busy.
        assert!(matches!(l.offer(&cfg, 0.0, 1000), LinkOffer::Sent { .. }));
        assert!(matches!(l.offer(&cfg, 0.0, 1000), LinkOffer::Sent { .. }));
        assert_eq!(l.busy_until, 2e-6);
        l.set_up(false);
        assert_eq!(l.offer(&cfg, 0.5e-6, 1000), LinkOffer::Down);
        // Repair at t = 1 µs, still before the pre-cut queue would
        // have drained. The first post-repair packet must see an idle
        // wire: serialization (1 µs) + propagation (1 µs) only, not
        // the stale 1 µs of dead backlog on top.
        l.set_up(true);
        assert_eq!(l.busy_until, 0.0, "repair must clear the dead queue");
        assert_eq!(l.offer(&cfg, 1e-6, 1000), LinkOffer::Sent { delay_s: 2e-6 });
        // Down → down and up → up transitions leave the queue alone.
        let drained = l.busy_until;
        l.set_up(true);
        assert_eq!(l.busy_until, drained);
        l.set_up(false);
        l.set_up(false);
        assert_eq!(l.busy_until, drained);
    }

    #[test]
    fn arena_indexes_by_node_and_port() {
        let mut arena = LinkArena::from_degrees([2usize, 3, 1].into_iter(), 10e-6);
        assert_eq!(arena.len(), 6);
        arena.at_mut(1, 2).set_up(false);
        arena.at_mut(2, 0).latency_s = 99e-6;
        assert!(!arena.at(1, 2).up);
        assert!(arena.at(0, 0).up && arena.at(1, 1).up);
        assert_eq!(arena.at(2, 0).latency_s, 99e-6);
        assert_eq!(arena.at(1, 1).latency_s, 10e-6);
    }
}
