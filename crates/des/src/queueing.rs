//! Closed-form queueing results used to validate the DES kernel.
//!
//! The router simulators are, structurally, networks of queues; having
//! M/M/1 and M/G/1 (Pollaczek–Khinchine) formulas in-tree lets the
//! test suite check the *kernel* against theory, independent of the
//! router models built on top.

/// Utilization ρ = λ/μ; must be in `[0, 1)` for a stable queue.
fn check(lambda: f64, mu: f64) -> f64 {
    assert!(
        lambda >= 0.0 && mu > 0.0,
        "rates must be nonnegative/positive"
    );
    let rho = lambda / mu;
    assert!(rho < 1.0, "unstable queue: rho = {rho}");
    rho
}

/// M/M/1 mean number in system: `ρ / (1 − ρ)`.
pub(crate) fn mm1_mean_in_system(lambda: f64, mu: f64) -> f64 {
    let rho = check(lambda, mu);
    rho / (1.0 - rho)
}

/// M/M/1 mean time in system (waiting + service): `1 / (μ − λ)`.
pub(crate) fn mm1_mean_sojourn(lambda: f64, mu: f64) -> f64 {
    check(lambda, mu);
    1.0 / (mu - lambda)
}

/// M/G/1 mean *waiting* time by Pollaczek–Khinchine:
/// `W = λ·E[S²] / (2(1 − ρ))`, with `E[S²]` the second moment of the
/// service time.
pub(crate) fn mg1_mean_wait(lambda: f64, mean_service: f64, second_moment_service: f64) -> f64 {
    assert!(mean_service > 0.0 && second_moment_service >= mean_service * mean_service);
    let rho = check(lambda, 1.0 / mean_service);
    lambda * second_moment_service / (2.0 * (1.0 - rho))
}

/// M/D/1 mean waiting time (deterministic service `d`):
/// `W = ρ·d / (2(1 − ρ))`.
pub(crate) fn md1_mean_wait(lambda: f64, service: f64) -> f64 {
    let rho = check(lambda, 1.0 / service);
    rho * service / (2.0 * (1.0 - rho))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;
    use crate::{Ctx, Model, Simulation};
    use std::collections::VecDeque;

    #[test]
    fn formula_sanity() {
        // rho = 0.5: L = 1, T = 2/mu.
        assert!((mm1_mean_in_system(0.5, 1.0) - 1.0).abs() < 1e-12);
        assert!((mm1_mean_sojourn(0.5, 1.0) - 2.0).abs() < 1e-12);
        // M/D/1 waits are half of M/M/1 waits at the same rho.
        let mm1_wait = mm1_mean_sojourn(0.8, 1.0) - 1.0;
        let md1_wait = md1_mean_wait(0.8, 1.0);
        assert!((md1_wait - mm1_wait / 2.0).abs() < 1e-12);
        // P-K with exponential service (E[S^2] = 2/mu^2) matches M/M/1.
        let pk = mg1_mean_wait(0.8, 1.0, 2.0);
        assert!((pk - mm1_wait).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_queue_rejected() {
        mm1_mean_in_system(2.0, 1.0);
    }

    /// A single-server FIFO queue as a DES model.
    struct Queue {
        arrival_rate: f64,
        service: ServiceDist,
        waiting: VecDeque<f64>, // arrival times
        busy: bool,
        total_wait: f64,
        served: u64,
        to_serve: u64,
    }

    enum ServiceDist {
        Deterministic(f64),
        Exponential(f64), // rate
    }

    enum Ev {
        Arrival,
        Departure,
    }

    impl Queue {
        fn draw_service(&self, ctx: &mut Ctx<'_, Ev>) -> f64 {
            match self.service {
                ServiceDist::Deterministic(d) => d,
                ServiceDist::Exponential(mu) => random::exponential(ctx.rng(), mu),
            }
        }
    }

    impl Model for Queue {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Arrival => {
                    // Arrivals so far, this one included: the last of
                    // `to_serve` schedules no successor, so the run ends
                    // when the queue drains.
                    let arrived =
                        self.served + self.waiting.len() as u64 + u64::from(self.busy) + 1;
                    if arrived < self.to_serve {
                        let gap = random::exponential(ctx.rng(), self.arrival_rate);
                        ctx.schedule(gap, Ev::Arrival);
                    }
                    if self.busy {
                        self.waiting.push_back(ctx.now());
                    } else {
                        self.busy = true;
                        let s = self.draw_service(ctx);
                        ctx.schedule(s, Ev::Departure);
                    }
                }
                Ev::Departure => {
                    self.served += 1;
                    if let Some(arrived) = self.waiting.pop_front() {
                        self.total_wait += ctx.now() - arrived;
                        let s = self.draw_service(ctx);
                        ctx.schedule(s, Ev::Departure);
                    } else {
                        self.busy = false;
                    }
                }
            }
        }
    }

    fn run_queue(service: ServiceDist, lambda: f64, n: u64, seed: u64) -> f64 {
        let mut sim = Simulation::new(
            Queue {
                arrival_rate: lambda,
                service,
                waiting: VecDeque::new(),
                busy: false,
                total_wait: 0.0,
                served: 0,
                to_serve: n,
            },
            seed,
        );
        sim.schedule(0.0, Ev::Arrival);
        sim.run_to_completion();
        let m = sim.into_model();
        m.total_wait / m.served as f64
    }

    #[test]
    fn des_md1_queue_matches_pollaczek_khinchine() {
        let (lambda, d) = (0.7, 1.0);
        let measured = run_queue(ServiceDist::Deterministic(d), lambda, 200_000, 9);
        let theory = md1_mean_wait(lambda, d);
        assert!(
            (measured / theory - 1.0).abs() < 0.05,
            "M/D/1 wait: measured {measured:.4} vs theory {theory:.4}"
        );
    }

    #[test]
    fn des_mm1_queue_matches_theory() {
        let (lambda, mu) = (0.6, 1.0);
        let measured = run_queue(ServiceDist::Exponential(mu), lambda, 200_000, 10);
        let theory = mm1_mean_sojourn(lambda, mu) - 1.0 / mu;
        assert!(
            (measured / theory - 1.0).abs() < 0.06,
            "M/M/1 wait: measured {measured:.4} vs theory {theory:.4}"
        );
    }
}
