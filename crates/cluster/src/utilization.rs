//! Step-function integrals for time-weighted resource accounting.
//!
//! The paper's utilization objectives (§3.2) are `Σ n_j·d_j / (C·makespan)`
//! and `Σ m_j·d_j / (M·makespan)`. Those closed forms are computed directly
//! by `rsched-metrics`; this module provides the general step-function
//! integral used to *cross-check* them against the simulator's live ledger.

use rsched_simkit::SimTime;

/// Integrates a piecewise-constant function of simulation time.
///
/// Record the value whenever it changes; query the accumulated
/// `∫ value · dt` at any later time. Three scalars and no heap: a daemon
/// updates two of these on every tick for as long as it lives.
#[derive(Debug, Clone)]
pub struct StepIntegral {
    last_time: SimTime,
    last_value: f64,
    accumulated: f64,
}

const _: () = assert!(!std::mem::needs_drop::<StepIntegral>());

impl StepIntegral {
    /// Start integrating at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        StepIntegral {
            last_time: t0,
            last_value: v0,
            accumulated: 0.0,
        }
    }

    /// Record that the value becomes `value` at time `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes the previous update (time runs forward).
    pub fn update(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_time).as_secs_f64();
        self.accumulated += self.last_value * dt;
        self.last_time = now;
        self.last_value = value;
    }

    /// The integral `∫ value · dt` from the start through `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes the latest update.
    pub fn integral_through(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last_time).as_secs_f64();
        self.accumulated + self.last_value * dt
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        self.last_value
    }

    /// Time-average of the value over `[start, now]`; 0 over an empty span.
    pub fn time_average(&self, start: SimTime, now: SimTime) -> f64 {
        let span = now.since(start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.integral_through(now) / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangle_integral() {
        let mut s = StepIntegral::new(SimTime::ZERO, 2.0);
        s.update(SimTime::from_secs(10), 0.0);
        assert!((s.integral_through(SimTime::from_secs(10)) - 20.0).abs() < 1e-9);
        assert!((s.integral_through(SimTime::from_secs(20)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn staircase_integral() {
        let mut s = StepIntegral::new(SimTime::ZERO, 1.0);
        s.update(SimTime::from_secs(5), 3.0); // 5 s at 1
        s.update(SimTime::from_secs(8), 0.5); // 3 s at 3
                                              // through t=10: 5·1 + 3·3 + 2·0.5 = 15
        assert!((s.integral_through(SimTime::from_secs(10)) - 15.0).abs() < 1e-9);
        assert_eq!(s.value(), 0.5);
    }

    #[test]
    fn same_timestamp_update_collapses() {
        let mut s = StepIntegral::new(SimTime::ZERO, 1.0);
        s.update(SimTime::from_secs(5), 10.0);
        s.update(SimTime::from_secs(5), 2.0);
        // 5 s at 1, then value 2 — the transient 10 contributes nothing.
        assert!((s.integral_through(SimTime::from_secs(6)) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn time_average() {
        let mut s = StepIntegral::new(SimTime::ZERO, 4.0);
        s.update(SimTime::from_secs(2), 0.0);
        // avg over [0, 8] = 8/8 = 1
        assert!((s.time_average(SimTime::ZERO, SimTime::from_secs(8)) - 1.0).abs() < 1e-9);
        assert_eq!(s.time_average(SimTime::ZERO, SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn backwards_update_panics() {
        let mut s = StepIntegral::new(SimTime::from_secs(10), 1.0);
        s.update(SimTime::from_secs(5), 2.0);
    }
}
