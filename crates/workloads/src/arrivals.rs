//! Job arrival processes.
//!
//! Paper §3.1: *"we simulate job arrival times using Poisson processes …
//! For each workload scenario, we define a scenario-specific arrival rate λ
//! which governs the average time between job submissions."* The static
//! formulation of §3.3 instead submits every job at `t = 0`.

use rsched_simkit::dist::{Exponential, Sample};
use rsched_simkit::rng::Rng;
use rsched_simkit::SimTime;

/// Whether a workload uses the paper's dynamic Poisson arrivals (§3.1) or
/// the static all-at-zero submission of the §3.3 formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// All jobs submitted at `t = 0`.
    Static,
    /// Scenario-specific stochastic arrivals.
    Dynamic,
}

/// A generator of arrival timestamps.
#[derive(Debug, Clone)]
pub(crate) enum ArrivalProcess {
    /// Poisson process: exponential interarrival gaps with the given mean.
    Poisson {
        /// Mean interarrival time in seconds (`1/λ`).
        mean_interarrival_secs: f64,
    },
    /// Bursts of `burst_size` Poisson-spaced jobs separated by long idle
    /// gaps — the *Bursty + Idle* scenario's submission pattern.
    Bursty {
        /// Jobs per burst (the last burst may be short).
        burst_size: usize,
        /// Mean gap between jobs within a burst, seconds.
        within_burst_mean_secs: f64,
        /// Mean idle gap between bursts, seconds.
        idle_gap_mean_secs: f64,
    },
    /// One job at `t = 0`, the rest Poisson-spaced after it — the
    /// *Adversarial* scenario's blocker-then-flood pattern.
    BlockerThenFlood {
        /// Mean interarrival of the flood jobs, seconds.
        flood_mean_secs: f64,
    },
    /// A non-homogeneous Poisson process whose mean interarrival swings
    /// sinusoidally between a busy peak and a quiet trough over one
    /// `period_secs` cycle — the day/night submission rhythm of production
    /// machines (the *Diurnal Wave* scenario).
    Diurnal {
        /// Length of one day/night cycle, seconds (86 400 for a real day).
        period_secs: f64,
        /// Mean interarrival at the peak of the cycle, seconds.
        peak_mean_secs: f64,
        /// Mean interarrival at the trough of the cycle, seconds.
        trough_mean_secs: f64,
    },
}

impl ArrivalProcess {
    /// Generate `n` non-decreasing arrival times.
    pub fn generate(&self, n: usize, rng: &mut dyn Rng) -> Vec<SimTime> {
        match self {
            ArrivalProcess::Poisson {
                mean_interarrival_secs,
            } => {
                let gap = Exponential::with_mean(*mean_interarrival_secs);
                let mut t = 0.0;
                (0..n)
                    .map(|i| {
                        if i > 0 {
                            t += gap.sample(rng);
                        }
                        SimTime::from_secs_f64(t)
                    })
                    .collect()
            }
            ArrivalProcess::Bursty {
                burst_size,
                within_burst_mean_secs,
                idle_gap_mean_secs,
            } => {
                assert!(*burst_size > 0, "burst_size must be positive");
                let within = Exponential::with_mean(*within_burst_mean_secs);
                let idle = Exponential::with_mean(*idle_gap_mean_secs);
                let mut t = 0.0;
                (0..n)
                    .map(|i| {
                        if i > 0 {
                            if i % burst_size == 0 {
                                t += idle.sample(rng);
                            } else {
                                t += within.sample(rng);
                            }
                        }
                        SimTime::from_secs_f64(t)
                    })
                    .collect()
            }
            ArrivalProcess::BlockerThenFlood { flood_mean_secs } => {
                let gap = Exponential::with_mean(*flood_mean_secs);
                let mut t = 0.0;
                (0..n)
                    .map(|i| {
                        if i > 0 {
                            t += gap.sample(rng);
                        }
                        SimTime::from_secs_f64(t)
                    })
                    .collect()
            }
            ArrivalProcess::Diurnal {
                period_secs,
                peak_mean_secs,
                trough_mean_secs,
            } => {
                assert!(*period_secs > 0.0, "period must be positive");
                assert!(
                    *peak_mean_secs > 0.0 && *trough_mean_secs >= *peak_mean_secs,
                    "peak must be the busier (smaller-mean) end of the cycle"
                );
                let mut t = 0.0;
                (0..n)
                    .map(|i| {
                        if i > 0 {
                            // Interarrival mean interpolates sinusoidally
                            // with the phase of the current simulated time:
                            // cycle start = peak rate, half-cycle = trough.
                            let phase = (t / period_secs) * std::f64::consts::TAU;
                            let busy = (phase.cos() + 1.0) / 2.0; // 1 at peak, 0 at trough
                            let mean =
                                trough_mean_secs + busy * (peak_mean_secs - trough_mean_secs);
                            t += Exponential::with_mean(mean).sample(rng);
                        }
                        SimTime::from_secs_f64(t)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_simkit::rng::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(7)
    }

    fn assert_monotone(times: &[SimTime]) {
        for w in times.windows(2) {
            assert!(w[0] <= w[1], "arrivals must be non-decreasing");
        }
    }

    #[test]
    fn poisson_mean_gap_roughly_matches() {
        let p = ArrivalProcess::Poisson {
            mean_interarrival_secs: 30.0,
        };
        let times = p.generate(2000, &mut rng());
        assert_monotone(&times);
        assert_eq!(times[0], SimTime::ZERO, "first arrival at t=0");
        let span = times.last().unwrap().as_secs_f64();
        let mean_gap = span / 1999.0;
        assert!((mean_gap - 30.0).abs() < 2.0, "mean gap {mean_gap}");
    }

    #[test]
    fn bursty_has_bimodal_gaps() {
        let p = ArrivalProcess::Bursty {
            burst_size: 10,
            within_burst_mean_secs: 5.0,
            idle_gap_mean_secs: 2000.0,
        };
        let times = p.generate(100, &mut rng());
        assert_monotone(&times);
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        // 100 jobs / burst of 10 → 9 idle gaps expected; within-burst gaps
        // (mean 5 s) essentially never exceed 60 s, while idle gaps (mean
        // 2000 s) essentially never fall below it.
        let long_gaps = gaps.iter().filter(|&&g| g > 60.0).count();
        assert_eq!(long_gaps, 9, "gaps: {gaps:?}");
    }

    #[test]
    fn blocker_then_flood_starts_at_zero() {
        let p = ArrivalProcess::BlockerThenFlood {
            flood_mean_secs: 10.0,
        };
        let times = p.generate(50, &mut rng());
        assert_eq!(times[0], SimTime::ZERO);
        assert_monotone(&times);
        assert!(times[1] > SimTime::ZERO, "flood follows the blocker");
    }

    #[test]
    fn diurnal_rate_swings_with_the_cycle() {
        let p = ArrivalProcess::Diurnal {
            period_secs: 10_000.0,
            peak_mean_secs: 5.0,
            trough_mean_secs: 500.0,
        };
        let times = p.generate(400, &mut rng());
        assert_monotone(&times);
        assert_eq!(times[0], SimTime::ZERO);
        // Gaps near the cycle start (peak) must be much tighter than gaps
        // near the half-cycle trough.
        let gap_at = |lo: f64, hi: f64| {
            let gaps: Vec<f64> = times
                .windows(2)
                .filter(|w| {
                    let phase = (w[0].as_secs_f64() / 10_000.0).fract();
                    (lo..hi).contains(&phase)
                })
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect();
            gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
        };
        let peak_mean = gap_at(0.0, 0.15);
        let trough_mean = gap_at(0.35, 0.65);
        assert!(
            trough_mean > 5.0 * peak_mean,
            "trough {trough_mean} vs peak {peak_mean}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let p = ArrivalProcess::Poisson {
            mean_interarrival_secs: 12.0,
        };
        let a = p.generate(64, &mut Xoshiro256PlusPlus::seed_from_u64(3));
        let b = p.generate(64, &mut Xoshiro256PlusPlus::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_jobs_is_empty() {
        let p = ArrivalProcess::Poisson {
            mean_interarrival_secs: 30.0,
        };
        assert!(p.generate(0, &mut rng()).is_empty());
    }
}
