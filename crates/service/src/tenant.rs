//! Tenants, rate limits, and fair-share state.
//!
//! The service schedules for many tenants at once (the paper's multi-user
//! aggregates — users served, per-user wait — become per-tenant service
//! guarantees here). Everything in this module is **integer-deterministic**:
//! token buckets count millitokens on the millisecond clock, and fair-share
//! ranks are quantized before they reach the queue ordering, so the same
//! submission stream always yields the same admissions and the same queue
//! order on every machine.

use std::collections::BTreeMap;

use rsched_simkit::{SimDuration, SimTime};

/// A tenant (account/project) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// A sustained-rate + burst submission limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity: how many submissions may land back-to-back.
    pub burst: u32,
    /// Sustained refill rate, whole submissions per second.
    pub per_sec: u32,
}

/// Per-tenant admission knobs. The default is fully permissive (no rate
/// limit, no queue cap, weight 1) so single-tenant replays behave exactly
/// like the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Token-bucket submission rate limit; `None` = unlimited.
    pub rate: Option<RateLimit>,
    /// Maximum jobs this tenant may have waiting at once; `None` = uncapped.
    pub max_queued: Option<usize>,
    /// Fair-share weight: usage is divided by this, so a weight-2 tenant
    /// ranks as if it had consumed half as much.
    pub weight: u32,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            rate: None,
            max_queued: None,
            weight: 1,
        }
    }
}

/// An integer token bucket on the service clock.
///
/// Tokens are tracked in **millitokens** (1 submission = 1000) so refill
/// needs no floating point: at `per_sec` tokens per second, the bucket
/// gains exactly `per_sec` millitokens per elapsed millisecond. The bucket
/// therefore never over-admits: across any window of `w` ms it accepts at
/// most `burst + ceil(w · per_sec / 1000)` submissions.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    capacity_milli: u64,
    tokens_milli: u64,
    refill_per_sec: u64,
    last_refill: SimTime,
}

/// One submission, in millitokens.
const TOKEN: u64 = 1000;

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(limit: RateLimit, now: SimTime) -> Self {
        let capacity_milli = u64::from(limit.burst) * TOKEN;
        TokenBucket {
            capacity_milli,
            tokens_milli: capacity_milli,
            refill_per_sec: u64::from(limit.per_sec),
            last_refill: now,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed_ms = now.saturating_since(self.last_refill).as_millis();
        // per_sec tokens/s ≡ per_sec millitokens/ms: exact integer refill.
        let gained = elapsed_ms.saturating_mul(self.refill_per_sec);
        self.tokens_milli = (self.tokens_milli.saturating_add(gained)).min(self.capacity_milli);
        self.last_refill = self.last_refill.max(now);
    }

    /// Take one submission's worth of tokens if available.
    pub(crate) fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens_milli >= TOKEN {
            self.tokens_milli -= TOKEN;
            true
        } else {
            false
        }
    }
}

/// Fair-share configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairShareConfig {
    /// When `false`, every job is admitted at rank 0 and the queue reduces
    /// to pure `(submit, id)` order — the simulator-equivalent mode.
    pub enabled: bool,
    /// Half-life of the usage decay: after this long without submitting, a
    /// tenant's remembered usage halves.
    pub half_life: SimDuration,
}

impl Default for FairShareConfig {
    fn default() -> Self {
        FairShareConfig {
            enabled: false,
            half_life: SimDuration::from_secs(3600),
        }
    }
}

/// Node-seconds of fair-share usage per rank step: tenants within the same
/// `RANK_QUANTUM` of decayed usage tie, and the tie falls back to the
/// queue's `(submit, id)` order. Coarse quantization keeps ranks stable
/// under floating-point decay.
const RANK_QUANTUM: f64 = 64.0;

#[derive(Debug, Clone, Copy, Default)]
struct TenantUsage {
    /// Decayed node-seconds charged to this tenant, per unit weight.
    usage: f64,
    last_decay: SimTime,
}

/// Usage-decayed tenant priority: the less a tenant has recently consumed
/// (per unit weight), the lower — i.e. better — its rank.
///
/// Usage is charged **at admission** (nodes × walltime, the reservation
/// the tenant asked for) rather than at completion, so a burst of heavy
/// submissions immediately deprioritizes later jobs from the same tenant —
/// the SFQ-style start-time fairness the ROADMAP's million-user story
/// needs, with O(log tenants) bookkeeping per submission.
#[derive(Debug)]
pub struct FairShare {
    config: FairShareConfig,
    tenants: BTreeMap<TenantId, TenantUsage>,
}

impl FairShare {
    /// A fair-share ledger with no recorded usage.
    pub fn new(config: FairShareConfig) -> Self {
        FairShare {
            config,
            tenants: BTreeMap::new(),
        }
    }

    /// Whether ranking is enabled at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    fn decayed(&mut self, tenant: TenantId, now: SimTime) -> &mut TenantUsage {
        let half_life = self.config.half_life;
        let entry = self.tenants.entry(tenant).or_default();
        let elapsed = now.saturating_since(entry.last_decay);
        if !elapsed.is_zero() && entry.usage > 0.0 {
            let halves = elapsed.as_secs_f64() / half_life.as_secs_f64().max(1e-9);
            entry.usage *= 0.5f64.powf(halves);
        }
        entry.last_decay = entry.last_decay.max(now);
        entry
    }

    /// Charge `nodes × walltime / weight` node-seconds of usage to the
    /// tenant at `now`.
    pub fn charge(&mut self, tenant: TenantId, weight: u32, nodes: u32, walltime: SimDuration) {
        let cost = f64::from(nodes) * walltime.as_secs_f64() / f64::from(weight.max(1));
        // The admission path ranks (and thus decays) before charging, so
        // adding directly here keeps it to one decay per admission.
        self.tenants.entry(tenant).or_default().usage += cost;
    }

    /// The tenant's current queue rank at `now` (0 is best). Disabled fair
    /// share always ranks 0.
    pub fn rank(&mut self, tenant: TenantId, now: SimTime) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        let usage = self.decayed(tenant, now).usage;
        let rank = (usage / RANK_QUANTUM).floor();
        if rank >= u64::MAX as f64 {
            u64::MAX
        } else {
            rank as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_burst_then_rate() {
        let mut b = TokenBucket::new(
            RateLimit {
                burst: 3,
                per_sec: 2,
            },
            SimTime::ZERO,
        );
        let t0 = SimTime::ZERO;
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst exhausted");
        // 500 ms later: 2/s × 0.5 s = 1 token accrued.
        let t1 = SimTime::from_millis(500);
        assert!(b.try_take(t1));
        assert!(!b.try_take(t1));
        // A long idle refills to capacity, not beyond.
        let t2 = SimTime::from_secs(100);
        for _ in 0..3 {
            assert!(b.try_take(t2));
        }
        assert!(!b.try_take(t2), "capacity 3");
    }

    #[test]
    fn bucket_refill_is_exact_integer_math() {
        let mut b = TokenBucket::new(
            RateLimit {
                burst: 1,
                per_sec: 1,
            },
            SimTime::ZERO,
        );
        assert!(b.try_take(SimTime::ZERO));
        // 999 ms: still 1 ms short of a whole token.
        assert!(!b.try_take(SimTime::from_millis(999)));
        assert!(b.try_take(SimTime::from_millis(1000)));
    }

    #[test]
    fn fair_share_ranks_heavy_users_worse() {
        let mut fs = FairShare::new(FairShareConfig {
            enabled: true,
            half_life: SimDuration::from_secs(3600),
        });
        let heavy = TenantId(1);
        let light = TenantId(2);
        let now = SimTime::ZERO;
        fs.charge(heavy, 1, 64, SimDuration::from_secs(600)); // 38400 node-s
        fs.charge(light, 1, 1, SimDuration::from_secs(60)); // 60 node-s
        assert!(fs.rank(heavy, now) > fs.rank(light, now));
        assert_eq!(fs.rank(TenantId(3), now), 0, "new tenant ranks best");
    }

    #[test]
    fn fair_share_decays_toward_zero() {
        let mut fs = FairShare::new(FairShareConfig {
            enabled: true,
            half_life: SimDuration::from_secs(60),
        });
        let t = TenantId(7);
        fs.charge(t, 1, 32, SimDuration::from_secs(1000)); // 32000 node-s
        let early = fs.rank(t, SimTime::ZERO);
        assert!(early > 0);
        // Ten half-lives: usage / 1024 → rank collapses.
        let late = fs.rank(t, SimTime::from_secs(600));
        assert!(late < early / 100, "rank {early} should decay, got {late}");
    }

    #[test]
    fn weight_divides_charged_usage() {
        let mut fs = FairShare::new(FairShareConfig {
            enabled: true,
            half_life: SimDuration::from_secs(3600),
        });
        fs.charge(TenantId(1), 1, 16, SimDuration::from_secs(1000));
        fs.charge(TenantId(2), 4, 16, SimDuration::from_secs(1000));
        let r1 = fs.rank(TenantId(1), SimTime::ZERO);
        let r2 = fs.rank(TenantId(2), SimTime::ZERO);
        assert!(r2 < r1, "weight-4 tenant charged a quarter of the usage");
    }

    #[test]
    fn disabled_fair_share_always_ranks_zero() {
        let mut fs = FairShare::new(FairShareConfig::default());
        fs.charge(TenantId(1), 1, 64, SimDuration::from_secs(10_000));
        assert_eq!(fs.rank(TenantId(1), SimTime::from_secs(5)), 0);
    }
}
