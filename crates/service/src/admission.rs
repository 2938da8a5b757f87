//! Per-tenant admission control.
//!
//! Every submission passes through the [`AdmissionController`] before it
//! reaches the kernel's waiting queue: the tenant's queue-depth cap is
//! checked first (stateless), then its token bucket is debited, then its
//! fair-share usage is charged and the job's queue **rank** computed. A
//! rejection is typed ([`AdmissionError`]) so clients and telemetry can
//! distinguish "slow down" from "you asked for the impossible".

use std::collections::BTreeMap;

use rsched_cluster::{JobId, JobSpec};
use rsched_sim::SimError;
use rsched_simkit::SimTime;

use crate::tenant::{FairShare, FairShareConfig, TenantConfig, TenantId, TokenBucket};

/// Why a submission was refused. Refusals never touch the kernel: the job
/// is bounced at the front door and the decision stream is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's token bucket is empty: sustained submission rate
    /// exceeded. Retry after the bucket refills.
    RateLimited {
        /// The throttled tenant.
        tenant: TenantId,
    },
    /// The tenant already has `queued` jobs waiting against a cap of `cap`.
    QueueFull {
        /// The capped tenant.
        tenant: TenantId,
        /// The configured cap.
        cap: usize,
        /// Jobs currently waiting.
        queued: usize,
    },
    /// The job demands more than the whole machine; it could never run.
    Infeasible {
        /// Offending job.
        id: JobId,
        /// Nodes requested.
        nodes: u32,
        /// Memory requested (GB).
        memory_gb: u64,
    },
    /// A job with this id was already submitted (ids are global, like the
    /// simulator's workload validation).
    DuplicateId(JobId),
    /// The service is draining and accepts no new work.
    Draining,
}

impl AdmissionError {
    /// Stable snake_case code for metrics and exports
    /// (`service_rejected_{code}_total`).
    pub fn code(&self) -> &'static str {
        match self {
            AdmissionError::RateLimited { .. } => "rate_limited",
            AdmissionError::QueueFull { .. } => "queue_full",
            AdmissionError::Infeasible { .. } => "infeasible",
            AdmissionError::DuplicateId(_) => "duplicate",
            AdmissionError::Draining => "draining",
        }
    }

    /// The counter a refusal for this reason increments:
    /// `service_rejected_{code}_total`, spelled out so that counting one
    /// formats nothing.
    pub(crate) fn counter_name(&self) -> &'static str {
        match self {
            AdmissionError::RateLimited { .. } => "service_rejected_rate_limited_total",
            AdmissionError::QueueFull { .. } => "service_rejected_queue_full_total",
            AdmissionError::Infeasible { .. } => "service_rejected_infeasible_total",
            AdmissionError::DuplicateId(_) => "service_rejected_duplicate_total",
            AdmissionError::Draining => "service_rejected_draining_total",
        }
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::RateLimited { tenant } => {
                write!(f, "{tenant} exceeded its submission rate limit")
            }
            AdmissionError::QueueFull {
                tenant,
                cap,
                queued,
            } => write!(f, "{tenant} has {queued} queued jobs (cap {cap})"),
            // The simulator's refusal of the same job, word for word.
            AdmissionError::Infeasible {
                id,
                nodes,
                memory_gb,
            } => std::fmt::Display::fmt(
                &SimError::InfeasibleJob {
                    id: *id,
                    nodes: *nodes,
                    memory_gb: *memory_gb,
                },
                f,
            ),
            AdmissionError::DuplicateId(id) => write!(f, "duplicate job id {id}"),
            AdmissionError::Draining => write!(f, "service is draining"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Admission-control configuration: the default tenant profile plus the
/// fair-share decay.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionConfig {
    /// Limits applied to tenants without an explicit profile.
    pub default_tenant: TenantConfig,
    /// Usage-decay settings for the fair-share ranks.
    pub fair_share: FairShareConfig,
}

/// The front door: rate limits, queue caps, and fair-share ranking, all on
/// deterministic integer/quantized state.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    profiles: BTreeMap<TenantId, TenantConfig>,
    buckets: BTreeMap<TenantId, TokenBucket>,
    queued: BTreeMap<TenantId, usize>,
    fair_share: FairShare,
}

impl AdmissionController {
    /// A controller with no per-tenant profiles yet.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            profiles: BTreeMap::new(),
            buckets: BTreeMap::new(),
            queued: BTreeMap::new(),
            fair_share: FairShare::new(config.fair_share),
        }
    }

    /// Install (or replace) a tenant's profile. Replacing resets the
    /// tenant's token bucket to the new limit (full).
    pub fn set_tenant(&mut self, tenant: TenantId, profile: TenantConfig) {
        self.profiles.insert(tenant, profile);
        self.buckets.remove(&tenant);
    }

    /// The profile in force for a tenant.
    pub fn profile(&self, tenant: TenantId) -> TenantConfig {
        self.profiles
            .get(&tenant)
            .copied()
            .unwrap_or(self.config.default_tenant)
    }

    /// Jobs this tenant currently has waiting.
    pub fn queued(&self, tenant: TenantId) -> usize {
        self.queued.get(&tenant).copied().unwrap_or(0)
    }

    /// Admit one submission at `now`: enforce the queue cap and rate
    /// limit, charge fair share, and return the job's queue rank.
    ///
    /// Order matters: the cap is checked before the bucket so a refused
    /// submission never burns a token.
    pub fn admit(
        &mut self,
        tenant: TenantId,
        job: &JobSpec,
        now: SimTime,
    ) -> Result<u64, AdmissionError> {
        let profile = self.profile(tenant);
        if let Some(cap) = profile.max_queued {
            let queued = self.queued(tenant);
            if queued >= cap {
                return Err(AdmissionError::QueueFull {
                    tenant,
                    cap,
                    queued,
                });
            }
        }
        if let Some(limit) = profile.rate {
            let bucket = self
                .buckets
                .entry(tenant)
                .or_insert_with(|| TokenBucket::new(limit, now));
            if !bucket.try_take(now) {
                return Err(AdmissionError::RateLimited { tenant });
            }
        }
        // Rank first (decays usage to `now`), then charge this job.
        let rank = self.fair_share.rank(tenant, now);
        self.fair_share
            .charge(tenant, profile.weight, job.nodes, job.walltime);
        *self.queued.entry(tenant).or_insert(0) += 1;
        Ok(rank)
    }

    /// A previously admitted job left the waiting queue (it was placed on
    /// the cluster): release its slot under the tenant's queue cap.
    pub fn job_started(&mut self, tenant: TenantId) {
        if let Some(n) = self.queued.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::RateLimit;
    use rsched_simkit::SimDuration;

    fn job(id: u32) -> JobSpec {
        JobSpec::new(id, 0, SimTime::ZERO, SimDuration::from_secs(60), 2, 8)
    }

    #[test]
    fn counter_names_spell_out_the_codes() {
        let tenant = TenantId(1);
        let reasons = [
            AdmissionError::RateLimited { tenant },
            AdmissionError::QueueFull {
                tenant,
                cap: 1,
                queued: 1,
            },
            AdmissionError::Infeasible {
                id: JobId(1),
                nodes: 1,
                memory_gb: 1,
            },
            AdmissionError::DuplicateId(JobId(1)),
            AdmissionError::Draining,
        ];
        for reason in reasons {
            // A new variant fails to compile here until it is listed above.
            match reason {
                AdmissionError::RateLimited { .. }
                | AdmissionError::QueueFull { .. }
                | AdmissionError::Infeasible { .. }
                | AdmissionError::DuplicateId(_)
                | AdmissionError::Draining => {}
            }
            let spelled = format!("service_rejected_{}_total", reason.code());
            assert_eq!(reason.counter_name(), spelled);
        }
    }

    #[test]
    fn an_infeasible_job_is_refused_in_the_simulators_words() {
        let refusal = AdmissionError::Infeasible {
            id: JobId(3),
            nodes: 9,
            memory_gb: 600,
        };
        assert_eq!(
            refusal.to_string(),
            "job 3 requests 9 nodes / 600 GB, exceeding machine capacity"
        );
    }

    #[test]
    fn default_tenant_is_unlimited() {
        let mut ac = AdmissionController::new(AdmissionConfig::default());
        for i in 0..1000 {
            assert_eq!(ac.admit(TenantId(1), &job(i), SimTime::ZERO), Ok(0));
        }
        assert_eq!(ac.queued(TenantId(1)), 1000);
    }

    #[test]
    fn queue_cap_rejects_then_recovers() {
        let mut ac = AdmissionController::new(AdmissionConfig::default());
        ac.set_tenant(
            TenantId(1),
            TenantConfig {
                max_queued: Some(2),
                ..TenantConfig::default()
            },
        );
        assert!(ac.admit(TenantId(1), &job(1), SimTime::ZERO).is_ok());
        assert!(ac.admit(TenantId(1), &job(2), SimTime::ZERO).is_ok());
        assert_eq!(
            ac.admit(TenantId(1), &job(3), SimTime::ZERO),
            Err(AdmissionError::QueueFull {
                tenant: TenantId(1),
                cap: 2,
                queued: 2
            })
        );
        // Another tenant is unaffected.
        assert!(ac.admit(TenantId(2), &job(4), SimTime::ZERO).is_ok());
        // A placement frees the slot.
        ac.job_started(TenantId(1));
        assert!(ac.admit(TenantId(1), &job(5), SimTime::ZERO).is_ok());
    }

    #[test]
    fn rate_limit_rejects_without_burning_queue_slots() {
        let mut ac = AdmissionController::new(AdmissionConfig::default());
        ac.set_tenant(
            TenantId(1),
            TenantConfig {
                rate: Some(RateLimit {
                    burst: 1,
                    per_sec: 1,
                }),
                ..TenantConfig::default()
            },
        );
        assert!(ac.admit(TenantId(1), &job(1), SimTime::ZERO).is_ok());
        assert_eq!(
            ac.admit(TenantId(1), &job(2), SimTime::ZERO),
            Err(AdmissionError::RateLimited {
                tenant: TenantId(1)
            })
        );
        assert_eq!(ac.queued(TenantId(1)), 1, "rejection did not count");
        assert!(ac
            .admit(TenantId(1), &job(3), SimTime::from_secs(1))
            .is_ok());
    }

    #[test]
    fn fair_share_ranks_flow_through_admission() {
        let mut ac = AdmissionController::new(AdmissionConfig {
            fair_share: FairShareConfig {
                enabled: true,
                half_life: SimDuration::from_secs(3600),
            },
            ..AdmissionConfig::default()
        });
        // Heavy tenant racks up usage; its later submissions rank worse
        // than a fresh tenant's.
        let heavy = TenantId(1);
        let mut last = 0;
        for i in 0..50 {
            let r = ac
                .admit(
                    heavy,
                    &JobSpec::new(i, 0, SimTime::ZERO, SimDuration::from_secs(600), 64, 8),
                    SimTime::ZERO,
                )
                .unwrap();
            assert!(r >= last, "rank only grows within a burst");
            last = r;
        }
        assert!(last > 0);
        assert_eq!(ac.admit(TenantId(2), &job(1000), SimTime::ZERO), Ok(0));
    }
}
