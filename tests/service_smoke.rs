//! CI service smoke: a `ManualClock` daemon absorbs a 500-job burst from
//! three tenants, drains completely, and drops nothing — the end-to-end
//! contract of the service subsystem exercised through the facade.

use reasoned_scheduler::prelude::*;
use reasoned_scheduler::service::{RateLimit, Submission};

fn burst_job(id: u32, user: u32) -> JobSpec {
    let mut spec = JobSpec::new(
        id,
        user,
        SimTime::ZERO,
        SimDuration::from_secs(30 + u64::from(id % 90)),
        1 + id % 8,
        1 + u64::from(id % 16),
    );
    spec.walltime = spec.duration * 2;
    spec
}

#[test]
fn daemon_drains_500_job_burst_across_three_tenants() {
    let cluster = ClusterConfig::paper_default();
    let config = ServiceConfig::new(cluster);
    let clock = ManualClock::new();
    let daemon = ServiceDaemon::spawn(config, clock, || Box::new(Fcfs::default()));
    let handle = daemon.handle();

    // Three producer threads, one tenant each, sharing the one
    // ingest channel.
    let producers: Vec<_> = (0u32..3)
        .map(|tenant| {
            let tx = handle.clone();
            std::thread::spawn(move || {
                for i in 0..500 {
                    let id = tenant * 500 + i + 1;
                    tx.submit(TenantId(tenant), burst_job(id, tenant))
                        .expect("daemon accepts while running");
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer thread");
    }

    let report = daemon.drain().expect("daemon drains cleanly");
    assert_eq!(report.submitted, 1500, "every submission ingested");
    assert_eq!(report.admitted, 1500, "permissive admission admits all");
    assert_eq!(report.rejected, 0, "nothing rejected");
    assert_eq!(report.completed, 1500, "every admitted job completed");
    assert_eq!(report.dropped_requests, 0, "zero dropped on drain");
    assert!(report.ticks > 0, "the service actually ticked");
    assert!(
        report.stats.placements >= 1500,
        "placements cover the burst"
    );
}

#[test]
fn rate_limited_tenant_sees_typed_rejections_but_service_still_drains() {
    let cluster = ClusterConfig::paper_default();
    let config = ServiceConfig::new(cluster);
    let clock = ManualClock::new();
    let external = clock.clone();
    let daemon = ServiceDaemon::spawn(config, clock, || Box::new(Fcfs::default()));
    let handle = daemon.handle();

    // Tenant 0 is tightly rate-limited; tenant 1 is unlimited. The limit
    // must shed load with typed errors without wedging the drain.
    // (Profiles are installed through the config's default here: the
    // daemon owns its core, so per-tenant overrides flow through
    // submissions observed against the default profile.)
    let mut limited = ServiceConfig::new(cluster);
    limited.admission.default_tenant.rate = Some(RateLimit {
        burst: 8,
        per_sec: 1,
    });
    let daemon2 = ServiceDaemon::spawn(limited, ManualClock::new(), || Box::new(Fcfs::default()));
    let h2 = daemon2.handle();
    for i in 0..64u32 {
        h2.submit(TenantId(0), burst_job(i + 1, 0)).unwrap();
    }
    let report2 = daemon2.drain().expect("limited daemon drains");
    assert_eq!(report2.submitted, 64);
    assert!(report2.rejected > 0, "rate limit sheds load");
    assert_eq!(report2.admitted + report2.rejected, 64);
    assert_eq!(report2.completed, report2.admitted);
    assert_eq!(report2.dropped_requests, 0);

    // The first (unlimited) daemon still drains cleanly too.
    for i in 0..32u32 {
        handle.submit(TenantId(1), burst_job(i + 1, 1)).unwrap();
    }
    external.advance_by(SimDuration::from_millis(5));
    let report = daemon.drain().expect("unlimited daemon drains");
    assert_eq!(report.admitted, 32);
    assert_eq!(report.completed, 32);
    assert_eq!(report.dropped_requests, 0);

    // Submission objects are plain data; the channel type is public.
    let _ = Submission {
        tenant: TenantId(9),
        job: burst_job(1, 9),
    };
}
