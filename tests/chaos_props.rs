//! The seeded chaos suite: the testbed of paper Section 6.1 driven through a
//! deterministic fault-injecting transport (`dyno::fault::ChaosTransport`),
//! asserting that the warehouse's recovery machinery preserves the
//! paper's correctness criteria (Section 4.4) under message drop,
//! duplication, reordering, bounded delay, query timeouts, transient errors,
//! and source crash/restart:
//!
//! * **termination** — every run quiesces within its step budget;
//! * **convergence** — the final extent equals the view over final source
//!   states;
//! * **strong consistency** — every intermediate reflected vector passes
//!   `check_reflected` (audited at every commit);
//! * **faults actually fired** — a suite that injects nothing proves
//!   nothing.
//!
//! The quick subset below always runs; the full grid (seeds × profiles ×
//! strategies × correction policies) is `#[ignore]`d and exercised by
//! `scripts/verify.sh` via `--include-ignored`. When `DYNO_CHAOS_SUMMARY`
//! names a file, each run appends its injected-fault count so the harness
//! can assert the suite was not a silent no-op.

use dyno::core::{CorrectionPolicy, Strategy};
use dyno::fault::FaultProfile;
use dyno::sim::{run_chaos, ChaosConfig, ChaosReport};

/// Runs one configuration and enforces the invariants every healthy chaos
/// run must satisfy, then reports the injected-fault count for the summary.
fn assert_healthy(cfg: &ChaosConfig) -> ChaosReport {
    let report = run_chaos(cfg);
    let ctx = format!(
        "profile={} seed={} strategy={:?} policy={:?}",
        cfg.profile.name, cfg.seed, cfg.strategy, cfg.policy
    );
    assert!(!report.exhausted, "{ctx}: must terminate within the step budget");
    assert!(report.last_error.is_none(), "{ctx}: hard error {:?}", report.last_error);
    assert!(report.converged, "{ctx}: extent must converge to final source states");
    assert_eq!(report.audit_violations, 0, "{ctx}: strong consistency at every commit");
    write_summary(&report);
    report
}

/// Appends `fault.injected_total=<n>` to `$DYNO_CHAOS_SUMMARY` when set.
fn write_summary(report: &ChaosReport) {
    use std::io::Write;
    if let Some(path) = std::env::var_os("DYNO_CHAOS_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(f, "fault.injected_total={}", report.fault_injected);
        }
    }
}

#[test]
fn chaos_quick_each_profile_converges() {
    // One seed per profile, pessimistic, default policy: the always-on
    // smoke version of the full grid.
    let mut injected = 0;
    for profile in FaultProfile::all() {
        injected += assert_healthy(&ChaosConfig::new(profile, 7)).fault_injected;
    }
    assert!(injected > 0, "the quick sweep must inject at least one fault");
}

/// The quiet seed-0 run's simulated series, pinned to the values the
/// single-view pipeline has always produced. A one-view warehouse that
/// built the shared-subplan cache would ship full-width first hops through
/// the port and move `committed_us`.
#[test]
fn chaos_quiet_seed0_metrics_are_pinned() {
    let report = assert_healthy(&ChaosConfig::new(FaultProfile::quiet(), 0));
    assert_eq!(report.metrics.committed_us, 5_934_399);
    assert_eq!(report.metrics.queries, 73);
    assert_eq!(report.obs.registry().counter_value("subplan.shared_misses"), Some(0));
}

#[test]
fn chaos_quick_optimistic_survives_drop_dup() {
    let cfg = ChaosConfig::new(FaultProfile::drop_dup(), 3).with_strategy(Strategy::Optimistic);
    assert_healthy(&cfg);
}

#[test]
fn chaos_broken_dedupe_is_detected() {
    // Ablation: with BOTH dedupe/resequencing lines disabled, duplicated
    // and reordered deliveries reach the UMQ unfiltered. The suite must
    // catch the breakage — otherwise it could not catch a real regression
    // in the recovery path.
    let mut caught = 0u32;
    let mut injected = 0u64;
    for seed in [1, 2, 3, 5, 8] {
        let cfg = ChaosConfig::new(FaultProfile::drop_dup(), seed).broken_dedupe();
        let report = run_chaos(&cfg);
        injected += report.fault_injected;
        let broken = !report.converged || report.audit_violations > 0;
        if broken {
            caught += 1;
        }
    }
    assert!(injected > 0, "ablation runs must still inject faults");
    assert!(
        caught >= 2,
        "disabling recovery must corrupt the view on several seeds (caught {caught}/5)"
    );
}

/// The full acceptance grid: 8 seeds × 3 profiles × 2 strategies × 2
/// correction policies, every run audited at every commit. ~half a minute
/// in release mode; run via `scripts/verify.sh` or
/// `cargo test --release --test chaos_props -- --include-ignored`.
#[test]
#[ignore = "full grid; run with --include-ignored (scripts/verify.sh)"]
fn chaos_full_grid_terminates_and_converges() {
    let mut injected = 0u64;
    let mut parked = 0u64;
    let mut retried = 0u64;
    for profile in FaultProfile::all() {
        for seed in 0..8u64 {
            for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
                for policy in [CorrectionPolicy::MergeCycles, CorrectionPolicy::MergeAll] {
                    let cfg =
                        ChaosConfig::new(profile, seed).with_strategy(strategy).with_policy(policy);
                    let report = assert_healthy(&cfg);
                    injected += report.fault_injected;
                    parked += report.parked_steps;
                    retried += report.retry_attempts;
                }
            }
        }
    }
    assert!(injected > 0, "the grid must inject faults");
    assert!(retried > 0, "the crash/timeout profile must exercise the retry path");
    // Parking is possible but not guaranteed at these intensities; it is
    // covered deterministically by the unit test
    // `permanent_fault_exhausts_and_parks` in dyno-view.
    let _ = parked;
}

#[test]
#[ignore = "full grid companion; run with --include-ignored (scripts/verify.sh)"]
fn chaos_full_grid_is_deterministic() {
    // Same (profile, seed) twice → identical outcome, step count, fault
    // count, and simulated-time series.
    for profile in FaultProfile::all() {
        let cfg = ChaosConfig::new(profile, 4).with_strategy(Strategy::Optimistic);
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.converged, b.converged, "{}", profile.name);
        assert_eq!(a.steps, b.steps, "{}", profile.name);
        assert_eq!(a.fault_injected, b.fault_injected, "{}", profile.name);
        assert_eq!(a.metrics, b.metrics, "{}: bit-identical series", profile.name);
    }
}
