//! Properties of the per-operator cost profiler (DESIGN.md §18), asserted
//! at the facade level against real maintenance runs:
//!
//! * **conservation** — in a captured profile, every per-phase total is
//!   exactly the sum of that phase's child operator nodes, across every
//!   plan, for every column (calls, rows, cancellations, probes, and ns);
//! * **invisibility** — turning the profiler on changes no determinism
//!   surface: a monitored run's full JSON capture and a chaos run's
//!   convergence scalars and metrics registry are byte-identical with the
//!   profiler on and off;
//! * **lineage discipline** — the disabled gate path (the exact sequence
//!   instrumented callers execute when the profiler is off) performs zero
//!   heap allocations, measured with a counting global allocator.
#![cfg(feature = "proptest")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dyno::obs::json::{parse, Value};
use dyno::obs::{Collector, NodeKey, OpPhase, OpSample};
use dyno::sim::{
    run_chaos, run_monitor, ChaosConfig, MonitorConfig, OpenLoopConfig, TestbedConfig,
};

/// Counts heap allocations made by *this thread* only, so the measurement
/// is immune to other tests running concurrently in the same binary.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// A short profiled open-loop run that exercises every plan family: SWEEP
/// seeds/hops/compensations, the warehouse pipeline, and (via the rename
/// storm) the Equation-6 adaptation path.
fn profiled_cfg(seed: u64) -> MonitorConfig {
    MonitorConfig {
        testbed: TestbedConfig { tuples_per_relation: 60, ..Default::default() },
        open_loop: OpenLoopConfig {
            duration_us: 10_000_000,
            du_per_sec: 4.0,
            sc_storms: 1,
            sc_storm_len: 1,
            sc_storm_gap_us: 1_000_000,
            ..Default::default()
        },
        workload_seed: seed,
        tenant_views: 2,
        umq_bound: Some(12),
        drain_windows: 4,
        profile: true,
        ..Default::default()
    }
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_num).unwrap_or_else(|| panic!("missing numeric `{key}`")) as u64
}

/// Asserts that every phase total in a rendered profile equals the sum of
/// that phase's child nodes — for every plan and every column, including
/// `ns` — and returns how many nodes were checked.
fn assert_phase_totals_conserved(rendered: &str) -> usize {
    let doc = parse(rendered).expect("profile JSON parses");
    let plans = doc.get("profile").and_then(|p| p.get("plans")).and_then(Value::as_arr).unwrap();
    assert!(!plans.is_empty());
    let mut checked_nodes = 0usize;
    for plan in plans {
        let nodes = plan.get("nodes").and_then(Value::as_arr).unwrap();
        let phases = plan.get("phases").and_then(Value::as_obj).unwrap();
        for (phase, total) in phases {
            for col in ["calls", "rows_in", "rows_out", "cancelled", "probes", "ns"] {
                let node_sum: u64 = nodes
                    .iter()
                    .filter(|n| n.get("phase").and_then(Value::as_str) == Some(phase))
                    .map(|n| num(n, col))
                    .sum();
                assert_eq!(
                    node_sum,
                    num(total, col),
                    "phase `{phase}` column `{col}` is not the sum of its nodes in plan {:?}·{:?}",
                    plan.get("view"),
                    plan.get("scope"),
                );
            }
        }
        checked_nodes += nodes.len();
    }
    assert!(checked_nodes > 0, "conservation held vacuously — no nodes captured");
    checked_nodes
}

/// Every phase total in the rendered JSON equals the sum of that phase's
/// child nodes — for every plan and every column, including `ns`.
#[test]
fn phase_totals_are_conserved_sums_of_operator_nodes() {
    let report = run_monitor(&profiled_cfg(7)).expect("profiled run");
    assert!(report.profile.plan_count() > 0, "run captured no plans");
    assert_phase_totals_conserved(&report.profile.render_json());

    // Renders are byte-stable for a fixed set of samples.
    assert_eq!(report.profile.render_json(), report.profile.render_json());
    assert_eq!(report.profile.render_text(None), report.profile.render_text(None));
}

/// Chaos runs maintain their view through the warehouse pipeline, so a
/// profiled capture holds the `(warehouse, pipeline)` plan — classification,
/// extent apply — next to the SWEEP and adaptation plans, and its phase
/// totals stay conserved.
#[test]
fn chaos_capture_profiles_the_warehouse_pipeline() {
    let report = run_chaos(&ChaosConfig::new(dyno::fault::FaultProfile::quiet(), 0).with_profile());
    assert!(report.converged);
    let profile = report.obs.profile_snapshot();
    let pipeline =
        profile.plan("warehouse", "pipeline").expect("chaos capture lacks the pipeline plan");
    assert_eq!(pipeline.invocations, report.metrics.attempts, "one invocation per attempt");
    let phases = pipeline.phase_totals();
    assert!(phases.contains_key(&OpPhase::Detect) && phases.contains_key(&OpPhase::Apply));
    assert_phase_totals_conserved(&profile.render_json());
}

/// The profiler cannot move a byte of any determinism surface: the
/// monitored run's combined JSON capture (run summary, registry series,
/// staleness lanes) is identical with the profiler on and off.
#[test]
fn monitor_capture_is_bit_identical_with_profiler_on_and_off() {
    let on = run_monitor(&profiled_cfg(42)).expect("profiled run");
    let off =
        run_monitor(&MonitorConfig { profile: false, ..profiled_cfg(42) }).expect("plain run");
    assert_eq!(on.to_json(), off.to_json(), "profiler leaked into the JSON capture");
    assert!(on.profile.plan_count() > 0);
    assert!(off.profile.is_empty());
}

/// Same property against the fault-injection path: a chaos run's extents
/// (via final extent size), convergence scalars, and entire metrics
/// registry are unchanged by the profiler.
#[test]
fn chaos_run_is_bit_identical_with_profiler_on_and_off() {
    for profile in dyno::fault::FaultProfile::all() {
        let base = ChaosConfig::new(profile, 11);
        let profiled = base.clone().with_profile();
        let off = run_chaos(&base);
        let on = run_chaos(&profiled);
        assert!(off.converged && on.converged, "{}: runs must converge", profile.name);
        assert_eq!(off.final_mv_len, on.final_mv_len, "{}: extent moved", profile.name);
        assert_eq!(off.steps, on.steps, "{}: steps moved", profile.name);
        assert_eq!(off.fault_injected, on.fault_injected, "{}", profile.name);
        assert_eq!(
            off.obs.metrics_text(),
            on.obs.metrics_text(),
            "{}: registry moved with the profiler on",
            profile.name
        );
        assert!(on.obs.profile_snapshot().plan_count() > 0, "{}", profile.name);
        assert!(off.obs.profile_snapshot().is_empty(), "{}", profile.name);
    }
}

/// The disabled path instrumented callers actually execute — one gate
/// check, or an early-returning record call — performs zero allocations.
#[test]
fn disabled_profiler_path_does_not_allocate() {
    let obs = Collector::wall();
    assert!(!obs.profile_on());
    // Warm up lazily-initialized state (TLS, collector internals) so the
    // measured loop sees steady state.
    obs.profile_invocation("V", "warm");
    obs.profile_op(
        "V",
        "warm",
        NodeKey { step: 0, phase: OpPhase::Seed, op: "warm", detail: String::new() },
        OpSample::default(),
    );

    let before = thread_allocations();
    for i in 0..10_000u64 {
        // The caller-side gate: cheap check, no timestamp, no key built.
        if obs.profile_on() {
            unreachable!("profiler is off");
        }
        // The store-side gates: both must bail before touching the map.
        obs.profile_invocation("V", "scope");
        obs.profile_op(
            "V",
            "scope",
            // An empty `String` does not allocate, so a disabled-path
            // allocation here can only come from the profiler itself.
            NodeKey { step: i as u32, phase: OpPhase::Seed, op: "noop", detail: String::new() },
            OpSample::default(),
        );
    }
    let delta = thread_allocations() - before;
    assert_eq!(delta, 0, "disabled profiler path allocated {delta} times in 10k iterations");
}
