//! The benchmark's workloads: what each one feeds the warehouse, built
//! only from `dyno_sim`'s public testbed and generators. Everything is a
//! function of the workload seed. See `perfbench/README.md` for why each
//! workload exists and which layer it stresses.

use dyno_core::Strategy;
use dyno_durable::crc32;
use dyno_sim::{
    build_multiview, build_testbed, CostModel, OpenLoopConfig, ScheduledCommit, SimPort,
    TestbedConfig, WorkloadGen,
};
use dyno_source::SourceSpace;
use dyno_view::wal::DurableLog;
use dyno_view::{ViewDefinition, Warehouse};

use crate::probe::{ProbedPort, ProbedStorage, SharedLog};

/// Tuples per testbed relation (the paper testbed at its default scale).
const TUPLES: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Keyed Zipf upserts at twice the cost-model knee into one 6-way view.
    DuBacklog,
    /// Paper Fig. 10 mix: a DU stream plus a schema-change train at the
    /// abort-peak interval, one 6-way view.
    ScConflict,
    /// Evenly spaced inserts into four overlapping views with a WAL, then
    /// recovery; no commit lands while a maintenance runs.
    MultiviewWal,
    /// Four views with a WAL fed `DuBacklog`'s keyed upserts at 8 DU/s:
    /// reproduces the multi-view defect (README.md), so its runs fail.
    MultiviewWalUpsert,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DuBacklog,
        Workload::ScConflict,
        Workload::MultiviewWal,
        Workload::MultiviewWalUpsert,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DuBacklog => "du_backlog",
            Workload::ScConflict => "sc_conflict",
            Workload::MultiviewWal => "multiview_wal",
            Workload::MultiviewWalUpsert => "multiview_wal_upsert",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn multiview(self) -> bool {
        matches!(self, Workload::MultiviewWal | Workload::MultiviewWalUpsert)
    }
}

/// Views of the multi-view workloads: view i is `R0 ⋈ R1 ⋈ R{2+i}`.
const VIEWS: usize = 4;
/// Length of `DuBacklog`'s stream, simulated seconds: long enough for the
/// queue to back up to ~600 updates, short enough for a run to pool ~15
/// instances (whose work differs by up to a third).
const BACKLOG_STREAM_S: u64 = 150;
/// Length of `MultiviewWalUpsert`'s stream, simulated seconds.
const UPSERT_STREAM_S: u64 = 300;
/// Inserts of `MultiviewWal`.
const MULTIVIEW_INSERTS: usize = 2400;
/// Data updates per simulated second: twice the cost model's 4 DU/s knee.
const DU_PER_S: u64 = 8;
/// Gap between `MultiviewWal`'s inserts, simulated µs. One insert's
/// maintenance across the four views ends well inside it, so no update is
/// concurrent with a maintenance query: the multi-view warehouse returns
/// wrong extents when one is (README.md).
const MULTIVIEW_GAP_US: u64 = 500_000;

fn testbed(seed: u64) -> TestbedConfig {
    TestbedConfig { tuples_per_relation: TUPLES, seed, ..TestbedConfig::default() }
}

/// The commit schedule of `w` at `seed` (no testbed data is built).
pub fn schedule(w: Workload, seed: u64) -> Vec<ScheduledCommit> {
    let mut gen = WorkloadGen::new(testbed(seed), seed ^ 0xd1a0_5eed);
    let stream_s = if w == Workload::DuBacklog { BACKLOG_STREAM_S } else { UPSERT_STREAM_S };
    match w {
        Workload::DuBacklog | Workload::MultiviewWalUpsert => gen.open_loop(&OpenLoopConfig {
            duration_us: stream_s * 1_000_000,
            du_per_sec: DU_PER_S as f64,
            zipf_skew: 0.8,
            diurnal_amplitude: 0.0,
            sc_storms: 0,
            ..OpenLoopConfig::default()
        }),
        // 1000 DUs every 0.5 s; 20 SCs (a drop, then renames) every 23 s.
        Workload::ScConflict => gen.mixed(1000, 500_000, 20, 0, 23_000_000),
        Workload::MultiviewWal => gen.du_stream(MULTIVIEW_INSERTS, 0, MULTIVIEW_GAP_US),
    }
}

/// A digest of a schedule, to show that another seed changes the work.
pub fn schedule_digest(schedule: &[ScheduledCommit]) -> u32 {
    let mut text = String::new();
    for c in schedule {
        text.push_str(&format!("{}:{}:{:?};", c.at_us, c.source.0, c.update));
    }
    crc32(text.as_bytes())
}

/// A warehouse initialized over its testbed and ready to replay.
pub struct Setup {
    pub port: ProbedPort,
    pub wh: Warehouse,
    pub storage: Option<ProbedStorage>,
}

/// Builds the testbed, the schedule and the warehouse, and initializes it.
pub fn setup(w: Workload, seed: u64, log: Option<&SharedLog>) -> Result<Setup, String> {
    let cfg = testbed(seed);
    let (space, views): (SourceSpace, Vec<ViewDefinition>) = if w.multiview() {
        build_multiview(&cfg, VIEWS)
    } else {
        let (space, view) = build_testbed(&cfg);
        (space, vec![view])
    };
    let info = space.info().clone();
    let sim = SimPort::new(space, schedule(w, seed), CostModel::calibrated(TUPLES as u64));
    let mut port = ProbedPort::new(sim, log.cloned());
    let mut wh = Warehouse::new(info, Strategy::Pessimistic);
    for v in &views {
        wh.add_view(v.clone());
    }
    wh.initialize(&mut port).map_err(|e| format!("initialize: {e}"))?;
    let mut storage = None;
    if w.multiview() {
        let s = ProbedStorage::new(log.cloned());
        let wal = DurableLog::create(Box::new(s.clone())).map_err(|e| format!("wal: {e}"))?;
        wh = wh.with_wal(wal).map_err(|e| format!("with_wal: {e}"))?;
        s.bytes.set(0);
        storage = Some(s);
    }
    if let Some(log) = log {
        log.borrow_mut().reset();
    }
    port.arrivals.clear();
    port.inner.start_metering();
    Ok(Setup { port, wh, storage })
}
