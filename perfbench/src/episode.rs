//! One episode: set up a workload, replay it through the warehouse until
//! the schedule is maintained (or a step fails), then check the outputs
//! outside the timed region.
//!
//! The replay is open-loop in simulated time (the schedule commits at the
//! source whatever the warehouse is doing) and closed-loop in wall time:
//! each cycle drains the port, calls `Warehouse::ingest`, then
//! `Warehouse::step`, and the next cycle starts when the step returns.
//! The episode keeps each cycle's wall time and, per update, the cycle
//! that delivered it and the cycle after which every view reflected it, so
//! latencies can be rebuilt from cycle times (see `main.rs`).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use dyno_core::{DynoStats, StepOutcome};
use dyno_durable::{crc32, Enc};
use dyno_obs::Collector;
use dyno_relational::wire::enc_bag;
use dyno_relational::{thread_stats, ExecStats};
use dyno_sim::{check_convergence, check_reflected};
use dyno_source::{InfoSpace, SourceId};
use dyno_view::{SourcePort, Warehouse};

use crate::probe::{ProbedStorage, SharedLog, Span, SpanLog};
use crate::workload::{setup, Workload};

/// A wedged episode is cut here, so a run always ends in bounded time.
const EPISODE_BUDGET: Duration = Duration::from_secs(60);

/// The counts two episodes of the same seed must agree on exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub admitted: u64,
    pub committed: u64,
    pub settled: u64,
    pub cycles: u64,
    pub core: DynoStats,
    pub exec: ExecStats,
    pub wal_bytes: u64,
    pub virtual_us: u64,
    pub subplan_hits: u64,
    pub subplan_misses: u64,
    pub umq_depth_max: u64,
    /// CRC over every view's final extent.
    pub extents_crc: u32,
}

/// Per-layer figures of a traced episode, all derived from its spans.
#[derive(Debug, Clone)]
pub struct Layers {
    pub spans: Vec<Span>,
    /// Durations of the steps that did work (not `Idle`), ns.
    pub busy_steps_ns: Vec<u64>,
    pub source_exec: ExecStats,
}

pub struct Episode {
    pub setup_s: f64,
    /// Wall time inside the replay cycles (drain + ingest + step), ns.
    pub busy_ns: u64,
    /// Wall time of each cycle, ns; they sum to `busy_ns`.
    pub cycle_ns: Vec<u64>,
    /// Per reflected update: `(cycle whose drain delivered it, cycle after
    /// whose step every view reflected it)`.
    pub settles: Vec<(u32, u32)>,
    pub committed: u64,
    pub settled: u64,
    pub failed: u64,
    pub failure: Option<String>,
    /// Views whose extent does not match their claimed source versions.
    pub bad_views: Vec<String>,
    pub drained: bool,
    pub recover_ns: Option<u64>,
    pub fp: Fingerprint,
    pub layers: Option<Layers>,
}

impl Episode {
    pub fn correct(&self) -> bool {
        self.bad_views.is_empty()
    }
}

/// Source → queue of `(version, cycle that drained it)` awaiting reflection.
type Pending = BTreeMap<u32, VecDeque<(u64, u32)>>;

/// The version of `source` every view (and the warehouse floor) reflects.
fn reflected_floor(wh: &Warehouse, source: u32) -> u64 {
    let mut floor = wh.reflected().get(&SourceId(source)).copied().unwrap_or(0);
    for i in 0..wh.view_count() {
        for (s, v) in wh.view_reflected(i) {
            if s == source {
                floor = floor.min(v);
            }
        }
    }
    floor
}

pub fn run_episode(w: Workload, seed: u64, traced: bool) -> Result<Episode, String> {
    let log: Option<SharedLog> = traced.then(SpanLog::shared);
    let t_setup = Instant::now();
    let mut s = setup(w, seed, log.as_ref())?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let initial: HashMap<SourceId, u64> = s.port.inner.space().versions();
    let exec0 = thread_stats();
    let mut pending = Pending::new();
    let mut cycle_ns = Vec::new();
    let mut settles = Vec::new();
    let mut busy = Duration::ZERO;
    let mut busy_steps = Vec::new();
    let mut settled = 0u64;
    let mut depth_max = 0u64;
    let mut failure = None;
    let mut drained = false;
    let mut cycle = 0u64;
    loop {
        if let Some(log) = &log {
            log.borrow_mut().set_step(cycle);
        }
        let t0 = Instant::now();
        let msgs = s.port.drain_arrivals();
        SpanLog::scope(log.as_ref(), "ingest", || s.wh.ingest(msgs));
        let out = SpanLog::scope(log.as_ref(), "step", || s.wh.step(&mut s.port));
        let dt = t0.elapsed();
        busy += dt;
        cycle_ns.push(dt.as_nanos() as u64);

        let c = cycle as u32;
        for (src, ver) in s.port.arrivals.drain(..) {
            pending.entry(src.0).or_default().push_back((ver, c));
        }
        for (&src, queue) in pending.iter_mut() {
            let floor = reflected_floor(&s.wh, src);
            while queue.front().is_some_and(|&(v, _)| v <= floor) {
                let (_, drained) = queue.pop_front().expect("front checked");
                settles.push((drained, c));
                settled += 1;
            }
        }
        depth_max = depth_max.max(s.wh.admitted_count().saturating_sub(settled));

        match out {
            Err(e) => {
                failure = Some(format!(
                    "step {cycle} at simulated {:.3} s: {e}",
                    s.port.now_us() as f64 / 1e6
                ));
                break;
            }
            Ok(StepOutcome::Idle) => {
                if !s.port.inner.advance_to_next_commit() {
                    drained = true;
                    break;
                }
            }
            Ok(_) => busy_steps.push(cycle),
        }
        cycle += 1;
        if busy > EPISODE_BUDGET {
            failure =
                Some(format!("step {cycle}: episode exceeded {EPISODE_BUDGET:?} of wall time"));
            break;
        }
    }
    let exec = thread_stats().since(exec0);
    let virtual_us = s.port.now_us();
    let wal_bytes = s.storage.as_ref().map_or(0, |st| st.bytes.get());

    // Everything below is outside the timed region.
    let space = s.port.inner.space();
    let mut bad_views = Vec::new();
    let recover_ns = match &s.storage {
        Some(storage) => {
            if let Some(log) = &log {
                log.borrow_mut().set_step(cycle + 1);
            }
            let (ns, differ) =
                recover_and_compare(&s.wh, storage, space.info().clone(), log.as_ref())?;
            bad_views.extend(differ);
            Some(ns)
        }
        None => None,
    };

    let finals = space.versions();
    let committed: u64 =
        finals.iter().map(|(sid, v)| v - initial.get(sid).copied().unwrap_or(0)).sum();
    let mut mismatched = 0u64;
    for i in 0..s.wh.view_count() {
        let reflected: HashMap<SourceId, u64> =
            s.wh.view_reflected(i).into_iter().map(|(sid, v)| (SourceId(sid), v)).collect();
        let at_claim = check_reflected(space, s.wh.view(i), &reflected, s.wh.mv(i))
            .map_err(|e| format!("check_reflected: {e}"))?;
        let at_end = !drained
            || check_convergence(space, s.wh.view(i), s.wh.mv(i))
                .map_err(|e| format!("check_convergence: {e}"))?;
        if !(at_claim && at_end) {
            bad_views.push(s.wh.view(i).name.clone());
            let claimed: u64 = reflected
                .iter()
                .map(|(sid, v)| v.saturating_sub(initial.get(sid).copied().unwrap_or(0)))
                .sum();
            mismatched = mismatched.max(claimed);
        }
    }
    let unreflected = committed.saturating_sub(settled);
    let failed = (unreflected + mismatched).min(committed);

    let fp = Fingerprint {
        admitted: s.wh.admitted_count(),
        committed,
        settled,
        cycles: cycle,
        core: s.wh.dyno_stats(),
        exec,
        wal_bytes,
        virtual_us,
        subplan_hits: s.wh.subplan_hits(),
        subplan_misses: s.wh.subplan_misses(),
        umq_depth_max: depth_max,
        extents_crc: extents_crc(&s.wh),
    };
    let layers = log.map(|log| {
        let mut log = log.borrow_mut();
        let spans = std::mem::take(&mut log.spans);
        let busy_steps_ns = step_durations(&spans, &busy_steps);
        Layers { spans, busy_steps_ns, source_exec: log.source_exec }
    });
    Ok(Episode {
        setup_s,
        busy_ns: busy.as_nanos() as u64,
        cycle_ns,
        settles,
        committed,
        settled,
        failed,
        failure,
        bad_views,
        drained,
        recover_ns,
        fp,
        layers,
    })
}

/// Durations of the `step` spans of the given (ascending) cycles.
fn step_durations(spans: &[Span], cycles: &[u64]) -> Vec<u64> {
    let mut want = cycles.iter().peekable();
    let mut out = Vec::with_capacity(cycles.len());
    for sp in spans.iter().filter(|sp| sp.name == "step") {
        while want.next_if(|&&c| c < sp.step).is_some() {}
        if want.next_if(|&&c| c == sp.step).is_some() {
            out.push(sp.dur_ns());
        }
    }
    out
}

fn extents_crc(wh: &Warehouse) -> u32 {
    let mut e = Enc::new();
    for i in 0..wh.view_count() {
        enc_bag(&mut e, wh.mv(i).extent());
    }
    crc32(&e.finish())
}

/// Times `Warehouse::recover` on the episode's WAL and names the views
/// the recovered warehouse does not restore exactly (extent and versions).
fn recover_and_compare(
    live: &Warehouse,
    storage: &ProbedStorage,
    info: InfoSpace,
    log: Option<&SharedLog>,
) -> Result<(u64, Vec<String>), String> {
    let storage = Box::new(storage.clone());
    let t = Instant::now();
    let recovered =
        SpanLog::scope(log, "recover", || Warehouse::recover(storage, info, Collector::disabled()));
    let ns = t.elapsed().as_nanos() as u64;
    let (wh, _) = recovered.map_err(|e| format!("recover: {e}"))?;
    let differ = (0..live.view_count())
        .filter_map(|i| {
            let what = if wh.mv(i).extent() != live.mv(i).extent() {
                "extent"
            } else if wh.view_reflected(i) != live.view_reflected(i) {
                "versions"
            } else {
                return None;
            };
            Some(format!("{} (recovered {what} differs)", live.view(i).name))
        })
        .collect();
    Ok((ns, differ))
}
