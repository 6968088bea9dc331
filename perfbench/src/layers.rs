//! Per-layer metrics of a traced run, derived from the episode's spans.
//!
//! Layers are named by crate: `view` (the warehouse: `ingest`/`step` self
//! time), `sim` (the port: `execute`, `fetch_relation_at`,
//! `drain_arrivals`), `durable` (the WAL storage: `append`, `replace`),
//! `relational` (executor counts) and `core` (scheduler counts). A span's
//! self time is its duration minus its children's, so the layers' self
//! times add up to the cycles' total by construction; the table also shows
//! how far that total is from the replay loop's own clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

use crate::episode::{Episode, Layers};
use crate::probe::Span;
use crate::{median, quantile, Metric};

/// Self and total time per span name, over the cycle spans of an episode
/// (recovery spans are kept apart).
struct Breakdown {
    /// name → (calls, total ns, self ns)
    by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Sum of the cycles' top-level span durations, ns.
    cycles_ns: u64,
    /// Spans that do not lie inside their parent's interval.
    misnested: usize,
    recover_ns: u64,
}

fn breakdown(spans: &[Span]) -> Breakdown {
    let mut child_ns = vec![0u64; spans.len()];
    let mut root = vec![0usize; spans.len()];
    let mut misnested = 0;
    for (i, sp) in spans.iter().enumerate() {
        match sp.parent {
            Some(p) => {
                child_ns[p] += sp.dur_ns();
                root[i] = root[p];
                let outer = &spans[p];
                if sp.start_ns < outer.start_ns || sp.end_ns > outer.end_ns {
                    misnested += 1;
                }
            }
            None => root[i] = i,
        }
    }
    let mut b = Breakdown { by_name: BTreeMap::new(), cycles_ns: 0, misnested, recover_ns: 0 };
    for (i, sp) in spans.iter().enumerate() {
        if spans[root[i]].name == "recover" {
            if sp.parent.is_none() {
                b.recover_ns += sp.dur_ns();
            }
            continue;
        }
        if sp.parent.is_none() {
            b.cycles_ns += sp.dur_ns();
        }
        let e = b.by_name.entry(sp.name).or_default();
        e.0 += 1;
        e.1 += sp.dur_ns();
        e.2 += sp.dur_ns() - child_ns[i];
    }
    b
}

impl Breakdown {
    fn get(&self, name: &str) -> (u64, u64, u64) {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    fn self_ns(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.get(n).2).sum()
    }
}

const VIEW: [&str; 2] = ["ingest", "step"];
const SIM: [&str; 3] = ["execute", "fetch_relation_at", "drain_arrivals"];
const DURABLE: [&str; 2] = ["append", "replace"];

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn lay(e: &Episode) -> &Layers {
    e.layers.as_ref().expect("traced episodes carry their spans")
}

/// The per-layer metrics and the printed table. Timings are medians over
/// the traced episodes; counts repeat exactly, so they come from the first.
pub fn per_layer(untraced: &[&Episode], traced: &[&Episode]) -> (Vec<Metric>, String) {
    let first = traced[0];
    let bds: Vec<Breakdown> = traced.iter().map(|e| breakdown(&lay(e).spans)).collect();
    let med = |f: &dyn Fn(usize) -> f64| median(&(0..traced.len()).map(f).collect::<Vec<_>>());

    let fp = &first.fp;
    let updates = fp.settled;
    let core = fp.core;
    let total = fp.exec;
    let source = lay(first).source_exec;
    let local_us = med(&|i| us(bds[i].get("step").2));
    let exec_calls = bds[0].get("execute").0;
    let execute_us = med(&|i| us(bds[i].get("execute").1));
    let step_q = |q: f64| {
        med(&|i| {
            let steps: Vec<f64> = lay(traced[i]).busy_steps_ns.iter().map(|&ns| us(ns)).collect();
            quantile(&steps, q)
        })
    };
    let busy = |eps: &[&Episode]| median(&eps.iter().map(|e| e.busy_ns as f64).collect::<Vec<_>>());
    let overhead_pct =
        if untraced.is_empty() { 0.0 } else { (busy(traced) / busy(untraced) - 1.0) * 100.0 };
    let unattributed_us = med(&|i| traced[i].busy_ns as f64 / 1e3 - us(bds[i].cycles_ns));
    let recover_ms = med(&|i| traced[i].recover_ns.unwrap_or(0) as f64 / 1e6);

    let metrics: Vec<Metric> = vec![
        ("view.ingest_us", med(&|i| us(bds[i].get("ingest").1)), "us"),
        ("view.step_p50_us", step_q(0.50), "us"),
        ("view.step_p99_us", step_q(0.99), "us"),
        ("view.local_us", local_us, "us"),
        ("view.local_us_per_update", local_us / updates.max(1) as f64, "us"),
        ("view.umq_depth_max", fp.umq_depth_max as f64, "count"),
        (
            "view.subplan_hit_ratio",
            ratio(fp.subplan_hits, fp.subplan_hits + fp.subplan_misses),
            "ratio",
        ),
        ("relational.rows_scanned.source", source.rows_scanned as f64, "count"),
        (
            "relational.rows_scanned.local",
            (total.rows_scanned - source.rows_scanned) as f64,
            "count",
        ),
        (
            "relational.hash_join_steps.local",
            (total.hash_join_steps - source.hash_join_steps) as f64,
            "count",
        ),
        ("relational.index_probes", total.index_probes as f64, "count"),
        ("relational.weights_cancelled", total.weights_cancelled as f64, "count"),
        ("sim.execute_calls", exec_calls as f64, "count"),
        ("sim.execute_us", execute_us, "us"),
        ("sim.execute_us_per_call", execute_us / exec_calls.max(1) as f64, "us"),
        ("sim.fetch_at_calls", bds[0].get("fetch_relation_at").0 as f64, "count"),
        ("sim.fetch_at_us", med(&|i| us(bds[i].get("fetch_relation_at").1)), "us"),
        ("sim.drain_us", med(&|i| us(bds[i].get("drain_arrivals").1)), "us"),
        ("sim.virtual_s", fp.virtual_us as f64 / 1e6, "s"),
        ("core.graph_builds", core.graph_builds as f64, "count"),
        ("core.merges", core.merges as f64, "count"),
        ("core.reorders", core.reorders as f64, "count"),
        ("core.broken_queries", core.broken_queries as f64, "count"),
        ("core.fast_path_hits", core.fast_path_hits as f64, "count"),
        ("core.useful_ratio", ratio(core.committed, core.committed + core.broken_queries), "ratio"),
        ("durable.append_calls", bds[0].get("append").0 as f64, "count"),
        ("durable.append_us", med(&|i| us(bds[i].get("append").1)), "us"),
        ("durable.checkpoint_calls", bds[0].get("replace").0 as f64, "count"),
        ("durable.bytes", fp.wal_bytes as f64, "bytes"),
        ("durable.bytes_per_update", ratio(fp.wal_bytes, updates), "bytes"),
        ("durable.recover_ms", recover_ms, "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.unattributed_us", unattributed_us, "us"),
    ];
    (metrics, table(traced, &bds))
}

/// The span table of the first traced episode plus the layer sums.
fn table(traced: &[&Episode], bds: &[Breakdown]) -> String {
    let b = &bds[0];
    let ep = traced[0];
    let ms = |ns: u64| ns as f64 / 1e6;
    let share = |ns: u64| 100.0 * ratio(ns, b.cycles_ns);
    let mut t = String::new();
    let _ = writeln!(
        t,
        "{:<20} {:>9} {:>12} {:>12} {:>7}",
        "span", "calls", "total ms", "self ms", "self %"
    );
    for (name, (calls, total, own)) in &b.by_name {
        let _ = writeln!(
            t,
            "{name:<20} {calls:>9} {:>12.3} {:>12.3} {:>6.1}%",
            ms(*total),
            ms(*own),
            share(*own)
        );
    }
    let view = b.self_ns(&VIEW);
    let sim = b.self_ns(&SIM);
    let durable = b.self_ns(&DURABLE);
    let sum = view + sim + durable;
    let _ = writeln!(
        t,
        "{:<20} {:>9} {:>12} {:>12.3} {:>6.1}%",
        "layer view",
        "",
        "",
        ms(view),
        share(view)
    );
    let _ = writeln!(
        t,
        "{:<20} {:>9} {:>12} {:>12.3} {:>6.1}%",
        "layer sim",
        "",
        "",
        ms(sim),
        share(sim)
    );
    let _ = writeln!(
        t,
        "{:<20} {:>9} {:>12} {:>12.3} {:>6.1}%",
        "layer durable",
        "",
        "",
        ms(durable),
        share(durable)
    );
    let _ = writeln!(
        t,
        "layer self sum {:.3} ms = cycle spans {:.3} ms (difference {} ns); replay-loop clock {:.3} ms \
         (unattributed {:.1} us over {} cycles); {} misnested spans",
        ms(sum),
        ms(b.cycles_ns),
        sum as i64 - b.cycles_ns as i64,
        ep.busy_ns as f64 / 1e6,
        (ep.busy_ns as f64 - b.cycles_ns as f64) / 1e3,
        ep.fp.cycles + 1,
        b.misnested,
    );
    if b.recover_ns > 0 {
        let _ = writeln!(t, "recover {:.3} ms (outside the cycles)", ms(b.recover_ns));
    }
    t
}

/// Writes the last traced episode's spans as JSON lines under
/// `.bench_out/` in the working directory.
pub fn write_spans(workload: &str, seed: u64, ep: Option<&Episode>) -> Result<(), String> {
    let Some(layers) = ep.and_then(|e| e.layers.as_ref()) else {
        return Ok(());
    };
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for (i, sp) in layers.spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"parent\":{parent},\"step\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            sp.step,
            sp.name,
            sp.start_ns,
            sp.dur_ns()
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    w.flush().map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", layers.spans.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, step: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_times_add_up_to_the_cycle_total() {
        let spans = vec![
            span("drain_arrivals", None, 0, 5),
            span("ingest", None, 5, 20),
            span("append", Some(1), 8, 12),
            span("step", None, 20, 120),
            span("execute", Some(3), 30, 60),
            span("drain_arrivals", Some(3), 60, 61),
            span("replace", Some(3), 100, 110),
            span("recover", None, 200, 300),
            span("replace", Some(7), 210, 250),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.cycles_ns, 120);
        assert_eq!(b.self_ns(&VIEW) + b.self_ns(&SIM) + b.self_ns(&DURABLE), 120);
        assert_eq!(b.get("step"), (1, 100, 59));
        assert_eq!(b.get("replace"), (1, 10, 10), "recovery spans are kept apart");
        assert_eq!(b.recover_ns, 100);
        assert_eq!(b.misnested, 0);
    }

    #[test]
    fn a_child_outside_its_parent_is_counted() {
        let spans = vec![span("step", None, 0, 10), span("execute", Some(0), 5, 15)];
        assert_eq!(breakdown(&spans).misnested, 1);
    }
}
