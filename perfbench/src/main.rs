//! Wall-clock maintenance-capacity benchmark for the Dyno warehouse.
//!
//! ```text
//! perfbench --workload <du_backlog|sc_conflict|multiview_wal> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! A run replays the workload as episodes, each set up from scratch, until
//! `--seconds` of wall time are used, checks every episode's outputs, and
//! prints one JSON result as the last stdout line.
//!
//! `--trace 0` runs a new instance of the workload (derived from the seed)
//! in each episode and reports end-to-end metrics over all of them.
//! `--trace 1` runs instance 0 only, alternating untraced and traced
//! episodes, and reports per-layer metrics derived from the traced
//! episodes' spans. Either way the last episode replays instance 0, which
//! must repeat its counts exactly. See README.md.

mod episode;
mod layers;
mod probe;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use episode::{run_episode, Episode};
use workload::{schedule, schedule_digest, Workload};

/// The seed of instance `k` of run seed `seed`; distinct for every pair
/// while `k` < 2^16 (a run makes a few dozen episodes at most).
fn instance_seed(seed: u64, k: u64) -> u64 {
    (seed << 16).wrapping_add(k)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required: {}", names.join("|")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Nearest-rank quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric of the result line: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// An update's latency: the wall time of the cycles from the one whose
/// drain delivered it to the one after which every view reflected it.
fn latencies_ms(cycle_ns: &[u64], settles: &[(u32, u32)]) -> Vec<f64> {
    let mut prefix = vec![0u64; cycle_ns.len() + 1];
    for (c, ns) in cycle_ns.iter().enumerate() {
        prefix[c + 1] = prefix[c] + ns;
    }
    settles
        .iter()
        .map(|&(d, r)| (prefix[r as usize + 1] - prefix[d as usize]) as f64 / 1e6)
        .collect()
}

/// Metrics over episodes, each one instance. Each is the median of a
/// per-episode figure, so a phase of the host that slows a few episodes
/// does not move it; a pooled latency quantile would also follow whichever
/// instance stalled longest. An episode has at least 1020 latency
/// samples, so at least 10 lie beyond its p99.
fn end_to_end(eps: &[Episode]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Episode) -> f64| median(&eps.iter().map(f).collect::<Vec<_>>());
    let latency_ms = |e: &Episode, q: f64| quantile(&latencies_ms(&e.cycle_ns, &e.settles), q);
    vec![
        ("updates_per_s", per(&|e| e.settled as f64 / (e.busy_ns as f64 / 1e9)), "1/s"),
        ("update_latency_p50_ms", per(&|e| latency_ms(e, 0.50)), "ms"),
        ("update_latency_p99_ms", per(&|e| latency_ms(e, 0.99)), "ms"),
        ("setup_s", per(&|e| e.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let name = w.name();
    let start = Instant::now();
    // Untraced runs take a new instance per episode, so one draw of the
    // schedule does not set the tail; traced runs alternate untraced and
    // traced episodes of instance 0 (the tracing overhead). The last
    // episode, once another would not fit in `--seconds`, replays instance 0
    // for the self-check; an untraced run leaves it out of the metrics.
    let mut eps: Vec<Episode> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    let mut last = false;
    while !last {
        let n = eps.len() as u64;
        let elapsed = start.elapsed().as_secs_f64();
        last = n >= 2 && elapsed + 2.0 * elapsed / n as f64 > args.seconds;
        let traced = args.trace && n % 2 == 1;
        let seed = instance_seed(args.seed, if args.trace || last { 0 } else { n });
        let ep = run_episode(w, seed, traced)?;
        let ms = latencies_ms(&ep.cycle_ns, &ep.settles);
        println!(
            "{name} instance seed {seed} episode {n}{}: setup {:.3} s, busy {:.3} s, latency \
             p50 {:.1} ms p99 {:.1} ms, {} committed, {} reflected, {}",
            if traced { " (traced)" } else { "" },
            ep.setup_s,
            ep.busy_ns as f64 / 1e9,
            quantile(&ms, 0.50),
            quantile(&ms, 0.99),
            ep.committed,
            ep.settled,
            if ep.drained { "drained" } else { "not drained" },
        );
        if let Some(f) = &ep.failure {
            println!("{name}: maintenance stopped at {f}");
        }
        if !ep.bad_views.is_empty() {
            println!("{name}: views failing the output check: {}", ep.bad_views.join(", "));
        }
        eps.push(ep);
        seeds.push(seed);
    }

    // Determinism self-check: an instance replayed again must repeat every
    // count; the next run seed must change the schedule.
    let mut repeats = 0;
    let mut repeatable = true;
    for (i, e) in eps.iter().enumerate() {
        if let Some(j) = seeds[..i].iter().position(|&s| s == seeds[i]) {
            repeats += 1;
            if e.fp != eps[j].fp {
                repeatable = false;
                println!("{name}: episode {j} fingerprint {:?}", eps[j].fp);
                println!("{name}: episode {i} fingerprint {:?}", e.fp);
            }
        }
    }
    let fp0 = &eps[0].fp;
    let next = instance_seed(args.seed.wrapping_add(1), 0);
    let other_seed_differs =
        schedule_digest(&schedule(w, seeds[0])) != schedule_digest(&schedule(w, next));
    println!(
        "{name} fingerprint: admitted={} committed={} reflected={} cycles={} core={:?} \
         exec={:?} wal_bytes={} virtual_us={} subplan={}/{} umq_depth_max={} extents_crc={:08x}",
        fp0.admitted,
        fp0.committed,
        fp0.settled,
        fp0.cycles,
        fp0.core,
        fp0.exec,
        fp0.wal_bytes,
        fp0.virtual_us,
        fp0.subplan_hits,
        fp0.subplan_misses,
        fp0.umq_depth_max,
        fp0.extents_crc,
    );
    println!(
        "{name} self-check: {repeats} replayed episodes repeat their fingerprint: {repeatable}; \
         run seed {} changes the schedule: {other_seed_differs}",
        args.seed.wrapping_add(1),
    );

    let attempted: u64 = eps.iter().map(|e| e.committed).sum();
    let failed: u64 = eps.iter().map(|e| e.failed).sum();
    let samples: usize = eps.iter().map(|e| e.settles.len()).sum();
    println!(
        "{name}: failed_frac {} ({failed} of {attempted} committed updates unreflected), \
         {samples} latency samples",
        failed as f64 / attempted.max(1) as f64
    );
    let correct =
        repeats > 0 && repeatable && other_seed_differs && eps.iter().all(Episode::correct);
    let metrics = if args.trace {
        let (untraced, traced): (Vec<&Episode>, Vec<&Episode>) =
            eps.iter().partition(|e| e.layers.is_none());
        let (metrics, table) = layers::per_layer(&untraced, &traced);
        print!("{table}");
        layers::write_spans(name, args.seed, traced.last().copied())?;
        metrics
    } else {
        let metrics = end_to_end(&eps[..eps.len() - 1]);
        for (n, v, u) in &metrics {
            println!("{name}: {n} = {v} {u}");
        }
        metrics
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_spans_the_cycles_from_drain_to_reflection() {
        let ms = latencies_ms(&[1_000_000, 2_000_000, 4_000_000], &[(0, 0), (0, 2), (1, 2)]);
        assert_eq!(ms, vec![1.0, 7.0, 6.0]);
    }

    #[test]
    fn instance_seeds_never_collide_across_run_seeds() {
        let all: std::collections::BTreeSet<u64> =
            (0..50).flat_map(|s| (0..100).map(move |k| instance_seed(s, k))).collect();
        assert_eq!(all.len(), 50 * 100);
    }
}
