//! Wall-clock benchmark of the P-MoVE monitoring pipeline: sample → ship
//! → WAL → shard insert → plan → scan → aggregate → serve, driven through
//! the public APIs of the `core`, `pcp`, `tsdb`, `store` and `serve`
//! crates.
//!
//! ```text
//! perfbench --workload <monitor|dashboard|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats one workload's fixed unit of work (a *rep*: boot a
//! durable daemon, run the workload, crash the disk, recover, check)
//! until `--seconds` have passed and at least `MIN_REPS` reps are done,
//! and reduces the reps' figures as `end_to_end` describes. Every rep runs
//! the same inputs, made from `--seed`, whatever the machine's speed, so a
//! figure compares across commits. With
//! `--trace 1` every other rep is traced: spans around the calls into
//! each layer give the per-layer figures, and the untraced reps give the
//! tracing overhead.
//!
//! Every figure is wall-clock time, an allocation count, live heap bytes
//! or a byte/row count taken here; none is a modeled virtual-clock time.

mod alloc;
mod backend;
mod layers;
mod stats;
mod trace;
mod vfs;
mod workload;

use stats::{mean, median, ratio, sum};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::run_rep;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Monitor,
    Dashboard,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "monitor" => Some(Workload::Monitor),
            "dashboard" => Some(Workload::Dashboard),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        opts.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| opts.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?.to_string();
    let workload = Workload::parse(&name).ok_or("unknown --workload")?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        name,
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed, plus the output checks by name.
#[derive(Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    checks: BTreeMap<&'static str, (u64, u64)>,
    failures: Vec<String>,
}

impl Ledger {
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            self.failures.push(what);
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        let entry = self.checks.entry(name).or_default();
        entry.1 += 1;
        if ok {
            entry.0 += 1;
        } else {
            self.fail(1, format!("{name}: {}", what()));
        }
    }
}

/// A per-layer figure: name, value, unit.
pub type Layer = (&'static str, f64, &'static str);
/// A reported figure: name, value, unit, how it was taken.
pub type Figure = (&'static str, f64, &'static str, String);

/// What one rep measured.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    pub window_ms: Vec<f64>,
    pub window_values: u64,
    pub mem_bytes_per_value: f64,
    pub disk_bytes_per_value: f64,
    pub recovery_s: f64,
    pub query_us: Vec<f64>,
    /// Backend execution times inside serve rounds (µs).
    pub backend_us: Vec<f64>,
    pub render_ms: Vec<f64>,
    pub round_ms: Vec<f64>,
    pub round_requests: u64,
    /// Rep wall time less checks and trace-only passes.
    pub timed_s: f64,
    /// Per-layer figures (traced reps only).
    pub layers: Vec<Layer>,
}

/// Plain reps every run makes at least, so that each pooled tail below
/// has at least ten samples beyond its percentile.
const MIN_REPS: usize = 10;

/// The end-to-end figures of a run, in `BENCHMARK.json` order.
///
/// A timing taken in every rep (a median, a mean, a rate, a recovery) is
/// reduced to one value per rep, and the run reports the better quartile
/// of those values: on a shared host some reps run slowed by co-tenants,
/// and the quartile keeps them from setting the figure unless most reps
/// are slow. Counts, ratios and the set-up time are medians over reps. A tail pools
/// the samples of the better half of reps, ranked by their median, for
/// the same reason; its percentile follows from the samples of half of
/// `MIN_REPS` reps, so it does not move with the number of reps a run
/// completes.
fn end_to_end(reps: &[Rep]) -> Vec<Figure> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let lower = |f: &dyn Fn(&Rep) -> f64| stats::percentile(&per_rep(f), 25.0);
    let higher = |f: &dyn Fn(&Rep) -> f64| stats::percentile(&per_rep(f), 75.0);
    let mid = |f: &dyn Fn(&Rep) -> f64| median(&per_rep(f));
    let tail = |f: fn(&Rep) -> &Vec<f64>| -> (f64, f64, usize) {
        let mut ranked: Vec<&Vec<f64>> = reps.iter().map(f).collect();
        ranked.sort_by(|a, b| median(a).total_cmp(&median(b)));
        let pooled: Vec<f64> = ranked[..reps.len().div_ceil(2)]
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect();
        let p = stats::tail_percentile(f(&reps[0]).len() * MIN_REPS / 2);
        (p, stats::percentile(&pooled, p), pooled.len())
    };
    // Last-quarter over first-quarter window time (every window of a rep
    // carries the same number of values).
    let growth = |r: &Rep| {
        let (w, q) = (&r.window_ms, r.window_ms.len() / 4);
        ratio(sum(&w[w.len() - q..]), sum(&w[..q]))
    };
    let (wp, wt, wn) = tail(|r| &r.window_ms);
    let (qp, qt, qn) = tail(|r| &r.query_us);
    let (rp, rt, rn) = tail(|r| &r.round_ms);
    let n = reps.len();
    let q1 = format!("better quartile of {n} reps");
    let med = format!("median of {n} reps");
    vec![
        ("setup_s", mid(&|r| r.setup_s), "s", med.clone()),
        (
            "ingest_values_per_s",
            higher(&|r| ratio(r.window_values as f64, sum(&r.window_ms) / 1e3)),
            "1/s",
            q1.clone(),
        ),
        (
            "ingest_window_p50_ms",
            lower(&|r| median(&r.window_ms)),
            "ms",
            format!("{q1}, {} windows each", reps[0].window_ms.len()),
        ),
        (
            "ingest_window_tail_ms",
            wt,
            "ms",
            format!("p{wp} of {wn} pooled windows of the better half"),
        ),
        ("ingest_cost_growth", mid(&growth), "ratio", med.clone()),
        (
            "disk_bytes_per_value",
            mid(&|r| r.disk_bytes_per_value),
            "B",
            med.clone(),
        ),
        ("recovery_s", lower(&|r| r.recovery_s), "s", q1.clone()),
        (
            "mem_bytes_per_value",
            mid(&|r| r.mem_bytes_per_value),
            "B",
            med,
        ),
        (
            "query_p50_us",
            lower(&|r| median(&r.query_us)),
            "us",
            format!("{q1}, {} queries each", reps[0].query_us.len()),
        ),
        (
            "query_tail_us",
            qt,
            "us",
            format!("p{qp} of {qn} pooled queries of the better half"),
        ),
        // A mean: on `serve_mixed` a rep's renders grow with its history,
        // so their median would be one mid-rep render.
        (
            "dashboard_render_ms",
            lower(&|r| mean(&r.render_ms)),
            "ms",
            format!("{q1}, mean of {} renders each", reps[0].render_ms.len()),
        ),
        (
            "serve_requests_per_s",
            higher(&|r| ratio(r.round_requests as f64, sum(&r.round_ms) / 1e3)),
            "1/s",
            format!("{q1}, {} requests each", reps[0].round_requests),
        ),
        (
            "serve_round_p50_ms",
            lower(&|r| median(&r.round_ms)),
            "ms",
            format!("{q1}, {} rounds each", reps[0].round_ms.len()),
        ),
        (
            "serve_round_tail_ms",
            rt,
            "ms",
            format!("p{rp} of {rn} pooled rounds of the better half"),
        ),
    ]
}

/// Median over traced reps of each per-layer figure, in first-rep order
/// (every traced rep records the same figures in the same order).
fn layer_medians(traced: &[Rep]) -> Vec<Layer> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    first
        .layers
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let vals: Vec<f64> = traced.iter().map(|r| r.layers[i].1).collect();
            (*name, median(&vals), *unit)
        })
        .collect()
}

fn json_metrics(figures: &[Layer]) -> String {
    let body: Vec<String> = figures
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut ledger = Ledger::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut index = 0u64;
    loop {
        let is_traced = args.trace && index % 2 == 1;
        match run_rep(args.workload, args.seed, index, is_traced, &mut ledger) {
            Ok(rep) if is_traced => traced.push(rep),
            Ok(rep) => plain.push(rep),
            Err(e) => {
                ledger.fail(1, e);
                break;
            }
        }
        index += 1;
        // The traced run reports no end-to-end figure, so one plain rep
        // (the tracing-overhead baseline) is enough there.
        let enough = if args.trace {
            !plain.is_empty() && !traced.is_empty()
        } else {
            plain.len() >= MIN_REPS
        };
        if start.elapsed() >= budget && enough {
            break;
        }
    }

    let e2e = if plain.is_empty() {
        Vec::new()
    } else {
        end_to_end(&plain)
    };
    println!(
        "workload {} seed {} reps {} (+{} traced) in {:.1}s, parallelism {}",
        args.name,
        args.seed,
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (name, value, unit, detail) in &e2e {
        println!("  {name:<28} {value:>14.4} {unit:<6} {detail}");
    }
    let error_rate = ratio(ledger.failed as f64, ledger.attempted as f64);
    println!(
        "  {:<28} {:>14.6} ratio  {} failed of {} attempted",
        "error_rate", error_rate, ledger.failed, ledger.attempted
    );
    for (name, (ok, total)) in &ledger.checks {
        println!("  check {name:<40} {ok}/{total} passed");
    }
    for f in ledger.failures.iter().take(20) {
        println!("  FAILED {f}");
    }

    let metrics: Vec<Layer> = if args.trace {
        let mut per_layer = layer_medians(&traced);
        let timed = |reps: &[Rep]| median(&reps.iter().map(|r| r.timed_s).collect::<Vec<_>>());
        per_layer.push((
            "trace.overhead_ratio",
            ratio(timed(&traced), timed(&plain)),
            "ratio",
        ));
        println!(
            "  per-layer figures, median over {} traced reps:",
            traced.len()
        );
        for (name, value, unit) in &per_layer {
            println!("    {name:<42} {value:>14.4} {unit}");
        }
        per_layer
    } else {
        e2e.iter().map(|(n, v, u, _)| (*n, *v, *u)).collect()
    };
    let correct = ledger.failed == 0 && metrics.iter().all(|m| m.1.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted.max(1),
        ledger.failed,
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
