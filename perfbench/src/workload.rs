//! The three workloads: one rep of each drives the pipeline through the
//! program's public APIs, measures it and checks its outputs.

use crate::backend::TimedBackend;
use crate::layers::{boot_steps, layer_figures, query_modes, render_self, write_replay};
use crate::stats::{ratio, sum, Rng};
use crate::trace::Spans;
use crate::vfs::CountingVfs;
use crate::{alloc, Ledger, Rep, Workload};
use pmove_core::dashboard::model::Dashboard;
use pmove_core::dashboard::{gen, render};
use pmove_core::telemetry::scenario_a::{default_gpu_metrics, default_sw_metrics};
use pmove_core::PMoveDaemon;
use pmove_hwsim::network::LinkSpec;
use pmove_obs::Registry;
use pmove_pcp::pmda_linux::LinuxAgent;
use pmove_pcp::pmda_proc::{ProcAgent, TrackedProcess};
use pmove_pcp::{Pmcd, SamplingConfig, Shipper, ShipperStats};
use pmove_serve::{Priority, QueryServer, ServeReport, ServeRequest, ServingConfig};
use pmove_tsdb::store::{MemDisk, Vfs};
use pmove_tsdb::subscribe::Subscription;
use pmove_tsdb::{
    Database, ExecMode, FieldValue, Point, Query, QueryResult, RollupConfig,
    DEFAULT_CACHE_CAPACITY, GAP_MEASUREMENT,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The machine every workload monitors: two sockets, 88 hardware
/// threads, 282 Scenario A field values per tick.
pub const PRESET: &str = "skx";
/// Scenario A SW telemetry rate.
const FREQ_HZ: f64 = 8.0;
/// Virtual length of one `monitor` window.
const WINDOW_S: f64 = 1.0;
/// `monitor`: windows per rep (80 s of history, over a dozen flush and
/// compaction cycles).
const MONITOR_WINDOWS: usize = 80;
/// `dashboard`: history preloaded in set-up, in windows.
const DASHBOARD_PRELOAD_WINDOWS: usize = 40;
/// `dashboard`: closed-loop client passes per rep, each one render of the
/// chosen dashboards plus every aggregate query once, in a seeded order.
const CLIENT_PASSES: usize = 3;
/// `serve_mixed`: history preloaded in set-up, in windows.
const SERVE_PRELOAD_WINDOWS: usize = 10;
/// `serve_mixed`: write-window / serve-round / render cycles per rep.
const SERVE_CYCLES: usize = 30;
/// Serve rounds per rep on `monitor` (after recovery) and `dashboard`.
const READ_ROUNDS: usize = 20;
/// `monitor`: renders of the chosen dashboards after recovery. One pass
/// of queries follows: the cost of a read grows with the reads a daemon
/// has served, so more passes would mix different costs.
const READ_RENDERS: usize = 3;
/// Tenants in every serving schedule.
const TENANTS: u32 = 16;
/// Requests per round over the small panel set.
const PANEL_ROUND_REQUESTS: usize = 2000;
/// Open-loop arrival rate of every schedule (requests/s, virtual time).
const ARRIVAL_RATE_PER_S: f64 = 1_000_000.0;
/// Queries compared against the sequential, cache-off oracle per rep.
const ORACLE_SAMPLE: usize = 24;
/// `GROUP BY time` bucket of the summary aggregates (the 10 s rollup tier).
const BUCKET_NS: i64 = 10_000_000_000;

/// Trace state of a traced rep.
#[derive(Default)]
pub struct Tracing {
    pub spans: Spans,
    /// Points the database accepted, captured for the write-path replay.
    pub accepted: Vec<Point>,
    pub ticks: u64,
    pub points_fetched: u64,
    pub values_lost: u64,
    pub values_zeroed: u64,
    pub backend_us: f64,
    pub executions: u64,
    pub serve_run_us: f64,
    pub requests: u64,
    pub rejected: u64,
    pub shed: u64,
}

/// Open a span when tracing; `None` otherwise.
fn open(tr: &mut Option<Tracing>, name: &'static str, parent: Option<usize>) -> Option<usize> {
    tr.as_mut().map(|t| t.spans.open(name, parent))
}

fn close(tr: &mut Option<Tracing>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.spans.close(id);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn boot(vfs: &Arc<CountingVfs>) -> Result<PMoveDaemon, String> {
    let vfs: Arc<dyn Vfs> = vfs.clone();
    PMoveDaemon::for_preset_durable(PRESET, vfs).map_err(|e| format!("boot: {e}"))
}

/// Seeded pinned background load: four busy hardware threads. It moves
/// the sampled values, not their count.
fn background(rng: &mut Rng) -> Vec<(u32, f64)> {
    (0..4)
        .map(|_| (rng.below(88) as u32, 0.2 + 0.7 * rng.unit()))
        .collect()
}

/// The collector stack `PMoveDaemon::monitor` configures: the agents the
/// machine calls for and the SW metrics some KB twin declares.
fn collectors(d: &PMoveDaemon) -> (Pmcd, Vec<String>) {
    let declared: Vec<String> =
        d.kb.interfaces
            .iter()
            .flat_map(|i| i.telemetry())
            .filter(|t| t.kind == pmove_jsonld::TelemetryKind::Software)
            .map(|t| t.sampler_name.clone())
            .collect();
    let mut metrics: Vec<String> = default_sw_metrics()
        .into_iter()
        .filter(|m| declared.contains(m))
        .collect();
    let mut pmcd = Pmcd::new();
    let mut linux = LinuxAgent::new(d.machine.spec.clone());
    linux.state_mut().set_kernel_busy(&d.background_busy);
    pmcd.register(Box::new(linux));
    if !d.machine.spec.gpus.is_empty() {
        pmcd.register(Box::new(pmove_pcp::pmda_nvidia::NvidiaAgent::new(
            d.machine.spec.gpus.clone(),
        )));
        metrics.extend(
            default_gpu_metrics()
                .into_iter()
                .filter(|m| declared.contains(m)),
        );
    }
    pmcd.register(Box::new(ProcAgent::new(vec![TrackedProcess {
        name: "pmcd".into(),
        utime_per_s: 0.002,
        stime_per_s: 0.001,
        rss_bytes: 9.0e6,
        lifetime: None,
    }])));
    pmcd.set_obs(&d.obs);
    (pmcd, metrics)
}

/// One `WINDOW_S` monitoring window. Untraced it is `PMoveDaemon::monitor`;
/// traced, the benchmark runs the same sampling loop itself so that it
/// can time `Pmcd::fetch_all` and `Shipper::ship` separately. The traced
/// loop writes the same points; it skips only the sampler's own registry
/// counters and spans, which the tracing overhead figure then includes.
fn window(d: &mut PMoveDaemon, tr: &mut Option<Tracing>, rep: &mut Rep, ledger: &mut Ledger) {
    // Count the heap the window adds; windows run alone, so the counters
    // see no contention.
    alloc::set_counting(true);
    let t = Instant::now();
    let stats: ShipperStats = match tr.as_mut() {
        None => d.monitor(WINDOW_S, FREQ_HZ).transport,
        Some(tracing) => {
            let spans = &mut tracing.spans;
            let w = spans.open("ingest.window", None);
            let (mut pmcd, metrics) = collectors(d);
            let start_s = d.now_s;
            let cfg = SamplingConfig::new(metrics, FREQ_HZ, start_s, WINDOW_S);
            let stats = {
                let mut shipper = Shipper::new(
                    &d.ts,
                    LinkSpec::mbit_100(),
                    1.0 / FREQ_HZ,
                    &[d.machine.key(), "scenario_a"],
                )
                .with_obs(d.obs.clone());
                let mut t_prev = start_s;
                for tick in 0..cfg.ticks() {
                    let t_now = start_s + (tick + 1) as f64 * (1.0 / FREQ_HZ);
                    let s = spans.open("pcp.fetch", Some(w));
                    let points = pmcd.fetch_all(&cfg.metrics, t_prev, t_now);
                    spans.close(s);
                    tracing.ticks += 1;
                    tracing.points_fetched += points.len() as u64;
                    for point in points {
                        let s = spans.open("pcp.ship", Some(w));
                        shipper.ship(t_now, point, FREQ_HZ);
                        spans.close(s);
                    }
                    t_prev = t_now;
                }
                shipper.stats()
            };
            d.now_s += WINDOW_S;
            let s = spans.open("tsdb.rollup_tick", Some(w));
            d.ts.rollup_tick();
            spans.close(s);
            spans.close(w);
            tracing.values_lost += stats.values_lost;
            tracing.values_zeroed += stats.values_zeroed;
            stats
        }
    };
    rep.window_ms.push(ms(t.elapsed()));
    alloc::set_counting(false);
    rep.window_values += stats.values_offered;
    ledger.ops(stats.values_offered);
    ledger.check("transport_ledger_conserved", stats.conserved(), || {
        format!("{stats:?}")
    });
    ledger.fail(
        stats.values_lost,
        format!("{} values lost in transport", stats.values_lost),
    );
}

/// The KB-generated SW dashboards (socket subtrees and the system focus
/// view), cut down to the targets that Scenario A populates: most
/// generated targets are HW counters that only Scenario B fills.
fn chosen_dashboards(d: &PMoveDaemon) -> Vec<Dashboard> {
    let mut generated = Vec::new();
    for name in ["socket0", "socket1"] {
        if let Some(iface) = d.kb.by_name(name) {
            generated.extend(gen::subtree_dashboard(&d.kb, &iface.id));
        }
    }
    if let Some(root) = d.kb.interfaces.first() {
        generated.extend(gen::focus_dashboard(&d.kb, &root.id, false));
    }
    generated
        .into_iter()
        .map(|mut dash| {
            for panel in &mut dash.panels {
                panel
                    .targets
                    .retain(|t| d.ts.field_keys(&t.measurement).contains(&t.params));
            }
            dash.panels.retain(|p| !p.targets.is_empty());
            dash
        })
        .filter(|dash| !dash.panels.is_empty())
        .collect()
}

/// Render every chosen dashboard once; returns the wall time in ms.
fn render_all(
    db: &Database,
    dashboards: &[Dashboard],
    tr: &mut Option<Tracing>,
    ledger: &mut Ledger,
) -> f64 {
    let t = Instant::now();
    for dash in dashboards {
        let s = open(tr, "core.render", None);
        let text = render::render_dashboard(db, dash, None);
        close(tr, s);
        ledger.ops(1);
        ledger.check(
            "render_every_target_has_data",
            !text.contains("(no data)") && !text.contains("(no measurement)"),
            || format!("dashboard {} rendered a target without data", dash.title),
        );
    }
    ms(t.elapsed())
}

/// Summary queries `aggregate_queries` lists per field, one after another.
const SUMMARY_SHAPES: usize = 3;

/// Live-CARM/summary-shaped aggregates over every populated field. The
/// bucketed min/max is the shape the rollup tiers can answer.
fn aggregate_queries(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for m in db.measurements() {
        if m.starts_with(GAP_MEASUREMENT) {
            continue;
        }
        for f in db.field_keys(&m) {
            out.push(format!("SELECT sum(\"{f}\"), mean(\"{f}\") FROM \"{m}\""));
            out.push(format!(
                "SELECT min(\"{f}\"), max(\"{f}\") FROM \"{m}\" GROUP BY time({BUCKET_NS})"
            ));
            out.push(format!(
                "SELECT mean(\"{f}\") FROM \"{m}\" GROUP BY time({BUCKET_NS})"
            ));
        }
    }
    out
}

/// A small shared panel set that fits in the result cache: a raw and a
/// bucketed view of one seeded field of every measurement, so every seed
/// gets panels of the same widths.
fn panel_queries(db: &Database, rng: &mut Rng) -> Vec<String> {
    let mut out = Vec::new();
    for m in db.measurements() {
        let fields = db.field_keys(&m);
        if m.starts_with(GAP_MEASUREMENT) || fields.is_empty() {
            continue;
        }
        let f = &fields[rng.below(fields.len())];
        out.push(format!("SELECT \"{f}\" FROM \"{m}\""));
        out.push(format!(
            "SELECT mean(\"{f}\") FROM \"{m}\" GROUP BY time({BUCKET_NS})"
        ));
    }
    out
}

/// A client's order over the aggregates: the fields in a seeded order,
/// each field's summaries together, as a summary panel asks for them.
/// (In a fully shuffled order every query reads data the queries before
/// it evicted from the CPU caches, and its time follows the host's cache
/// pressure more than the program.)
fn summary_order(queries: &[String], rng: &mut Rng) -> Vec<String> {
    let mut fields: Vec<&[String]> = queries.chunks(SUMMARY_SHAPES).collect();
    rng.shuffle(&mut fields);
    fields.concat()
}

/// One client query through the textual API; returns its rows.
fn client_query(
    db: &Database,
    text: &str,
    tr: &mut Option<Tracing>,
    rep: &mut Rep,
    ledger: &mut Ledger,
) -> usize {
    ledger.ops(1);
    let s = open(tr, "tsdb.query", None);
    let t = Instant::now();
    let r = db.query(text);
    let us = t.elapsed().as_secs_f64() * 1e6;
    close(tr, s);
    rep.query_us.push(us);
    match r {
        Ok(r) => r.rows.len(),
        Err(e) => {
            ledger.fail(1, format!("query {text}: {e}"));
            0
        }
    }
}

/// The `dashboard` client: `CLIENT_PASSES` passes of one render of the
/// chosen dashboards and every query once, in a seeded summary order.
fn client_passes(
    db: &Database,
    dashboards: &[Dashboard],
    queries: &[String],
    rng: &mut Rng,
    tr: &mut Option<Tracing>,
    rep: &mut Rep,
    ledger: &mut Ledger,
) {
    for _ in 0..CLIENT_PASSES {
        rep.render_ms.push(render_all(db, dashboards, tr, ledger));
        for q in &summary_order(queries, rng) {
            client_query(db, q, tr, rep, ledger);
        }
    }
}

/// Seeded open-loop Poisson schedule of `n` requests over `queries`.
fn schedule(rng: &mut Rng, queries: &[String], n: usize) -> Vec<ServeRequest> {
    let mut t_ns = 0u64;
    (0..n)
        .map(|_| {
            let gap = -(1.0 - rng.unit()).ln() * 1e9 / ARRIVAL_RATE_PER_S;
            t_ns += (gap.ceil() as u64).max(1);
            ServeRequest {
                tenant: rng.below(TENANTS as usize) as u32,
                priority: if rng.unit() < 0.5 {
                    Priority::Interactive
                } else {
                    Priority::Background
                },
                query: queries[rng.below(queries.len())].clone(),
                at_ns: t_ns,
            }
        })
        .collect()
}

fn serving_config() -> ServingConfig {
    ServingConfig {
        // Larger than any round, so admission never sheds.
        queue_capacity: 4096,
        max_concurrency: 4,
        tenant_rate_per_s: 50_000,
        tenant_burst: 4_000,
        tenant_cap: 256,
        ..ServingConfig::default()
    }
}

/// One `QueryServer::run` round through the timing backend.
fn serve_round(
    db: &Database,
    obs: &Arc<Registry>,
    reqs: &[ServeRequest],
    tr: &mut Option<Tracing>,
    rep: &mut Rep,
    ledger: &mut Ledger,
) {
    let backend = TimedBackend::new(db);
    ledger.ops(reqs.len() as u64);
    let s = open(tr, "serve.run", None);
    let t = Instant::now();
    let result = QueryServer::new(&backend, serving_config())
        .map(|srv| srv.with_obs(obs.clone()))
        .and_then(|mut srv| srv.run(reqs));
    let wall = t.elapsed();
    close(tr, s);
    let exec_us = backend.exec_us.into_inner();
    let report: ServeReport = match result {
        Ok(r) => r,
        Err(e) => {
            ledger.fail(reqs.len() as u64, format!("serve round: {e}"));
            return;
        }
    };
    rep.round_ms.push(ms(wall));
    rep.round_requests += report.submitted;
    ledger.check("serve_report_conserved", report.conserved(), || {
        format!("{report:?}")
    });
    ledger.fail(
        report.rejected + report.shed + report.errors,
        format!(
            "serve: {} rejected, {} shed, {} errors",
            report.rejected, report.shed, report.errors
        ),
    );
    if let Some(t) = tr.as_mut() {
        t.backend_us += sum(&exec_us);
        t.executions += exec_us.len() as u64;
        t.serve_run_us += wall.as_secs_f64() * 1e6;
        t.requests += report.submitted;
        t.rejected += report.rejected;
        t.shed += report.shed;
    }
    rep.backend_us.extend(exec_us);
}

/// `READ_ROUNDS` serve rounds over a seeded shared panel set, with no
/// writes between them.
fn serve_panels(
    d: &PMoveDaemon,
    rng: &mut Rng,
    tr: &mut Option<Tracing>,
    rep: &mut Rep,
    ledger: &mut Ledger,
) {
    let panels = panel_queries(&d.ts, rng);
    for _ in 0..READ_ROUNDS {
        let reqs = schedule(rng, &panels, PANEL_ROUND_REQUESTS);
        serve_round(&d.ts, &d.obs, &reqs, tr, rep, ledger);
    }
}

/// Bit-level fingerprint of every stored cell, gap markers excluded:
/// `(series, timestamp, field, value type, value bits)`, strings hashed.
fn cells(db: &Database) -> Vec<(String, i64, String, u8, u64)> {
    let mut out = Vec::new();
    db.for_each_cell(&mut |key, ts, field, value| {
        let canonical = key.canonical();
        if canonical.starts_with(GAP_MEASUREMENT) {
            return;
        }
        let (tag, bits) = match value {
            FieldValue::Float(x) => (0, x.to_bits()),
            FieldValue::Int(x) => (1, *x as u64),
            FieldValue::Bool(x) => (2, u64::from(*x)),
            FieldValue::Str(s) => (
                3,
                s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                }),
            ),
        };
        out.push((canonical, ts, field.to_string(), tag, bits));
    });
    out.sort();
    out
}

fn same_result(a: &QueryResult, b: &QueryResult) -> bool {
    a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.timestamp == y.timestamp
                && x.values.len() == y.values.len()
                && x.values.iter().zip(&y.values).all(|((ka, va), (kb, vb))| {
                    ka == kb && va.map(f64::to_bits) == vb.map(f64::to_bits)
                })
        })
}

/// Compare a seeded sample of `queries` as the workload runs them
/// (default mode, cache on) with the sequential executor, cache off.
/// Leaves the cache at its default capacity, empty.
fn oracle_check(db: &Database, queries: &[String], rng: &mut Rng, ledger: &mut Ledger) {
    let mut sample: Vec<&String> = queries.iter().collect();
    rng.shuffle(&mut sample);
    sample.truncate(ORACLE_SAMPLE);
    let mode = db.exec_mode();
    let served: Vec<_> = sample
        .iter()
        .map(|text| Query::parse(text).and_then(|q| db.query_with_mode(&q, mode)))
        .collect();
    db.set_query_cache_capacity(0);
    for (text, got) in sample.iter().zip(served) {
        let want = Query::parse(text).and_then(|q| db.query_with_mode(&q, ExecMode::Sequential));
        let ok = match (&got, &want) {
            (Ok(g), Ok(w)) => same_result(g, w),
            _ => false,
        };
        ledger.check("results_match_sequential_uncached", ok, || {
            format!(
                "{text}: {:?} vs {:?}",
                got.map(|r| r.rows.len()),
                want.map(|r| r.rows.len())
            )
        });
    }
    db.set_query_cache_capacity(DEFAULT_CACHE_CAPACITY);
}

/// Every chosen panel has at least one row for each of its targets.
fn panel_check(db: &Database, dashboards: &[Dashboard], ledger: &mut Ledger) {
    for dash in dashboards {
        for panel in &dash.panels {
            let rows = panel
                .targets
                .iter()
                .map(|t| {
                    db.query(&format!(
                        "SELECT \"{}\" FROM \"{}\"",
                        t.params, t.measurement
                    ))
                    .map(|r| r.rows.len())
                    .unwrap_or(0)
                })
                .min()
                .unwrap_or(0);
            ledger.check("chosen_panels_have_rows", rows >= 1, || {
                format!("panel {} of {} returned no rows", panel.title, dash.title)
            });
        }
    }
}

/// One rep of `workload`. Returns what it measured; failures land in the
/// ledger.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    index: u64,
    traced: bool,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let rep_start = Instant::now();
    let mut excluded = Duration::ZERO;
    // Every rep runs the same inputs, so reps differ only in how the host
    // treated them; the output checks sample afresh in each rep.
    let mut rng = Rng::new(seed);
    let mut check_rng = Rng::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    let mut rep = Rep::default();
    let mut tr = traced.then(Tracing::default);

    if traced {
        let t = Instant::now();
        boot_steps(&mut rep.layers)?;
        excluded += t.elapsed();
    }

    // Set-up: boot (plus the preloaded history on the read workloads).
    let disk = MemDisk::new(rng.next_u64() | 1);
    let vfs = Arc::new(CountingVfs::new(disk.clone(), traced));
    let setup = Instant::now();
    let s = open(&mut tr, "core.boot", None);
    let mut d = boot(&vfs)?;
    close(&mut tr, s);
    d.set_background_load(&background(&mut rng));
    if workload == Workload::Dashboard {
        d.enable_rollups(RollupConfig::default());
    }
    let accepted_rx = tr.as_ref().map(|_| d.ts.subscribe(Subscription::all()));
    // Heap counting runs inside the ingest windows only, so this balance
    // moves by what the windows leave allocated.
    let live_before = alloc::live_bytes();
    let preload = match workload {
        Workload::Monitor => 0,
        Workload::Dashboard => DASHBOARD_PRELOAD_WINDOWS,
        Workload::ServeMixed => SERVE_PRELOAD_WINDOWS,
    };
    for _ in 0..preload {
        window(&mut d, &mut tr, &mut rep, ledger);
    }
    rep.setup_s = setup.elapsed().as_secs_f64();

    let dashboards;
    let queries: Vec<String>;
    // Registry counters of the read phase (traced reps only); the
    // snapshot at the crash when a workload takes none.
    let mut read_snap = None;
    match workload {
        Workload::Monitor => {
            for _ in 0..MONITOR_WINDOWS {
                window(&mut d, &mut tr, &mut rep, ledger);
            }
            dashboards = chosen_dashboards(&d);
            queries = aggregate_queries(&d.ts);
        }
        Workload::Dashboard => {
            dashboards = chosen_dashboards(&d);
            queries = aggregate_queries(&d.ts);
        }
        Workload::ServeMixed => {
            dashboards = chosen_dashboards(&d);
            queries = panel_queries(&d.ts, &mut rng);
            for _ in 0..SERVE_CYCLES {
                window(&mut d, &mut tr, &mut rep, ledger);
                let reqs = schedule(&mut rng, &queries, PANEL_ROUND_REQUESTS);
                serve_round(&d.ts, &d.obs, &reqs, &mut tr, &mut rep, ledger);
                rep.render_ms
                    .push(render_all(&d.ts, &dashboards, &mut tr, ledger));
            }
        }
    }
    let live = alloc::live_bytes() - live_before;
    let t = Instant::now();
    let values = d.ts.cell_count();
    excluded += t.elapsed();
    rep.mem_bytes_per_value = ratio(live as f64, values as f64);

    if workload == Workload::Dashboard {
        client_passes(
            &d.ts,
            &dashboards,
            &queries,
            &mut rng,
            &mut tr,
            &mut rep,
            ledger,
        );
        // The cache figures describe the client's read path; the serve
        // rounds below hit the cache by design.
        if tr.is_some() {
            read_snap = Some(d.obs.snapshot());
        }
        serve_panels(&d, &mut rng, &mut tr, &mut rep, ledger);
    }

    // Crash and recover: the disk loses everything unsynced, and a
    // reopened daemon must hold every acknowledged cell, bit for bit.
    let t = Instant::now();
    if workload != Workload::Monitor {
        read_checks(&d, &dashboards, &queries, &mut check_rng, ledger);
    }
    let before = cells(&d.ts);
    let ingest_snap = d.obs.snapshot();
    excluded += t.elapsed();
    rep.disk_bytes_per_value = ratio(disk.durable_bytes() as f64, values as f64);
    drop(d);
    disk.restart();
    let s = open(&mut tr, "core.recovery", None);
    let t = Instant::now();
    let d = boot(&vfs)?;
    rep.recovery_s = t.elapsed().as_secs_f64();
    close(&mut tr, s);
    let t = Instant::now();
    let after = cells(&d.ts);
    ledger.check(
        "recovered_cells_bit_identical",
        before == after && before.len() as u64 == values,
        || {
            format!(
                "{} cells acknowledged, {} recovered",
                before.len(),
                after.len()
            )
        },
    );
    drop((before, after));
    excluded += t.elapsed();

    if workload == Workload::Monitor {
        // The operator's view after the restart: dashboards, summary
        // aggregates, and the shared panels served to every tenant.
        for _ in 0..READ_RENDERS {
            rep.render_ms
                .push(render_all(&d.ts, &dashboards, &mut tr, ledger));
        }
        for q in &summary_order(&queries, &mut rng) {
            client_query(&d.ts, q, &mut tr, &mut rep, ledger);
        }
        serve_panels(&d, &mut rng, &mut tr, &mut rep, ledger);
        if tr.is_some() {
            read_snap = Some(d.obs.snapshot());
        }
        let t = Instant::now();
        read_checks(&d, &dashboards, &queries, &mut check_rng, ledger);
        excluded += t.elapsed();
    }
    if workload == Workload::ServeMixed {
        rep.query_us = std::mem::take(&mut rep.backend_us);
    }
    rep.timed_s = (rep_start.elapsed() - excluded).as_secs_f64();

    if let (Some(tracing), Some(rx)) = (tr.as_mut(), accepted_rx) {
        tracing.accepted.extend(rx.try_iter());
        let stats = vfs.stats();
        layer_figures(
            &mut rep,
            tracing,
            &ingest_snap,
            read_snap.as_ref().unwrap_or(&ingest_snap),
            values as f64,
            stats,
        );
        write_replay(&tracing.accepted, &mut rep.layers);
        query_modes(&d, &queries, &mut rng, &mut rep.layers);
        rep.layers.push((
            "core.render.self_us_per_panel",
            render_self(&d.ts, &dashboards),
            "us",
        ));
    }
    Ok(rep)
}

/// Output checks on the read path, outside the timed wall.
fn read_checks(
    d: &PMoveDaemon,
    dashboards: &[Dashboard],
    queries: &[String],
    rng: &mut Rng,
    ledger: &mut Ledger,
) {
    panel_check(&d.ts, dashboards, ledger);
    let mut texts: Vec<String> = queries.to_vec();
    for dash in dashboards {
        for panel in &dash.panels {
            for t in &panel.targets {
                texts.push(format!(
                    "SELECT \"{}\" FROM \"{}\"",
                    t.params, t.measurement
                ));
            }
        }
    }
    oracle_check(&d.ts, &texts, rng, ledger);
}
