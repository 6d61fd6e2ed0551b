//! Per-layer figures of a traced rep: its spans and counters, plus
//! trace-only passes that time and count single layers.

use crate::stats::{median, ratio, Rng};
use crate::workload::{ms, Tracing, PRESET};
use crate::{alloc, vfs, Layer, Rep};
use pmove_core::dashboard::model::Dashboard;
use pmove_core::dashboard::render;
use pmove_core::kb::{builder, store as kb_store, DbParams};
use pmove_core::probe::ProbeReport;
use pmove_core::PMoveDaemon;
use pmove_hwsim::Machine;
use pmove_obs::Snapshot;
use pmove_tsdb::store::{MemDisk, StoreOptions, Vfs};
use pmove_tsdb::{Database, ExecMode, Point, Query, DEFAULT_CACHE_CAPACITY};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Queries timed per mode in the traced run's query pass; more than the
/// result cache holds, so the cache-on pass misses on every lookup.
const QUERY_SAMPLE: usize = 200;

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter_total(name) as f64
}

/// Trace-only pass: boot steps ①–③ and the store open, each timed on a
/// fresh in-memory disk.
pub fn boot_steps(layers: &mut Vec<Layer>) -> Result<(), String> {
    let machine = Machine::preset(PRESET).ok_or("unknown preset")?;
    let t = Instant::now();
    let report = ProbeReport::collect(&machine);
    layers.push(("core.boot.probe_ms", ms(t.elapsed()), "ms"));
    let t = Instant::now();
    let kb = builder::build_kb(&report).map_err(|e| e.to_string())?;
    layers.push(("core.boot.kb_build_ms", ms(t.elapsed()), "ms"));
    let fresh: Arc<dyn Vfs> = Arc::new(MemDisk::new(7));
    let t = Instant::now();
    let opened = Database::open("influx", fresh.clone(), StoreOptions::default());
    layers.push(("core.boot.tsdb_open_ms", ms(t.elapsed()), "ms"));
    opened.map_err(|e| e.to_string())?;
    let env = DbParams::default();
    let (journal, _) =
        pmove_docdb::DurableDatabase::open(&env.mongo_db, fresh).map_err(|e| e.to_string())?;
    let t = Instant::now();
    kb_store::insert_kb_durable(&journal, &kb).map_err(|e| e.to_string())?;
    layers.push(("core.boot.kb_insert_ms", ms(t.elapsed()), "ms"));
    Ok(())
}

/// Trace-only pass: replay the accepted stream into memory-only
/// databases, once timing each `write_point` and once counting its
/// allocations and the live bytes the stored values take.
pub fn write_replay(accepted: &[Point], layers: &mut Vec<Layer>) {
    let values: usize = accepted.iter().map(Point::field_count).sum();
    let n = accepted.len() as f64;
    let timed = Database::new("replay");
    let mut ns = 0u128;
    for p in accepted {
        let p = p.clone();
        let t = Instant::now();
        let _ = timed.write_point(p);
        ns += t.elapsed().as_nanos();
    }
    drop(timed);
    let counted = Database::new("replay");
    let mut allocs = 0u64;
    let mut live = 0i64;
    for p in accepted {
        // The clone is inside the live-byte span, so whatever of it the
        // database keeps counts; allocations count `write_point` alone.
        alloc::set_counting(true);
        let before = alloc::live_bytes();
        let p = p.clone();
        let a = alloc::allocs();
        let _ = counted.write_point(p);
        allocs += alloc::allocs() - a;
        live += alloc::live_bytes() - before;
        alloc::set_counting(false);
    }
    layers.push(("tsdb.write.us_per_point", ratio(ns as f64 / 1e3, n), "us"));
    layers.push((
        "tsdb.write.allocs_per_point",
        ratio(allocs as f64, n),
        "count",
    ));
    layers.push((
        "tsdb.storage.live_bytes_per_value",
        ratio(live as f64, values as f64),
        "B",
    ));
}

/// Trace-only pass over a seeded sample of the workload's queries, more
/// than the cache holds: default mode with the cache on (every lookup
/// misses) and off, the sequential executor with the cache off, and one
/// untimed pass counting rows scanned and allocations.
pub fn query_modes(d: &PMoveDaemon, queries: &[String], rng: &mut Rng, layers: &mut Vec<Layer>) {
    let db = &d.ts;
    let mut sample: Vec<Query> = queries
        .iter()
        .filter_map(|q| Query::parse(q).ok())
        .collect();
    rng.shuffle(&mut sample);
    sample.truncate(QUERY_SAMPLE);
    let mode = db.exec_mode();
    let time = |mode: ExecMode| -> Vec<f64> {
        sample
            .iter()
            .map(|q| {
                let t = Instant::now();
                std::hint::black_box(db.query_arc_with_mode(q, mode).ok());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    db.set_query_cache_capacity(DEFAULT_CACHE_CAPACITY);
    let miss_us = time(mode);
    db.set_query_cache_capacity(0);
    let default_us = time(mode);
    let seq_us = time(ExecMode::Sequential);
    let scanned0 = counter(&d.obs.snapshot(), "tsdb.query.rows_scanned");
    let allocs0 = alloc::allocs();
    alloc::set_counting(true);
    let returned: usize = sample
        .iter()
        .map(|q| db.query_arc_with_mode(q, mode).map_or(0, |r| r.rows.len()))
        .sum();
    alloc::set_counting(false);
    let allocs = (alloc::allocs() - allocs0) as f64;
    let scanned = counter(&d.obs.snapshot(), "tsdb.query.rows_scanned") - scanned0;
    db.set_query_cache_capacity(DEFAULT_CACHE_CAPACITY);
    layers.push(("tsdb.cache.miss_us", median(&miss_us), "us"));
    layers.push(("tsdb.query.us_nocache", median(&default_us), "us"));
    layers.push(("tsdb.query.us_sequential", median(&seq_us), "us"));
    layers.push((
        "tsdb.query.rows_scanned_per_row_returned",
        ratio(scanned, returned as f64),
        "ratio",
    ));
    layers.push((
        "tsdb.query.allocs_per_row_scanned",
        ratio(allocs, scanned),
        "count",
    ));
}

/// Trace-only pass: each chosen panel's render time less the time of the
/// same target queries, cache off so both do the same work.
pub fn render_self(db: &Database, dashboards: &[Dashboard]) -> f64 {
    db.set_query_cache_capacity(0);
    let mut self_us = 0.0;
    let mut panels = 0usize;
    for dash in dashboards {
        for panel in &dash.panels {
            let t = Instant::now();
            std::hint::black_box(render::render_panel(db, panel, None, 40));
            let render_us = t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            for target in &panel.targets {
                let q = Query {
                    projections: vec![pmove_tsdb::query::Projection::Field(target.params.clone())],
                    measurement: target.measurement.clone(),
                    tag_filters: Vec::new(),
                    time_start: None,
                    time_end: None,
                    group_by_time: None,
                };
                std::hint::black_box(db.query_parsed(&q).ok());
            }
            self_us += render_us - t.elapsed().as_secs_f64() * 1e6;
            panels += 1;
        }
    }
    db.set_query_cache_capacity(DEFAULT_CACHE_CAPACITY);
    ratio(self_us, panels as f64)
}

/// Per-layer figures of a traced rep from its spans and counters.
pub fn layer_figures(
    rep: &mut Rep,
    t: &Tracing,
    ingest: &Snapshot,
    read: &Snapshot,
    values: f64,
    io: &vfs::IoStats,
) {
    let sp = &t.spans;
    let l = &mut rep.layers;
    let ticks = t.ticks as f64;
    l.push((
        "pcp.fetch.us_per_tick",
        ratio(sp.total_us("pcp.fetch"), ticks),
        "us",
    ));
    l.push((
        "pcp.fetch.points_per_tick",
        ratio(t.points_fetched as f64, ticks),
        "count",
    ));
    l.push((
        "pcp.ship.us_per_point",
        ratio(sp.total_us("pcp.ship"), sp.count("pcp.ship") as f64),
        "us",
    ));
    l.push(("pcp.ship.values_lost", t.values_lost as f64, "count"));
    l.push(("pcp.ship.values_zeroed", t.values_zeroed as f64, "count"));

    let written = io.bytes_written.load(Relaxed) as f64;
    let read_bytes = io.bytes_read.load(Relaxed) as f64;
    let syncs = io.syncs.load(Relaxed) as f64;
    l.push((
        "store.vfs.bytes_written_per_value",
        ratio(written, values),
        "B",
    ));
    l.push((
        "store.vfs.bytes_read_per_value",
        ratio(read_bytes, values),
        "B",
    ));
    l.push((
        "store.vfs.syncs_per_commit",
        ratio(syncs, counter(ingest, "wal.commits")),
        "count",
    ));
    l.push((
        "store.vfs.busy_ms",
        io.busy_ns.load(Relaxed) as f64 / 1e6,
        "ms",
    ));
    l.push((
        "store.compaction.rows_rewritten_per_row",
        ratio(
            counter(ingest, "compaction.rows_in"),
            counter(ingest, "wal.records_appended"),
        ),
        "ratio",
    ));
    l.push((
        "store.compaction.runs",
        counter(ingest, "compaction.runs"),
        "count",
    ));
    l.push((
        "store.wal.bytes_per_value",
        ratio(counter(ingest, "wal.bytes_committed"), values),
        "B",
    ));

    l.push(("tsdb.query.us", median(&rep.query_us), "us"));
    let hits = counter(read, "tsdb.cache.hits");
    let misses = counter(read, "tsdb.cache.misses");
    l.push(("tsdb.cache.hit_ratio", ratio(hits, hits + misses), "ratio"));
    l.push((
        "tsdb.cache.evictions",
        counter(read, "tsdb.cache.evictions"),
        "count",
    ));
    l.push((
        "tsdb.cache.invalidations",
        counter(read, "tsdb.cache.invalidations"),
        "count",
    ));
    let tier = counter(read, "tsdb.rollup.buckets_tier");
    let raw = counter(read, "tsdb.rollup.buckets_raw");
    l.push((
        "tsdb.rollup.tier_bucket_ratio",
        ratio(tier, tier + raw),
        "ratio",
    ));

    let requests = t.requests as f64;
    l.push((
        "serve.self_us_per_request",
        ratio(t.serve_run_us - t.backend_us, requests),
        "us",
    ));
    l.push((
        "serve.backend.us_per_execution",
        ratio(t.backend_us, t.executions as f64),
        "us",
    ));
    l.push((
        "serve.executions_per_request",
        ratio(t.executions as f64, requests),
        "ratio",
    ));
    l.push(("serve.rejected", t.rejected as f64, "count"));
    l.push(("serve.shed", t.shed as f64, "count"));
    l.push((
        "trace.coverage_pct",
        100.0 * ratio(sp.leaf_us() / 1e6, rep.timed_s),
        "%",
    ));
}
