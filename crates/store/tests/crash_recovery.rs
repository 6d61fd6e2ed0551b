//! Crash-recovery property suite.
//!
//! For any seeded fault schedule — clean stop, torn tail, or durable bit
//! flip, fired at any write/sync/truncate operation — reopening the
//! store must recover *exactly* the last-write-wins view of some prefix
//! of the offered batches: no panic, no phantom points, no partial
//! batch. When the fault does not corrupt durable data (every mode but
//! `BitFlip`), the prefix must cover at least every acknowledged batch.
//!
//! The case count defaults to 256 and is raised in CI via the
//! `PMOVE_CRASH_CASES` environment variable (the `persistence` job runs
//! at an elevated count).

use pmove_obs::Registry;
use pmove_store::{
    ColumnValue, FaultMode, FaultPlan, MemDisk, RowRecord, StoreObs, StoreOptions, TsStore, Vfs,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const DEFAULT_CASES: u64 = 256;

fn case_count() -> u64 {
    std::env::var("PMOVE_CRASH_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// SplitMix64 stream for workload/fault derivation (independent of the
/// MemDisk's internal RNG).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const SERIES: &[&str] = &["cpu,host=skx", "cpu,host=knl", "mem,host=skx"];
const FIELDS: &[&str] = &["_cpu0", "_cpu1", "usage"];

fn gen_batch(rng: &mut Rng, batch_idx: usize) -> Vec<RowRecord> {
    let rows = 1 + rng.below(8) as usize;
    (0..rows)
        .map(|_| {
            let series = SERIES[rng.below(SERIES.len() as u64) as usize];
            let field = FIELDS[rng.below(FIELDS.len() as u64) as usize];
            // Timestamps overlap across batches so last-write-wins is
            // genuinely exercised, including cross-type rewrites.
            let ts = (batch_idx as i64 / 2) * 1_000 + rng.below(500) as i64;
            let value = match rng.below(4) {
                0 => ColumnValue::F64(rng.below(1_000_000) as f64 / 1e3),
                1 => ColumnValue::I64(rng.below(1_000_000) as i64 - 500_000),
                2 => ColumnValue::Bool(rng.below(2) == 1),
                _ => ColumnValue::Str(format!("v{}", rng.below(100))),
            };
            RowRecord::new(series, field, ts, value)
        })
        .collect()
}

type View = Vec<RowRecord>;

/// Materialize the last-write-wins view of `batches[..j]`, ordered the
/// way [`TsStore::scan`] orders rows.
fn view_of_prefix(batches: &[Vec<RowRecord>], j: usize) -> View {
    let mut cells: BTreeMap<(String, String, i64), ColumnValue> = BTreeMap::new();
    for batch in &batches[..j] {
        for r in batch {
            cells.insert((r.series.clone(), r.field.clone(), r.ts), r.value.clone());
        }
    }
    cells
        .into_iter()
        .map(|((series, field, ts), value)| RowRecord {
            series,
            field,
            ts,
            value,
        })
        .collect()
}

struct CaseOutcome {
    /// Batches whose commit returned `Ok`.
    acked: usize,
    /// Rows visible after restart + reopen.
    recovered: View,
    /// Fault mode exercised (`None` when the plan never fired).
    fired: Option<FaultMode>,
    /// Full durable file map after recovery (determinism check).
    disk_state: Vec<(String, Vec<u8>)>,
}

/// Run one seeded case end to end: workload → (maybe) crash → restart →
/// reopen → scan.
fn run_case(seed: u64, batches: &[Vec<RowRecord>], plan: Option<FaultPlan>) -> CaseOutcome {
    let mut rng = Rng(seed ^ 0x5851_F42D_4C95_7F2D);
    let disk = MemDisk::new(seed);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let opts = StoreOptions {
        flush_threshold_rows: 1 + rng.below(12) as usize,
        compact_min_chunks: 2 + rng.below(3) as usize,
    };
    let mode = plan.map(|p| p.mode);
    if let Some(p) = plan {
        disk.schedule_fault(p);
    }
    let (mut store, _) = TsStore::open(vfs.clone(), opts).expect("fresh open cannot fail");
    let mut acked = 0usize;
    for batch in batches {
        store.append(batch.clone());
        match store.commit() {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    if !disk.crashed() && rng.below(2) == 1 {
        let _ = store.flush();
    }
    drop(store);
    let fired = if disk.crashed() { mode } else { None };
    disk.restart();
    // The property: reopening after any crash must not panic.
    let (mut store, _report) = TsStore::open(vfs, opts)
        .unwrap_or_else(|e| panic!("seed {seed}: reopen failed after recovery: {e}"));
    let recovered = store
        .scan()
        .unwrap_or_else(|e| panic!("seed {seed}: scan failed after recovery: {e}"));
    let disk_state = disk
        .list()
        .unwrap()
        .into_iter()
        .map(|n| {
            let d = disk.read(&n).unwrap();
            (n, d)
        })
        .collect();
    CaseOutcome {
        acked,
        recovered,
        fired,
        disk_state,
    }
}

#[test]
fn recovery_is_a_prefix_of_acknowledged_writes() {
    let cases = case_count();
    let mut fired_counts = [0u64; 3];
    let mut clean_runs = 0u64;
    for case in 0..cases {
        let seed = 0xC0FFEE ^ (case.wrapping_mul(0x9E37_79B9));
        let mut rng = Rng(seed);
        let n_batches = 4 + rng.below(24) as usize;
        let batches: Vec<Vec<RowRecord>> = (0..n_batches).map(|i| gen_batch(&mut rng, i)).collect();
        let plan = match rng.below(4) {
            0 => None,
            m => Some(FaultPlan {
                crash_at_op: 1 + rng.below(70),
                mode: match m {
                    1 => FaultMode::CleanStop,
                    2 => FaultMode::TornTail,
                    _ => FaultMode::BitFlip,
                },
            }),
        };
        let out = run_case(seed, &batches, plan);
        match out.fired {
            Some(FaultMode::CleanStop) => fired_counts[0] += 1,
            Some(FaultMode::TornTail) => fired_counts[1] += 1,
            Some(FaultMode::BitFlip) => fired_counts[2] += 1,
            None => clean_runs += 1,
        }
        // Exactly the LWW view of some batch prefix — scanning all
        // prefixes rules phantom points and partial batches out at once.
        let matched = (0..=n_batches).find(|&j| view_of_prefix(&batches, j) == out.recovered);
        let Some(j) = matched else {
            panic!(
                "seed {seed}: recovered state matches no prefix of the offered batches \
                 (mode {:?}, {} recovered rows, {} acked batches)",
                out.fired,
                out.recovered.len(),
                out.acked
            );
        };
        match out.fired {
            // Durable data untouched: every acknowledged batch survives.
            Some(FaultMode::CleanStop) | Some(FaultMode::TornTail) => assert!(
                j >= out.acked,
                "seed {seed}: lost acknowledged batches: recovered prefix {j} < acked {}",
                out.acked
            ),
            // A bit flip may destroy durable frames/chunks, but the
            // result must still be an exact prefix (asserted above).
            Some(FaultMode::BitFlip) => {}
            // No crash: everything offered was committed and must be
            // fully visible.
            None => assert_eq!(
                j, n_batches,
                "seed {seed}: clean run lost batches ({j}/{n_batches})"
            ),
        }
    }
    // The schedule space must actually exercise every mode; a property
    // suite that never crashes proves nothing.
    assert!(clean_runs > 0, "no clean runs in {cases} cases");
    for (i, c) in fired_counts.iter().enumerate() {
        assert!(*c > 0, "fault mode #{i} never fired across {cases} cases");
    }
}

#[test]
fn same_seed_cases_produce_byte_identical_disks() {
    // A subsample of the space is enough: each comparison replays the
    // entire workload + fault schedule + recovery twice.
    let cases = (case_count() / 8).max(8);
    for case in 0..cases {
        let seed = 0xDEAD_BEEF ^ (case.wrapping_mul(0x9E37_79B9));
        let mut rng = Rng(seed);
        let n_batches = 4 + rng.below(16) as usize;
        let batches: Vec<Vec<RowRecord>> = (0..n_batches).map(|i| gen_batch(&mut rng, i)).collect();
        let plan = Some(FaultPlan {
            crash_at_op: 1 + rng.below(50),
            mode: [
                FaultMode::CleanStop,
                FaultMode::TornTail,
                FaultMode::BitFlip,
            ][(case % 3) as usize],
        });
        let a = run_case(seed, &batches, plan);
        let b = run_case(seed, &batches, plan);
        assert_eq!(
            a.disk_state, b.disk_state,
            "seed {seed}: same-seed runs diverged on disk"
        );
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.acked, b.acked);
    }
}

#[test]
fn recovered_store_accepts_new_writes() {
    // After any crash the store must remain writable: recover, append a
    // sentinel batch, commit, reopen again, and find it.
    for case in 0..32u64 {
        let seed = 0xFACE ^ case;
        let mut rng = Rng(seed);
        let batches: Vec<Vec<RowRecord>> = (0..8).map(|i| gen_batch(&mut rng, i)).collect();
        let mode = [
            FaultMode::CleanStop,
            FaultMode::TornTail,
            FaultMode::BitFlip,
        ][(case % 3) as usize];
        let plan = FaultPlan {
            crash_at_op: 1 + rng.below(30),
            mode,
        };
        let disk = MemDisk::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        disk.schedule_fault(plan);
        let opts = StoreOptions {
            flush_threshold_rows: 4,
            compact_min_chunks: 2,
        };
        let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
        for batch in &batches {
            store.append(batch.clone());
            if store.commit().is_err() {
                break;
            }
        }
        drop(store);
        disk.restart();
        let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
        let sentinel = RowRecord::new("post,host=x", "alive", 9_999_999, ColumnValue::Bool(true));
        store.append(vec![sentinel.clone()]);
        store.commit().unwrap();
        drop(store);
        let (mut store, _) = TsStore::open(vfs, opts).unwrap();
        assert!(
            store.scan().unwrap().contains(&sentinel),
            "seed {seed}: post-recovery write lost"
        );
    }
}

#[test]
fn bit_flip_inside_wal_record_truncates_at_corrupt_frame() {
    // A durable bit flip inside an acknowledged, CRC-framed WAL record is
    // not a torn tail: every byte of the frame is present, the checksum
    // just no longer matches. Recovery must truncate the log at that
    // frame (keeping the prefix before it), count it in the
    // `store.wal.corrupt_frames` metric, and never replay garbage.
    //
    // The MemDisk places the flip at a seeded pseudo-random offset, so a
    // small seed sweep covers both landings: inside an acked frame (the
    // corrupt-frame signature under test) and inside the torn tail of
    // the in-flight commit (plain truncation, not corruption).
    let opts = StoreOptions {
        // Keep every batch in the WAL — no flushes, no chunks.
        flush_threshold_rows: 1 << 20,
        compact_min_chunks: 1 << 10,
    };
    let mut corrupt_cases = 0u64;
    for seed in 0..64u64 {
        let disk = MemDisk::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let mut rng = Rng(seed ^ 0xB17_F11B);
        let batches: Vec<Vec<RowRecord>> = (0..6).map(|i| gen_batch(&mut rng, i)).collect();
        let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
        for batch in &batches {
            store.append(batch.clone());
            store.commit().expect("no fault scheduled yet");
        }
        // Flip a durable bit while one more commit is in flight.
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 2,
            mode: FaultMode::BitFlip,
        });
        store.append(gen_batch(&mut rng, 6));
        assert!(store.commit().is_err(), "seed {seed}: fault did not fire");
        drop(store);
        disk.restart();

        let registry = Registry::new();
        let obs = StoreObs::new(&registry, "walcrash");
        let (mut store, report) = TsStore::open_with_obs(vfs.clone(), opts, Some(obs))
            .unwrap_or_else(|e| panic!("seed {seed}: recovery panicked on corruption: {e}"));
        let recovered = store.scan().unwrap();
        let metric = registry
            .counter("store.wal.corrupt_frames", &[("db", "walcrash")])
            .get();
        assert_eq!(
            metric, report.wal_corrupt_frames,
            "seed {seed}: metric disagrees with the recovery report"
        );
        // Whatever survived must be the LWW view of an exact batch
        // prefix — one batch per WAL frame, so frame truncation is batch
        // truncation.
        let j = (0..=batches.len())
            .find(|&j| view_of_prefix(&batches, j) == recovered)
            .unwrap_or_else(|| panic!("seed {seed}: recovered rows match no batch prefix"));
        if report.wal_corrupt_frames > 0 {
            corrupt_cases += 1;
            assert_eq!(
                report.wal_corrupt_frames, 1,
                "seed {seed}: replay stops at the first corrupt frame"
            );
            assert!(
                report.wal_bytes_dropped > 0,
                "seed {seed}: corrupt frame counted but nothing dropped"
            );
            assert!(
                j < batches.len(),
                "seed {seed}: corrupt frame counted but every acked batch survived"
            );
        }
        // Recovery rewrote the log to the valid prefix: a second open is
        // clean, byte-identical, and the store accepts new writes.
        store.append(vec![RowRecord::new(
            "post,host=x",
            "alive",
            9_999_999,
            ColumnValue::Bool(true),
        )]);
        store.commit().unwrap();
        drop(store);
        let (mut store, report2) = TsStore::open(vfs, opts).unwrap();
        assert_eq!(
            report2.wal_corrupt_frames, 0,
            "seed {seed}: corruption survived recovery"
        );
        assert_eq!(report2.wal_bytes_dropped, 0);
        assert_eq!(store.scan().unwrap().len(), recovered.len() + 1);
    }
    assert!(
        corrupt_cases > 0,
        "seed sweep never landed a flip inside an acked frame"
    );
}
