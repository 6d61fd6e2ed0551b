//! Criterion benches: storage-engine hot paths — group commit, chunk
//! flush, and crash recovery (WAL replay vs chunk load).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pmove_tsdb::store::{ColumnValue, MemDisk, RowRecord, StoreOptions, TsStore, Vfs};
use std::sync::Arc;

fn rows(n: usize) -> Vec<RowRecord> {
    (0..n)
        .map(|i| {
            RowRecord::new(
                format!("perfevent_hwcounters_cycles,tag=obs{}", i % 4),
                format!("_cpu{}", i % 16),
                (i as i64) * 1_000,
                ColumnValue::F64(1e9 + i as f64),
            )
        })
        .collect()
}

fn manual_opts() -> StoreOptions {
    StoreOptions {
        flush_threshold_rows: usize::MAX,
        compact_min_chunks: usize::MAX,
    }
}

fn bench_group_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_wal");
    for &batch in &[16usize, 256] {
        group.bench_function(format!("group_commit_{batch}_rows"), |b| {
            let vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(1));
            let (mut store, _) = TsStore::open(vfs, manual_opts()).unwrap();
            let batch_rows = rows(batch);
            b.iter(|| {
                store.append(black_box(batch_rows.clone()));
                store.commit().unwrap()
            })
        });
    }
    group.finish();
}

fn bench_flush(c: &mut Criterion) {
    c.bench_function("store_flush_8k_rows", |b| {
        let payload = rows(8192);
        b.iter(|| {
            let vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(2));
            let (mut store, _) = TsStore::open(vfs, manual_opts()).unwrap();
            store.append(payload.clone());
            store.commit().unwrap();
            black_box(store.flush().unwrap())
        })
    });
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_recovery");

    // A disk holding 8k rows only in the WAL.
    let wal_vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(3));
    {
        let (mut store, _) = TsStore::open(wal_vfs.clone(), manual_opts()).unwrap();
        store.append(rows(8192));
        store.commit().unwrap();
    }
    group.bench_function("wal_replay_8k_rows", |b| {
        b.iter(|| TsStore::open(black_box(wal_vfs.clone()), manual_opts()).unwrap())
    });

    // The same rows frozen into one compressed chunk.
    let chunk_vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(4));
    {
        let (mut store, _) = TsStore::open(chunk_vfs.clone(), manual_opts()).unwrap();
        store.append(rows(8192));
        store.commit().unwrap();
        store.flush().unwrap();
    }
    group.bench_function("chunk_load_8k_rows", |b| {
        b.iter(|| TsStore::open(black_box(chunk_vfs.clone()), manual_opts()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_group_commit, bench_flush, bench_recovery);
criterion_main!(benches);
