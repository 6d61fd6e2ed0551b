//! Columnar batch ingest: struct-of-arrays buffers that turn many points
//! into one series-interned, group-committed write.
//!
//! Every write goes through [`crate::Database::ingest`], which builds a
//! [`ColumnarBatch`] — a single point is a batch of one. Points are
//! transposed into per-series columns (`ts[]` + `fields[]`), each unique
//! series is hashed and resolved in storage **once** per batch, and the
//! engine writes the whole batch as **one** WAL frame followed by **one**
//! group commit.
//!
//! Atomicity falls out of the WAL framing: `encode_row_batch` wraps every
//! row of an `append` call in a single `[len][crc][payload]` frame, and
//! recovery drops a torn or corrupt frame wholly. A crash mid-commit
//! therefore replays the entire batch or none of it — never a prefix
//! (`pcp/tests/batch_crash.rs` pins this with seeded MemDisk faults).
//!
//! Equivalence between one batch and the same points written one at a
//! time is *bit-exact*, pinned by the `PMOVE_BATCH_CASES` differential
//! suite. The two order contracts that make it hold:
//!
//! * **series-id order**: ids are allocated at first appearance, and ids
//!   define the canonical `(timestamp, series id)` row order every query
//!   result depends on. The batch interns series in first-appearance
//!   order of the incoming points — the same allocation sequence the row
//!   path produces.
//! * **LWW order**: within one series, rows stay in arrival order, so
//!   duplicate-timestamp field merges resolve identically. Across series
//!   the series-major replay order differs from arrival order, but
//!   cross-series cells never collide, so the merged state is the same.

use crate::engine::column_of_field;
use crate::line_protocol::render_series_key;
use crate::point::Point;
use crate::series::SeriesKey;
use crate::storage::{series_hash, shard_of_series, Row, Storage, DEFAULT_SHARD_COUNT};
use crate::value::FieldValue;
use pmove_store::RowRecord;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// The batch's series-grouping map is keyed by [`series_hash`], which is
/// already an FNV-1a digest; hashing it again would only cost time.
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Size/age thresholds for the per-shard ingest queues.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Flush a shard queue once it buffers this many points.
    pub max_points: usize,
    /// Flush a shard queue once its oldest point has waited this long
    /// (virtual-clock units, same unit the caller passes as `now`).
    pub max_age: i64,
}

impl Default for BatchConfig {
    /// 4096 points or 1 s (nanosecond clock), whichever comes first —
    /// matching the store's memtable flush granularity.
    fn default() -> Self {
        BatchConfig {
            max_points: 4096,
            max_age: 1_000_000_000,
        }
    }
}

/// Struct-of-arrays columns for one series within a batch: timestamps and
/// field sets in arrival order, plus the placement hash computed once
/// instead of once per point.
#[derive(Debug)]
pub struct SeriesColumns {
    /// Series identity.
    pub key: SeriesKey,
    /// [`series_hash`] of the key: the FNV-1a of its canonical
    /// (unescaped) form, which storage places the series by.
    pub hash: u64,
    /// Home shard under the fixed default layout.
    pub shard: usize,
    /// Timestamps in arrival order.
    pub ts: Vec<i64>,
    /// Field sets in arrival order (moved out of the points, not copied).
    pub fields: Vec<BTreeMap<String, FieldValue>>,
}

/// A set of points transposed into per-series columns, series kept in
/// first-appearance order (the order storage allocates their ids in).
#[derive(Debug)]
pub struct ColumnarBatch {
    series: Vec<SeriesColumns>,
    /// Arrival order as `(series slot, row index)` — what live
    /// subscription publishing replays so batching is invisible to
    /// subscribers.
    order: Vec<(u32, u32)>,
    /// Total points in the batch.
    pub points: usize,
}

impl ColumnarBatch {
    /// Transpose points into columns. Each point's series is hashed in
    /// place; a series' key moves out of its first point, never cloned.
    pub fn build(points: Vec<Point>) -> ColumnarBatch {
        let total = points.len();
        let mut series: Vec<SeriesColumns> = Vec::new();
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(total);
        let mut index: HashMap<u64, usize, BuildHasherDefault<PassThroughHasher>> =
            HashMap::default();
        for point in points {
            let hash = series_hash(&point.measurement, &point.tags);
            let same = |sc: &SeriesColumns| {
                sc.key.measurement == point.measurement && sc.key.tags == point.tags
            };
            let found = match index.get(&hash) {
                Some(&i) if same(&series[i]) => Some(i),
                // A 64-bit hash collision between two series: rare enough
                // that a linear scan is the whole story.
                Some(_) => series.iter().position(same),
                None => None,
            };
            let slot = found.unwrap_or_else(|| {
                index.entry(hash).or_insert(series.len());
                series.push(SeriesColumns {
                    key: SeriesKey {
                        measurement: point.measurement,
                        tags: point.tags,
                    },
                    hash,
                    shard: (hash % DEFAULT_SHARD_COUNT as u64) as usize,
                    ts: Vec::new(),
                    fields: Vec::new(),
                });
                series.len() - 1
            });
            order.push((slot as u32, series[slot].ts.len() as u32));
            series[slot].ts.push(point.timestamp);
            series[slot].fields.push(point.fields);
        }
        ColumnarBatch {
            series,
            order,
            points: total,
        }
    }

    /// Reconstruct the batch's points in arrival order. Clones tag and
    /// field sets, so callers only iterate when someone is listening
    /// (live subscribers).
    pub fn arrival_points(&self) -> impl Iterator<Item = Point> + '_ {
        self.order.iter().map(|&(slot, idx)| {
            let sc = &self.series[slot as usize];
            Point {
                measurement: sc.key.measurement.clone(),
                tags: sc.key.tags.clone(),
                fields: sc.fields[idx as usize].clone(),
                timestamp: sc.ts[idx as usize],
            }
        })
    }

    /// Per-series columns in first-appearance order.
    pub fn series(&self) -> &[SeriesColumns] {
        &self.series
    }

    /// Unique series in the batch.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Distinct home shards the batch touches.
    pub fn shard_spread(&self) -> usize {
        let mut seen = [false; DEFAULT_SHARD_COUNT];
        for sc in &self.series {
            seen[sc.shard % DEFAULT_SHARD_COUNT] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// Flatten into durable rows for one WAL frame: series-major, each
    /// series' escaped key rendered once. Per-series arrival order is
    /// preserved, which is all last-write-wins replay needs.
    pub fn wal_rows(&self) -> Vec<RowRecord> {
        let mut rows = Vec::new();
        for sc in &self.series {
            let rendered = render_series_key(&sc.key.measurement, &sc.key.tags);
            for (ts, fields) in sc.ts.iter().zip(&sc.fields) {
                for (field, value) in fields {
                    rows.push(RowRecord::new(
                        rendered.clone(),
                        field.clone(),
                        *ts,
                        column_of_field(value),
                    ));
                }
            }
        }
        rows
    }

    /// Field sets of every point, series-major.
    pub(crate) fn field_sets(&self) -> impl Iterator<Item = &BTreeMap<String, FieldValue>> {
        self.series.iter().flat_map(|sc| &sc.fields)
    }

    /// Move the batch's rows into storage: one series resolution per
    /// unique series, in first-appearance order so id allocation matches
    /// writing the points one at a time. The field sets move out; keys and
    /// timestamps stay for the caller's bookkeeping.
    pub(crate) fn apply(&mut self, storage: &mut Storage) {
        for sc in &mut self.series {
            let fields = std::mem::take(&mut sc.fields);
            let rows = sc
                .ts
                .iter()
                .zip(fields)
                .map(|(&timestamp, fields)| Row { timestamp, fields });
            storage.insert_series_rows(&sc.key, sc.hash, rows);
        }
    }
}

/// Outcome of one [`crate::Database::ingest`] call.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-point results in arrival order (`EmptyFields` and limiter
    /// rejections surface here; accepted points are `Ok`).
    pub results: Vec<Result<(), crate::error::TsdbError>>,
    /// Points admitted, committed, and stored.
    pub accepted: usize,
    /// Points rejected by the ingest limiter.
    pub rejected: usize,
    /// Unique series the accepted points covered.
    pub series: usize,
    /// Distinct home shards the accepted points covered.
    pub shards: usize,
    /// Modeled WAL group-commit cost for the whole batch (0 when
    /// memory-only or nothing was accepted).
    pub commit_ns: u64,
    /// Modeled end of the ingest spans on the virtual clock, so a traced
    /// caller can close its own span after the ingest: the trace's start
    /// when nothing was accepted, 0 when untraced.
    pub end_ns: u64,
}

impl BatchOutcome {
    /// True when every offered point was accepted.
    pub fn all_accepted(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }
}

/// One shard's pending queue.
#[derive(Debug, Default)]
struct ShardQueue {
    points: Vec<Point>,
    /// Virtual time the oldest pending point arrived at.
    oldest: i64,
}

/// Per-shard ingest queues that flush on size or age. The ingester is a
/// buffering front for [`crate::Database::write_batch`]: callers `offer`
/// points as they arrive and write whatever batches come back; a periodic
/// `flush_due` drains queues whose oldest point has aged out, and
/// `flush_all` drains everything at shutdown.
///
/// Queueing never changes admission semantics: the ingest limiter windows
/// on *point* timestamps, not on the flush time, so a point admitted late
/// lands in the same limiter window it would have occupied ingested
/// immediately.
#[derive(Debug)]
pub struct BatchIngester {
    cfg: BatchConfig,
    queues: Vec<ShardQueue>,
}

impl BatchIngester {
    /// Ingester with one queue per storage shard.
    pub fn new(cfg: BatchConfig) -> BatchIngester {
        assert!(cfg.max_points > 0, "batch size must be positive");
        assert!(cfg.max_age >= 0, "batch age must be non-negative");
        BatchIngester {
            cfg,
            queues: (0..DEFAULT_SHARD_COUNT)
                .map(|_| ShardQueue::default())
                .collect(),
        }
    }

    /// Buffer one point at virtual time `now`; returns the point's shard
    /// queue as a ready batch when the size threshold is reached. Routing
    /// hashes the series key in place ([`shard_of_series`]) — no clone,
    /// no canonical render — but lands on exactly the shard storage will
    /// place the series on.
    pub fn offer(&mut self, point: Point, now: i64) -> Option<Vec<Point>> {
        let shard = shard_of_series(&point.measurement, &point.tags, DEFAULT_SHARD_COUNT);
        let q = &mut self.queues[shard];
        if q.points.is_empty() {
            q.oldest = now;
        }
        q.points.push(point);
        (q.points.len() >= self.cfg.max_points).then(|| std::mem::take(&mut q.points))
    }

    /// Drain every queue whose oldest point has waited at least
    /// `max_age`, returning one batch per drained shard.
    pub fn flush_due(&mut self, now: i64) -> Vec<Vec<Point>> {
        let max_age = self.cfg.max_age;
        self.queues
            .iter_mut()
            .filter(|q| !q.points.is_empty() && now.saturating_sub(q.oldest) >= max_age)
            .map(|q| std::mem::take(&mut q.points))
            .collect()
    }

    /// Drain every non-empty queue (shutdown / end of experiment).
    pub fn flush_all(&mut self) -> Vec<Vec<Point>> {
        self.queues
            .iter_mut()
            .filter(|q| !q.points.is_empty())
            .map(|q| std::mem::take(&mut q.points))
            .collect()
    }

    /// Points currently buffered across all queues.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.points.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(host: &str, ts: i64, v: f64) -> Point {
        Point::new("m")
            .tag("host", host)
            .field("v", v)
            .timestamp(ts)
    }

    #[test]
    fn build_interns_series_in_first_appearance_order() {
        let batch = ColumnarBatch::build(vec![pt("b", 1, 1.0), pt("a", 2, 2.0), pt("b", 3, 3.0)]);
        assert_eq!(batch.points, 3);
        assert_eq!(batch.series_count(), 2);
        assert_eq!(batch.series()[0].key.tags["host"], "b");
        assert_eq!(batch.series()[1].key.tags["host"], "a");
        assert_eq!(batch.series()[0].ts, vec![1, 3]);
        assert_eq!(batch.series()[1].ts, vec![2]);
        assert!(batch.shard_spread() >= 1);
    }

    #[test]
    fn wal_rows_are_series_major_and_order_preserving() {
        let batch = ColumnarBatch::build(vec![pt("b", 5, 1.0), pt("a", 1, 2.0), pt("b", 2, 3.0)]);
        let rows = batch.wal_rows();
        assert_eq!(rows.len(), 3);
        // Series b's rows first (first appearance), in arrival order.
        assert_eq!(rows[0].ts, 5);
        assert_eq!(rows[1].ts, 2);
        assert_eq!(rows[2].ts, 1);
        assert!(rows[0].series.contains("host=b"));
        assert!(rows[2].series.contains("host=a"));
    }

    #[test]
    fn apply_matches_row_at_a_time_storage() {
        let points = vec![
            pt("b", 5, 1.0),
            pt("a", 1, 2.0),
            pt("b", 2, 3.0),
            pt("b", 5, 9.0), // LWW rewrite
        ];
        let mut rowwise = Storage::new();
        for p in points.clone() {
            rowwise.insert(p);
        }
        let mut batched = Storage::new();
        ColumnarBatch::build(points).apply(&mut batched);

        let mr = rowwise.measurement("m").unwrap();
        let mb = batched.measurement("m").unwrap();
        assert_eq!(mr.row_count(), mb.row_count());
        let ids_r = mr.matching_series(&[]);
        let ids_b = mb.matching_series(&[]);
        assert_eq!(ids_r, ids_b, "id allocation order must match");
        for (ir, ib) in ids_r.iter().zip(&ids_b) {
            let sr = mr.series(*ir).unwrap();
            let sb = mb.series(*ib).unwrap();
            assert_eq!(sr.key, sb.key);
            assert_eq!(sr.rows, sb.rows);
        }
    }

    #[test]
    fn ingester_flushes_on_size_and_age() {
        let mut ing = BatchIngester::new(BatchConfig {
            max_points: 2,
            max_age: 100,
        });
        // Same series → same queue; second offer hits the size threshold.
        assert!(ing.offer(pt("a", 1, 1.0), 0).is_none());
        let batch = ing.offer(pt("a", 2, 2.0), 10).expect("size flush");
        assert_eq!(batch.len(), 2);
        assert_eq!(ing.pending(), 0);
        // Age flush: nothing due before max_age, everything after.
        ing.offer(pt("a", 3, 3.0), 50);
        assert!(ing.flush_due(100).is_empty());
        let due = ing.flush_due(150);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].len(), 1);
        // flush_all drains the rest.
        ing.offer(pt("a", 4, 4.0), 200);
        ing.offer(pt("zz", 5, 5.0), 200);
        let all = ing.flush_all();
        assert_eq!(all.iter().map(Vec::len).sum::<usize>(), 2);
        assert_eq!(ing.pending(), 0);
    }
}
