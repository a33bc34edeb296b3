//! # hpc-tsdb
//!
//! An embedded, compressed, sharded time-series store sized for facility
//! telemetry at per-node scale (thousands of series, months of samples).
//!
//! Layered bottom-up:
//!
//! - [`bitstream`] — MSB-first bit reader/writer over [`bytes`] buffers;
//! - [`chunk`] — Gorilla-style codec: delta-of-delta timestamps and
//!   XOR-encoded values, lossless for every `f64` bit pattern; decoding
//!   yields columnar blocks ([`ColumnBlock`]) and compacted chunks carry
//!   block-level zone maps ([`Zone`]);
//! - [`rollup`] — mergeable aggregates and the 1-hour downsampling level
//!   every raw sample folds into (count/sum/min/max + Welford moments, so
//!   means re-aggregate exactly);
//! - [`log`] — the append-only shared log ([`Log`]) that holds a series'
//!   sealed chunks, rollup buckets and quarantine list in frozen
//!   `Arc` blocks plus a short tail, so clones share history;
//! - [`series`] — one series: sealed chunks + active chunk + hour rollup;
//! - [`store`] — the sharded store, its channel-fed ingest pipeline
//!   (writers hashed by series id, one thread per shard, poisoned batches
//!   rejected without killing the writer), and the on-demand compaction
//!   pass ([`TsdbStore::compact`]) that rewrites runs of small sealed
//!   chunks into large zone-mapped ones;
//! - [`cache`] — bounded LRU cache of decoded columnar blocks, keyed by
//!   chunk uid and shared by all store-level queries (sealed chunks are
//!   immutable and replacement chunks get fresh uids, so entries never
//!   need invalidation);
//! - [`query`] — range scans, aligned aggregations (mean/max/p95),
//!   rollup-aware planning, zone-map pruning, scan-cost estimation
//!   ([`estimate_scan`]), change-point segment means, and the parallel
//!   multi-series fan-out layer with per-store [`QueryStats`]
//!   instrumentation;
//! - [`persist`] — the versioned, checksummed snapshot format
//!   ([`TsdbStore::snapshot_to`] / [`TsdbStore::open_snapshot`]): series
//!   metadata, sealed chunks verbatim, rollup state and active tails,
//!   framed in CRC-guarded blocks with a footer so truncation and bit rot
//!   are detected, never mis-read;
//! - [`wal`] — the write-ahead log on the ingest path and the
//!   [`recover`] entry point (newest valid snapshot + WAL replay, torn
//!   tail records skipped and counted);
//! - [`faults`] — deterministic fault injection (truncation, bit flips,
//!   mid-write crashes) backing the crash-recovery test suite;
//! - [`quality`] — the ingest sanitisation stage ([`Sanitizer`]) that
//!   quarantines implausible samples into a per-series quality mask
//!   instead of storing them, and gap-aware queries
//!   ([`store_gap_aggregate`] / [`store_gap_windows`]) that aggregate over
//!   present samples and report a coverage fraction against the series'
//!   cadence hint.
//!
//! ## Durability in one example
//!
//! Snapshot a store, "lose" the process, and recover bit-identically:
//!
//! ```
//! use hpc_tsdb::{recover, SeriesMeta, StoreConfig, TsdbStore};
//!
//! let store = TsdbStore::default();
//! let id = store.register(SeriesMeta {
//!     name: "node.0".into(), unit: "kW".into(), interval_hint: 60,
//! });
//! for i in 0..600i64 {
//!     store.append(id, i * 60, 0.4 + (i % 9) as f64 * 0.01);
//! }
//! let snap = std::env::temp_dir().join(format!("doc-lib-{}.tsnap", std::process::id()));
//! store.snapshot_to_path(&snap).unwrap();
//!
//! let (recovered, report) = recover(Some(&snap), None, StoreConfig::default()).unwrap();
//! assert_eq!(report.snapshot_samples, 600);
//! let rid = recovered.lookup("node.0").unwrap();
//! assert_eq!(
//!     recovered.with_series(rid, |s| s.scan(i64::MIN, i64::MAX)),
//!     store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)),
//! );
//! std::fs::remove_file(&snap).unwrap();
//! ```

#![warn(missing_docs)]

pub mod bitstream;
pub mod cache;
pub mod chunk;
pub mod faults;
pub mod log;
pub mod persist;
pub mod quality;
pub mod query;
pub mod rollup;
pub mod series;
pub mod store;
pub mod wal;

pub use cache::ChunkCache;
pub use chunk::{ColumnBlock, Zone};
pub use log::Log;
pub use persist::{PersistError, SnapshotStats};
pub use quality::{
    store_gap_aggregate, store_gap_windows, GapAwareValue, GapWindow, QuarantineReason,
    QuarantinedSample, SampleFate, SanitizeConfig, SanitizeStats, Sanitizer,
};
pub use query::{
    aggregate, aligned_windows, estimate_scan, fanout_aggregate, fanout_group, fanout_windows,
    fanout_workers, segment_means, store_aggregate, store_segment_means, store_windows,
    window_aggregate, AggOp, GroupValue, Plan, QueryStats, WindowValue,
};
pub use rollup::Aggregate;
pub use series::{Series, SeriesMeta};
pub use store::{
    CompactionStats, IngestError, IngestPipeline, ReadView, SeriesId, StoreConfig, TsdbStore,
    COMPACT_TARGET_SAMPLES,
};
pub use wal::{recover, RecoveryReport, WalConfig, WalReplayStats, WalWriter};
