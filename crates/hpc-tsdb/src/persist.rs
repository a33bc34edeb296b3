//! Versioned, checksummed snapshot persistence for [`TsdbStore`].
//!
//! The byte-level specification lives in `docs/TSDB_FORMAT.md`; this module
//! is the reference implementation. The shape in one paragraph: a snapshot
//! is an 8-byte magic followed by a sequence of *blocks*, each framed as
//! `[tag u8][len u32][payload][crc32 u32]` with the CRC covering tag, length
//! and payload. The first block is a header (format version, series count),
//! then one block per series (metadata, sealed Gorilla chunks **verbatim**
//! with their zone maps when present, hour-rollup state, and the active tail as
//! raw samples), and finally a footer
//! block whose presence proves the file was written to completion. Any
//! truncation or bit error is caught by a frame CRC or the missing footer
//! and surfaces as a typed [`PersistError`] — a snapshot is accepted whole
//! or rejected whole, never partially applied.
//!
//! ```
//! use hpc_tsdb::{SeriesMeta, StoreConfig, TsdbStore};
//!
//! let store = TsdbStore::default();
//! let id = store.register(SeriesMeta {
//!     name: "facility".into(), unit: "kW".into(), interval_hint: 60,
//! });
//! for i in 0..1000i64 {
//!     store.append(id, i * 60, 3200.0 + (i % 7) as f64);
//! }
//!
//! let path = std::env::temp_dir().join(format!("doc-snap-{}.tsnap", std::process::id()));
//! store.snapshot_to_path(&path).unwrap();
//! let reopened = TsdbStore::open_snapshot_path(&path, StoreConfig::default()).unwrap();
//!
//! // Recovery is bit-identical: every sample round-trips exactly.
//! let rid = reopened.lookup("facility").unwrap();
//! let a = store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
//! let b = reopened.with_series(rid, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
//! assert_eq!(a, b);
//! std::fs::remove_file(&path).unwrap();
//! ```

use crate::chunk::{Chunk, Zone};
use crate::rollup::{Aggregate, Bucket, RollupLevel, HOUR};
use crate::series::{Series, SeriesMeta};
use crate::store::{SeriesId, StoreConfig, TsdbStore};
use bytes::Bytes;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic prefix of a snapshot file: `HTSDBSN` + format generation byte.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HTSDBSN\x01";
/// Snapshot format version, written in the header block. Readers accept
/// this version only.
///
/// Version history:
/// - `1` — series metadata, sealed chunks, minute and hour rollups, active
///   tail;
/// - `2` — appends a zone-map section to every sealed chunk;
/// - `3` — drops the 1-minute rollup level; one hour level remains.
pub const SNAPSHOT_VERSION: u16 = 3;

/// Block tags (see `docs/TSDB_FORMAT.md`).
const TAG_HEADER: u8 = 0x01;
const TAG_SERIES: u8 = 0x02;
const TAG_FOOTER: u8 = 0xFF;

/// Why a snapshot or WAL could not be read (or written).
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The header declares a format version this reader does not speak.
    UnsupportedVersion(u16),
    /// The file ended before a complete block (or the footer) was read.
    /// `offset` is the byte position where the read fell short.
    Truncated {
        /// Byte offset at which the file fell short.
        offset: u64,
    },
    /// A block's CRC did not match its contents — a bit error or torn
    /// write inside the block starting at `offset`.
    CorruptBlock {
        /// Byte offset of the start of the corrupt block.
        offset: u64,
    },
    /// The frames checked out but the decoded structure is inconsistent
    /// (duplicate series, footer counts that disagree, bad field widths).
    Malformed(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a tsdb snapshot/WAL (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            PersistError::Truncated { offset } => {
                write!(f, "file truncated mid-block at byte {offset}")
            }
            PersistError::CorruptBlock { offset } => {
                write!(f, "CRC mismatch in block starting at byte {offset}")
            }
            PersistError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// What a completed snapshot wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Series serialised.
    pub series: u64,
    /// Raw samples represented (sealed + active).
    pub samples: u64,
    /// Total bytes written, including framing.
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), table-driven, built at compile time.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the checksum used by every snapshot block and
/// WAL record frame.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian payload encoding helpers.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    // Stored as the raw bit pattern so NaN payloads survive.
    put_u64(buf, v.to_bits());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_aggregate(buf: &mut Vec<u8>, a: &Aggregate) {
    put_u64(buf, a.count);
    put_f64(buf, a.sum);
    put_f64(buf, a.min);
    put_f64(buf, a.max);
    put_f64(buf, a.mean);
    put_f64(buf, a.m2);
}

fn put_rollup(buf: &mut Vec<u8>, level: &RollupLevel) {
    put_i64(buf, level.resolution());
    put_u32(buf, level.sealed().len() as u32);
    for b in level.sealed() {
        put_i64(buf, b.start);
        put_aggregate(buf, &b.agg);
    }
    match level.open() {
        Some(b) => {
            buf.push(1);
            put_i64(buf, b.start);
            put_aggregate(buf, &b.agg);
        }
        None => buf.push(0),
    }
}

/// Sequential reader over one block's payload with typed take-ops; every
/// short read is a [`PersistError::Malformed`] (the frame CRC already
/// matched, so a short payload is a structural bug, not a torn write).
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.buf.len() - self.pos < n {
            return Err(PersistError::Malformed(format!(
                "payload too short reading {what} ({} of {n} bytes left)",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn i64(&mut self, what: &str) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn str_(&mut self, what: &str) -> Result<String, PersistError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Malformed(format!("{what}: invalid UTF-8")))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn read_aggregate(c: &mut Cursor<'_>) -> Result<Aggregate, PersistError> {
    Ok(Aggregate {
        count: c.u64("agg.count")?,
        sum: c.f64("agg.sum")?,
        min: c.f64("agg.min")?,
        max: c.f64("agg.max")?,
        mean: c.f64("agg.mean")?,
        m2: c.f64("agg.m2")?,
    })
}

fn read_rollup(c: &mut Cursor<'_>, expected_resolution: i64) -> Result<RollupLevel, PersistError> {
    let resolution = c.i64("rollup.resolution")?;
    if resolution != expected_resolution {
        return Err(PersistError::Malformed(format!(
            "rollup resolution {resolution} (expected {expected_resolution})"
        )));
    }
    let sealed_n = c.u32("rollup.sealed_count")? as usize;
    let mut sealed = Vec::with_capacity(sealed_n.min(1 << 20));
    for _ in 0..sealed_n {
        let start = c.i64("bucket.start")?;
        let agg = read_aggregate(c)?;
        sealed.push(Bucket { start, agg });
    }
    let open = match c.u8("rollup.open_flag")? {
        0 => None,
        1 => {
            let start = c.i64("bucket.start")?;
            let agg = read_aggregate(c)?;
            Some(Bucket { start, agg })
        }
        f => return Err(PersistError::Malformed(format!("rollup open flag {f}"))),
    };
    Ok(RollupLevel::from_parts(resolution, sealed, open))
}

// ---------------------------------------------------------------------------
// Block framing.
// ---------------------------------------------------------------------------

fn write_block(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<u64, PersistError> {
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    w.write_all(&frame)?;
    w.write_all(&crc.to_le_bytes())?;
    Ok(frame.len() as u64 + 4)
}

/// Read one `[tag][len][payload][crc]` block. `offset` is advanced past the
/// block; on error it still points at the block start for diagnostics.
fn read_block(r: &mut impl Read, offset: &mut u64) -> Result<(u8, Vec<u8>), PersistError> {
    let start = *offset;
    let mut head = [0u8; 5];
    read_exact_at(r, &mut head, start)?;
    let tag = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as u64;
    // Never trust `len` with an up-front allocation: a flipped bit in the
    // length field must not balloon memory. `take` stops at EOF, and a
    // short read is reported as truncation at the block start.
    let mut payload = Vec::new();
    let got = r.take(len).read_to_end(&mut payload)?;
    if (got as u64) < len {
        return Err(PersistError::Truncated { offset: start });
    }
    let mut crc_bytes = [0u8; 4];
    read_exact_at(r, &mut crc_bytes, start)?;
    let stored = u32::from_le_bytes(crc_bytes);
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.extend_from_slice(&head);
    frame.extend_from_slice(&payload);
    if crc32(&frame) != stored {
        return Err(PersistError::CorruptBlock { offset: start });
    }
    *offset = start + 5 + len + 4;
    Ok((tag, payload))
}

fn read_exact_at(r: &mut impl Read, buf: &mut [u8], block_start: u64) -> Result<(), PersistError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(PersistError::Truncated { offset: block_start })
        }
        Err(e) => Err(e.into()),
    }
}

// ---------------------------------------------------------------------------
// Snapshot write.
// ---------------------------------------------------------------------------

fn series_payload(id: SeriesId, series: &Series) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + series.size_bytes());
    put_u64(&mut p, id.0);
    put_str(&mut p, &series.meta().name);
    put_str(&mut p, &series.meta().unit);
    put_i64(&mut p, series.meta().interval_hint);
    put_aggregate(&mut p, series.total_aggregate());
    put_u32(&mut p, series.chunks().len() as u32);
    for chunk in series.chunks() {
        put_u32(&mut p, chunk.len());
        put_i64(&mut p, chunk.first_ts());
        put_i64(&mut p, chunk.last_ts());
        put_u64(&mut p, chunk.len_bits());
        put_u32(&mut p, chunk.data().len() as u32);
        p.extend_from_slice(chunk.data());
        put_aggregate(&mut p, chunk.aggregate());
        let zones = chunk.zones().unwrap_or(&[]);
        put_u32(&mut p, zones.len() as u32);
        for z in zones {
            put_i64(&mut p, z.first_ts);
            put_i64(&mut p, z.last_ts);
            put_aggregate(&mut p, &z.agg);
        }
    }
    put_rollup(&mut p, series.hours());
    let tail = series.active_tail();
    put_u32(&mut p, tail.len() as u32);
    for (ts, v) in tail {
        put_i64(&mut p, ts);
        put_f64(&mut p, v);
    }
    p
}

fn read_series_payload(payload: &[u8]) -> Result<(SeriesId, Series), PersistError> {
    let mut c = Cursor::new(payload);
    let id = SeriesId(c.u64("series.id")?);
    let name = c.str_("series.name")?;
    let unit = c.str_("series.unit")?;
    let interval_hint = c.i64("series.interval_hint")?;
    let total = read_aggregate(&mut c)?;
    let n_chunks = c.u32("series.chunk_count")? as usize;
    let mut sealed = Vec::with_capacity(n_chunks.min(1 << 20));
    for _ in 0..n_chunks {
        let count = c.u32("chunk.count")?;
        let first_ts = c.i64("chunk.first_ts")?;
        let last_ts = c.i64("chunk.last_ts")?;
        let len_bits = c.u64("chunk.len_bits")?;
        let data_len = c.u32("chunk.data_len")? as usize;
        let data = c.take(data_len, "chunk.data")?;
        if (data.len() as u64) * 8 < len_bits {
            return Err(PersistError::Malformed(format!(
                "chunk of {data_len} bytes cannot hold {len_bits} bits"
            )));
        }
        let agg = read_aggregate(&mut c)?;
        let mut chunk =
            Chunk::from_parts(Bytes::from(data), len_bits, count, first_ts, last_ts, agg);
        let n_zones = c.u32("chunk.zone_count")? as usize;
        if n_zones > 0 {
            let mut zones = Vec::with_capacity(n_zones.min(1 << 20));
            let mut covered = 0u64;
            let mut prev_last = i64::MIN;
            for _ in 0..n_zones {
                let z_first = c.i64("zone.first_ts")?;
                let z_last = c.i64("zone.last_ts")?;
                let z_agg = read_aggregate(&mut c)?;
                if z_first > z_last || z_first < first_ts || z_last > last_ts {
                    return Err(PersistError::Malformed(format!(
                        "zone [{z_first}, {z_last}] outside chunk [{first_ts}, {last_ts}]"
                    )));
                }
                if z_first <= prev_last {
                    return Err(PersistError::Malformed(format!(
                        "zones overlap or regress at ts {z_first}"
                    )));
                }
                prev_last = z_last;
                covered += z_agg.count;
                zones.push(Zone { first_ts: z_first, last_ts: z_last, agg: z_agg });
            }
            if covered != u64::from(count) {
                return Err(PersistError::Malformed(format!(
                    "zone sample counts sum to {covered}, chunk holds {count}"
                )));
            }
            chunk = chunk.with_zones(zones);
        }
        sealed.push(chunk);
    }
    let hours = read_rollup(&mut c, HOUR)?;
    let tail_n = c.u32("series.tail_count")? as usize;
    let mut tail = Vec::with_capacity(tail_n.min(1 << 20));
    let mut last: Option<i64> = None;
    for _ in 0..tail_n {
        let ts = c.i64("tail.ts")?;
        let v = c.f64("tail.value")?;
        if last.is_some_and(|l| ts <= l) {
            return Err(PersistError::Malformed(format!(
                "active tail not strictly increasing at ts {ts}"
            )));
        }
        last = Some(ts);
        tail.push((ts, v));
    }
    if !c.done() {
        return Err(PersistError::Malformed("trailing bytes in series block".into()));
    }
    let meta = SeriesMeta { name, unit, interval_hint };
    Ok((id, Series::from_parts(meta, sealed, &tail, hours, total)))
}

impl TsdbStore {
    /// Serialise the whole store to `w` in the checksummed snapshot format
    /// (`docs/TSDB_FORMAT.md`).
    ///
    /// Each series is serialised under its shard's read lock, so the
    /// per-series image is always internally consistent; for a globally
    /// consistent point-in-time image, quiesce writers first (the campaign
    /// checkpoints between simulation runs, the pipeline after `close()`).
    pub fn snapshot_to(&self, w: &mut impl Write) -> Result<SnapshotStats, PersistError> {
        let entries = self.series_entries();
        let mut stats = SnapshotStats { series: entries.len() as u64, ..Default::default() };
        w.write_all(&SNAPSHOT_MAGIC)?;
        stats.bytes += SNAPSHOT_MAGIC.len() as u64;

        let mut header = Vec::with_capacity(32);
        header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        put_u64(&mut header, entries.len() as u64);
        put_u64(&mut header, self.next_series_id());
        stats.bytes += write_block(w, TAG_HEADER, &header)?;

        for (id, _) in &entries {
            let payload = self
                .with_series(*id, |s| {
                    stats.samples += s.len();
                    series_payload(*id, s)
                })
                .ok_or_else(|| {
                    PersistError::Malformed(format!("registered series {id:?} missing"))
                })?;
            stats.bytes += write_block(w, TAG_SERIES, &payload)?;
        }

        let mut footer = Vec::with_capacity(16);
        put_u64(&mut footer, entries.len() as u64);
        put_u64(&mut footer, stats.samples);
        stats.bytes += write_block(w, TAG_FOOTER, &footer)?;
        w.flush()?;
        Ok(stats)
    }

    /// Snapshot to `path` atomically: the image is written to a sibling
    /// temporary file, fsynced, then renamed into place — a crash mid-write
    /// never leaves a half-written file under the final name.
    pub fn snapshot_to_path(&self, path: &Path) -> Result<SnapshotStats, PersistError> {
        let tmp = path.with_extension("tmp");
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        let stats = self.snapshot_to(&mut w)?;
        let file = w.into_inner().map_err(|e| PersistError::Io(e.into_error()))?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(stats)
    }

    /// Rebuild a store from a snapshot stream. Accepts the image whole or
    /// returns a typed error — a truncated or bit-flipped snapshot is never
    /// partially applied.
    pub fn open_snapshot(r: &mut impl Read, config: StoreConfig) -> Result<Self, PersistError> {
        let mut offset = 0u64;
        let mut magic = [0u8; 8];
        read_exact_at(r, &mut magic, 0)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(PersistError::BadMagic);
        }
        offset += 8;

        let (tag, header) = read_block(r, &mut offset)?;
        if tag != TAG_HEADER {
            return Err(PersistError::Malformed(format!("first block tag {tag:#x}")));
        }
        let mut c = Cursor::new(&header);
        let version = u16::from_le_bytes(c.take(2, "header.version")?.try_into().expect("2 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let declared_series = c.u64("header.series_count")?;
        let next_id = c.u64("header.next_id")?;

        let store = TsdbStore::new(config);
        let mut seen_series = 0u64;
        let mut seen_samples = 0u64;
        loop {
            let (tag, payload) = read_block(r, &mut offset)?;
            match tag {
                TAG_SERIES => {
                    let (id, series) = read_series_payload(&payload)?;
                    seen_samples += series.len();
                    let name = series.meta().name.clone();
                    if !store.install_recovered(id, series) {
                        return Err(PersistError::Malformed(format!(
                            "duplicate series {name:?} / id {id:?}"
                        )));
                    }
                    seen_series += 1;
                }
                TAG_FOOTER => {
                    let mut c = Cursor::new(&payload);
                    let footer_series = c.u64("footer.series_count")?;
                    let footer_samples = c.u64("footer.sample_count")?;
                    if footer_series != seen_series || footer_series != declared_series {
                        return Err(PersistError::Malformed(format!(
                            "footer series count {footer_series} vs {seen_series} read / {declared_series} declared"
                        )));
                    }
                    if footer_samples != seen_samples {
                        return Err(PersistError::Malformed(format!(
                            "footer sample count {footer_samples} vs {seen_samples} read"
                        )));
                    }
                    break;
                }
                t => return Err(PersistError::Malformed(format!("unexpected block tag {t:#x}"))),
            }
        }
        // The footer must be the last thing in the stream.
        let mut one = [0u8; 1];
        if r.read(&mut one)? != 0 {
            return Err(PersistError::Malformed("trailing data after footer".into()));
        }
        store.bump_next_id(next_id);
        Ok(store)
    }

    /// [`Self::open_snapshot`] over a file path.
    pub fn open_snapshot_path(path: &Path, config: StoreConfig) -> Result<Self, PersistError> {
        let mut r = BufReader::new(File::open(path)?);
        Self::open_snapshot(&mut r, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str) -> SeriesMeta {
        SeriesMeta { name: name.into(), unit: "kW".into(), interval_hint: 60 }
    }

    fn sample_store() -> TsdbStore {
        let store = TsdbStore::default();
        let a = store.register(meta("facility"));
        let b = store.register(meta("cabinet.0"));
        // Spans sealed chunks on `a`, leaves a ragged tail on both.
        for i in 0..1300i64 {
            store.append(a, i * 60, 3000.0 + (i % 13) as f64 * 0.5);
        }
        for i in 0..70i64 {
            store.append(b, i * 900, 120.0 + (i % 5) as f64);
        }
        store
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let store = sample_store();
        let mut buf = Vec::new();
        let stats = store.snapshot_to(&mut buf).unwrap();
        assert_eq!(stats.series, 2);
        assert_eq!(stats.samples, 1370);
        assert_eq!(stats.bytes, buf.len() as u64);

        let back = TsdbStore::open_snapshot(&mut &buf[..], StoreConfig::default()).unwrap();
        assert_eq!(back.series_count(), 2);
        assert_eq!(back.total_samples(), store.total_samples());
        for name in ["facility", "cabinet.0"] {
            let id = store.lookup(name).unwrap();
            let rid = back.lookup(name).unwrap();
            assert_eq!(id, rid, "ids survive recovery");
            let orig = store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
            let rec = back.with_series(rid, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
            assert_eq!(orig.len(), rec.len());
            for ((t0, v0), (t1, v1)) in orig.iter().zip(&rec) {
                assert_eq!(t0, t1);
                assert_eq!(v0.to_bits(), v1.to_bits());
            }
            // Rollup state survives too: sealed and open hour buckets.
            let hours = |s: &Series| {
                let bits = |b: &Bucket| (b.start, b.agg.count, b.agg.m2.to_bits());
                let sealed: Vec<_> = s.hours().sealed().iter().map(bits).collect();
                (sealed, s.hours().open().map(bits))
            };
            let (sealed0, open0) = store.with_series(id, hours).unwrap();
            let (sealed1, open1) = back.with_series(rid, hours).unwrap();
            assert!(!sealed0.is_empty() && open0.is_some());
            assert_eq!((sealed0, open0), (sealed1, open1));
        }
        // New appends continue seamlessly after the recovered tail.
        let id = back.lookup("facility").unwrap();
        back.append(id, 1300 * 60, 99.0);
        // And new registrations do not collide with recovered ids.
        let fresh = back.register(meta("node.0"));
        assert!(fresh.0 >= 2, "next id resumed past recovered ids, got {fresh:?}");
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = TsdbStore::default();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        let back = TsdbStore::open_snapshot(&mut &buf[..], StoreConfig::default()).unwrap();
        assert_eq!(back.series_count(), 0);
        assert_eq!(back.total_samples(), 0);
    }

    #[test]
    fn every_truncation_is_detected() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        // Every strict prefix must fail with a typed error (sampled stride
        // keeps the test fast; boundaries are covered explicitly).
        let mut cuts: Vec<usize> = (0..buf.len()).step_by(257).collect();
        cuts.extend([0, 1, 7, 8, 9, buf.len() - 1, buf.len() - 4, buf.len() - 5]);
        for cut in cuts {
            let res = TsdbStore::open_snapshot(&mut &buf[..cut], StoreConfig::default());
            assert!(res.is_err(), "truncation at {cut}/{} accepted", buf.len());
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        for byte in (0..buf.len()).step_by(101) {
            for bit in [0u8, 5] {
                let mut evil = buf.clone();
                evil[byte] ^= 1 << bit;
                let res = TsdbStore::open_snapshot(&mut &evil[..], StoreConfig::default());
                assert!(res.is_err(), "bit flip at byte {byte} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let store = TsdbStore::default();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            TsdbStore::open_snapshot(&mut &wrong_magic[..], StoreConfig::default()),
            Err(PersistError::BadMagic)
        ));
        // Every version but the current one must be refused, not mis-read:
        // a future one, pre-history 0, and the retired 1 (minute rollups,
        // no zone sections) and 2 (minute rollups). Rebuild the header
        // block with the patched version and a fixed-up CRC.
        assert_eq!(buf[8 + 5], SNAPSHOT_VERSION as u8); // payload starts after magic + tag + len
        let len = u32::from_le_bytes(buf[9..13].try_into().unwrap()) as usize;
        for version in [SNAPSHOT_VERSION + 1, 0, 1, 2] {
            let mut patched = buf.clone();
            patched[8 + 5] = version as u8;
            let crc = crc32(&patched[8..8 + 5 + len]);
            patched[8 + 5 + len..8 + 5 + len + 4].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(
                    TsdbStore::open_snapshot(&mut &patched[..], StoreConfig::default()),
                    Err(PersistError::UnsupportedVersion(v)) if v == version
                ),
                "version {version} accepted"
            );
        }
    }

    #[test]
    fn zone_maps_survive_snapshot_roundtrip() {
        let store = sample_store();
        let stats = store.compact();
        assert!(stats.chunks_compacted > 0, "sample store should compact");
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        let back = TsdbStore::open_snapshot(&mut &buf[..], StoreConfig::default()).unwrap();

        let id = store.lookup("facility").unwrap();
        let (orig_zones, orig_agg) = store
            .with_series(id, |s| {
                let zones: Vec<Vec<Zone>> =
                    s.chunks().iter().map(|c| c.zones().unwrap_or(&[]).to_vec()).collect();
                (zones, s.scan_aggregate(0, i64::MAX))
            })
            .unwrap();
        assert!(orig_zones.iter().any(|z| !z.is_empty()), "compaction left no zones");
        let rid = back.lookup("facility").unwrap();
        let (rec_zones, rec_agg) = back
            .with_series(rid, |s| {
                let zones: Vec<Vec<Zone>> =
                    s.chunks().iter().map(|c| c.zones().unwrap_or(&[]).to_vec()).collect();
                (zones, s.scan_aggregate(0, i64::MAX))
            })
            .unwrap();
        assert_eq!(orig_zones.len(), rec_zones.len());
        for (a, b) in orig_zones.iter().zip(&rec_zones) {
            assert_eq!(a.len(), b.len());
            for (za, zb) in a.iter().zip(b) {
                assert_eq!((za.first_ts, za.last_ts), (zb.first_ts, zb.last_ts));
                assert_eq!(za.agg.count, zb.agg.count);
                assert_eq!(za.agg.sum.to_bits(), zb.agg.sum.to_bits());
                assert_eq!(za.agg.m2.to_bits(), zb.agg.m2.to_bits());
            }
        }
        assert_eq!(orig_agg.count, rec_agg.count);
        assert_eq!(orig_agg.sum.to_bits(), rec_agg.sum.to_bits());
    }

    #[test]
    fn snapshot_to_path_is_atomic_and_reopens() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tsdb-snap-test-{}.tsnap", std::process::id()));
        let store = sample_store();
        let stats = store.snapshot_to_path(&path).unwrap();
        assert!(stats.bytes > 0);
        assert!(!path.with_extension("tmp").exists(), "temp file left behind");
        let back = TsdbStore::open_snapshot_path(&path, StoreConfig::default()).unwrap();
        assert_eq!(back.total_samples(), store.total_samples());
        std::fs::remove_file(&path).unwrap();
    }
}
