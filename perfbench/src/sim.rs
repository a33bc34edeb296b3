//! The one campaign every workload runs, the serve-mode ingest loop, and
//! the durability round trip (snapshot, checkpoint, resume).

use crate::stats::Tracer;
use archer2_repro::core::campaign::{Campaign, CampaignConfig, FaultInjectionConfig};
use archer2_repro::core::experiment;
use archer2_repro::core::sweep::store_digest;
use archer2_repro::faults::{DomainFaultConfig, DomainRate};
use archer2_repro::prelude::*;
use archer2_repro::workload::OperatingPoint;
use std::path::Path;
use std::time::Instant;

/// Facility scale divisor: 586 nodes, 589 telemetry series.
pub const SCALE: u32 = 10;
/// Serve-mode step, as in `Campaign::run_serve` callers.
pub const STEP_HOURS: u64 = 6;
const OP: OperatingPoint = OperatingPoint::AFTER_BIOS;

pub fn start() -> SimTime {
    SimTime::from_ymd(2022, 6, 1)
}

/// Unix seconds of `[start, start + days)`.
pub fn window(days: u64) -> (i64, i64) {
    let lo = start().as_unix() as i64;
    (lo, lo + days as i64 * 86_400)
}

/// The storm fault rates of `campaign_throughput`: kills, cabinet trips
/// and repairs all happen inside a short window.
fn storm(days: u64) -> FaultInjectionConfig {
    FaultInjectionConfig {
        domains: DomainFaultConfig {
            node: DomainRate {
                mtbf_hours: 400.0,
                repair_mean_hours: 8.0,
                repair_sigma: 0.5,
            },
            cabinet: DomainRate {
                mtbf_hours: 250.0,
                repair_mean_hours: 4.0,
                repair_sigma: 0.4,
            },
            cdu: DomainRate {
                mtbf_hours: 150.0,
                repair_mean_hours: 6.0,
                repair_sigma: 0.4,
            },
            switch: DomainRate {
                mtbf_hours: 1_500.0,
                repair_mean_hours: 4.0,
                repair_sigma: 0.4,
            },
            ..DomainFaultConfig::default()
        },
        horizon: SimDuration::from_days(days),
        meters: None,
        sanitize: archer2_repro::tsdb::SanitizeConfig::default(),
    }
}

pub fn config(seed: u64, days: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        per_cabinet_telemetry: true,
        per_node_telemetry: true,
        faults: Some(storm(days)),
        ..CampaignConfig::default()
    }
}

pub fn new_campaign(seed: u64, days: u64) -> Campaign {
    Campaign::new(
        experiment::scaled_facility(seed, SCALE),
        config(seed, days),
        start(),
        OP,
    )
}

/// Wall-clock split of one ingest loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopTimes {
    pub wall_s: f64,
    /// Time inside `Campaign::run_until`.
    pub busy_s: f64,
    /// Time inside `TsdbStore::publish_view`.
    pub publish_s: f64,
}

/// `Campaign::run_serve`'s loop unrolled so both halves can be timed:
/// step the campaign `STEP_HOURS` at a time up to `days`, republishing the
/// store's read view after each step when `publish` is set.
pub fn ingest_loop(
    c: &mut Campaign,
    days: u64,
    publish: bool,
    tr: &mut Tracer,
    parent: u64,
) -> LoopTimes {
    let store = c.serve_store();
    let end = start() + SimDuration::from_days(days);
    let step = SimDuration::from_hours(STEP_HOURS);
    let mut t = LoopTimes::default();
    let span = tr.open("campaign.ingest_loop", parent, 0);
    let t0 = Instant::now();
    let mut now = start();
    while now < end {
        now = (now + step).min(end);
        let s = tr.open("campaign.run_until", span.id, 0);
        let t1 = Instant::now();
        c.run_until(now);
        t.busy_s += t1.elapsed().as_secs_f64();
        tr.close(s);
        if publish {
            let s = tr.open("tsdb.publish_view", span.id, 0);
            let t1 = Instant::now();
            store.publish_view();
            t.publish_s += t1.elapsed().as_secs_f64();
            tr.close(s);
        }
    }
    t.wall_s = t0.elapsed().as_secs_f64();
    tr.close(span);
    t
}

/// Counts that must repeat exactly for one seed: a run that differs did
/// different work, and its timings are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    pub events: u64,
    pub samples: u64,
    pub started: u64,
    pub backfilled: u64,
}

impl Work {
    pub fn of(c: &Campaign) -> Work {
        let stats = c.scheduler_stats();
        Work {
            events: c.events_processed(),
            samples: c.telemetry_store().total_samples(),
            started: stats.started,
            backfilled: stats.backfilled,
        }
    }
}

/// The campaign's invariant audit (job, node and energy conservation).
fn audit(c: &Campaign) -> Result<(), String> {
    let violations = c.verify_invariants();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("campaign invariants violated: {violations:?}"))
    }
}

/// One durability round trip of a finished campaign.
pub struct Durability {
    /// Bytes of the store's snapshot encoding.
    pub snapshot_bytes: u64,
    pub checkpoint_s: f64,
    pub resume_s: f64,
    pub resumed: Campaign,
}

/// Encode `c`'s store into memory (the footprint count), then checkpoint
/// it into `dir` and resume from there. Fails unless the invariant audit
/// is clean and the resumed store holds the same samples with the same
/// `store_digest` (FNV-1a over every series, in name order).
pub fn durability(
    c: &Campaign,
    seed: u64,
    days: u64,
    dir: &Path,
    tr: &mut Tracer,
    parent: u64,
) -> Result<Durability, String> {
    audit(c)?;
    let store = c.telemetry_store();
    let s = tr.open("tsdb.snapshot_to", parent, 0);
    let mut buf = Vec::new();
    store
        .snapshot_to(&mut buf)
        .map_err(|e| format!("snapshot_to: {e:?}"))?;
    tr.close(s);
    let snapshot_bytes = buf.len() as u64;
    drop(buf);

    let _ = std::fs::remove_dir_all(dir);
    let s = tr.open("campaign.checkpoint", parent, 0);
    let t = Instant::now();
    c.checkpoint(dir)
        .map_err(|e| format!("checkpoint: {e:?}"))?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    tr.close(s);
    let s = tr.open("campaign.resume", parent, 0);
    let t = Instant::now();
    let resumed = Campaign::resume(
        experiment::scaled_facility(seed, SCALE),
        config(seed, days),
        OP,
        dir,
    )
    .map_err(|e| format!("resume: {e:?}"))?;
    let resume_s = t.elapsed().as_secs_f64();
    tr.close(s);
    let _ = std::fs::remove_dir_all(dir);

    let back = resumed.telemetry_store();
    if back.total_samples() != store.total_samples() {
        return Err(format!(
            "resumed store holds {} samples, checkpointed {}",
            back.total_samples(),
            store.total_samples()
        ));
    }
    if store_digest(back) != store_digest(store) {
        return Err("resumed telemetry digest differs from the checkpointed store".into());
    }
    Ok(Durability {
        snapshot_bytes,
        checkpoint_s,
        resume_s,
        resumed,
    })
}
