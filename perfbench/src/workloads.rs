//! The three workloads. Each runs repetitions ("reps") of one unit of work
//! until the measuring time is spent, checks every output, and reduces the
//! reps to the end-to-end and per-layer metrics.

use crate::cpus::{self, Place};
use crate::load::{self, ClientTrace, ClosedRun, HistoryMix, OpenPlan, OpenRun};
use crate::sim::{self, Durability, LoopTimes, Work};
use crate::stats::{self, ratio, Tracer};
use archer2_repro::serve::{Client, Introspection, Request, Response, Server, ServerConfig};
use archer2_repro::sim::rng::{Rng, Xoshiro256StarStar};
use archer2_repro::tsdb::{QueryStats, TsdbStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// History of one `ingest_only` campaign.
pub const INGEST_DAYS: u64 = 14;
/// History of one `serve_live` campaign: long enough that republishing
/// the read view is a visible share of the ingest loop.
pub const LIVE_DAYS: u64 = 20;
/// History of the frozen `query_history` store: long enough that the
/// ~6.5k sealed node chunks exceed the 4,096-entry chunk cache.
pub const HISTORY_DAYS: u64 = 60;
/// Offered open-loop rate of each `serve_live` connection, frames/s: a
/// tenth of the rate at which the open loop saturates under live ingest
/// on a 2-vCPU host (about 1,200 frames/s per connection, where frames
/// start to leave late).
pub const LIVE_FRAMES_PER_S: f64 = 100.0;
/// Latency limit of a served frame, ms.
pub const SLO_MS: f64 = 5.0;
/// Requests per connection of the closed-loop read probe that ends each
/// `ingest_only` and `serve_live` rep.
pub const PROBE_REQUESTS: usize = 2000;
/// Requests per connection in each `query_history` rep: about 1.5 s of
/// closed-loop load on a 2-vCPU host. A fixed count, not a fixed time,
/// so the replies kept for the check, and with them the peak resident
/// set, do not grow with the host's speed.
pub const HISTORY_REQUESTS: usize = 15_000;
/// Fewest reps of a run: three set-ups give `setup_s` a median, and a
/// traced run has at least one traced rep between two untraced ones.
const MIN_REPS: usize = 3;
/// Client connections (and threads) per workload: at most `nproc` here.
pub const CONNECTIONS: usize = 2;
pub const TENANTS: [&str; CONNECTIONS] = ["ops", "science"];
/// Closed-loop clients number their connections from here, so their
/// request ids never collide with `serve_live`'s open-loop ones.
const PROBE_CONN: usize = CONNECTIONS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    IngestOnly,
    ServeLive,
    QueryHistory,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest_only" => Some(Workload::IngestOnly),
            "serve_live" => Some(Workload::ServeLive),
            "query_history" => Some(Workload::QueryHistory),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestOnly => "ingest_only",
            Workload::ServeLive => "serve_live",
            Workload::QueryHistory => "query_history",
        }
    }

    /// Simulated days in the workload's campaign.
    pub fn days(self) -> u64 {
        match self {
            Workload::IngestOnly => INGEST_DAYS,
            Workload::ServeLive => LIVE_DAYS,
            Workload::QueryHistory => HISTORY_DAYS,
        }
    }
}

/// Everything one rep measured.
#[derive(Default)]
pub struct Rep {
    pub traced: bool,
    pub setup_s: f64,
    pub ingest: LoopTimes,
    pub work: Work,
    pub persist: Persist,
    /// Peak resident set during this rep.
    pub peak_rss_mib: f64,
    /// Latency of every client request: closed-loop requests from send to
    /// reply; `serve_live`'s open-loop frames from their due time.
    pub latency_us: Vec<f64>,
    /// `serve_live` only: how late each open-loop frame left.
    pub send_lag_us: Vec<f64>,
    /// Every frame sent, the failed ones, and the ones that succeeded
    /// within the latency limit.
    pub frames: u64,
    pub failed: u64,
    pub within_slo: u64,
    /// Seconds the clients were sending.
    pub window_s: f64,
    /// The closed-loop read probe the end-to-end query metrics come from:
    /// the latency of each of its requests, and requests answered per
    /// second of its window.
    pub probe_latency_us: Vec<f64>,
    pub probe_qps: f64,
    /// Store query counters over the client window.
    pub query: QueryStats,
    /// The server's own counters after that window.
    pub server: Option<Introspection>,
    /// Traced only: in-process engine time of each served query, and the
    /// request-encode + reply-decode time of each exchange.
    pub engine_us: Vec<f64>,
    pub codec_us: Vec<f64>,
    pub tracer: Option<Tracer>,
}

/// The durability round trip of a rep's final store.
#[derive(Clone, Copy, Debug, Default)]
pub struct Persist {
    pub snapshot_bytes: u64,
    pub samples: u64,
    pub checkpoint_s: f64,
    pub resume_s: f64,
    pub chunk_bytes_per_sample: f64,
}

/// Knobs of one run.
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered open-loop rate of each `serve_live` connection, frames/s.
    pub rate: f64,
    /// Scratch space for checkpoints, inside the checkout.
    pub scratch: PathBuf,
}

/// Run the workload's reps until `spec.seconds` of wall time, set-up
/// included, is spent: after `MIN_REPS`, a run stops when one more rep as
/// long as its longest so far would end past the budget. In a traced run
/// every odd rep is traced and the even reps give the untraced reference
/// for the tracing overhead.
pub fn run(spec: &RunSpec) -> Result<Vec<Rep>, String> {
    let epoch = Instant::now();
    let mut reps = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let i = reps.len();
        let t = Instant::now();
        let tr = Tracer::new(epoch, spec.trace && i % 2 == 1);
        stats::reset_peak_rss();
        let mut rep = match spec.workload {
            Workload::IngestOnly => ingest_only(spec, i, tr)?,
            Workload::ServeLive => serve_live(spec, i, tr)?,
            Workload::QueryHistory => query_history(spec, i, tr)?,
        };
        rep.peak_rss_mib = stats::peak_rss_mib();
        eprintln!(
            "perfbench: {} rep {i}{}: setup {:.3} s, ingest {:.3} s (run_until {:.3} s, publish_view {:.3} s), \
             {} frames in {:.3} s (p50 {:.1} us, p99 {:.1} us), peak {:.1} MiB",
            spec.workload.name(),
            if rep.traced { " traced" } else { "" },
            rep.setup_s,
            rep.ingest.wall_s,
            rep.ingest.busy_s,
            rep.ingest.publish_s,
            rep.latency_us.len(),
            rep.window_s,
            stats::pct(&rep.latency_us, 50.0),
            stats::pct(&rep.latency_us, 99.0),
            rep.peak_rss_mib,
        );
        if !rep.send_lag_us.is_empty() {
            eprintln!(
                "perfbench: open loop: p99 {:.0} us, {:.4} within {SLO_MS} ms, send lag p50 {:.0} us p99 {:.0} us",
                stats::pct(&rep.latency_us, 99.0),
                ratio(rep.within_slo as f64, rep.latency_us.len() as f64),
                stats::pct(&rep.send_lag_us, 50.0),
                stats::pct(&rep.send_lag_us, 99.0),
            );
        }
        reps.push(rep);
        longest = longest.max(t.elapsed().as_secs_f64());
        if reps.len() >= MIN_REPS && epoch.elapsed().as_secs_f64() + longest > spec.seconds {
            return Ok(reps);
        }
    }
}

fn rep_seed(spec: &RunSpec, rep: usize, conn: usize) -> u64 {
    spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((rep as u64) << 16) ^ conn as u64
}

/// Request ids: unique per rep and connection.
fn id_base(rep: usize, conn: usize) -> u64 {
    ((rep as u64 + 1) << 40) | ((conn as u64) << 32)
}

fn client_trace(tr: &Tracer, parent: u64, rep: usize, conn: usize) -> ClientTrace {
    ClientTrace {
        tracer: tr.fork(),
        parent,
        id_base: id_base(rep, conn),
    }
}

fn persist(d: &Durability, store: &TsdbStore) -> Persist {
    Persist {
        snapshot_bytes: d.snapshot_bytes,
        samples: store.total_samples(),
        checkpoint_s: d.checkpoint_s,
        resume_s: d.resume_s,
        chunk_bytes_per_sample: ratio(store.total_bytes() as f64, store.total_samples() as f64),
    }
}

fn ckpt_dir(spec: &RunSpec, rep: usize) -> PathBuf {
    spec.scratch
        .join(format!("ckpt-{}-{rep}", std::process::id()))
}

/// `ingest_only`: one storm campaign with no readers and no view
/// publication, then the durability round trip, then a short closed-loop
/// read probe against the resumed store whose every reply must equal the
/// original store's in-process answer.
fn ingest_only(spec: &RunSpec, i: usize, mut tr: Tracer) -> Result<Rep, String> {
    let days = INGEST_DAYS;
    let mut rep = Rep {
        traced: tr.is_on(),
        ..Rep::default()
    };
    let root = tr.open("rep", 0, 0);
    let s = tr.open("setup", root.id, 0);
    let t = Instant::now();
    let mut c = sim::new_campaign(spec.seed, days);
    rep.setup_s = t.elapsed().as_secs_f64();
    tr.close(s);
    rep.ingest = sim::ingest_loop(&mut c, days, false, &mut tr, root.id);
    rep.work = Work::of(&c);
    let d = sim::durability(&c, spec.seed, days, &ckpt_dir(spec, i), &mut tr, root.id)?;
    rep.persist = persist(&d, c.telemetry_store());
    let (intro, query) = closed_phase(
        spec,
        i,
        &mut rep,
        d.resumed.serve_store(),
        c.telemetry_store(),
        days,
        PROBE_REQUESTS,
        &mut tr,
        root.id,
    )?;
    rep.server = Some(intro);
    rep.query = query;
    tr.close(root);
    rep.tracer = Some(tr);
    Ok(rep)
}

/// `query_history`: set up a frozen store (the campaign, then one view
/// publication), then `HISTORY_REQUESTS` closed-loop requests per client.
/// Every reply is checked against the in-process answer afterwards.
fn query_history(spec: &RunSpec, i: usize, mut tr: Tracer) -> Result<Rep, String> {
    let days = HISTORY_DAYS;
    let mut rep = Rep {
        traced: tr.is_on(),
        ..Rep::default()
    };
    let root = tr.open("rep", 0, 0);
    let s = tr.open("setup", root.id, 0);
    let t = Instant::now();
    let mut c = sim::new_campaign(spec.seed, days);
    rep.ingest = sim::ingest_loop(&mut c, days, false, &mut tr, s.id);
    rep.work = Work::of(&c);
    let p = tr.open("tsdb.publish_view", s.id, 0);
    let t1 = Instant::now();
    c.serve_store().publish_view();
    rep.ingest.publish_s = t1.elapsed().as_secs_f64();
    tr.close(p);
    rep.setup_s = t.elapsed().as_secs_f64();
    tr.close(s);
    let (intro, query) = closed_phase(
        spec,
        i,
        &mut rep,
        c.serve_store(),
        c.telemetry_store(),
        days,
        HISTORY_REQUESTS,
        &mut tr,
        root.id,
    )?;
    rep.server = Some(intro);
    rep.query = query;
    let d = sim::durability(&c, spec.seed, days, &ckpt_dir(spec, i), &mut tr, root.id)?;
    rep.persist = persist(&d, c.telemetry_store());
    tr.close(root);
    rep.tracer = Some(tr);
    Ok(rep)
}

/// Serve `serving` to `CONNECTIONS` closed-loop clients running the
/// history mix (`count` requests each), then check every reply bit for
/// bit against `oracle` in process. Returns the server's counters and the
/// store's query counters over the window.
#[allow(clippy::too_many_arguments)]
fn closed_phase(
    spec: &RunSpec,
    i: usize,
    rep: &mut Rep,
    serving: TsdbStore,
    oracle: &TsdbStore,
    days: u64,
    count: usize,
    tr: &mut Tracer,
    parent: u64,
) -> Result<(Introspection, QueryStats), String> {
    let range = sim::window(days);
    let pool = load::pool(range, &load::cabinets(oracle));
    let nodes = load::node_count(oracle);
    let mut server = Server::start(serving.clone(), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let before = serving.query_stats();
    let span = tr.open("client.window", parent, 0);
    let t = Instant::now();
    let runs: Vec<Result<ClosedRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                let mix = HistoryMix::new(rep_seed(spec, i, k), range, nodes, pool.clone());
                let trace = client_trace(tr, span.id, i, PROBE_CONN + k);
                scope.spawn(move || load::closed_loop(addr, TENANTS[k], mix, count, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    rep.window_s = t.elapsed().as_secs_f64();
    tr.close(span);
    let stats = (
        server.introspect(),
        serving.query_stats().delta_since(&before),
    );
    server.shutdown();

    let mut answered = 0;
    for (k, run) in runs.into_iter().enumerate() {
        let run = run?;
        answered += run.exchanges.len() as u64 - run.failed;
        rep.frames += run.exchanges.len() as u64;
        rep.failed += run.failed;
        rep.probe_latency_us.extend(&run.latency_us);
        rep.within_slo += run
            .latency_us
            .iter()
            .zip(&run.exchanges)
            .filter(|(&l, (_, reply))| l <= SLO_MS * 1e3 && load::succeeded(reply))
            .count() as u64;
        rep.latency_us.extend(&run.latency_us);
        for (n, (req, reply)) in run.exchanges.iter().enumerate() {
            let got = load::wire(reply);
            let caller = run.tracer.spans().get(n).map_or(0, |s| s.id);
            let e = tr.open("tsdb.engine", caller, id_base(i, PROBE_CONN + k) + n as u64);
            let t = Instant::now();
            let want = load::expected(oracle, req);
            if tr.is_on() {
                rep.engine_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            tr.close(e);
            let want = want.map(|w| load::wire(&w));
            if want.as_deref() != Some(got.as_str()) {
                return Err(format!("served reply differs from the in-process answer for {req:?}: got {got}, want {want:?}"));
            }
            if tr.is_on() {
                let t = Instant::now();
                let encoded = serde_json::to_string(req).expect("requests serialise");
                let decoded: Response =
                    serde_json::from_str(&got).map_err(|e| format!("decode: {e:?}"))?;
                std::hint::black_box((encoded, decoded));
                rep.codec_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        tr.absorb(run.tracer);
    }
    rep.probe_qps = ratio(answered as f64, rep.window_s);
    Ok(stats)
}

/// `serve_live`: the storm campaign stepped in 6-hour increments with a
/// view publication after each, while `CONNECTIONS` tenants send the
/// dashboard mix open-loop at a fixed rate. Afterwards a seeded sample of
/// the pool is replayed: a tenant's cached replies must be byte-identical
/// to a fresh tenant's and to the in-process answers. Then the durability
/// round trip of the final store.
fn serve_live(spec: &RunSpec, i: usize, mut tr: Tracer) -> Result<Rep, String> {
    let days = LIVE_DAYS;
    let mut rep = Rep {
        traced: tr.is_on(),
        ..Rep::default()
    };
    let root = tr.open("rep", 0, 0);
    let s = tr.open("setup", root.id, 0);
    let t = Instant::now();
    let mut c = sim::new_campaign(spec.seed, days);
    // The server and the open-loop clients stay off the ingest core.
    cpus::pin(Place::Serve);
    let mut server = Server::start(c.serve_store(), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    rep.setup_s = t.elapsed().as_secs_f64();
    tr.close(s);
    let addr = server.local_addr();
    let store = c.serve_store();
    let range = sim::window(days);
    let cabinets = load::cabinets(&store);
    let pool = load::pool(range, &cabinets);

    let stop = AtomicBool::new(false);
    let before = store.query_stats();
    let span = tr.open("client.window", root.id, 0);
    let t0 = Instant::now();
    let (ingest, runs) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                let plan = OpenPlan {
                    seed: rep_seed(spec, i, k),
                    pool: pool.clone(),
                    cabinets: cabinets.clone(),
                    window: range,
                    frames_per_s: spec.rate,
                    slo_us: SLO_MS * 1e3,
                };
                let (trace, stop) = (client_trace(&tr, span.id, i, k), &stop);
                scope.spawn(move || load::open_loop(addr, TENANTS[k], &plan, t0, stop, trace))
            })
            .collect();
        cpus::pin(Place::Main);
        let ingest = sim::ingest_loop(&mut c, days, true, &mut tr, root.id);
        stop.store(true, Ordering::Release);
        let runs: Vec<Result<OpenRun, String>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (ingest, runs)
    });
    tr.close(span);
    rep.ingest = ingest;
    rep.work = Work::of(&c);
    rep.query = store.query_stats().delta_since(&before);
    rep.window_s = t0.elapsed().as_secs_f64();
    for run in runs {
        let run = run?;
        rep.frames += run.latency_us.len() as u64;
        rep.failed += run.failed;
        rep.within_slo += run.within_slo;
        rep.latency_us.extend(&run.latency_us);
        rep.send_lag_us.extend(&run.send_lag_us);
        tr.absorb(run.tracer);
    }
    let intro = server.introspect();
    let rejected = rejected(&intro);
    if rep.failed + rejected > 0 {
        return Err(format!(
            "{} frames failed and {rejected} were rejected; serve_live allows none",
            rep.failed
        ));
    }
    replay_pool(spec, i, addr, &pool, &store, &mut rep, &mut tr)?;
    rep.server = Some(intro);
    server.shutdown();

    // The gated query metrics come from a closed-loop probe of the final
    // store, as on `ingest_only`: under live ingest the open-loop latency
    // follows the host's speed too closely to carry a bound. It stays in
    // `latency_us` for `slo_met_rate` and the per-layer metrics.
    let mut probe = Rep::default();
    closed_phase(
        spec,
        i,
        &mut probe,
        c.serve_store(),
        c.telemetry_store(),
        days,
        PROBE_REQUESTS,
        &mut tr,
        root.id,
    )?;
    rep.frames += probe.frames;
    rep.failed += probe.failed;
    rep.probe_latency_us = probe.probe_latency_us;
    rep.probe_qps = probe.probe_qps;

    let d = sim::durability(&c, spec.seed, days, &ckpt_dir(spec, i), &mut tr, root.id)?;
    rep.persist = persist(&d, c.telemetry_store());
    tr.close(root);
    rep.tracer = Some(tr);
    Ok(rep)
}

/// Frames the server refused or could not parse, all tenants.
pub fn rejected(intro: &Introspection) -> u64 {
    intro.sessions_rejected
        + intro
            .tenants
            .iter()
            .map(|t| t.rejected_overloaded + t.rejected_budget + t.protocol_errors)
            .sum::<u64>()
}

/// Replay a seeded sample of the pool on the frozen store: twice as
/// `ops` (the second pass is served from its result cache), once as a
/// fresh tenant, and in process. All four must agree byte for byte.
fn replay_pool(
    spec: &RunSpec,
    i: usize,
    addr: std::net::SocketAddr,
    pool: &[Request],
    store: &TsdbStore,
    rep: &mut Rep,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut rng = Xoshiro256StarStar::seeded(rep_seed(spec, i, 99));
    let sample: Vec<Request> = (0..8)
        .map(|_| pool[rng.index(pool.len())].clone())
        .collect();
    let mut warm = Client::connect(addr, TENANTS[0]).map_err(|e| format!("replay connect: {e}"))?;
    let mut fresh = Client::connect(addr, &format!("replay-{i}"))
        .map_err(|e| format!("replay connect: {e}"))?;
    let first = warm
        .request_pipelined(&sample)
        .map_err(|e| format!("replay: {e}"))?;
    let cached = warm
        .request_pipelined(&sample)
        .map_err(|e| format!("replay: {e}"))?;
    let fresh = fresh
        .request_pipelined(&sample)
        .map_err(|e| format!("replay: {e}"))?;
    for (n, req) in sample.iter().enumerate() {
        let t = Instant::now();
        let want = load::expected(store, req).map(|w| load::wire(&w));
        if tr.is_on() {
            rep.engine_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let got = [&first[n], &cached[n], &fresh[n]].map(load::wire);
        if got.iter().any(|g| Some(g) != want.as_ref()) {
            return Err(format!(
                "replayed pool entry {req:?} differs: {got:?} vs in-process {want:?}"
            ));
        }
        if tr.is_on() {
            let t = Instant::now();
            let encoded = serde_json::to_string(req).expect("requests serialise");
            let decoded: Response =
                serde_json::from_str(&got[1]).map_err(|e| format!("decode: {e:?}"))?;
            std::hint::black_box((encoded, decoded));
            rep.codec_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    rep.frames += 3 * sample.len() as u64;
    Ok(())
}

/// Same-work check within the run: every rep of one seed did the same
/// work and encoded a snapshot of the same size. Returns the work and the
/// snapshot size.
pub fn same_work(reps: &[Rep]) -> Result<(Work, Persist), String> {
    let (work, persist) = (reps[0].work, reps[0].persist);
    for (n, r) in reps.iter().enumerate() {
        if r.work != work || r.persist.snapshot_bytes != persist.snapshot_bytes {
            return Err(format!(
                "rep {n} did different work: {:?} and {} snapshot bytes vs {work:?} and {}",
                r.work, r.persist.snapshot_bytes, persist.snapshot_bytes
            ));
        }
    }
    Ok((work, persist))
}

/// FNV-1a of this executable, so records of one build are never compared
/// with another build's (a change may legitimately alter the work).
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    }))
}

/// Same-work check across runs: the first run of a seed with this build
/// records its work under `dir`; every later run must match it.
pub fn same_work_across_runs(
    dir: &Path,
    spec: &RunSpec,
    work: &Work,
    snapshot_bytes: u64,
) -> Result<(), String> {
    let path = dir.join(format!(
        "samework-{}-seed{}-days{}-build{:016x}.txt",
        spec.workload.name(),
        spec.seed,
        spec.workload.days(),
        build_id()?
    ));
    let line = format!(
        "events={} samples={} started={} backfilled={} snapshot_bytes={snapshot_bytes}",
        work.events, work.samples, work.started, work.backfilled
    );
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == line => Ok(()),
        Ok(prev) => Err(format!(
            "work differs from an earlier run of this seed: {line} vs {}",
            prev.trim()
        )),
        Err(_) => {
            std::fs::write(&path, &line).map_err(|e| format!("write {}: {e}", path.display()))
        }
    }
}
