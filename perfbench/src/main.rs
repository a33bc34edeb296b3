//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest_only|serve_live|query_history> --seed <n> --seconds <s> --trace <0|1> \
//!     [--rate <frames/s per serve_live connection>]
//! ```
//!
//! `--seconds` is the wall time of the whole run, set-ups included.
//! `BENCHMARK.json` runs `ingest_only` and `serve_live`; `query_history`,
//! whose rep rebuilds a 60-day store, is run by name.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The line before it records the run's metadata. A failed correctness or
//! same-work check prints `"correct": false` with no metrics and exits 1.
//! Spans of a traced run are written to `<target>/perfbench/`.

mod cpus;
mod load;
mod sim;
mod stats;
mod workloads;

use archer2_repro::serve::{Introspection, TenantSnapshot};
use serde::{Serialize, Value};
use stats::{median, pct, ratio, Span, Tracer};
use std::path::PathBuf;
use workloads::{Persist, Rep, RunSpec, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    // Optional: the offered rate of each `serve_live` connection, for
    // measuring where the open loop saturates.
    let rate = match argv.iter().position(|a| a == "--rate") {
        Some(_) => get("--rate")?.parse().map_err(|e| format!("--rate: {e}"))?,
        None => workloads::LIVE_FRAMES_PER_S,
    };
    if !(rate > 0.0 && rate <= 100_000.0) {
        return Err("--rate must be in (0, 100000]".into());
    }
    Ok(Args {
        rate,
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Where runs keep their same-work records, traces and checkpoints: the
/// build directory, which stays inside the checkout and out of git.
fn state_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench")
}

fn num(v: f64) -> Value {
    v.to_value()
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Median over `reps` of each rep's latency percentile `p`, taken over
/// all of that rep's requests.
fn rep_pct<'a>(reps: impl IntoIterator<Item = &'a Rep>, p: f64) -> f64 {
    median(
        &reps
            .into_iter()
            .map(|r| pct(&r.latency_us, p))
            .collect::<Vec<_>>(),
    )
}

/// Every end-to-end metric but the peak resident set is taken per rep,
/// then the median over reps is reported, so one slow stretch of a run
/// moves it little.
fn end_to_end(reps: &[Rep], persist: &Persist, days: u64) -> Metrics {
    let each = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    vec![
        ("setup_s", each(&|r| r.setup_s), "s"),
        // The smallest rep peak: later reps of a process start from what
        // the allocator kept of earlier ones, which moves their peaks.
        (
            "peak_rss_mib",
            reps.iter()
                .map(|r| r.peak_rss_mib)
                .fold(f64::INFINITY, f64::min),
            "MiB",
        ),
        (
            "sim_days_per_s",
            each(&|r| days as f64 / r.ingest.wall_s),
            "day/s",
        ),
        (
            "snapshot_bytes_per_sample",
            persist.snapshot_bytes as f64 / persist.samples as f64,
            "B/sample",
        ),
        ("checkpoint_s", each(&|r| r.persist.checkpoint_s), "s"),
        ("resume_s", each(&|r| r.persist.resume_s), "s"),
        (
            "query_p50_us",
            each(&|r| pct(&r.probe_latency_us, 50.0)),
            "us",
        ),
        ("query_qps", each(&|r| r.probe_qps), "1/s"),
        // A frame that failed counts as missing the limit.
        (
            "slo_met_rate",
            each(&|r| ratio(r.within_slo as f64, r.latency_us.len() as f64)),
            "ratio",
        ),
    ]
}

fn per_layer(reps: &[Rep], work: &sim::Work) -> Metrics {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let spans: Vec<&Span> = traced
        .iter()
        .filter_map(|r| r.tracer.as_ref())
        .flat_map(|t| t.spans())
        .collect();
    let secs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .collect()
    };
    let per_rep_sum = |name: &str| -> f64 {
        median(
            &traced
                .iter()
                .map(|r| {
                    r.tracer
                        .as_ref()
                        .map_or(0.0, |t| t.secs(name).iter().fold(0.0, |a, b| a + b))
                })
                .collect::<Vec<_>>(),
        )
    };
    let each = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let pooled = |f: &dyn Fn(&Rep) -> &[f64]| {
        traced
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<_>>()
    };

    let step_ms = ms(secs("campaign.run_until"));
    let publish_ms = ms(secs("tsdb.publish_view"));
    let mut q = archer2_repro::tsdb::QueryStats::default();
    for r in &traced {
        q.merge(&r.query);
    }
    // Server-side counters, per traced rep, of the two load tenants.
    let server = |f: &dyn Fn(&Introspection) -> f64| each(&|r| r.server.as_ref().map_or(0.0, f));
    let tenant_max = |i: &Introspection, f: fn(&TenantSnapshot) -> u64| {
        i.tenants
            .iter()
            .filter(|t| workloads::TENANTS.contains(&t.tenant.as_str()))
            .map(f)
            .max()
            .unwrap_or(0) as f64
    };
    let server_p50 = server(&|i| tenant_max(i, |t| t.p50_us));
    let server_p99 = server(&|i| tenant_max(i, |t| t.p99_us));
    let (hits, lookups) =
        traced
            .iter()
            .filter_map(|r| r.server.as_ref())
            .fold((0, 0), |(h, l), i| {
                (
                    h + i.result_cache_hits,
                    l + i.result_cache_hits + i.result_cache_misses + i.coalesced_queries,
                )
            });
    let client_p50 = rep_pct(traced.iter().copied(), 50.0);
    let untraced_p50 = rep_pct(reps.iter().filter(|r| !r.traced), 50.0);
    let engine_p50 = pct(&pooled(&|r| &r.engine_us), 50.0);
    let outside = client_p50 - server_p50;

    // Decomposition: the share of the ingest loop's wall time spent in its
    // two timed calls.
    let loops: Vec<&&Span> = spans
        .iter()
        .filter(|s| s.name == "campaign.ingest_loop")
        .collect();
    let loop_s: f64 = loops.iter().map(|s| s.secs()).sum();
    let inside_s: f64 = spans
        .iter()
        .filter(|s| {
            (s.name == "campaign.run_until" || s.name == "tsdb.publish_view")
                && loops.iter().any(|l| l.id == s.parent)
        })
        .map(|s| s.secs())
        .sum();
    let accounted = ratio(inside_s, loop_s);

    vec![
        ("campaign.step_ms.p50", pct(&step_ms, 50.0), "ms"),
        ("campaign.step_ms.p99", pct(&step_ms, 99.0), "ms"),
        ("campaign.busy_s", per_rep_sum("campaign.run_until"), "s"),
        ("campaign.events", work.events as f64, "count"),
        ("campaign.samples", work.samples as f64, "count"),
        ("sched.started", work.started as f64, "count"),
        ("sched.backfilled", work.backfilled as f64, "count"),
        ("tsdb.publish_view_ms.p50", pct(&publish_ms, 50.0), "ms"),
        ("tsdb.publish_view_ms.max", pct(&publish_ms, 100.0), "ms"),
        ("tsdb.publish_view_s", per_rep_sum("tsdb.publish_view"), "s"),
        (
            "tsdb.query.chunks_decoded",
            each(&|r| r.query.chunks_decoded as f64),
            "count",
        ),
        (
            "tsdb.query.chunk_cache_hit_rate",
            q.cache_hit_rate(),
            "ratio",
        ),
        (
            "tsdb.query.samples_scanned_per_query",
            ratio(q.samples_scanned as f64, q.queries as f64),
            "count",
        ),
        (
            "tsdb.query.plans_raw",
            each(&|r| r.query.plans_raw as f64),
            "count",
        ),
        (
            "tsdb.query.plans_rollup",
            each(&|r| (r.query.plans_hour + r.query.plans_minute) as f64),
            "count",
        ),
        ("tsdb.query.engine_us.p50", engine_p50, "us"),
        (
            "tsdb.snapshot_encode_s",
            median(&secs("tsdb.snapshot_to")),
            "s",
        ),
        (
            "tsdb.chunk_bytes_per_sample",
            each(&|r| r.persist.chunk_bytes_per_sample),
            "B/sample",
        ),
        ("serve.server_p50_us", server_p50, "us"),
        ("serve.server_p99_us", server_p99, "us"),
        ("serve.outside_server_us.p50", outside, "us"),
        (
            "serve.codec_us.p50",
            pct(&pooled(&|r| &r.codec_us), 50.0),
            "us",
        ),
        (
            "serve.result_cache_hit_rate",
            ratio(hits as f64, lookups as f64),
            "ratio",
        ),
        (
            "serve.coalesced",
            server(&|i| i.coalesced_queries as f64),
            "count",
        ),
        (
            "serve.rejected",
            server(&|i| workloads::rejected(i) as f64),
            "count",
        ),
        // Client latency of the workload's main traffic (on `serve_live`
        // the open loop under live ingest), reported here, not gated: on a
        // 2-vCPU host its run-to-run spread reaches the largest bound.
        ("load.query_p50_us", client_p50, "us"),
        (
            "load.query_p99_us",
            rep_pct(traced.iter().copied(), 99.0),
            "us",
        ),
        (
            "load.send_lag_us.p99",
            pct(&pooled(&|r| &r.send_lag_us), 99.0),
            "us",
        ),
        ("decomp.ingest_loop_accounted", accounted, "ratio"),
        (
            "decomp.query_p50.outside_share",
            ratio(outside, client_p50),
            "ratio",
        ),
        (
            "decomp.query_p50.server_share",
            ratio(server_p50, client_p50),
            "ratio",
        ),
        (
            "decomp.query_p50.engine_share",
            ratio(engine_p50, client_p50),
            "ratio",
        ),
        (
            "trace.overhead_pct",
            100.0 * (ratio(client_p50, untraced_p50) - 1.0),
            "%",
        ),
        ("trace.spans", spans.len() as f64, "count"),
    ]
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let m = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".into(), num(value)),
                    ("unit".into(), unit.to_string().to_value()),
                ]),
            )
        })
        .collect();
    let out = Value::Map(vec![
        ("correct".into(), correct.to_value()),
        ("attempted".into(), attempted.to_value()),
        ("failed".into(), failed.to_value()),
        ("metrics".into(), Value::Map(m)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&out).expect("result serialises")
    );
}

fn fail(why: &str, attempted: u64) -> ! {
    eprintln!("perfbench: FAILED: {why}");
    print_result(false, attempted.max(1), attempted.max(1), &Vec::new());
    std::process::exit(1);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <ingest_only|serve_live|query_history> --seed <n> --seconds <s> --trace <0|1> [--rate <frames/s>]");
            std::process::exit(2);
        }
    };
    // Read the process's cores before anything is pinned.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (main_cores, serve_cores) = cpus::counts();
    cpus::pin(cpus::Place::Main);
    let dir = state_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let spec = RunSpec {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rate: args.rate,
        scratch: dir.clone(),
    };
    let reps = workloads::run(&spec).unwrap_or_else(|e| fail(&e, 1));
    let attempted: u64 = reps.iter().map(|r| r.frames + 1).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let (work, persist) = workloads::same_work(&reps).unwrap_or_else(|e| fail(&e, attempted));
    workloads::same_work_across_runs(&dir, &spec, &work, persist.snapshot_bytes)
        .unwrap_or_else(|e| fail(&e, attempted));

    let days = spec.workload.days();
    let n_reps = reps.len();
    let samples: usize = reps.iter().map(|r| r.latency_us.len()).sum();
    let trace_path = dir.join(format!(
        "trace-{}-seed{}.tsv",
        spec.workload.name(),
        spec.seed
    ));
    let metrics = if spec.trace {
        let metrics = per_layer(&reps, &work);
        let mut all = Tracer::new(std::time::Instant::now(), true);
        for r in reps.into_iter().filter(|r| r.traced) {
            all.absorb(r.tracer.expect("every rep keeps its tracer"));
        }
        if let Err(e) = all.write_tsv(&trace_path) {
            fail(&format!("write {}: {e}", trace_path.display()), attempted);
        }
        metrics
    } else {
        end_to_end(&reps, &persist, days)
    };
    if let Some((name, _, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        fail(&format!("metric {name} is not finite"), attempted);
    }

    let mut meta = vec![
        (
            "workload".to_string(),
            spec.workload.name().to_string().to_value(),
        ),
        ("seed".into(), spec.seed.to_value()),
        ("seconds".into(), num(spec.seconds)),
        ("traced".into(), spec.trace.to_value()),
        ("nproc".into(), (nproc as u64).to_value()),
        ("main_cores".into(), u64::from(main_cores).to_value()),
        ("serve_cores".into(), u64::from(serve_cores).to_value()),
        ("history_days".into(), days.to_value()),
        ("reps".into(), (n_reps as u64).to_value()),
        (
            "connections".into(),
            (workloads::CONNECTIONS as u64).to_value(),
        ),
        ("slo_ms".into(), num(workloads::SLO_MS)),
        ("latency_samples".into(), (samples as u64).to_value()),
    ];
    if spec.trace {
        meta.push((
            "trace_file".into(),
            trace_path.display().to_string().to_value(),
        ));
    }
    if spec.workload == Workload::QueryHistory {
        meta.push((
            "requests_per_connection".into(),
            (workloads::HISTORY_REQUESTS as u64).to_value(),
        ));
    }
    if spec.workload == Workload::ServeLive {
        meta.push((
            "offered_frames_per_s".into(),
            num(spec.rate * workloads::CONNECTIONS as f64),
        ));
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Map(vec![("meta".into(), Value::Map(meta))]))
            .expect("meta serialises")
    );
    print_result(true, attempted, failed, &metrics);
}
