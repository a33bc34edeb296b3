//! Query generators, the open- and closed-loop clients, and the
//! in-process oracle every served reply is checked against.

use crate::stats::{Open, Tracer};
use archer2_repro::serve::{Client, Request, Response, WireGap, WireGroup, WireOp, WireWindow};
use archer2_repro::sim::rng::{Rng, Xoshiro256StarStar};
use archer2_repro::tsdb::{
    fanout_group, store_aggregate, store_gap_aggregate, store_windows, SeriesId, TsdbStore,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Pool entries per open-loop `Batch` frame.
pub const BATCH: usize = 10;

/// The dashboard panels of `tsdb_serve`: interval-aligned windows over the
/// facility and cabinet series, so they take the rollup and result-cache
/// paths. Every client draws from the same pool, which is what gives the
/// per-tenant result cache and single-flight coalescing their repetition.
pub fn pool((lo, hi): (i64, i64), cabinets: &[String]) -> Vec<Request> {
    let mut pool = Vec::new();
    for k in 0..5i64 {
        let (from, to) = (lo + k * 86_400, hi - k * 3_600);
        pool.push(Request::Aggregate {
            series: "facility".into(),
            from,
            to,
            op: WireOp::Mean,
        });
        pool.push(Request::Windows {
            series: "facility".into(),
            from,
            to,
            step: 86_400,
            op: WireOp::Max,
        });
        pool.push(Request::Group {
            series: cabinets.to_vec(),
            from,
            to,
        });
        pool.push(Request::Gap {
            series: cabinets[k as usize % cabinets.len()].clone(),
            from,
            to,
        });
    }
    pool
}

/// A window inside `[lo, hi)` whose bounds sit on no minute boundary, so
/// the planner cannot use a rollup and the query is a raw chunk scan.
fn unaligned(rng: &mut Xoshiro256StarStar, (lo, hi): (i64, i64), max_len: i64) -> (i64, i64) {
    let len = 3_600 + rng.next_below((max_len - 3_600) as u64) as i64;
    let mut from = lo + rng.next_below((hi - lo - len) as u64) as i64;
    let mut to = from + len;
    if from % 60 == 0 {
        from += 1;
    }
    if to % 60 == 0 {
        to -= 1;
    }
    (from, to)
}

/// The closed-loop history mix: 85 % unique unaligned `Aggregate`/`Gap`
/// queries on random `node.N` series (raw scans that decode sealed
/// chunks), 15 % repeated aligned pool entries, a quarter of which are a
/// `Group` over the cabinets (result cache and rollup paths).
pub struct HistoryMix {
    rng: Xoshiro256StarStar,
    window: (i64, i64),
    nodes: u64,
    pool: Vec<Request>,
}

impl HistoryMix {
    pub fn new(seed: u64, window: (i64, i64), nodes: usize, pool: Vec<Request>) -> HistoryMix {
        HistoryMix {
            rng: Xoshiro256StarStar::seeded(seed),
            window,
            nodes: nodes as u64,
            pool,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let rng = &mut self.rng;
        if rng.next_below(100) < 15 {
            return self.pool[rng.index(self.pool.len())].clone();
        }
        let series = format!("node.{}", rng.next_below(self.nodes));
        let (from, to) = unaligned(rng, self.window, 7 * 86_400);
        match rng.next_below(5) {
            0 => Request::Gap { series, from, to },
            1 => Request::Aggregate {
                series,
                from,
                to,
                op: WireOp::Mean,
            },
            2 => Request::Aggregate {
                series,
                from,
                to,
                op: WireOp::Min,
            },
            3 => Request::Aggregate {
                series,
                from,
                to,
                op: WireOp::Max,
            },
            _ => Request::Aggregate {
                series,
                from,
                to,
                op: WireOp::Sum,
            },
        }
    }
}

/// Whether a reply (every entry of a batch included) carries an answer.
pub fn succeeded(reply: &Response) -> bool {
    match reply {
        Response::Error { .. } => false,
        Response::Batch { entries } => !entries.iter().any(|e| matches!(e, Response::Error { .. })),
        _ => true,
    }
}

/// Where a client thread records its spans: its own tracer, the window
/// span its requests hang under, and its first request id.
pub struct ClientTrace {
    pub tracer: Tracer,
    pub parent: u64,
    pub id_base: u64,
}

impl ClientTrace {
    fn request(&mut self, n: u64) -> Open {
        self.tracer
            .open("client.request", self.parent, self.id_base + n)
    }
}

/// What one closed-loop connection brings home.
pub struct ClosedRun {
    /// Every request with its reply, for the oracle check.
    pub exchanges: Vec<(Request, Response)>,
    pub latency_us: Vec<f64>,
    pub failed: u64,
    pub tracer: Tracer,
}

/// Closed loop: send the next request only after the previous reply, until
/// `count` requests were sent. Latency runs from send to reply.
pub fn closed_loop(
    addr: SocketAddr,
    tenant: &str,
    mut mix: HistoryMix,
    count: usize,
    mut trace: ClientTrace,
) -> Result<ClosedRun, String> {
    let mut client = Client::connect(addr, tenant).map_err(|e| format!("connect {tenant}: {e}"))?;
    let (mut exchanges, mut latency_us, mut failed) = (Vec::new(), Vec::new(), 0);
    while exchanges.len() < count {
        let req = mix.next_request();
        let span = trace.request(exchanges.len() as u64);
        let t = Instant::now();
        let reply = client
            .request(&req)
            .map_err(|e| format!("{tenant} request: {e}"))?;
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        trace.tracer.close(span);
        if !succeeded(&reply) {
            failed += 1;
        }
        exchanges.push((req, reply));
    }
    Ok(ClosedRun {
        exchanges,
        latency_us,
        failed,
        tracer: trace.tracer,
    })
}

/// What one open-loop connection brings home. Latency runs from each
/// frame's due time, so a stall is charged to every frame it delayed.
pub struct OpenRun {
    pub latency_us: Vec<f64>,
    /// How late each frame left after its due time.
    pub send_lag_us: Vec<f64>,
    /// Frames that failed or met any error entry.
    pub failed: u64,
    /// Frames that succeeded within `slo_us` of their due time.
    pub within_slo: u64,
    pub tracer: Tracer,
}

/// Open-loop frame schedule parameters.
pub struct OpenPlan {
    pub seed: u64,
    pub pool: Vec<Request>,
    pub cabinets: Vec<String>,
    pub window: (i64, i64),
    pub frames_per_s: f64,
    pub slo_us: f64,
}

/// Open loop: frame `k` is due `k / frames_per_s` after `t0`, sent then
/// whether or not earlier replies were slow, until `stop` is raised. The
/// frame mix is `tsdb_serve`'s dashboard: each iteration sends one
/// pipelined `Batch` of `BATCH` pool entries at a random offset; every
/// fourth adds an unaligned single (raw scan, mostly unique) and every
/// eighth an `Introspect`.
pub fn open_loop(
    addr: SocketAddr,
    tenant: &str,
    plan: &OpenPlan,
    t0: Instant,
    stop: &AtomicBool,
    mut trace: ClientTrace,
) -> Result<OpenRun, String> {
    let mut client = Client::connect(addr, tenant).map_err(|e| format!("connect {tenant}: {e}"))?;
    let mut rng = Xoshiro256StarStar::seeded(plan.seed);
    let mut run = OpenRun {
        latency_us: Vec::new(),
        send_lag_us: Vec::new(),
        failed: 0,
        within_slo: 0,
        tracer: trace.tracer.fork(),
    };
    let mut queue: Vec<Request> = Vec::new();
    let mut iter = 0u64;
    let mut k = 0u64;
    loop {
        if queue.is_empty() {
            let offset = rng.index(plan.pool.len());
            let entries = (0..BATCH)
                .map(|i| plan.pool[(offset + i) % plan.pool.len()].clone())
                .collect();
            queue.push(Request::Batch { entries });
            if iter.is_multiple_of(4) {
                let (from, to) = unaligned(&mut rng, plan.window, plan.window.1 - plan.window.0);
                queue.push(if iter.is_multiple_of(8) {
                    Request::Aggregate {
                        series: "facility".into(),
                        from,
                        to,
                        op: WireOp::Mean,
                    }
                } else {
                    let cab = plan.cabinets[rng.index(plan.cabinets.len())].clone();
                    Request::Gap {
                        series: cab,
                        from,
                        to,
                    }
                });
            }
            if iter.is_multiple_of(8) {
                queue.push(Request::Introspect);
            }
            queue.reverse();
            iter += 1;
        }
        let due = t0 + Duration::from_secs_f64(k as f64 / plan.frames_per_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let req = queue.pop().expect("queue refilled above");
        let span = trace.request(k);
        run.send_lag_us.push(due.elapsed().as_secs_f64() * 1e6);
        let reply = client
            .request(&req)
            .map_err(|e| format!("{tenant} request: {e}"))?;
        let latency_us = due.elapsed().as_secs_f64() * 1e6;
        trace.tracer.close(span);
        run.latency_us.push(latency_us);
        if !succeeded(&reply) {
            run.failed += 1;
        } else if latency_us <= plan.slo_us {
            run.within_slo += 1;
        }
        k += 1;
    }
    run.tracer = trace.tracer;
    Ok(run)
}

/// The reply the server must send for `req`, computed in process with the
/// same store calls the server makes. `None` for requests with no
/// single correct answer (control frames).
pub fn expected(store: &TsdbStore, req: &Request) -> Option<Response> {
    let id = |name: &str| store.lookup(name);
    Some(match req {
        Request::Aggregate {
            series,
            from,
            to,
            op,
        } => {
            let (value, plan) = store_aggregate(store, id(series)?, *from, *to, (*op).into())?;
            Response::Aggregate {
                value_bits: value.to_bits(),
                plan: format!("{plan:?}"),
            }
        }
        Request::Windows {
            series,
            from,
            to,
            step,
            op,
        } => Response::Windows {
            windows: store_windows(store, id(series)?, *from, *to, *step, (*op).into())?
                .into_iter()
                .map(|w| WireWindow {
                    start: w.start,
                    value_bits: w.value.to_bits(),
                    count: w.count,
                })
                .collect(),
        },
        Request::Group { series, from, to } => {
            let ids: Vec<SeriesId> = series
                .iter()
                .map(|n| id(n).unwrap_or(SeriesId(u64::MAX)))
                .collect();
            let g = fanout_group(store, &ids, *from, *to);
            Response::Group(WireGroup {
                series: g.series as u64,
                missing: g.missing as u64,
                sum_of_means_bits: g.sum_of_means.to_bits(),
                mean_of_means_bits: g.mean_of_means().to_bits(),
                total_count: g.total.count,
            })
        }
        Request::Gap { series, from, to } => {
            let v = store_gap_aggregate(store, id(series)?, *from, *to)?;
            Response::Gap(WireGap {
                count: v.agg.count,
                mean_bits: v.agg.mean().to_bits(),
                expected: v.expected,
                coverage_bits: v.coverage.to_bits(),
                quarantined: v.quarantined,
            })
        }
        _ => return None,
    })
}

/// Frame payload bytes of a reply (the wire is JSON, so equal strings are
/// equal frames).
pub fn wire(reply: &Response) -> String {
    serde_json::to_string(reply).expect("replies serialise")
}

/// Node series count of a store at this scale (`node.0` .. `node.N-1`).
pub fn node_count(store: &TsdbStore) -> usize {
    store
        .series_catalog()
        .iter()
        .filter(|(_, m, _)| m.name.starts_with("node."))
        .count()
}

/// Cabinet series names.
pub fn cabinets(store: &TsdbStore) -> Vec<String> {
    let mut names: Vec<String> = store
        .series_catalog()
        .into_iter()
        .map(|(_, m, _)| m.name)
        .filter(|n| n.starts_with("cabinet."))
        .collect();
    names.sort();
    names
}
