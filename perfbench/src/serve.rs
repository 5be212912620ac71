//! `serve_read` and `serve_read_write`: an open-loop request stream over
//! loopback TCP to a server started with `kind_server::spawn_server`.
//!
//! The generator is two threads on one connection: the calling thread
//! sends each request at its due time, a receiver thread reads
//! responses. Latency runs from the due time, not the send time, so a
//! generator or server stall charges every request scheduled behind it.
//!
//! An untraced run offers [`NOMINAL_RPS`] in [`SEGMENTS`] chunks; the
//! end-to-end latencies come from them. A traced run takes turns between
//! untraced chunks, traced chunks and a ladder of higher fixed rates for
//! `max_qps_at_slo`, stopped at the first rung that misses the limit
//! twice. Nominal chunks during which the hypervisor took CPU from the
//! machine are replaced by further chunks (see [`Gate`]). `serve_read_write`
//! adds a publish every [`PUBLISH_INTERVAL_MS`] throughout; `serve_read`
//! sends none while reads run and probes publish latency on the quiet
//! server afterwards.

use crate::gen::{read_ops, scenario_seed, server_batch, ReadOp, PATTERNS, PUBLISH_ROWS};
use crate::probe::{
    hub_load_us, ms_since, setup_probe, snapshot_probe, warm_plan_fetch, FederationProbe,
    WriteProbe,
};
use crate::report::{mean, ratio, rows_hash, Outcome, Samples, Steal};
use crate::stats::{
    backlog_growing, max_qps_at_slo, median, summarize, tail_with_misses, Gate, Rung,
};
use crate::trace::Tracer;
use kind_core::{Mediator, PinnedSnapshot, Section5Fetch};
use kind_server::wire::{obj, Json};
use kind_server::{spawn_server, ServerConfig, ServerHandle};
use kind_sources::{build_scenario, ncmir_update_rows, ScenarioParams};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Offered rate of the nominal segment, requests per second.
pub const NOMINAL_RPS: f64 = 300.0;
/// Rungs above the nominal rate, requests per second.
pub const LADDER_RPS: &[f64] = &[500.0, 600.0, 700.0, 800.0, 900.0];
/// The read-op latency limit `max_qps_at_slo` is judged against.
pub const SLO_MS: f64 = 100.0;
/// Interval between publishes on `serve_read_write`.
pub const PUBLISH_INTERVAL_MS: f64 = 500.0;
/// Publishes probed on the quiet server after a `serve_read` run.
pub const QUIET_PUBLISHES: usize = 60;
/// Pause before each quiet publish.
const QUIET_GAP: Duration = Duration::from_millis(40);
/// Nominal chunks the figures of an untraced run rest on, each
/// `seconds / SEGMENTS` long.
pub const SEGMENTS: usize = 11;
/// Nominal chunks an untraced run may run at most, replacing those
/// during which CPU was stolen.
pub const MOST_SEGMENTS: usize = 16;
/// Untraced and traced nominal chunks of a traced run, each.
const TRACE_CHUNKS: usize = 4;
/// Untraced nominal chunks a traced run may run at most.
const MOST_TRACE_CHUNKS: usize = 6;
/// A send later than this behind its due time counts as late.
pub const LATE_MS: f64 = 10.0;
/// More late sends than this share invalidates the run: the generator
/// no longer offers the stated rate. (Scattered late sends only bunch a
/// few requests, and due-time latency already charges them.)
pub const MAX_LATE_RATIO: f64 = 0.05;
/// Lead time between planning a segment and its first due time, s.
const SEGMENT_LEAD_S: f64 = 0.02;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Set-ups timed per run for `setup_s`.
pub const SETUP_REPS: usize = 15;

#[derive(Debug, Clone)]
enum Req {
    Read(ReadOp),
    Publish { k: usize, rows: usize },
}

impl Req {
    fn op(&self) -> &'static str {
        match self {
            Req::Read(r) => r.name(),
            Req::Publish { .. } => "publish",
        }
    }

    fn to_json(&self, id: u64) -> Json {
        let mut pairs = vec![("id", Json::int(id))];
        match self {
            Req::Read(ReadOp::Answer { rule, .. }) => {
                pairs.push(("op", Json::str("answer")));
                pairs.push(("rule", Json::str(rule.as_str())));
            }
            Req::Read(ReadOp::QueryFl { pattern }) => {
                pairs.push(("op", Json::str("query_fl")));
                pairs.push(("pattern", Json::str(PATTERNS[*pattern].text)));
            }
            Req::Read(op) => pairs.push(("op", Json::str(op.name()))),
            Req::Publish { rows, .. } => {
                pairs.push(("op", Json::str("publish")));
                pairs.push(("rows", Json::int(*rows as u64)));
            }
        }
        obj(pairs)
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Planned {
    id: u64,
    due: Duration,
    req: Req,
}

/// What the sender saw.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due: Instant,
    start: Instant,
    end: Instant,
    acked_epoch: u64,
}

/// What the receiver saw.
#[derive(Debug, Clone, Default)]
struct Resp {
    read_start: Option<Instant>,
    recv: Option<Instant>,
    parsed: Option<Instant>,
    bytes: usize,
    ok: bool,
    error: Option<String>,
    epoch: u64,
    queue_us: f64,
    eval_us: f64,
    publish_us: f64,
    row_count: u64,
    rows_hash: u64,
    derived: f64,
    iterations: f64,
    applications: f64,
    magic_fired: bool,
    magic_declined: bool,
    root: Option<String>,
    selected_sources: u64,
    distribution_rows: u64,
}

fn num(v: &Json, k: &str) -> f64 {
    v.get(k).and_then(Json::as_u64).unwrap_or(0) as f64
}

fn parse_resp(v: &Json) -> Resp {
    let eval = v.get("eval");
    let rows_hash = v
        .get("rows")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows_hash(rows.iter().map(|r| {
                r.as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .map(|c| c.as_str().unwrap_or(""))
            }))
        })
        .unwrap_or(0);
    Resp {
        ok: v.get("ok").and_then(Json::as_bool) == Some(true),
        error: v.get("error").and_then(Json::as_str).map(str::to_string),
        epoch: num(v, "epoch") as u64,
        queue_us: num(v, "queue_us"),
        eval_us: num(v, "eval_us"),
        publish_us: num(v, "publish_us"),
        row_count: num(v, "row_count") as u64,
        rows_hash,
        derived: eval.map_or(0.0, |e| num(e, "derived")),
        iterations: eval.map_or(0.0, |e| num(e, "iterations")),
        applications: eval.map_or(0.0, |e| num(e, "applications")),
        magic_fired: eval
            .and_then(|e| e.get("magic_fired"))
            .and_then(Json::as_bool)
            == Some(true),
        magic_declined: eval
            .and_then(|e| e.get("magic_declined"))
            .and_then(Json::as_bool)
            == Some(true),
        root: v.get("root").and_then(Json::as_str).map(str::to_string),
        selected_sources: num(v, "selected_sources") as u64,
        distribution_rows: num(v, "distribution_rows") as u64,
        ..Resp::default()
    }
}

/// Which part of a run a request belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The nominal rate, untraced: the headline latencies.
    Nominal,
    /// The nominal rate under tracing (traced runs only).
    Traced,
    /// A ladder rung above the nominal rate.
    Rung,
    /// The closed-loop publish probe after a `serve_read` run.
    Quiet,
}

/// A finished request: plan, send and response joined.
#[derive(Debug, Clone)]
struct Done {
    id: u64,
    phase: Phase,
    /// The number of its nominal chunk, or of its quiet publish (0 in
    /// other phases): the unit a [`Gate`] keeps or replaces.
    chunk: usize,
    req: Req,
    sent: Sent,
    resp: Option<Resp>,
}

impl Done {
    fn latency_ms(&self) -> Option<f64> {
        let r = self.resp.as_ref()?;
        Some(
            r.recv?
                .saturating_duration_since(self.sent.due)
                .as_secs_f64()
                * 1e3,
        )
    }

    fn ok(&self) -> bool {
        self.resp.as_ref().is_some_and(|r| r.ok)
    }
}

/// The client side of one connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    acked_epoch: AtomicU64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            next_id: 1,
            acked_epoch: AtomicU64::new(0),
        }
    }

    /// One request, waiting for its response (closed loop).
    fn call(&mut self, fields: Vec<(&'static str, Json)>) -> (Json, f64) {
        let id = self.next_id;
        self.next_id += 1;
        let mut pairs = vec![("id", Json::int(id))];
        pairs.extend(fields);
        let mut line = obj(pairs).to_string();
        line.push('\n');
        let t = Instant::now();
        self.writer.write_all(line.as_bytes()).expect("send");
        let deadline = t + Duration::from_secs(30);
        let mut buf = String::new();
        loop {
            buf.clear();
            match self.reader.read_line(&mut buf) {
                Ok(0) => panic!("server closed the connection"),
                Ok(_) => {
                    let v = Json::parse(buf.trim()).expect("response parses");
                    if v.get("id").and_then(Json::as_u64) == Some(id) {
                        return (v, ms_since(t));
                    }
                }
                Err(e) if is_timeout(&e) && Instant::now() < deadline => continue,
                Err(e) => panic!("no response to request {id}: {e}"),
            }
        }
    }

    /// Sends `plan` open loop from `start` and returns every request with
    /// its response (missing ones after a grace period stay `None`).
    fn run_segment(
        &mut self,
        phase: Phase,
        plan: &[Planned],
        tracer: &Tracer,
        hub_probe: Option<(&kind_core::SnapshotHub, &mut Vec<f64>)>,
    ) -> Vec<Done> {
        let start = Instant::now() + Duration::from_secs_f64(SEGMENT_LEAD_S);
        let last_due = plan.last().map_or(Duration::ZERO, |p| p.due);
        let give_up = start + last_due + Duration::from_secs(20);
        let index: HashMap<u64, usize> = plan.iter().enumerate().map(|(i, p)| (p.id, i)).collect();
        let mut sent: Vec<Option<Sent>> = vec![None; plan.len()];
        let Client {
            writer,
            reader,
            acked_epoch,
            ..
        } = self;
        let acked = &*acked_epoch;
        let responses = std::thread::scope(|scope| {
            let receiver = scope.spawn(|| receive(reader, plan, &index, tracer, acked, give_up));
            let mut hub_probe = hub_probe;
            for (i, p) in plan.iter().enumerate() {
                let due = start + p.due;
                // At most one hub load per request, and only with slack
                // to spare, so that the probe never delays a send.
                if let Some((hub, samples)) = &mut hub_probe {
                    if due.saturating_duration_since(Instant::now()) > Duration::from_millis(1) {
                        samples.extend(hub_load_us(hub, tracer, 1));
                    }
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t0 = Instant::now();
                let line = tracer.span(p.id, "wire.Json::to_string", None, || {
                    let mut l = p.req.to_json(p.id).to_string();
                    l.push('\n');
                    l
                });
                let acked_now = acked.load(Ordering::SeqCst);
                let ws = Instant::now();
                writer.write_all(line.as_bytes()).expect("send request");
                let we = Instant::now();
                tracer.record(p.id, "gen.send", ws, we, None);
                sent[i] = Some(Sent {
                    due,
                    start: t0,
                    end: we,
                    acked_epoch: acked_now,
                });
            }
            receiver.join().expect("receiver thread")
        });
        let done = plan
            .iter()
            .zip(sent)
            .zip(responses)
            .map(|((p, s), r)| Done {
                id: p.id,
                phase,
                chunk: 0,
                req: p.req.clone(),
                sent: s.expect("every request sent"),
                resp: r,
            })
            .collect();
        done
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The receiver thread: reads until every planned request has a response
/// or `give_up` passes.
fn receive(
    reader: &mut BufReader<TcpStream>,
    plan: &[Planned],
    index: &HashMap<u64, usize>,
    tracer: &Tracer,
    acked: &AtomicU64,
    give_up: Instant,
) -> Vec<Option<Resp>> {
    let mut out: Vec<Option<Resp>> = vec![None; plan.len()];
    let mut remaining = plan.len();
    let mut line = String::new();
    while remaining > 0 && Instant::now() < give_up {
        line.clear();
        let read_start = Instant::now();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(n) => {
                let recv = Instant::now();
                let Ok(v) = Json::parse(line.trim()) else {
                    continue;
                };
                let parsed = Instant::now();
                let Some(id) = v.get("id").and_then(Json::as_u64) else {
                    continue;
                };
                let Some(&i) = index.get(&id) else {
                    continue;
                };
                tracer.record(id, "wire.Json::parse", recv, parsed, None);
                let mut r = parse_resp(&v);
                r.read_start = Some(read_start);
                r.recv = Some(recv);
                r.parsed = Some(parsed);
                r.bytes = n;
                if matches!(plan[i].req, Req::Publish { .. }) && r.ok {
                    acked.fetch_max(r.epoch, Ordering::SeqCst);
                }
                if out[i].is_none() {
                    remaining -= 1;
                }
                out[i] = Some(r);
            }
            Err(e) if is_timeout(&e) => continue,
            Err(_) => break,
        }
    }
    out
}

/// Builds a segment's schedule: `ops` at `rate`, publishes interleaved
/// every [`PUBLISH_INTERVAL_MS`] when `publishes` (the next publish's
/// number) is given.
fn schedule(
    ops: &mut impl Iterator<Item = ReadOp>,
    rate: f64,
    seconds: f64,
    publishes: Option<&mut usize>,
    next_id: &mut u64,
) -> Vec<Planned> {
    let mut items: Vec<(Duration, Req)> = Vec::new();
    let n = (rate * seconds).round() as usize;
    for i in 0..n {
        let due = Duration::from_secs_f64(i as f64 / rate);
        items.push((due, Req::Read(ops.next().expect("enough generated ops"))));
    }
    if let Some(k) = publishes {
        let interval = PUBLISH_INTERVAL_MS / 1e3;
        let mut t = interval / 2.0;
        while t < seconds {
            let rows = PUBLISH_ROWS;
            items.push((Duration::from_secs_f64(t), Req::Publish { k: *k, rows }));
            *k += 1;
            t += interval;
        }
    }
    items.sort_by_key(|(d, _)| *d);
    items
        .into_iter()
        .map(|(due, req)| {
            let id = *next_id;
            *next_id += 1;
            Planned { id, due, req }
        })
        .collect()
}

/// Starts the server and returns it with the median time to the first
/// served request over [`SETUP_REPS`] set-ups.
/// Starts a server and returns it with the time from the scenario build
/// until its first request was served, in seconds.
fn start_server(params: &ScenarioParams, tracer: &Tracer, rep: u64) -> (ServerHandle, Client, f64) {
    let t = Instant::now();
    let handle = tracer
        .span(4_000_000 + rep, "setup.spawn_server", None, || {
            spawn_server(ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: WORKERS,
                scenario: params.clone(),
                ..ServerConfig::default()
            })
        })
        .expect("server starts");
    let mut client = Client::connect(handle.addr());
    let (pong, _) = client.call(vec![("op", Json::str("ping"))]);
    assert_eq!(
        pong.get("ok").and_then(Json::as_bool),
        Some(true),
        "first ping"
    );
    (handle, client, t.elapsed().as_secs_f64())
}

/// One more timed set-up of a server that is shut down again at once.
/// These run between segments, so that `setup_s` samples the whole run.
fn throwaway_setup(params: &ScenarioParams, tracer: &Tracer, rep: u64) -> f64 {
    let (handle, client, secs) = start_server(params, tracer, rep);
    drop(client);
    ServerHandle::shutdown(handle);
    secs
}

/// The reference: an in-process mediator replaying the server's publish
/// sequence, one epoch at a time.
struct Reference {
    m: Mediator,
    hub: std::sync::Arc<kind_core::SnapshotHub>,
    fetched: Section5Fetch,
    scenario_seed: u64,
    writes: WriteProbe,
}

impl Reference {
    fn new(params: &ScenarioParams) -> Reference {
        let mut m = build_scenario(params);
        m.materialize_all().expect("reference materializes");
        let fetched = warm_plan_fetch(&mut m);
        let hub = m.hub();
        m.publish_snapshot().expect("reference publishes");
        Reference {
            m,
            hub,
            fetched,
            scenario_seed: params.seed,
            writes: WriteProbe::default(),
        }
    }

    fn snapshot(&self) -> PinnedSnapshot {
        self.hub.load().expect("published")
    }

    /// Applies the server's `k`-th publish (0-based).
    fn publish(&mut self, k: usize, rows: usize, tracer: &Tracer) {
        let batch = ncmir_update_rows(self.scenario_seed, server_batch(k), rows);
        self.writes
            .batch(&mut self.m, &batch, tracer, 5_000_000 + k as u64);
    }
}

/// Checks every response against the reference at the epoch it reports;
/// returns the number of mismatches.
fn verify(done: &[Done], reference: &mut Reference, tracer: &Tracer, out: &mut Outcome) -> u64 {
    let mut publishes: Vec<(usize, usize, Option<u64>)> = done
        .iter()
        .filter_map(|d| match d.req {
            Req::Publish { k, rows } => {
                Some((k, rows, d.resp.as_ref().filter(|r| r.ok).map(|r| r.epoch)))
            }
            _ => None,
        })
        .collect();
    publishes.sort_by_key(|p| p.0);
    let mut wrong = 0u64;
    // Epoch 1 is the start-up publication; publish k installs epoch k + 2.
    for (i, (k, _, epoch)) in publishes.iter().enumerate() {
        if *k != i || epoch.is_some_and(|e| e != *k as u64 + 2) {
            out.problem(format!("publish {k} acknowledged epoch {epoch:?}"));
            wrong += 1;
        }
    }
    let mut by_epoch: BTreeMap<u64, Vec<&Done>> = BTreeMap::new();
    for d in done {
        if let (Req::Read(op), Some(r)) = (&d.req, &d.resp) {
            if r.ok && !matches!(op, ReadOp::Ping) {
                by_epoch.entry(r.epoch).or_default().push(d);
            }
        }
    }
    let mut applied = 0usize;
    for (epoch, items) in by_epoch {
        let Some(target) = epoch.checked_sub(1) else {
            out.problem("response at epoch 0");
            wrong += items.len() as u64;
            continue;
        };
        while (applied as u64) < target {
            let Some(&(k, rows, _)) = publishes.get(applied) else {
                break;
            };
            reference.publish(k, rows, tracer);
            applied += 1;
        }
        if applied as u64 != target {
            out.problem(format!(
                "responses at epoch {epoch} beyond the publishes sent"
            ));
            wrong += items.len() as u64;
            continue;
        }
        let snap = reference.snapshot();
        wrong += check_epoch(&snap, &reference.fetched, &items, out);
    }
    // Replay the rest so the write-plane probe sees every batch.
    for &(k, rows, _) in &publishes[applied.min(publishes.len())..] {
        reference.publish(k, rows, tracer);
    }
    wrong
}

/// Checks one epoch's responses on two threads.
fn check_epoch(
    snap: &PinnedSnapshot,
    fetched: &Section5Fetch,
    items: &[&Done],
    out: &mut Outcome,
) -> u64 {
    let mut keys: Vec<(&'static str, String)> = Vec::new();
    for d in items {
        match &d.req {
            Req::Read(ReadOp::Answer { rule, .. }) => keys.push(("answer", rule.clone())),
            Req::Read(ReadOp::QueryFl { pattern }) => {
                keys.push(("query_fl", PATTERNS[*pattern].text.to_string()))
            }
            _ => {}
        }
    }
    keys.sort();
    keys.dedup();
    let expected: HashMap<(&'static str, String), (u64, u64)> = std::thread::scope(|scope| {
        let halves: Vec<_> = keys
            .chunks(keys.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(op, text)| {
                            let rows = if *op == "answer" {
                                snap.answer(text)
                            } else {
                                snap.query_fl_rendered(text)
                            }
                            .expect("reference evaluates");
                            let h = rows_hash(rows.iter().map(|r| r.iter().map(String::as_str)));
                            ((*op, text.clone()), (rows.len() as u64, h))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let schema = kind_core::NeuroSchema::default();
    let plan = snap.run_section5(&schema, fetched).expect("reference plan");
    let mut wrong = 0;
    for d in items {
        let r = d.resp.as_ref().expect("checked responses exist");
        let ok = match &d.req {
            Req::Read(ReadOp::Answer { rule, .. }) => {
                expected[&("answer", rule.clone())] == (r.row_count, r.rows_hash)
            }
            Req::Read(ReadOp::QueryFl { pattern }) => {
                expected[&("query_fl", PATTERNS[*pattern].text.to_string())]
                    == (r.row_count, r.rows_hash)
            }
            Req::Read(ReadOp::Plan) => {
                r.root.as_deref() == Some("Purkinje_Cell")
                    && r.selected_sources == 1
                    && r.distribution_rows == plan.distribution.len() as u64
            }
            _ => true,
        };
        if !ok {
            wrong += 1;
            if wrong <= 3 {
                out.problem(format!(
                    "{} at epoch {} disagrees with the reference",
                    d.req.op(),
                    r.epoch
                ));
            }
        }
    }
    wrong
}

/// Per-op latency samples and the ladder rung of one segment.
fn rung_of(done: &[Done], rate: f64) -> Rung {
    let mut worst: f64 = 0.0;
    let mut backlog = false;
    for op in ["answer", "query_fl", "plan"] {
        let of_op: Vec<&Done> = done.iter().filter(|d| d.req.op() == op).collect();
        let lat: Vec<f64> = of_op
            .iter()
            .filter(|d| d.ok())
            .filter_map(|d| d.latency_ms())
            .collect();
        let missed = of_op.len() - lat.len();
        worst = worst.max(tail_with_misses(&lat, missed));
        let t0 = of_op.first().map(|d| d.sent.due);
        let series: Vec<(f64, f64)> = of_op
            .iter()
            .filter_map(|d| {
                let due = d.sent.due.saturating_duration_since(t0?).as_secs_f64() * 1e3;
                Some((due, d.latency_ms().unwrap_or(f64::INFINITY)))
            })
            .collect();
        backlog |= backlog_growing(&series, SLO_MS);
    }
    Rung {
        rate,
        worst_tail_ms: worst,
        backlog_growing: backlog,
    }
}

/// Runs a `serve_*` workload.
pub fn run(write: bool, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let params = ScenarioParams {
        seed: scenario_seed(seed),
        ..ScenarioParams::default()
    };
    out.note("scenario_seed", params.seed.to_string());
    out.note("workers", WORKERS.to_string());
    out.note("slo_ms", SLO_MS.to_string());
    let tracer = Tracer::new(false);
    let (handle, mut client, first_setup) = start_server(&params, &tracer, 0);
    let mut setup_times = vec![first_setup];

    let mut ops = read_ops(seed, 200_000).into_iter();
    let mut next_id = 100;
    let mut pub_k = 0usize;
    let mut done: Vec<Done> = Vec::new();
    let mut rates: Vec<String> = Vec::new();
    // Untraced runs offer the nominal rate only, in SEGMENTS chunks; the
    // end-to-end figures come from them. Traced runs take turns between
    // untraced nominal chunks, traced chunks and the ladder's rungs, so
    // that each figure samples the whole run rather than one stretch of
    // it. A rung that misses the limit is run once more on its next turn,
    // so that one burst of stolen CPU does not end the ladder; a second
    // miss does. Nominal chunks run until the gate has enough calm ones.
    let chunk_s = seconds / SEGMENTS as f64;
    let traced = Tracer::new(trace);
    let mut hub_samples = Vec::new();
    let mut ladder: Vec<f64> = if trace {
        LADDER_RPS.to_vec()
    } else {
        Vec::new()
    };
    ladder.reverse();
    let mut retried = false;
    let run_steal = Steal::start();
    let mut rungs: Vec<Rung> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let hub = handle.hub();
    let mut gate = if trace {
        Gate::new(TRACE_CHUNKS, MOST_TRACE_CHUNKS)
    } else {
        Gate::new(SEGMENTS, MOST_SEGMENTS)
    };
    let mut traced_left = if trace { TRACE_CHUNKS } else { 0 };
    let mut turn = 0usize;
    loop {
        let ready = [gate.more(), traced_left > 0, !ladder.is_empty()];
        let Some(pick) = (0..3).map(|i| (turn + i) % 3).find(|&k| ready[k]) else {
            break;
        };
        turn = pick + 1;
        let phase = [Phase::Nominal, Phase::Traced, Phase::Rung][pick];
        let rate = match phase {
            Phase::Nominal => NOMINAL_RPS,
            Phase::Traced => {
                traced_left -= 1;
                NOMINAL_RPS
            }
            _ => ladder.pop().expect("picked only when non-empty"),
        };
        let plan = schedule(
            &mut ops,
            rate,
            chunk_s,
            write.then_some(&mut pub_k),
            &mut next_id,
        );
        rates.push(format!("{rate}x{chunk_s:.2}s"));
        let t = Instant::now();
        let tr = if phase == Phase::Traced {
            &traced
        } else {
            &tracer
        };
        let probe = (phase == Phase::Traced).then_some((&*hub, &mut hub_samples));
        let steal = Steal::start();
        let mut d = client.run_segment(phase, &plan, tr, probe);
        if phase == Phase::Nominal {
            let chunk = gate.record(steal.share());
            walls.push(t.elapsed().as_secs_f64() - SEGMENT_LEAD_S);
            for x in d.iter_mut() {
                x.chunk = chunk;
            }
        }
        if phase == Phase::Rung {
            let rung = rung_of(&d, rate);
            let passed = rung.worst_tail_ms <= SLO_MS && !rung.backlog_growing;
            if !passed && !retried {
                retried = true;
                ladder.push(rate);
            } else if !passed {
                ladder.clear();
            }
            match rungs.last_mut() {
                // A retried rung keeps its better attempt.
                Some(prev) if prev.rate == rate => {
                    if (!rung.backlog_growing && prev.backlog_growing)
                        || (rung.backlog_growing == prev.backlog_growing
                            && rung.worst_tail_ms < prev.worst_tail_ms)
                    {
                        *prev = rung;
                    }
                }
                _ => rungs.push(rung),
            }
        }
        done.extend(d);
        if setup_times.len() < SETUP_REPS {
            setup_times.push(throwaway_setup(&params, &tracer, setup_times.len() as u64));
        }
    }
    while setup_times.len() < SETUP_REPS {
        setup_times.push(throwaway_setup(&params, &tracer, setup_times.len() as u64));
    }
    out.note("steal_share", format!("{:.4}", run_steal.share()));
    let kept = gate.kept();
    out.note(
        "chunks_replaced",
        (gate.units() - kept.iter().filter(|k| **k).count()).to_string(),
    );
    let in_kept = |d: &Done| d.phase == Phase::Nominal && kept[d.chunk];
    let wall_nominal: f64 = walls.iter().zip(&kept).filter(|w| *w.1).map(|w| w.0).sum();
    // The nominal chunks are the ladder's first rung.
    if trace {
        let nominal: Vec<Done> = done.iter().filter(|d| in_kept(d)).cloned().collect();
        rungs.insert(0, rung_of(&nominal, NOMINAL_RPS));
    }
    out.note("rates_offered", rates.join(","));

    // serve_read: publish latency on the quiet server, closed loop, one
    // publish every QUIET_GAP; publishes during stolen CPU are replaced.
    let mut quiet = Gate::new(QUIET_PUBLISHES, QUIET_PUBLISHES * 3 / 2);
    let mut quiet_publish: Vec<f64> = Vec::new();
    if !write {
        while quiet.more() {
            std::thread::sleep(QUIET_GAP);
            let k = pub_k;
            pub_k += 1;
            let rows = PUBLISH_ROWS;
            let steal = Steal::start();
            let (v, ms) = client.call(vec![
                ("op", Json::str("publish")),
                ("rows", Json::int(rows as u64)),
            ]);
            let r = parse_resp(&v);
            let chunk = quiet.record(steal.share());
            quiet_publish.push(ms);
            let now = Instant::now();
            done.push(Done {
                id: 0,
                phase: Phase::Quiet,
                chunk,
                req: Req::Publish { k, rows },
                sent: Sent {
                    due: now,
                    start: now,
                    end: now,
                    acked_epoch: 0,
                },
                resp: Some(Resp {
                    recv: Some(now),
                    ..r
                }),
            });
        }
    }

    // The server's own counters must reconcile with what was sent.
    let (stats, _) = client.call(vec![("op", Json::str("stats"))]);
    let queued: Vec<&Done> = done
        .iter()
        .filter(|d| matches!(d.req, Req::Read(_)))
        .collect();
    let shed_seen = queued
        .iter()
        .filter(|d| d.resp.as_ref().and_then(|r| r.error.as_deref()) == Some("overloaded"))
        .count() as f64;
    // +1: the set-up ping on this server instance.
    let served_seen = queued.iter().filter(|d| d.ok()).count() as f64 + 1.0;
    let admitted_seen = queued.len() as f64 - shed_seen + 1.0;
    let pubs_seen = done
        .iter()
        .filter(|d| matches!(d.req, Req::Publish { .. }) && d.ok())
        .count() as f64;
    for (k, seen) in [
        ("admitted", admitted_seen),
        ("served", served_seen),
        ("shed", shed_seen),
        ("publishes", pubs_seen),
    ] {
        if num(&stats, k) != seen {
            out.problem(format!(
                "server stats {k}={} but the generator saw {seen}",
                num(&stats, k)
            ));
        }
    }
    drop(client);
    ServerHandle::shutdown(handle);

    // The workload's own peak, before the oracle builds its reference.
    let peak_rss = crate::report::peak_rss_mb();

    // Oracle: every response against the reference at its epoch.
    let mut reference = Reference::new(&params);
    let wrong = verify(&done, &mut reference, &traced, &mut out);

    // attempted / failed: the nominal segment(s), publishes, quiet probe.
    let counted: Vec<&Done> = done
        .iter()
        .filter(|d| d.phase != Phase::Rung || matches!(d.req, Req::Publish { .. }))
        .collect();
    out.attempted = counted.len() as u64;
    let not_ok = counted.iter().filter(|d| !d.ok()).count() as u64;
    out.failed = not_ok + wrong;
    if wrong > 0 {
        out.problem(format!("{wrong} responses disagree with the reference"));
    }
    // Failed or shed requests count in `failed`; only wrong answers and a
    // generator behind schedule make the run incorrect.
    out.note("failed_ops", not_ok.to_string());

    let nominal: Vec<&Done> = done.iter().filter(|d| in_kept(d)).collect();
    let ok_nominal: Vec<&&Done> = nominal.iter().filter(|d| d.ok()).collect();

    // Generator honesty, over the sends the figures rest on: the kept
    // nominal chunks. Ladder rungs are probes past the knee and do not
    // count.
    let lags: Vec<f64> = nominal
        .iter()
        .map(|d| {
            let lag = d.sent.start.saturating_duration_since(d.sent.due);
            lag.as_secs_f64() * 1e3
        })
        .collect();
    let late = lags.iter().filter(|l| **l > LATE_MS).count() as f64;
    let late_ratio = ratio(late, lags.len() as f64);
    if late_ratio > MAX_LATE_RATIO {
        out.problem(format!(
            "invalid run: {late} of {} sends more than {LATE_MS} ms behind schedule",
            lags.len()
        ));
    }
    out.note("late_sends", format!("{late}"));

    let mut lat = Samples::default();
    for d in &ok_nominal {
        if let Some(l) = d.latency_ms() {
            lat.push(d.req.op(), l);
        }
    }
    // Publishes of serve_read_write ran in the chunks above.
    if !write {
        let kept = quiet.kept();
        for (ms, _) in quiet_publish.iter().zip(kept).filter(|q| q.1) {
            lat.push("publish", *ms);
        }
    }
    let answers_ok = ok_nominal.iter().filter(|d| d.req.op() == "answer").count() as f64;
    for op in ["answer", "query_fl", "plan", "publish"] {
        out.latency(op, lat.values(op), trace);
    }

    if !trace {
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("answers_per_s", answers_ok / wall_nominal, "1/s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
        return finish(out);
    }

    out.metric("max_qps_at_slo", max_qps_at_slo(&rungs, SLO_MS), "1/s");
    out.note(
        "ladder",
        rungs
            .iter()
            .map(|r| {
                let backlog = if r.backlog_growing { "+backlog" } else { "" };
                format!("{}:{:.1}ms{backlog}", r.rate, r.worst_tail_ms)
            })
            .collect::<Vec<_>>()
            .join(","),
    );

    // ---- Traced run: per-layer metrics. --------------------------------
    let untraced: Vec<&Done> = nominal.clone();
    let traced_seg: Vec<&Done> = done.iter().filter(|d| d.phase == Phase::Traced).collect();
    let ok_reads = |set: &[&Done], op: &str| -> Vec<Resp> {
        set.iter()
            .filter(|d| d.req.op() == op && d.ok())
            .filter_map(|d| d.resp.clone())
            .collect()
    };
    let queue_ms: Vec<f64> = untraced
        .iter()
        .filter(|d| matches!(d.req, Req::Read(_)) && d.ok())
        .filter_map(|d| d.resp.as_ref().map(|r| r.queue_us / 1e3))
        .collect();
    let qs = summarize(&queue_ms);
    out.metric(
        "server.queue_wait_p50_ms",
        qs.as_ref().map_or(0.0, |s| s.p50),
        "ms",
    );
    out.metric(
        "server.queue_wait_p99_ms",
        qs.as_ref().map_or(0.0, |s| s.tail),
        "ms",
    );
    let eval_sum: f64 = untraced
        .iter()
        .filter_map(|d| d.resp.as_ref().filter(|r| r.ok).map(|r| r.eval_us / 1e6))
        .sum();
    out.metric(
        "server.busy_share",
        ratio(eval_sum, wall_nominal * WORKERS as f64),
        "ratio",
    );
    let reads: Vec<&&Done> = untraced
        .iter()
        .filter(|d| matches!(d.req, Req::Read(_)))
        .collect();
    let err_share = |e: &str| {
        ratio(
            reads
                .iter()
                .filter(|d| d.resp.as_ref().and_then(|r| r.error.as_deref()) == Some(e))
                .count() as f64,
            reads.len() as f64,
        )
    };
    out.metric("server.shed_ratio", err_share("overloaded"), "ratio");
    out.metric(
        "server.deadline_ratio",
        err_share("deadline_exceeded"),
        "ratio",
    );
    for op in ["answer", "query_fl", "plan"] {
        let rs = ok_reads(&untraced, op);
        let eval: Vec<f64> = rs.iter().map(|r| r.eval_us / 1e3).collect();
        out.metric(&format!("server.eval_p50_ms.{op}"), median(&eval), "ms");
        let wire: Vec<f64> = untraced
            .iter()
            .filter(|d| d.req.op() == op && d.ok())
            .filter_map(|d| {
                let r = d.resp.as_ref()?;
                let rtt = r
                    .recv?
                    .saturating_duration_since(d.sent.start)
                    .as_secs_f64()
                    * 1e3;
                Some(rtt - (r.queue_us + r.eval_us) / 1e3)
            })
            .collect();
        out.metric(&format!("wire.overhead_p50_ms.{op}"), median(&wire), "ms");
        let bytes: Vec<f64> = rs.iter().map(|r| r.bytes as f64).collect();
        out.metric(
            &format!("wire.response_bytes_p50.{op}"),
            median(&bytes),
            "bytes",
        );
    }
    let applies: Vec<f64> = done
        .iter()
        .filter(|d| matches!(d.req, Req::Publish { .. }) && d.ok())
        .filter_map(|d| d.resp.as_ref().map(|r| r.publish_us / 1e3))
        .collect();
    let ap = summarize(&applies);
    out.metric(
        "server.publish_apply_p50_ms",
        ap.as_ref().map_or(0.0, |s| s.p50),
        "ms",
    );
    out.metric(
        "server.publish_apply_p99_ms",
        ap.as_ref().map_or(0.0, |s| s.tail),
        "ms",
    );
    let hub_s = summarize(&hub_samples);
    out.metric(
        "hub.load_p99_us",
        hub_s.as_ref().map_or(0.0, |s| s.tail),
        "us",
    );
    let stale = untraced
        .iter()
        .filter(|d| matches!(d.req, Req::Read(_)) && d.ok())
        .filter(|d| {
            d.resp
                .as_ref()
                .is_some_and(|r| r.epoch < d.sent.acked_epoch)
        })
        .count() as f64;
    out.metric(
        "hub.stale_epoch_ratio",
        ratio(stale, reads.len() as f64),
        "ratio",
    );
    let answers = ok_reads(&untraced, "answer");
    let derived: Vec<f64> = answers.iter().map(|r| r.derived).collect();
    out.metric("datalog.derived_per_answer", mean(&derived), "count");
    out.metric(
        "datalog.iterations_per_answer",
        mean(&answers.iter().map(|r| r.iterations).collect::<Vec<_>>()),
        "count",
    );
    out.metric(
        "datalog.applications_per_answer",
        mean(&answers.iter().map(|r| r.applications).collect::<Vec<_>>()),
        "count",
    );
    out.metric(
        "datalog.useful_ratio",
        ratio(
            answers.iter().map(|r| r.row_count as f64).sum(),
            derived.iter().sum(),
        ),
        "ratio",
    );
    let share = |f: fn(&Resp) -> bool| {
        ratio(
            answers.iter().filter(|r| f(r)).count() as f64,
            answers.len() as f64,
        )
    };
    out.metric(
        "datalog.magic_fired_ratio",
        share(|r| r.magic_fired),
        "ratio",
    );
    out.metric(
        "datalog.magic_declined_ratio",
        share(|r| r.magic_declined),
        "ratio",
    );
    out.metric(
        "gen.lag_p99_ms",
        summarize(&lags).map_or(0.0, |s| s.tail),
        "ms",
    );
    out.metric("gen.late_ratio", late_ratio, "ratio");
    out.metric(
        "failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );

    // In-process layer probes on the reference (final epoch).
    let snap = reference.snapshot();
    let (hit_ratio, _) = snapshot_probe(&snap, &reference.fetched, seed, &traced, &mut out);
    out.metric("datalog.index_hit_ratio", hit_ratio, "ratio");
    let fed = FederationProbe::run(&mut reference.m, 30, seed, true, &traced, None);
    fed.report(&mut out);
    out.metric("federation.overlap", 0.0, "ratio");
    let writes = std::mem::take(&mut reference.writes);
    writes.report(&mut reference.m, &mut out);
    setup_probe(SETUP_REPS, &traced, || build_scenario(&params), &mut out);

    // Spans: server intervals under each request's receive span.
    let mut spans = traced.spans();
    let mut roots: HashMap<u64, usize> = HashMap::new();
    for d in &traced_seg {
        let Some(r) = d.resp.as_ref() else {
            continue;
        };
        let (Some(read_start), Some(recv), Some(parsed)) = (r.read_start, r.recv, r.parsed) else {
            continue;
        };
        let root = push_span(
            &mut spans,
            d.id,
            "gen.request",
            traced.us(d.sent.due),
            traced.us(parsed),
            None,
        );
        roots.insert(d.id, root);
        let recv_us = traced.us(recv);
        let wait_from = traced.us(read_start.max(d.sent.end)).min(recv_us);
        let recv_span = push_span(&mut spans, d.id, "gen.recv", wait_from, recv_us, Some(root));
        let mut t = recv_us - (r.queue_us + r.eval_us + r.publish_us);
        for (name, dur) in [
            ("server.queue", r.queue_us),
            ("server.eval", r.eval_us),
            ("server.publish", r.publish_us),
        ] {
            if dur > 0.0 {
                push_span(&mut spans, d.id, name, t, t + dur, Some(recv_span));
                t += dur;
            }
        }
    }
    for s in spans.iter_mut() {
        if s.parent.is_none() && s.name != "gen.request" {
            s.parent = roots.get(&s.request).copied();
        }
    }
    crate::trace::report_layers(&spans, &mut out);
    crate::trace::write_spans(
        &spans,
        if write {
            "serve_read_write"
        } else {
            "serve_read"
        },
        seed,
    );
    let overhead = |op: &str| {
        let a: Vec<f64> = untraced
            .iter()
            .filter(|d| d.req.op() == op && d.ok())
            .filter_map(|d| d.latency_ms())
            .collect();
        let b: Vec<f64> = traced_seg
            .iter()
            .filter(|d| d.req.op() == op && d.ok())
            .filter_map(|d| d.latency_ms())
            .collect();
        median(&b) - median(&a)
    };
    for op in ["answer", "query_fl", "plan"] {
        out.metric(&format!("trace.overhead_p50_ms.{op}"), overhead(op), "ms");
    }
    finish(out)
}

fn push_span(
    spans: &mut Vec<crate::trace::Span>,
    request: u64,
    name: &str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
) -> usize {
    let id = spans.len();
    spans.push(crate::trace::Span {
        id,
        request,
        name: name.to_string(),
        start_us,
        end_us,
        parent,
    });
    id
}

fn finish(mut out: Outcome) -> Outcome {
    out.correct = out.problems.is_empty();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in server that reads `n` requests, stalls, then answers
    /// them all: every request queued behind the stall must be charged
    /// for it, from its due time.
    #[test]
    fn due_time_latency_charges_a_stall_to_every_request_behind_it() {
        const N: u64 = 20;
        const STALL_MS: u64 = 150;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut ids = Vec::new();
            let mut line = String::new();
            while ids.len() < N as usize {
                line.clear();
                reader.read_line(&mut line).unwrap();
                let v = Json::parse(line.trim()).unwrap();
                ids.push(v.get("id").and_then(Json::as_u64).unwrap());
            }
            std::thread::sleep(Duration::from_millis(STALL_MS));
            for id in ids {
                writeln!(writer, "{{\"id\":{id},\"ok\":true,\"epoch\":1}}").unwrap();
            }
        });
        let mut client = Client::connect(addr);
        let plan: Vec<Planned> = (0..N)
            .map(|i| Planned {
                id: i + 1,
                due: Duration::from_millis(5 * i),
                req: Req::Read(ReadOp::Ping),
            })
            .collect();
        let done = client.run_segment(Phase::Nominal, &plan, &Tracer::new(false), None);
        server.join().unwrap();
        // The generator kept its schedule, so the wait is the server's.
        let lags: Vec<Duration> = done.iter().map(|d| d.sent.start - d.sent.due).collect();
        assert!(
            lags.iter().all(|l| l.as_secs_f64() * 1e3 < LATE_MS),
            "{lags:?}"
        );
        let lat: Vec<f64> = done.iter().map(|d| d.latency_ms().unwrap()).collect();
        // The last request was due at 95 ms and answered after the
        // stall; the first, due at 0, waited for all of it.
        let last_due = 5.0 * (N - 1) as f64;
        assert!(lat[0] >= last_due + STALL_MS as f64, "{lat:?}");
        assert!(lat[N as usize - 1] >= STALL_MS as f64, "{lat:?}");
        // Earlier requests waited longer: latency falls with due time.
        assert!(lat[0] - lat[N as usize - 1] >= last_due - 5.0, "{lat:?}");
    }

    #[test]
    fn schedule_interleaves_publishes_at_the_fixed_interval() {
        let mut ops = read_ops(1, 1000).into_iter();
        let mut k = 0;
        let mut id = 1;
        let plan = schedule(&mut ops, 100.0, 2.0, Some(&mut k), &mut id);
        let reads = plan
            .iter()
            .filter(|p| matches!(p.req, Req::Read(_)))
            .count();
        let pubs: Vec<Duration> = plan
            .iter()
            .filter(|p| matches!(p.req, Req::Publish { .. }))
            .map(|p| p.due)
            .collect();
        assert_eq!(reads, 200);
        assert_eq!(pubs.len(), (2000.0 / PUBLISH_INTERVAL_MS) as usize);
        assert_eq!(k, pubs.len());
        assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(plan.windows(2).all(|w| w[0].id + 1 == w[1].id));
    }
}
