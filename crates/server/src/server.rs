//! The query server: N workers over the [`SnapshotHub`], a bounded
//! admission queue with load shedding, a single writer thread owning the
//! [`Mediator`], and a watchdog enforcing per-request wall budgets.
//!
//! ## Protocol
//!
//! One JSON object per line, in both directions. Requests:
//!
//! ```json
//! {"id": 1, "op": "ping"}
//! {"id": 2, "op": "query_fl", "pattern": "X : protein_amount"}
//! {"id": 3, "op": "answer", "rule": "p(X) :- ...", "budget_ms": 50}
//! {"id": 4, "op": "plan"}
//! {"id": 5, "op": "publish", "rows": 5}
//! {"id": 6, "op": "sleep", "ms": 100}
//! {"id": 7, "op": "stats"}
//! {"id": 8, "op": "shutdown"}
//! ```
//!
//! Every response echoes the request `id` (responses on one connection
//! may arrive out of order: sheds are written at admission time while
//! admitted requests answer later). Successful responses carry
//! `"ok": true`, the snapshot `epoch` the request was pinned to, the
//! admission-queue wait in `queue_us`, the evaluation time in `eval_us`,
//! and op-specific payload (`rows`, `eval` counters, `report` summary).
//! Failures carry `"ok": false` and a typed `"error"`:
//!
//! * `"overloaded"` — the admission queue was full; the request was
//!   **shed at arrival**, nothing was evaluated. Clients should back off
//!   and retry. This is the backpressure contract: the queue never grows
//!   beyond `queue_depth`, so admitted-request latency stays bounded no
//!   matter the offered load.
//! * `"deadline_exceeded"` — the request's budget elapsed before or
//!   during evaluation (queue wait counts against the budget, so a
//!   request that waited out its budget is failed without evaluating).
//! * `"bad_request"` / `"query_error"` — malformed input or an
//!   evaluation error; detail in `"detail"`.
//! * `"too_large"` — the request line ran past [`MAX_LINE_BYTES`]; the
//!   rest of it is read and dropped up to its newline, and the
//!   connection then carries on with the next line.
//! * `"internal"` — handling the request panicked. Only that request
//!   fails: the worker survives and keeps serving.
//!
//! ## Threads
//!
//! * **acceptor** — nonblocking accept loop, spawns one reader per
//!   connection;
//! * **readers** (one per connection) — parse lines, answer `stats`
//!   inline, forward `publish`/`shutdown` to the writer, and try to
//!   admit everything else into the bounded queue (shedding on full);
//! * **workers** (N) — pop the queue, pin the current hub snapshot,
//!   evaluate, respond;
//! * **writer** — the only thread touching the `Mediator`: applies
//!   update batches and republishes through the hub;
//! * **watchdog** — cancels the [`CancelToken`] of any in-flight request
//!   whose wall deadline passed (evaluators observe it at the next
//!   fixpoint round boundary).

use crate::wire::{obj, Json};
use kind_core::{
    section5_fetch, Mediator, NeuroSchema, PinnedSnapshot, Section5Fetch, Section5Query,
    SnapshotHub,
};
use kind_datalog::{CancelToken, EvalOptions};
use kind_sources::{build_scenario, ncmir_update_rows, ScenarioParams};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The longest request line the server reads, in bytes (newline not
/// counted). Far above any legitimate request — the repository's deepest
/// test requests are about 300 KB — and low enough that one line with no
/// newline cannot grow a reader's buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port; the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads serving the admission queue.
    pub workers: usize,
    /// Admission-queue capacity: requests beyond this are shed with a
    /// typed `overloaded` response instead of queuing unboundedly.
    pub queue_depth: usize,
    /// Default per-request wall budget in ms (0 = none). Requests may
    /// override with their own `budget_ms`; queue wait counts against it.
    pub default_budget_ms: u64,
    /// The scenario the mediator is seeded with.
    pub scenario: ScenarioParams,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 64,
            default_budget_ms: 0,
            scenario: ScenarioParams::default(),
        }
    }
}

/// Monotonic counters exported by the `stats` op.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub admitted: AtomicU64,
    /// Requests answered successfully.
    pub served: AtomicU64,
    /// Requests shed with `overloaded` at admission.
    pub shed: AtomicU64,
    /// Requests failed with `deadline_exceeded`.
    pub deadline: AtomicU64,
    /// Publishes applied by the writer thread.
    pub publishes: AtomicU64,
}

/// A connection's write half, shared between the reader (sheds, inline
/// stats) and the workers (admitted responses): the mutex keeps lines
/// whole when both respond concurrently.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, value: &Json) {
        let mut line = value.to_string();
        line.push('\n');
        // A dead peer is not a server error: drop the response and let
        // the reader notice EOF on its side.
        if let Ok(mut s) = self.stream.lock() {
            let _ = s.write_all(line.as_bytes());
        }
    }
}

/// One admitted request.
struct Job {
    id: Json,
    op: Op,
    conn: Arc<ConnWriter>,
    enqueued: Instant,
    budget_ms: u64,
}

enum Op {
    Ping,
    QueryFl(String),
    Answer(String),
    Plan,
    Sleep(u64),
}

enum WriteCmd {
    Publish {
        id: Json,
        rows: usize,
        conn: Arc<ConnWriter>,
    },
    Stop,
}

/// A request's entry in the [`Watchlist`], removed on drop.
struct Watched<'a> {
    list: &'a Watchlist,
    key: u64,
}

impl Drop for Watched<'_> {
    fn drop(&mut self) {
        if let Ok(mut entries) = self.list.entries.lock() {
            entries.remove(&self.key);
        }
    }
}

/// In-flight cancellation registry for the watchdog.
#[derive(Default)]
struct Watchlist {
    next: AtomicU64,
    entries: Mutex<HashMap<u64, (Instant, CancelToken)>>,
}

impl Watchlist {
    /// Registers `token` for cancellation at `deadline`, until the
    /// returned guard drops — also when the request's handling panics.
    fn register(&self, deadline: Instant, token: CancelToken) -> Watched<'_> {
        let key = self.next.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("watchlist poisoned")
            .insert(key, (deadline, token));
        Watched { list: self, key }
    }

    /// Cancels everything past `now`; cancelled entries stay registered
    /// (cancel is sticky) until their worker unregisters them.
    fn sweep(&self, now: Instant) {
        for (deadline, token) in self.entries.lock().expect("watchlist poisoned").values() {
            if now >= *deadline {
                token.cancel();
            }
        }
    }
}

struct Shared {
    hub: Arc<SnapshotHub>,
    queue: Mutex<std::collections::VecDeque<Job>>,
    queue_cv: Condvar,
    queue_depth: usize,
    default_budget_ms: u64,
    shutdown: AtomicBool,
    stats: ServerStats,
    watchlist: Watchlist,
    schema: NeuroSchema,
    fetched: Section5Fetch,
    writer_tx: Mutex<mpsc::Sender<WriteCmd>>,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        let _ = self
            .writer_tx
            .lock()
            .expect("writer tx poisoned")
            .send(WriteCmd::Stop);
    }
}

/// A running server: bound address plus the handles to stop and join it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The snapshot hub the server serves from (for embedding tests and
    /// benches that want to observe epochs from outside).
    pub fn hub(&self) -> Arc<SnapshotHub> {
        Arc::clone(&self.shared.hub)
    }

    /// Whether shutdown has been requested (via the `shutdown` op, a
    /// signal, or [`Self::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without blocking: the acceptor stops accepting,
    /// workers drain, and the writer stops.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Requests shutdown and joins every server thread.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Builds the scenario mediator, seeds the hub with the first
/// publication, pre-runs the §5 fetch phase (so `plan` replays warm),
/// and starts every server thread. Returns once the listener is bound.
pub fn spawn_server(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let mut mediator = build_scenario(&config.scenario);
    let schema = NeuroSchema::default();
    let q = Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    };
    mediator
        .materialize_all()
        .map_err(|e| std::io::Error::other(format!("scenario materialize failed: {e}")))?;
    let fetched = {
        let (federation, knowledge) = mediator.fetch_eval_planes();
        section5_fetch(federation, knowledge, &schema, &q, true)
            .map_err(|e| std::io::Error::other(format!("warm plan fetch failed: {e}")))?
    };
    let hub = mediator.hub();
    mediator
        .publish_snapshot()
        .map_err(|e| std::io::Error::other(format!("initial publish failed: {e}")))?;

    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let (writer_tx, writer_rx) = mpsc::channel::<WriteCmd>();
    let shared = Arc::new(Shared {
        hub,
        queue: Mutex::new(std::collections::VecDeque::new()),
        queue_cv: Condvar::new(),
        queue_depth: config.queue_depth.max(1),
        default_budget_ms: config.default_budget_ms,
        shutdown: AtomicBool::new(false),
        stats: ServerStats::default(),
        watchlist: Watchlist::default(),
        schema,
        fetched,
        writer_tx: Mutex::new(writer_tx),
    });

    let mut threads = Vec::new();

    // Writer: sole owner of the mediator from here on.
    {
        let shared = Arc::clone(&shared);
        let seed = config.scenario.seed;
        threads.push(
            thread::Builder::new()
                .name("kind-writer".into())
                .spawn(move || writer_loop(mediator, seed, writer_rx, &shared))?,
        );
    }
    // Workers.
    for i in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name(format!("kind-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    // Watchdog.
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("kind-watchdog".into())
                .spawn(move || {
                    while !shared.shutdown.load(Ordering::SeqCst) {
                        shared.watchlist.sweep(Instant::now());
                        thread::sleep(Duration::from_millis(2));
                    }
                })?,
        );
    }
    // Acceptor.
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("kind-acceptor".into())
                .spawn(move || accept_loop(listener, &shared))?,
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// [`spawn_server`] then block until shutdown completes — the binary's
/// server mode.
pub fn run_server(config: ServerConfig) -> std::io::Result<SocketAddr> {
    let handle = spawn_server(config)?;
    let addr = handle.addr();
    while !handle.shutdown_requested() && !crate::signalled() {
        thread::sleep(Duration::from_millis(25));
    }
    handle.shutdown();
    Ok(addr)
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                if let Ok(t) = thread::Builder::new()
                    .name("kind-conn".into())
                    .spawn(move || conn_loop(stream, &shared))
                {
                    readers.push(t);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    for t in readers {
        let _ = t.join();
    }
}

fn conn_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // A finite read timeout keeps the reader responsive to shutdown even
    // when the client goes quiet.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        }),
    });
    let mut reader = BufReader::new(stream);
    // The line being read. A read that times out mid-line keeps what it
    // got, so a slow client's request is not cut in two.
    let mut line: Vec<u8> = Vec::new();
    // Set after a too-long line: drop input up to its newline.
    let mut discarding = false;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let read = if discarding {
            skip_past_newline(&mut reader).map(|found| {
                discarding = false;
                usize::from(found)
            })
        } else {
            // One byte past the cap, so an over-long line shows as one.
            let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
            (&mut reader).take(room).read_until(b'\n', &mut line)
        };
        match read {
            Ok(0) if line.is_empty() => return, // EOF
            Ok(_) if line.is_empty() => {}
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                line.clear();
                discarding = true;
                writer.send(&error_response(
                    Json::Null,
                    "too_large",
                    &format!("request line longer than {MAX_LINE_BYTES} bytes"),
                ));
            }
            // A whole line, or the last one before EOF.
            Ok(_) => {
                match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => {}
                    Ok(text) => match Json::parse(text) {
                        Ok(req) => handle_request(req, &writer, shared),
                        Err(e) => writer.send(&error_response(
                            Json::Null,
                            "bad_request",
                            &format!("unparseable request: {e}"),
                        )),
                    },
                    Err(_) => writer.send(&error_response(
                        Json::Null,
                        "bad_request",
                        "request is not UTF-8",
                    )),
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Consumes input up to and including the next newline without keeping
/// any of it. `Ok(true)` once the newline is consumed, `Ok(false)` at
/// EOF.
fn skip_past_newline(reader: &mut impl BufRead) -> std::io::Result<bool> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(false);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(true);
            }
            None => {
                let n = buf.len();
                reader.consume(n);
            }
        }
    }
}

fn error_response(id: Json, error: &str, detail: &str) -> Json {
    obj([
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::str(error)),
        ("detail", Json::str(detail)),
    ])
}

fn handle_request(req: Json, writer: &Arc<ConnWriter>, shared: &Arc<Shared>) {
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let Some(op_name) = req.get("op").and_then(Json::as_str) else {
        writer.send(&error_response(id, "bad_request", "missing \"op\""));
        return;
    };
    match op_name {
        // Out-of-band ops: answered without touching the worker queue.
        "stats" => {
            let s = &shared.stats;
            writer.send(&obj([
                ("id", id),
                ("ok", Json::Bool(true)),
                ("op", Json::str("stats")),
                ("epoch", Json::int(shared.hub.epoch())),
                ("admitted", Json::int(s.admitted.load(Ordering::Relaxed))),
                ("served", Json::int(s.served.load(Ordering::Relaxed))),
                ("shed", Json::int(s.shed.load(Ordering::Relaxed))),
                ("deadline", Json::int(s.deadline.load(Ordering::Relaxed))),
                ("publishes", Json::int(s.publishes.load(Ordering::Relaxed))),
                ("queue_depth", Json::int(shared.queue_depth as u64)),
            ]));
        }
        "shutdown" => {
            writer.send(&obj([
                ("id", id),
                ("ok", Json::Bool(true)),
                ("op", Json::str("shutdown")),
            ]));
            shared.request_shutdown();
        }
        "publish" => {
            let rows = req.get("rows").and_then(Json::as_u64).unwrap_or(1) as usize;
            let cmd = WriteCmd::Publish {
                id,
                rows: rows.clamp(1, 10_000),
                conn: Arc::clone(writer),
            };
            if shared
                .writer_tx
                .lock()
                .expect("writer tx poisoned")
                .send(cmd)
                .is_err()
            {
                // Writer already stopped: shutting down.
            }
        }
        // Queued ops: bounded admission, shed on full.
        name => {
            let op = match name {
                "ping" => Op::Ping,
                "query_fl" => match req.get("pattern").and_then(Json::as_str) {
                    Some(p) => Op::QueryFl(p.to_string()),
                    None => {
                        writer.send(&error_response(id, "bad_request", "missing \"pattern\""));
                        return;
                    }
                },
                "answer" => match req.get("rule").and_then(Json::as_str) {
                    Some(r) => Op::Answer(r.to_string()),
                    None => {
                        writer.send(&error_response(id, "bad_request", "missing \"rule\""));
                        return;
                    }
                },
                "plan" => Op::Plan,
                "sleep" => Op::Sleep(
                    req.get("ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(10)
                        .min(2_000),
                ),
                other => {
                    writer.send(&error_response(
                        id,
                        "bad_request",
                        &format!("unknown op {other:?}"),
                    ));
                    return;
                }
            };
            let budget_ms = req
                .get("budget_ms")
                .and_then(Json::as_u64)
                .unwrap_or(shared.default_budget_ms);
            let job = Job {
                id,
                op,
                conn: Arc::clone(writer),
                enqueued: Instant::now(),
                budget_ms,
            };
            let mut queue = shared.queue.lock().expect("queue poisoned");
            if queue.len() >= shared.queue_depth {
                drop(queue);
                shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                writer.send(&obj([
                    ("id", job.id),
                    ("ok", Json::Bool(false)),
                    ("error", Json::str("overloaded")),
                    ("queue_depth", Json::int(shared.queue_depth as u64)),
                ]));
            } else {
                queue.push_back(job);
                drop(queue);
                shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                shared.queue_cv.notify_one();
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue poisoned");
            }
        };
        let (id, conn) = (job.id.clone(), Arc::clone(&job.conn));
        contain_panic(&id, &conn, || serve_job(job, shared));
    }
}

/// Runs `serve` — one request's whole handling — and answers a panic
/// inside it with a typed `internal` error for that request alone, so the
/// worker thread survives and goes on serving the queue.
fn contain_panic(id: &Json, conn: &ConnWriter, serve: impl FnOnce()) {
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(serve)) {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        conn.send(&error_response(
            id.clone(),
            "internal",
            &format!("request handler panicked: {detail}"),
        ));
    }
}

fn serve_job(job: Job, shared: &Arc<Shared>) {
    let queue_wait = job.enqueued.elapsed();
    // The queue wait counts against the budget: a request that waited
    // out its whole budget is failed here, before burning a worker on an
    // answer the client has already given up on.
    if job.budget_ms > 0 && queue_wait >= Duration::from_millis(job.budget_ms) {
        shared.stats.deadline.fetch_add(1, Ordering::Relaxed);
        job.conn.send(&obj([
            ("id", job.id),
            ("ok", Json::Bool(false)),
            ("error", Json::str("deadline_exceeded")),
            ("queue_us", Json::int(queue_wait.as_micros() as u64)),
        ]));
        return;
    }
    let Some(pinned) = shared.hub.load() else {
        job.conn.send(&error_response(
            job.id,
            "query_error",
            "no snapshot published yet",
        ));
        return;
    };
    let started = Instant::now();
    let outcome = eval_op(&job, &pinned, shared, queue_wait);
    let eval_us = started.elapsed().as_micros() as u64;
    match outcome {
        Ok(mut fields) => {
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            let mut head = vec![
                ("id".to_string(), job.id),
                ("ok".to_string(), Json::Bool(true)),
                ("epoch".to_string(), Json::int(pinned.epoch())),
                (
                    "queue_us".to_string(),
                    Json::int(queue_wait.as_micros() as u64),
                ),
                ("eval_us".to_string(), Json::int(eval_us)),
            ];
            if let Json::Obj(rest) = &mut fields {
                head.append(rest);
            }
            job.conn.send(&Json::Obj(head));
        }
        Err((kind, detail)) => {
            if kind == "deadline_exceeded" {
                shared.stats.deadline.fetch_add(1, Ordering::Relaxed);
            }
            let mut resp = error_response(job.id, kind, &detail);
            if let Json::Obj(pairs) = &mut resp {
                pairs.push(("epoch".into(), Json::int(pinned.epoch())));
                pairs.push(("queue_us".into(), Json::int(queue_wait.as_micros() as u64)));
            }
            job.conn.send(&resp);
        }
    }
}

type OpOutcome = Result<Json, (&'static str, String)>;

fn eval_op(
    job: &Job,
    pinned: &PinnedSnapshot,
    shared: &Arc<Shared>,
    queue_wait: Duration,
) -> OpOutcome {
    match &job.op {
        Op::Ping => Ok(obj([("op", Json::str("ping"))])),
        Op::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(*ms));
            Ok(obj([("op", Json::str("sleep")), ("ms", Json::int(*ms))]))
        }
        Op::QueryFl(pattern) => {
            let rows = pinned
                .query_fl_rendered(pattern)
                .map_err(|e| ("query_error", e.to_string()))?;
            Ok(obj([
                ("op", Json::str("query_fl")),
                ("row_count", Json::int(rows.len() as u64)),
                ("rows", render_rows(&rows)),
            ]))
        }
        Op::Answer(rule) => {
            // Per-request cancellation: a private token (never the
            // snapshot's shared one) under watchdog control for whatever
            // budget remains after the queue wait.
            let token = CancelToken::new();
            let opts = EvalOptions {
                cancel: Some(token.clone()),
                ..pinned.eval_options().clone()
            };
            let _watch = (job.budget_ms > 0).then(|| {
                let remaining = Duration::from_millis(job.budget_ms).saturating_sub(queue_wait);
                shared
                    .watchlist
                    .register(Instant::now() + remaining, token.clone())
            });
            let result = pinned.answer_with(rule, &opts);
            let answer = match result {
                Ok(a) => a,
                Err(e) if token.is_cancelled() => {
                    return Err(("deadline_exceeded", e.to_string()));
                }
                Err(e) => return Err(("query_error", e.to_string())),
            };
            Ok(obj([
                ("op", Json::str("answer")),
                ("row_count", Json::int(answer.rows.len() as u64)),
                ("rows", render_rows(&answer.rows)),
                (
                    "eval",
                    obj([
                        ("iterations", Json::int(answer.stats.iterations as u64)),
                        ("derived", Json::int(answer.stats.derived as u64)),
                        ("applications", Json::int(answer.stats.applications as u64)),
                        ("index_hits", Json::int(answer.stats.index_hits as u64)),
                        ("magic_fired", Json::Bool(answer.magic_fired)),
                        ("magic_declined", Json::Bool(answer.magic_declined)),
                        ("seeded", Json::Bool(answer.seeded)),
                        ("skipped_strata", Json::int(answer.skipped_strata as u64)),
                        ("novel_facts", Json::int(answer.novel_facts as u64)),
                    ]),
                ),
            ]))
        }
        Op::Plan => {
            let trace = pinned
                .run_section5(&shared.schema, &shared.fetched)
                .map_err(|e| ("query_error", e.to_string()))?;
            Ok(obj([
                ("op", Json::str("plan")),
                (
                    "root",
                    trace.root.clone().map(Json::Str).unwrap_or(Json::Null),
                ),
                (
                    "distribution_rows",
                    Json::int(trace.distribution.len() as u64),
                ),
                (
                    "selected_sources",
                    Json::int(trace.selected_sources.len() as u64),
                ),
                ("report", Json::str(trace.report.summary_line())),
            ]))
        }
    }
}

fn render_rows(rows: &[Vec<String>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(Json::str).collect()))
            .collect(),
    )
}

fn writer_loop(
    mut mediator: Mediator,
    seed: u64,
    rx: mpsc::Receiver<WriteCmd>,
    shared: &Arc<Shared>,
) {
    let mut batch = 1_000; // disjoint from any bench batches
    loop {
        match rx.recv() {
            Ok(WriteCmd::Publish { id, rows, conn }) => {
                let started = Instant::now();
                batch += 1;
                let update = ncmir_update_rows(seed, batch, rows);
                let loaded = update.len();
                let mut failed = None;
                for row in &update {
                    if let Err(e) = mediator.load_row("NCMIR", "protein_amount", row) {
                        failed = Some(e.to_string());
                        break;
                    }
                }
                let result = match failed {
                    Some(detail) => Err(detail),
                    None => mediator.publish().map(|_| ()).map_err(|e| e.to_string()),
                };
                match result {
                    Ok(()) => {
                        shared.stats.publishes.fetch_add(1, Ordering::Relaxed);
                        conn.send(&obj([
                            ("id", id),
                            ("ok", Json::Bool(true)),
                            ("op", Json::str("publish")),
                            ("loaded", Json::int(loaded as u64)),
                            ("epoch", Json::int(shared.hub.epoch())),
                            (
                                "publish_us",
                                Json::int(started.elapsed().as_micros() as u64),
                            ),
                        ]));
                    }
                    Err(detail) => conn.send(&error_response(id, "publish_error", &detail)),
                }
            }
            Ok(WriteCmd::Stop) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A connected socket pair: the server-side writer and a line reader
    /// on the client side.
    fn socket_pair() -> (ConnWriter, BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // A response that never comes fails the test instead of hanging it.
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (server, _) = listener.accept().unwrap();
        (
            ConnWriter {
                stream: Mutex::new(server),
            },
            BufReader::new(client),
        )
    }

    fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    }

    /// A panicking request gets a typed `internal` error of its own, and
    /// the worker that ran it goes on serving the next requests.
    #[test]
    fn a_panicking_request_fails_alone_and_the_worker_keeps_serving() {
        let (conn, mut client) = socket_pair();
        let conn = Arc::new(conn);
        let (tx, rx) = mpsc::channel::<(u64, bool)>();
        let worker = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || {
                for (id, fail) in rx {
                    contain_panic(&Json::int(id), &conn, || {
                        assert!(!fail, "injected failure in request {id}");
                        conn.send(&obj([("id", Json::int(id)), ("ok", Json::Bool(true))]));
                    });
                }
            })
        };
        for (id, fail) in [(1, false), (2, true), (3, false), (4, true), (5, false)] {
            tx.send((id, fail)).unwrap();
            let resp = read_json(&mut client);
            assert_eq!(resp.get("id").and_then(Json::as_u64), Some(id));
            if fail {
                assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
                assert_eq!(resp.get("error").and_then(Json::as_str), Some("internal"));
                let detail = resp.get("detail").and_then(Json::as_str).unwrap();
                assert!(detail.contains("injected failure"), "{detail}");
            } else {
                assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            }
        }
        drop(tx);
        worker.join().expect("the worker survived every panic");
    }
}
