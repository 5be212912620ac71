//! `federated_answer`: one in-process caller issuing `Mediator::answer`
//! in a closed loop against the §5 scenario widened to 32
//! `protein_amount` sources, each behind a seeded delay with a slow
//! tail. No server: the fetch plane and row apply do the work.
//!
//! The same run then times the other user operations in this deployment
//! shape — `query_fl` and the warm §5 plan on the published snapshot,
//! and `load_row` + `publish` on the mediator — so that every
//! end-to-end metric has a value on every workload.

use crate::gen::{
    delay_laws, pattern_deck, scenario_seed, server_batch, AnswerGen, DelayLaw, PATTERNS,
    PUBLISH_ROWS,
};
use crate::probe::{
    hub_load_us, ms_since, setup_probe, snapshot_probe, warm_plan_fetch, FederationProbe,
    WriteProbe,
};
use crate::report::{peak_rss_mb, ratio, rows_hash, Outcome, Samples, Steal};
use crate::serve::{MOST_SEGMENTS, SEGMENTS};
use crate::stats::{median, summarize, Gate};
use crate::trace::Tracer;
use kind_core::{
    Anchor, Capability, Mediator, NeuroSchema, ObjectRow, QueryTemplate, Section5Fetch,
    SourceError, SourceQuery, Submission, Wrapper,
};
use kind_sources::{
    anatom_wrapper, ncmir_update_rows, ncmir_wrapper, noise_protein_wrapper, scenario_domain_map,
    senselab_wrapper, synapse_wrapper, ScenarioParams,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Irrelevant protein sources added to the §5 scenario: with NCMIR that
/// makes 32 `protein_amount` sources.
pub const NOISE_SOURCES: usize = 31;
/// Latency limit for the federated answer tail (`max_qps_at_slo`).
pub const FED_SLO_MS: f64 = 500.0;
/// `query_fl` scans and warm plans run after each answer.
pub const COMPANION_PER_ANSWER: usize = 5;
/// One publish on the twin per this many answers.
const PUBLISH_EVERY: usize = 3;
/// Set-ups timed per run for `setup_s`.
pub const SETUP_REPS: usize = 15;

/// What the delay decorators did during one fetch round.
#[derive(Debug, Default)]
pub struct FetchLog {
    slept_us: AtomicU64,
    window: Mutex<(Option<Instant>, Option<Instant>)>,
}

impl FetchLog {
    fn begin(&self, t: Instant) {
        let mut w = self.window.lock().expect("fetch log poisoned");
        w.0 = Some(w.0.map_or(t, |s| s.min(t)));
    }

    fn end(&self, t: Instant) {
        let mut w = self.window.lock().expect("fetch log poisoned");
        w.1 = Some(w.1.map_or(t, |e| e.max(t)));
    }

    /// Takes and resets `(summed delay, first contact, last reply)`.
    pub fn take(&self) -> (Duration, Option<Instant>, Option<Instant>) {
        let (s, e) = std::mem::take(&mut *self.window.lock().expect("fetch log poisoned"));
        let slept = self.slept_us.swap(0, Ordering::SeqCst);
        (Duration::from_micros(slept), s, e)
    }
}

/// Decorates a source with a seeded wall-clock delay per query, armed
/// only once set-up is done. Declares the delay as a stall, like
/// `kind_bench::LatencyWrapper`, so either fetch transport can overlap it.
pub struct DelayWrapper {
    inner: Arc<dyn Wrapper>,
    law: Mutex<DelayLaw>,
    armed: Arc<AtomicBool>,
    log: Arc<FetchLog>,
}

impl DelayWrapper {
    fn delay(&self) -> Option<Duration> {
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        let d = self.law.lock().expect("delay law poisoned").next_delay();
        self.log.begin(Instant::now());
        self.log
            .slept_us
            .fetch_add(d.as_micros() as u64, Ordering::SeqCst);
        Some(d)
    }

    fn answer(&self, q: &SourceQuery) -> Result<Vec<ObjectRow>, SourceError> {
        let rows = self.inner.query(q);
        if self.armed.load(Ordering::SeqCst) {
            self.log.end(Instant::now());
        }
        rows
    }
}

impl Wrapper for DelayWrapper {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn formalism(&self) -> &str {
        self.inner.formalism()
    }
    fn export_cm(&self) -> kind_xml::Element {
        self.inner.export_cm()
    }
    fn capabilities(&self) -> Vec<Capability> {
        self.inner.capabilities()
    }
    fn templates(&self) -> Vec<QueryTemplate> {
        self.inner.templates()
    }
    fn anchors(&self) -> Vec<Anchor> {
        self.inner.anchors()
    }
    fn dm_contribution(&self) -> String {
        self.inner.dm_contribution()
    }
    fn query(&self, q: &SourceQuery) -> Result<Vec<ObjectRow>, SourceError> {
        if let Some(d) = self.delay() {
            std::thread::sleep(d);
        }
        self.answer(q)
    }
    fn stall_hint(&self) -> Option<Duration> {
        Some(self.law.lock().expect("delay law poisoned").base)
    }
    fn submit(&self, q: &SourceQuery) -> Submission {
        match self.delay() {
            Some(stall) => Submission::Parked { stall, ticket: 0 },
            None => Submission::Ready(self.inner.query(q)),
        }
    }
    fn complete(&self, _ticket: u64, q: &SourceQuery) -> Result<Vec<ObjectRow>, SourceError> {
        self.answer(q)
    }
}

/// Builds the widened scenario (registration only), every source behind
/// a [`DelayWrapper`] driven by `laws` and armed by `armed`. Options are
/// set exactly as `kind_sources::build_scenario` sets them.
pub fn build_wide(
    params: &ScenarioParams,
    laws: &[DelayLaw],
    armed: &Arc<AtomicBool>,
    log: &Arc<FetchLog>,
) -> Mediator {
    let mut m = Mediator::new(scenario_domain_map(), params.mode);
    m.federation_mut().set_fetch_threads(params.fetch_threads);
    m.set_fetch_mode(params.fetch_mode);
    m.set_in_flight_limit(params.in_flight);
    m.set_eval_threads(params.eval_threads);
    m.set_magic_sets(params.magic_sets);
    m.set_query_budget_ms(params.query_budget_ms);
    let seed = params.seed;
    let mut sources: Vec<Arc<dyn Wrapper>> = vec![
        anatom_wrapper(""),
        senselab_wrapper(seed, params.senselab_rows),
        ncmir_wrapper(seed, params.ncmir_rows),
        synapse_wrapper(seed, params.synapse_rows),
    ];
    for k in 0..params.noise_sources {
        sources.push(noise_protein_wrapper(
            &format!("NOISE{k}"),
            seed.wrapping_add(1000 + k as u64),
            params.noise_rows,
        ));
    }
    for (inner, law) in sources.into_iter().zip(laws) {
        let name = inner.name().to_string();
        m.register(Arc::new(DelayWrapper {
            inner,
            law: Mutex::new(law.clone()),
            armed: Arc::clone(armed),
            log: Arc::clone(log),
        }))
        .unwrap_or_else(|e| panic!("{name} registers: {e}"));
    }
    m
}

/// Sources in the widened scenario.
fn source_count() -> usize {
    4 + NOISE_SOURCES
}

/// A set-up: registration, materialisation, the warm-plan fetch and the
/// first publish. Returns the mediator ready to serve.
fn set_up(
    params: &ScenarioParams,
    laws: &[DelayLaw],
    armed: &Arc<AtomicBool>,
    log: &Arc<FetchLog>,
) -> (Mediator, Section5Fetch, Arc<kind_core::SnapshotHub>) {
    let mut m = build_wide(params, laws, armed, log);
    m.materialize_all().expect("widened scenario materializes");
    let fetched = warm_plan_fetch(&mut m);
    let hub = m.hub();
    m.publish_snapshot().expect("first publish");
    (m, fetched, hub)
}

fn render(m: &Mediator, rows: &[Vec<kind_datalog::Term>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|t| m.show(t)).collect())
        .collect();
    out.sort();
    out
}

fn hash_rows(rows: &[Vec<String>]) -> u64 {
    rows_hash(rows.iter().map(|r| r.iter().map(String::as_str)))
}

/// One answered request of the closed loop.
struct Answered {
    rule: String,
    /// The number of its chunk of the window.
    chunk: usize,
    ms: f64,
    rows_hash: u64,
    rows: usize,
    stats: kind_datalog::EvalStats,
    magic_fired: bool,
    slept: Duration,
    fetch_window: Option<Duration>,
}

/// Runs `federated_answer`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let params = ScenarioParams {
        seed: scenario_seed(seed),
        noise_sources: NOISE_SOURCES,
        ..ScenarioParams::default()
    };
    out.note("scenario_seed", params.seed.to_string());
    out.note("sources", source_count().to_string());
    out.note("slo_ms", FED_SLO_MS.to_string());
    let laws = delay_laws(seed, source_count());
    let armed = Arc::new(AtomicBool::new(false));
    let log = Arc::new(FetchLog::default());
    let idle = || {
        (
            Arc::new(AtomicBool::new(false)),
            Arc::new(FetchLog::default()),
        )
    };
    let timed_setup = || {
        let (a, l) = idle();
        let t = Instant::now();
        let s = set_up(&params, &laws, &a, &l);
        (s, t.elapsed().as_secs_f64())
    };

    let t = Instant::now();
    let (mut m, fetched, hub) = set_up(&params, &laws, &armed, &log);
    let mut setup_times = vec![t.elapsed().as_secs_f64()];
    // Publishes go to a twin of the widened scenario, so that the
    // answers (and their zero-delay reference) see one fixed model.
    let ((mut twin, _, _twin_hub), _) = timed_setup();
    let mut writes = WriteProbe::default();

    // Closed loop: answers until the window closes, in SEGMENTS chunks;
    // chunks during which the hypervisor took CPU from the machine are
    // replaced by further chunks (see `Gate`), and one more set-up is
    // timed after each. Between answers the caller also runs a few
    // `query_fl` scans and warm plans on the published snapshot and a
    // publish on the twin, so that every figure samples the whole window.
    let snap = hub.load().expect("published");
    let schema = NeuroSchema::default();
    let reference_plan = snap.run_section5(&schema, &fetched).expect("plan");
    let mut timed: Vec<(usize, &str, f64)> = Vec::new();
    let mut patterns = pattern_deck(seed);
    let traced = Tracer::new(trace);
    armed.store(true, Ordering::SeqCst);
    let window = if trace { 0.4 } else { 0.75 } * seconds;
    let mut answers = AnswerGen::new(seed, false);
    let mut done: Vec<Answered> = Vec::new();
    let mut failed = 0u64;
    let mut companion_ops = 0usize;
    let chunk_s = window / SEGMENTS as f64;
    let mut gate = Gate::new(SEGMENTS, MOST_SEGMENTS);
    let run_steal = Steal::start();
    while gate.more() {
        let chunk = gate.units();
        let steal = Steal::start();
        let chunk_start = Instant::now();
        while chunk_start.elapsed().as_secs_f64() < chunk_s {
            let (_, rule) = answers.next();
            log.take();
            let t = Instant::now();
            let res = m.answer(&rule);
            let ms = ms_since(t);
            let (slept, first, last) = log.take();
            match res {
                Ok(a) => {
                    let rows = render(&m, &a.rows);
                    if !a.report.is_complete() {
                        failed += 1;
                        out.note("degraded_answer", a.report.summary_line());
                    }
                    done.push(Answered {
                        rule,
                        chunk,
                        ms,
                        rows_hash: hash_rows(&rows),
                        rows: rows.len(),
                        stats: a.stats,
                        magic_fired: a.magic_fired,
                        slept,
                        fetch_window: first.zip(last).map(|(f, l)| l.saturating_duration_since(f)),
                    });
                }
                Err(e) => {
                    failed += 1;
                    out.problem(format!("answer failed: {e}"));
                }
            }
            for _ in 0..COMPANION_PER_ANSWER {
                let p = &PATTERNS[patterns.deal()];
                let t = Instant::now();
                let rows = snap.query_fl_rendered(p.text);
                timed.push((chunk, "query_fl", ms_since(t)));
                if rows.map_or(true, |r| r.is_empty()) {
                    failed += 1;
                    out.problem(format!("query_fl {:?} returned nothing", p.text));
                }
                let t = Instant::now();
                let plan = snap.run_section5(&schema, &fetched);
                timed.push((chunk, "plan", ms_since(t)));
                let ok = plan.as_ref().is_ok_and(|p| {
                    p.root.as_deref() == Some("Purkinje_Cell")
                        && p.selected_sources.len() == 1
                        && p.distribution.len() == reference_plan.distribution.len()
                });
                if !ok {
                    failed += 1;
                    out.problem("plan disagrees with the reference");
                }
                companion_ops += 2;
            }
            if done.len().is_multiple_of(PUBLISH_EVERY) {
                let k = writes.publish_ms.len();
                let batch = ncmir_update_rows(params.seed, server_batch(k), PUBLISH_ROWS);
                writes.batch(&mut twin, &batch, &traced, 5_000_000 + k as u64);
                let ms = *writes.publish_ms.last().expect("just published");
                timed.push((chunk, "publish", ms));
            }
        }
        gate.record(steal.share());
        if setup_times.len() < SETUP_REPS {
            setup_times.push(timed_setup().1);
        }
    }
    out.note("steal_share", format!("{:.4}", run_steal.share()));
    let kept = gate.kept();
    out.note(
        "chunks_replaced",
        (gate.units() - kept.iter().filter(|k| **k).count()).to_string(),
    );
    while setup_times.len() < SETUP_REPS {
        setup_times.push(timed_setup().1);
    }
    let peak_threads = m.federation().peak_fetch_threads();

    // Traced pass: the fetch plane timed on each answer's own requests,
    // then the answer, both under spans.
    let probe = trace.then(|| {
        let until = Instant::now() + Duration::from_secs_f64(window);
        FederationProbe::run(&mut m, usize::MAX, seed, false, &traced, Some(until))
    });
    armed.store(false, Ordering::SeqCst);
    let hub_samples = hub_load_us(&hub, &traced, 2000);
    let hit_ratio = trace.then(|| snapshot_probe(&snap, &fetched, seed, &traced, &mut out));
    drop(snap);

    // The workload's own peak, before the oracle builds its reference.
    let peak_rss = peak_rss_mb();

    // Oracle: every answer equals a zero-delay reference from the same seed.
    let ((mut reference, _, _), _) = timed_setup();
    let mut expected: HashMap<String, u64> = HashMap::new();
    let mut wrong = 0u64;
    for a in &done {
        let h = *expected.entry(a.rule.clone()).or_insert_with(|| {
            let r = reference.answer(&a.rule).expect("reference answers");
            hash_rows(&render(&reference, &r.rows))
        });
        if h != a.rows_hash {
            wrong += 1;
        }
    }
    if wrong > 0 {
        out.problem(format!(
            "{wrong} answers disagree with the zero-delay reference"
        ));
    }
    out.attempted = (done.len() + companion_ops + writes.publish_ms.len()) as u64 + failed;
    out.failed = failed + wrong;

    let answer_ms: Vec<f64> = done
        .iter()
        .filter(|a| kept[a.chunk])
        .map(|a| a.ms)
        .collect();
    out.latency("answer", &answer_ms, trace);
    let mut lat = Samples::default();
    for (_, name, v) in timed.iter().filter(|x| kept[x.0]) {
        lat.push(name, *v);
    }
    for op in ["query_fl", "plan", "publish"] {
        out.latency(op, lat.values(op), trace);
    }
    // Answers per second of `Mediator::answer` time: the companion
    // operations, publishes and set-ups between answers do not count.
    let answers_per_s = answer_ms.len() as f64 / (answer_ms.iter().sum::<f64>() / 1e3);
    if !trace {
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("answers_per_s", answers_per_s, "1/s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
        out.correct = out.problems.is_empty();
        return out;
    }
    // The closed loop offers one rate, its own: it is the highest rate
    // within the limit when the answer tail meets it.
    let tail = summarize(&answer_ms).map_or(f64::INFINITY, |s| s.tail);
    let within = tail <= FED_SLO_MS;
    out.metric(
        "max_qps_at_slo",
        if within { answers_per_s } else { 0.0 },
        "1/s",
    );

    // ---- Traced run: per-layer metrics. --------------------------------
    for name in [
        "server.queue_wait_p50_ms",
        "server.queue_wait_p99_ms",
        "server.busy_share",
        "server.shed_ratio",
        "server.deadline_ratio",
        "server.eval_p50_ms.answer",
        "server.eval_p50_ms.query_fl",
        "server.eval_p50_ms.plan",
        "server.publish_apply_p50_ms",
        "server.publish_apply_p99_ms",
        "wire.overhead_p50_ms.answer",
        "wire.overhead_p50_ms.query_fl",
        "wire.overhead_p50_ms.plan",
        "wire.response_bytes_p50.answer",
        "wire.response_bytes_p50.query_fl",
        "wire.response_bytes_p50.plan",
        "hub.stale_epoch_ratio",
        "gen.lag_p99_ms",
        "gen.late_ratio",
        "trace.overhead_p50_ms.query_fl",
        "trace.overhead_p50_ms.plan",
    ] {
        // No server, wire or open-loop generator on this workload's path,
        // and only answers run both untraced and traced.
        out.metric(name, 0.0, unit_of(name));
    }
    out.metric(
        "hub.load_p99_us",
        summarize(&hub_samples).map_or(0.0, |s| s.tail),
        "us",
    );
    let n = done.len() as f64;
    let sum = |f: fn(&Answered) -> f64| done.iter().map(f).sum::<f64>();
    let derived = sum(|a| a.stats.derived as f64);
    out.metric("datalog.derived_per_answer", ratio(derived, n), "count");
    out.metric(
        "datalog.iterations_per_answer",
        ratio(sum(|a| a.stats.iterations as f64), n),
        "count",
    );
    out.metric(
        "datalog.applications_per_answer",
        ratio(sum(|a| a.stats.applications as f64), n),
        "count",
    );
    let hits = sum(|a| a.stats.index_hits as f64);
    out.metric(
        "datalog.index_hit_ratio",
        ratio(hits, hits + sum(|a| a.stats.index_misses as f64)),
        "ratio",
    );
    out.metric(
        "datalog.useful_ratio",
        ratio(sum(|a| a.rows as f64), derived),
        "ratio",
    );
    out.metric(
        "datalog.magic_fired_ratio",
        ratio(sum(|a| a.magic_fired as u8 as f64), n),
        "ratio",
    );
    // `AnswerSet` carries no declined flag: take it from the snapshot
    // probe's answers on the same scenario.
    out.metric(
        "datalog.magic_declined_ratio",
        hit_ratio.map_or(0.0, |(_, declined)| declined),
        "ratio",
    );
    let slept: f64 = done.iter().map(|a| a.slept.as_secs_f64()).sum();
    let windows: f64 = done
        .iter()
        .filter_map(|a| a.fetch_window.map(|w| w.as_secs_f64()))
        .sum();
    out.metric("federation.overlap", ratio(slept, windows), "ratio");
    let probe = probe.expect("traced pass ran");
    probe.report(&mut out);
    out.metric("federation.peak_threads", peak_threads as f64, "count");
    writes.report(&mut twin, &mut out);
    let (fresh_armed, fresh_log) = idle();
    setup_probe(
        SETUP_REPS,
        &traced,
        || build_wide(&params, &laws, &fresh_armed, &fresh_log),
        &mut out,
    );
    out.metric(
        "failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    out.metric(
        "trace.overhead_p50_ms.answer",
        median(&probe.answer_ms) - median(&answer_ms),
        "ms",
    );
    let spans = traced.spans();
    crate::trace::report_layers(&spans, &mut out);
    crate::trace::write_spans(&spans, "federated_answer", seed);
    out.correct = out.problems.is_empty();
    out
}

fn unit_of(name: &str) -> &'static str {
    if name.contains("_ms") {
        "ms"
    } else if name.contains("bytes") {
        "bytes"
    } else {
        "ratio"
    }
}
