//! In-process layer probes shared by the workloads: each times calls
//! into one layer's public functions from outside, under a span when
//! tracing is on.

use crate::gen::{AnswerGen, PATTERNS, TEMPLATES};
use crate::report::{mean, ratio, Outcome};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use kind_core::{
    FetchRequest, Mediator, NeuroSchema, QuerySnapshot, Section5Fetch, Section5Query, SnapshotHub,
};
use std::collections::HashSet;
use std::time::Instant;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The §5 query every `plan` replays (the server's own).
pub fn section5_query() -> Section5Query {
    Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    }
}

/// Runs the §5 fetch phase on `m` (steps 1–3), as the server does once
/// at start-up so that `plan` replays warm.
pub fn warm_plan_fetch(m: &mut Mediator) -> Section5Fetch {
    let schema = NeuroSchema::default();
    let (federation, knowledge) = m.fetch_eval_planes();
    kind_core::section5_fetch(federation, knowledge, &schema, &section5_query(), true)
        .expect("§5 fetch phase runs")
}

/// The `setup.*` breakdown: registration, materialisation and first
/// publish, each the median of `reps` in-process set-ups built by
/// `build` (which registers every source).
pub fn setup_probe(reps: usize, tracer: &Tracer, build: impl Fn() -> Mediator, out: &mut Outcome) {
    let (mut reg, mut mat, mut publ) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let req = 1_000_000 + rep as u64;
        let t = Instant::now();
        let mut m = tracer.span(req, "setup.Mediator::register", None, &build);
        reg.push(ms_since(t));
        let t = Instant::now();
        tracer.span(req, "setup.Mediator::materialize_all", None, || {
            m.materialize_all().expect("materialize")
        });
        mat.push(ms_since(t));
        let hub = m.hub();
        let t = Instant::now();
        tracer.span(req, "setup.Mediator::publish", None, || {
            m.publish_snapshot().expect("first publish")
        });
        publ.push(ms_since(t));
        drop(hub);
    }
    out.metric("setup.register_ms", median(&reg), "ms");
    out.metric("setup.materialize_ms", median(&mat), "ms");
    out.metric("setup.first_publish_ms", median(&publ), "ms");
}

/// `snapshot.*`: `QuerySnapshot::answer_with` per template,
/// `query_fl_rendered` per pattern and `run_section5`, timed on `snap`.
/// Returns the answers' index hit ratio and magic-declined share.
pub fn snapshot_probe(
    snap: &QuerySnapshot,
    fetched: &Section5Fetch,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> (f64, f64) {
    let mut answers = AnswerGen::new(seed, true);
    let (mut hits, mut misses, mut declined, mut n) = (0usize, 0usize, 0usize, 0usize);
    for (t, template) in TEMPLATES.iter().enumerate() {
        let mut lat = Vec::new();
        for i in 0..12 {
            let rule = answers.instantiate(t);
            let start = Instant::now();
            let a = tracer
                .span(
                    2_000_000 + i,
                    "snapshot.QuerySnapshot::answer_with",
                    None,
                    || snap.answer_with(&rule, snap.eval_options()),
                )
                .expect("probe answer evaluates");
            lat.push(ms_since(start));
            hits += a.stats.index_hits;
            misses += a.stats.index_misses;
            declined += a.magic_declined as usize;
            n += 1;
        }
        out.metric(
            &format!("snapshot.answer_with_p50_ms.{}", template.name),
            median(&lat),
            "ms",
        );
    }
    for p in PATTERNS {
        let mut lat = Vec::new();
        for i in 0..40 {
            let start = Instant::now();
            tracer
                .span(
                    2_100_000 + i,
                    "snapshot.QuerySnapshot::query_fl_rendered",
                    None,
                    || snap.query_fl_rendered(p.text),
                )
                .expect("probe pattern runs");
            lat.push(ms_since(start));
        }
        out.metric(
            &format!("snapshot.query_fl_p50_ms.{}", p.name),
            median(&lat),
            "ms",
        );
    }
    let schema = NeuroSchema::default();
    let mut lat = Vec::new();
    for i in 0..200 {
        let start = Instant::now();
        tracer
            .span(
                2_200_000 + i,
                "plan.QuerySnapshot::run_section5",
                None,
                || snap.run_section5(&schema, fetched),
            )
            .expect("probe plan runs");
        lat.push(ms_since(start));
    }
    out.metric("snapshot.run_section5_p50_ms", median(&lat), "ms");
    (
        ratio(hits as f64, (hits + misses) as f64),
        ratio(declined as f64, n as f64),
    )
}

/// `hub.load_p99_us` from samples taken while the workload ran, or from
/// a quiet hub when the workload had none.
pub fn hub_load_us(hub: &SnapshotHub, tracer: &Tracer, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = Instant::now();
            tracer.span(2_300_000 + i as u64, "hub.SnapshotHub::load", None, || {
                hub.load()
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The fetch requests `Mediator::answer` issues for a rule scanning
/// `classes`: one scan per exporting source.
pub fn answer_requests(m: &Mediator, classes: &[&str]) -> Vec<FetchRequest> {
    classes
        .iter()
        .flat_map(|c| {
            m.sources_exporting(c)
                .into_iter()
                .map(move |s| FetchRequest::scan(s, *c))
        })
        .collect()
}

/// Per-answer observations of the fetch plane and the query layer.
#[derive(Debug, Default)]
pub struct FederationProbe {
    /// `Federation::fetch_parallel` wall time on the answer's own
    /// requests, ms.
    pub fetch_ms: Vec<f64>,
    /// `Mediator::answer` wall time, ms.
    pub answer_ms: Vec<f64>,
    /// Rows the fetch returned.
    pub rows_fetched: Vec<f64>,
    /// Fetched rows whose object was already in the published model.
    pub refetched: Vec<f64>,
    /// Physical wrapper attempts, per answer.
    pub attempts: Vec<f64>,
    /// Attempts beyond the first fetch, per answer.
    pub retries: Vec<f64>,
    /// Hedged backups, per answer.
    pub hedged: Vec<f64>,
    /// Degraded sources over contacted sources, per answer.
    pub failed_sources: Vec<f64>,
    /// Highest fetch-plane thread count seen.
    pub peak_threads: usize,
}

impl FederationProbe {
    /// Runs `n` answers on `m`, each preceded by a timed
    /// `fetch_parallel` of the same requests.
    pub fn run(
        m: &mut Mediator,
        n: usize,
        seed: u64,
        zipf: bool,
        tracer: &Tracer,
        until: Option<Instant>,
    ) -> FederationProbe {
        let known = published_objects(m);
        let mut probe = FederationProbe::default();
        let mut answers = AnswerGen::new(seed ^ 0x5eed, zipf);
        m.federation().reset_peak_fetch_threads();
        for i in 0..n {
            if until.is_some_and(|u| Instant::now() >= u) {
                break;
            }
            let req = 3_000_000 + i as u64;
            let (t, rule) = answers.next();
            let requests = answer_requests(m, TEMPLATES[t].classes);
            let start = Instant::now();
            let set = tracer
                .span(req, "federation.Federation::fetch_parallel", None, || {
                    m.federation_mut().fetch_parallel(&requests)
                })
                .expect("probe fetch runs");
            probe.fetch_ms.push(ms_since(start));
            let mut refetched = 0usize;
            for b in &set.batches {
                for r in &b.rows {
                    if known.contains(&format!("{}.{}", b.source, r.id)) {
                        refetched += 1;
                    }
                }
            }
            probe.rows_fetched.push(set.total_rows() as f64);
            probe.refetched.push(refetched as f64);
            let start = Instant::now();
            let a = tracer
                .span(req, "query.Mediator::answer", None, || m.answer(&rule))
                .expect("probe answer runs");
            probe.answer_ms.push(ms_since(start));
            let (att, fet, hed) = a.report.sources.values().fold((0, 0, 0), |acc, s| {
                (acc.0 + s.attempts, acc.1 + s.fetches, acc.2 + s.hedged)
            });
            probe.attempts.push(att as f64);
            probe.retries.push(att.saturating_sub(fet) as f64);
            probe.hedged.push(hed as f64);
            probe.failed_sources.push(ratio(
                a.report.degraded_sources().len() as f64,
                a.report.sources.len() as f64,
            ));
        }
        probe.peak_threads = m.federation().peak_fetch_threads();
        probe
    }

    /// Writes the `federation.*` and `query.*` per-layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        match summarize(&self.fetch_ms) {
            Some(f) => {
                out.metric("federation.fetch_p50_ms", f.p50, "ms");
                out.metric("federation.fetch_p99_ms", f.tail, "ms");
                out.note(
                    "samples.federation.fetch",
                    format!("n={} tail=p{:.2}", f.n, f.tail_pct),
                );
            }
            None => out.problem("too few federation probe samples"),
        }
        let apply_eval: Vec<f64> = self
            .answer_ms
            .iter()
            .zip(&self.fetch_ms)
            .map(|(a, f)| a - f)
            .collect();
        out.metric("query.apply_eval_p50_ms", median(&apply_eval), "ms");
        out.metric(
            "query.rows_fetched_per_answer",
            mean(&self.rows_fetched),
            "count",
        );
        out.metric(
            "query.refetched_ratio",
            ratio(self.refetched.iter().sum(), self.rows_fetched.iter().sum()),
            "ratio",
        );
        out.metric(
            "federation.attempts_per_answer",
            mean(&self.attempts),
            "count",
        );
        out.metric(
            "federation.retries_per_answer",
            mean(&self.retries),
            "count",
        );
        out.metric("federation.hedged_per_answer", mean(&self.hedged), "count");
        out.metric(
            "federation.failed_sources_ratio",
            mean(&self.failed_sources),
            "ratio",
        );
        out.metric("federation.peak_threads", self.peak_threads as f64, "count");
    }
}

/// Object ids (`SOURCE.row`) of every instance in `m`'s published model.
fn published_objects(m: &mut Mediator) -> HashSet<String> {
    let snap = m.snapshot().expect("snapshot of the published model");
    snap.query_fl_rendered("X : Y")
        .expect("instance scan")
        .into_iter()
        .filter_map(|row| row.into_iter().next())
        .collect()
}

/// `mediator.*` from an in-process replay of publish batches: each
/// batch's rows through `Mediator::load_row`, then `Mediator::publish`.
#[derive(Debug, Default)]
pub struct WriteProbe {
    /// `load_row` wall time per row, µs.
    pub load_row_us: Vec<f64>,
    /// `publish` wall time per batch, ms.
    pub publish_ms: Vec<f64>,
    /// Publishes the write plane applied incrementally.
    pub delta_applied: usize,
    /// Strata reused wholesale, per publish.
    pub reused_strata: Vec<f64>,
}

impl WriteProbe {
    /// Loads and publishes one batch on `m`, recording its timings.
    pub fn batch(
        &mut self,
        m: &mut Mediator,
        rows: &[kind_core::ObjectRow],
        tracer: &Tracer,
        req: u64,
    ) {
        for row in rows {
            let t = Instant::now();
            tracer
                .span(req, "mediator.Mediator::load_row", None, || {
                    m.load_row("NCMIR", "protein_amount", row)
                })
                .expect("update row loads");
            self.load_row_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        let model = tracer
            .span(req, "mediator.Mediator::publish", None, || m.publish())
            .expect("publish");
        self.publish_ms.push(ms_since(t));
        self.delta_applied += model.profile.delta_applied as usize;
        self.reused_strata
            .push(model.profile.delta_reused_strata as f64);
    }

    /// Writes the `mediator.*` per-layer metrics.
    pub fn report(&self, m: &mut Mediator, out: &mut Outcome) {
        out.metric("mediator.load_row_p50_us", median(&self.load_row_us), "us");
        match summarize(&self.publish_ms) {
            Some(p) => {
                out.metric("mediator.publish_p50_ms", p.p50, "ms");
                out.metric("mediator.publish_p99_ms", p.tail, "ms");
                out.note(
                    "samples.mediator.publish",
                    format!("n={} tail=p{:.2}", p.n, p.tail_pct),
                );
            }
            None => out.problem("too few replayed publishes"),
        }
        out.metric(
            "mediator.delta_applied_ratio",
            ratio(self.delta_applied as f64, self.publish_ms.len() as f64),
            "ratio",
        );
        out.metric(
            "mediator.delta_reused_strata",
            mean(&self.reused_strata),
            "count",
        );
        let facts = m.publish().map_or(0, |model| model.facts.len());
        out.metric("mediator.model_facts_end", facts as f64, "count");
    }
}
