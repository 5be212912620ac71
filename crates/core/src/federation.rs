//! The **federation layer**: registered sources and everything about
//! *talking to them* — wrappers, per-source resilience policies, circuit
//! breakers, the shared clock, fetch statistics, and the degradation
//! report of the operation in flight.
//!
//! This is the bottom layer of the mediator split (see DESIGN.md):
//! [`Federation`] owns the wrapper boundary, [`crate::Knowledge`] owns the
//! semantic state (domain map, index, CMs, views), and
//! [`crate::Mediator`] composes the two with the eval/cache pipeline.
//!
//! All retry/breaker/quarantine semantics live in **one** place — the
//! private `execute_fetch` body shared by the serial path
//! ([`Federation::fetch`]) and every worker of the parallel fetch plane
//! ([`Federation::fetch_parallel`]) — so the degradable entry points
//! ([`crate::Mediator::fetch`], [`crate::Mediator::fetch_degraded`],
//! [`crate::Mediator::materialize_all`], [`crate::Mediator::answer`], the
//! §5 plan) cannot drift apart.
//!
//! ## The fetch plane
//!
//! [`Federation::fetch_parallel`] is the entry point of the **fetch
//! phase** of the two-phase pipeline (see DESIGN.md): a caller describes
//! everything a plan needs from sources as a list of [`FetchRequest`]s,
//! the federation executes them with one worker job per source on a
//! scoped thread pool (`std::thread::scope`, no extra deps), and the
//! results come back as a [`FetchSet`] whose batches are in request
//! order regardless of completion order. Determinism comes from the
//! **merge order**, not from serial fetching: each source's requests run
//! serially inside its own job (so per-source breaker/retry/fault
//! schedules are identical to a serial run), and rows, statistics, and
//! report entries are folded job-by-job in first-appearance (i.e.
//! registration) order after every worker has joined.

use crate::error::{MediatorError, Result};
use crate::fault::{
    AnswerReport, BreakerState, CircuitBreaker, Clock, QuarantinedRow, QueryBudget, SourceError,
    SourceOutcome, SourcePolicy, VirtualClock,
};
use crate::wrapper::{Capability, ObjectRow, SourceQuery, Wrapper};
use kind_datalog::CancelToken;
use kind_dm::SourceId;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Bookkeeping for one registered source.
pub struct RegisteredSource {
    /// The mediator-assigned id.
    pub id: SourceId,
    /// The source name.
    pub name: String,
    /// Declared capabilities.
    pub caps: Vec<Capability>,
    /// The wrapper (shared, thread-safe).
    pub wrapper: Arc<dyn Wrapper>,
    /// Classes this source exports rows for (from capabilities).
    pub classes: Vec<String>,
    /// Attributes declared per class in the translated CM (`method`
    /// schema decls). An empty/absent set means the CM is schema-less
    /// for that class and attribute names are not checked.
    pub declared_attrs: HashMap<String, BTreeSet<String>>,
    /// Anchor attributes every row of a class must carry (its `ByAttr`
    /// anchors).
    pub anchor_attrs: HashMap<String, Vec<String>>,
}

impl RegisteredSource {
    /// Validates a shipped row against this source's exported CM:
    /// the class must be exported, the object id non-empty, every
    /// `ByAttr` anchor attribute present, and (when the CM declares a
    /// schema for the class) every attribute declared.
    pub fn validate_row(&self, class: &str, row: &ObjectRow) -> std::result::Result<(), String> {
        if !self.classes.iter().any(|c| c == class) {
            return Err(format!(
                "class `{class}` is not exported by `{}`",
                self.name
            ));
        }
        if row.id.trim().is_empty() {
            return Err("empty object id".into());
        }
        if let Some(anchor_attrs) = self.anchor_attrs.get(class) {
            for attr in anchor_attrs {
                if row.get(attr).is_none() {
                    return Err(format!("missing anchor attribute `{attr}`"));
                }
            }
        }
        if let Some(declared) = self.declared_attrs.get(class) {
            if !declared.is_empty() {
                for (attr, _) in &row.attrs {
                    if !declared.contains(attr) {
                        return Err(format!(
                            "attribute `{attr}` is not declared in the exported CM"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for RegisteredSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredSource")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("classes", &self.classes)
            .finish()
    }
}

/// Cumulative query-processing statistics (for the benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediatorStats {
    /// Wrapper queries issued (every physical attempt counts).
    pub source_queries: usize,
    /// Rows shipped from wrappers to the mediator.
    pub rows_shipped: usize,
    /// Rows surviving mediator-side residual filters.
    pub rows_kept: usize,
    /// Retry attempts beyond the first, across all fetches.
    pub retries: usize,
    /// Fetches that ultimately failed or were skipped by a breaker.
    pub failures: usize,
}

impl MediatorStats {
    /// Folds another counter set into this one (the parallel fetch plane
    /// sums per-worker deltas into the federation's totals).
    pub fn merge(&mut self, other: &MediatorStats) {
        self.source_queries += other.source_queries;
        self.rows_shipped += other.rows_shipped;
        self.rows_kept += other.rows_kept;
        self.retries += other.retries;
        self.failures += other.failures;
    }
}

/// One unit of the fetch phase: a (possibly selection-pushing) query
/// against one named source. Plans describe their source needs as a list
/// of these and hand them to [`Federation::fetch_parallel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRequest {
    /// The source to contact.
    pub source: String,
    /// The capability-aware query to run against it.
    pub query: SourceQuery,
}

impl FetchRequest {
    /// A request wrapping an explicit query.
    pub fn new(source: impl Into<String>, query: SourceQuery) -> Self {
        FetchRequest {
            source: source.into(),
            query,
        }
    }

    /// A full-class scan request.
    pub fn scan(source: impl Into<String>, class: impl Into<String>) -> Self {
        FetchRequest {
            source: source.into(),
            query: SourceQuery::scan(class),
        }
    }
}

/// The rows one [`FetchRequest`] produced (empty when the source failed
/// or its breaker was open — the [`FetchSet`]'s report says which).
#[derive(Debug, Clone)]
pub struct FetchBatch {
    /// The contacted source.
    pub source: String,
    /// The query that was run.
    pub query: SourceQuery,
    /// The surviving rows (validated, residual-filtered), in wrapper
    /// ship order.
    pub rows: Vec<ObjectRow>,
}

/// Everything a fetch phase produced: one [`FetchBatch`] per request (in
/// request order), plus the degradation report and wrapper-traffic
/// statistics of exactly this operation. A `FetchSet` is self-contained:
/// the **evaluate phase** consumes it with no federation access at all,
/// which is what lets warm plans run read-only against a
/// [`crate::QuerySnapshot`].
#[derive(Debug, Clone, Default)]
pub struct FetchSet {
    /// One batch per submitted request, in submission order.
    pub batches: Vec<FetchBatch>,
    /// Per-source outcomes, quarantined rows, completeness — the delta
    /// for this operation only.
    pub report: AnswerReport,
    /// Wrapper-traffic counters — the delta for this operation only.
    pub stats: MediatorStats,
}

impl FetchSet {
    /// Total surviving rows across all batches.
    pub fn total_rows(&self) -> usize {
        self.batches.iter().map(|b| b.rows.len()).sum()
    }

    /// Whether every request got exactly what a fault-free run would
    /// have produced (no failures, no breaker skips, no quarantines).
    pub fn is_complete(&self) -> bool {
        self.report.is_complete()
    }

    /// Appends another fetch set (a later round of the same plan):
    /// batches are concatenated, reports and statistics folded.
    pub fn absorb(&mut self, other: FetchSet) {
        self.batches.extend(other.batches);
        self.report.absorb(&other.report);
        self.stats.merge(&other.stats);
    }
}

/// The outcome of one guarded (retry/breaker-aware) wrapper query.
enum GuardedFetch {
    /// Rows arrived, possibly after retries.
    Rows {
        /// The shipped rows.
        rows: Vec<ObjectRow>,
        /// Physical attempts made (1 = no retry).
        attempts: u32,
    },
    /// The retry budget was exhausted (or the breaker opened mid-retry).
    Failed {
        /// Physical attempts made.
        attempts: u32,
        /// The final error.
        error: SourceError,
    },
    /// The breaker was open: the source was never contacted.
    Skipped,
    /// The query's cancellation token fired before (or between) attempts.
    Cancelled {
        /// Physical attempts made before the cancellation was seen.
        attempts: u32,
    },
    /// The job's budget slice ran out: either before this fetch started
    /// (no contact at all) or while the source was answering (rows
    /// dropped — they arrived past the deadline).
    DeadlineExceeded {
        /// Physical attempts made.
        attempts: u32,
    },
}

/// The per-job deadline context of one fetch job: the job's slice of the
/// query budget, the job's own self-charged spend, and the query-wide
/// cancellation token. Every job owns exactly one — never shared — so
/// deadline and hedging decisions depend only on the job's own work,
/// never on how concurrent jobs were scheduled. That is what keeps
/// reports bit-identical at every `fetch_threads` setting.
struct JobBudget {
    /// The job's slice of the query budget (`None` = no deadline).
    slice_ms: Option<u64>,
    /// Virtual milliseconds this job has charged itself so far: its own
    /// wrappers' [`Wrapper::virtual_cost_ms`] deltas plus its own retry
    /// backoffs — never raw clock reads, which siblings pollute.
    spent_ms: u64,
    /// The query-wide cancellation token, checked before every attempt.
    cancel: Option<CancelToken>,
    /// Whether exhausting this slice fires the query-wide token (the
    /// opt-in sibling-cancellation mode).
    cancel_on_exhaust: bool,
    /// Set once the job has quarantined rows from its source: a source
    /// that ships garbage is never hedged (a backup attempt would ship
    /// more garbage, not better data).
    tainted: bool,
}

impl JobBudget {
    /// Fires the query-wide token if this job's exhaustion should cancel
    /// its siblings.
    fn note_exhausted(&self) {
        if self.cancel_on_exhaust {
            if let Some(t) = &self.cancel {
                t.cancel();
            }
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    fn exhausted(&self) -> bool {
        self.slice_ms.is_some_and(|s| self.spent_ms >= s)
    }

    fn charge(&mut self, ms: u64) {
        self.spent_ms = self.spent_ms.saturating_add(ms);
    }
}

/// The full outcome of one guarded fetch against one source, before any
/// report folding: surviving rows, quarantine diagnostics, and the
/// outcome classification. Produced by [`execute_fetch`] and folded into
/// the report by the serial path or by the parallel merge.
struct FetchCompletion {
    /// Validated, residual-filtered rows (empty on failure/skip).
    rows: Vec<ObjectRow>,
    /// Rows rejected by CM validation.
    quarantined: Vec<QuarantinedRow>,
    /// Physical wrapper attempts (0 when the breaker skipped).
    attempts: usize,
    /// Backup attempts launched because the primary was slow.
    hedged: usize,
    /// Attempts cancelled: hedge losers plus abandoned fetches.
    cancelled: usize,
    /// The report-level classification.
    outcome: SourceOutcome,
    /// The terminal error, for strict callers ([`Federation::fetch`]).
    error: Option<SourceError>,
}

/// Runs one wrapper query under `policy` — breaker check, per-attempt
/// virtual-time budget, bounded retries with deterministic backoff,
/// hedging, CM quarantine, residual selection filters — updating
/// `breaker` and `stats` as it goes.
///
/// This is the **single** guarded-fetch body: the serial path
/// ([`Federation::fetch`]) and every worker of the parallel fetch plane
/// ([`Federation::fetch_parallel`]) execute exactly this code, so
/// retry/breaker/quarantine/hedge semantics cannot drift between the two.
fn execute_fetch(
    src: &RegisteredSource,
    policy: &SourcePolicy,
    breaker: &mut CircuitBreaker,
    clock: &Arc<dyn Clock>,
    stats: &mut MediatorStats,
    q: &SourceQuery,
    budget: &mut JobBudget,
) -> FetchCompletion {
    let mut attempts = 0u32;
    let mut hedged = 0usize;
    let mut cancelled = 0usize;
    let mut last_error: Option<SourceError> = None;
    let guarded = loop {
        // The deadline plane runs before any contact: a fired
        // cancellation token or an exhausted slice abandons the fetch
        // without touching the source or its breaker.
        if budget.cancelled() {
            stats.failures += 1;
            cancelled += 1;
            break GuardedFetch::Cancelled { attempts };
        }
        if budget.exhausted() {
            stats.failures += 1;
            cancelled += 1;
            budget.note_exhausted();
            break GuardedFetch::DeadlineExceeded { attempts };
        }
        if !breaker.allows(clock.now_ms()) {
            stats.failures += 1;
            break match last_error.take() {
                // The breaker opened between retry attempts: report the
                // failure that opened it.
                Some(error) => GuardedFetch::Failed { attempts, error },
                None => GuardedFetch::Skipped,
            };
        }
        // Hedging is only for sources in good standing: a HalfOpen trial
        // already is the recovery probe, doubling it would defeat the
        // breaker's slow-start.
        let breaker_closed = matches!(breaker.state(), BreakerState::Closed { .. });
        attempts += 1;
        stats.source_queries += 1;
        let started = clock.now_ms();
        let cost_before = src.wrapper.virtual_cost_ms();
        let result = src.wrapper.query(q).and_then(|rows| {
            let elapsed = clock.now_ms().saturating_sub(started);
            if policy.timeout_ms > 0 && elapsed > policy.timeout_ms {
                Err(SourceError::Timeout {
                    elapsed_ms: elapsed,
                    budget_ms: policy.timeout_ms,
                })
            } else {
                Ok(rows)
            }
        });
        // The attempt's own cost: the wrapper's self-reported stall delta,
        // immune to concurrent siblings advancing the shared clock.
        let attempt_cost = src.wrapper.virtual_cost_ms().saturating_sub(cost_before);
        let mut rows = match result {
            Ok(rows) => rows,
            Err(error) => {
                budget.charge(attempt_cost);
                breaker.record_failure(clock.now_ms());
                if attempts >= policy.retry.max_attempts {
                    stats.retries += (attempts - 1) as usize;
                    stats.failures += 1;
                    break GuardedFetch::Failed { attempts, error };
                }
                last_error = Some(error);
                let backoff = policy.retry.backoff_ms(attempts);
                clock.advance_ms(backoff);
                // The job sat out its own backoff: charge it.
                budget.charge(backoff);
                continue;
            }
        };
        breaker.record_success();
        stats.rows_shipped += rows.len();
        stats.retries += (attempts - 1) as usize;
        let mut charge = attempt_cost;
        if policy.hedge_after_ms > 0
            && attempt_cost > policy.hedge_after_ms
            && breaker_closed
            && !budget.tainted
        {
            // The primary answered, but slower than the hedge threshold:
            // in wall-clock terms a backup attempt would have been racing
            // it since `hedge_after_ms`. Run the backup (it consumes the
            // source's next fault draw, so a seeded slow-tail re-rolls),
            // pick the virtual-time winner, and charge only the winner's
            // finishing time. Exactly one of the pair loses and is
            // recorded as cancelled.
            hedged += 1;
            cancelled += 1;
            attempts += 1;
            stats.source_queries += 1;
            let backup_before = src.wrapper.virtual_cost_ms();
            let backup = src.wrapper.query(q);
            let backup_cost = src.wrapper.virtual_cost_ms().saturating_sub(backup_before);
            let backup_finish = policy.hedge_after_ms.saturating_add(backup_cost);
            match backup {
                Ok(backup_rows)
                    if (policy.timeout_ms == 0 || backup_cost <= policy.timeout_ms)
                        && backup_finish < attempt_cost =>
                {
                    // Backup wins: its rows stand, the slow primary is the
                    // cancelled loser.
                    stats.rows_shipped += backup_rows.len();
                    rows = backup_rows;
                    charge = backup_finish;
                }
                Ok(backup_rows) => {
                    // Backup lost the race (or blew the per-attempt
                    // timeout): it is the cancelled loser.
                    stats.rows_shipped += backup_rows.len();
                }
                Err(_) => {
                    // A failed backup is just a cancelled hedge; the
                    // primary succeeded, so the breaker is not penalised.
                }
            }
        }
        budget.charge(charge);
        if budget.exhausted() {
            // The rows landed, but past the deadline: they are dropped,
            // exactly as if the transfer were still in flight when the
            // query gave up.
            stats.failures += 1;
            cancelled += 1;
            budget.note_exhausted();
            break GuardedFetch::DeadlineExceeded { attempts };
        }
        break GuardedFetch::Rows { rows, attempts };
    };
    classify_fetch(guarded, hedged, cancelled, src, stats, q, budget)
}

/// Maps a terminal [`GuardedFetch`] to its [`FetchCompletion`]:
/// quarantine-validate and residual-filter surviving rows, classify the
/// outcome, surface the terminal error.
#[allow(clippy::too_many_arguments)]
fn classify_fetch(
    guarded: GuardedFetch,
    hedged: usize,
    cancelled: usize,
    src: &RegisteredSource,
    stats: &mut MediatorStats,
    q: &SourceQuery,
    budget: &mut JobBudget,
) -> FetchCompletion {
    match guarded {
        GuardedFetch::Rows { rows, attempts } => {
            // CM validation: quarantine, don't abort.
            let mut kept = Vec::with_capacity(rows.len());
            let mut quarantined = Vec::new();
            for row in rows {
                match src.validate_row(&q.class, &row) {
                    Ok(()) => kept.push(row),
                    Err(reason) => quarantined.push(QuarantinedRow {
                        source: src.name.clone(),
                        class: q.class.clone(),
                        row_id: row.id.clone(),
                        reason,
                    }),
                }
            }
            let kept: Vec<ObjectRow> = kept
                .into_iter()
                .filter(|r| {
                    q.selections
                        .iter()
                        .all(|s| r.get(&s.attr) == Some(&s.value))
                })
                .collect();
            stats.rows_kept += kept.len();
            let outcome = if attempts > 1 {
                SourceOutcome::Retried {
                    retries: attempts - 1,
                }
            } else {
                SourceOutcome::Ok
            };
            FetchCompletion {
                rows: kept,
                quarantined,
                attempts: attempts as usize,
                hedged,
                cancelled,
                outcome,
                error: None,
            }
        }
        GuardedFetch::Failed { attempts, error } => FetchCompletion {
            rows: Vec::new(),
            quarantined: Vec::new(),
            attempts: attempts as usize,
            hedged,
            cancelled,
            outcome: SourceOutcome::Failed {
                error: error.clone(),
            },
            error: Some(error),
        },
        GuardedFetch::Skipped => FetchCompletion {
            rows: Vec::new(),
            quarantined: Vec::new(),
            attempts: 0,
            hedged,
            cancelled,
            outcome: SourceOutcome::SkippedByBreaker,
            error: Some(SourceError::Unavailable {
                reason: "circuit breaker open; source not contacted".into(),
            }),
        },
        GuardedFetch::Cancelled { attempts } => FetchCompletion {
            rows: Vec::new(),
            quarantined: Vec::new(),
            attempts: attempts as usize,
            hedged,
            cancelled,
            outcome: SourceOutcome::Cancelled,
            error: Some(SourceError::Unavailable {
                reason: "query cancelled; fetch abandoned".into(),
            }),
        },
        GuardedFetch::DeadlineExceeded { attempts } => {
            let slice = budget.slice_ms.unwrap_or(0);
            FetchCompletion {
                rows: Vec::new(),
                quarantined: Vec::new(),
                attempts: attempts as usize,
                hedged,
                cancelled,
                outcome: SourceOutcome::DeadlineExceeded {
                    spent_ms: budget.spent_ms,
                    budget_ms: slice,
                },
                error: Some(SourceError::Timeout {
                    elapsed_ms: budget.spent_ms,
                    budget_ms: slice,
                }),
            }
        }
    }
}

/// One worker job of the parallel fetch plane: everything needed to run
/// one source's requests without touching the federation — the source's
/// breaker is *moved* in (taken out of the federation's map) so its
/// requests run serially under exactly the serial-path semantics, and
/// moved back at merge time.
struct FetchJob {
    /// Index into the federation's source roster.
    src_pos: usize,
    policy: SourcePolicy,
    breaker: CircuitBreaker,
    /// The job's deadline context (slice of the query budget + token).
    budget: JobBudget,
    /// `(request index, query)` in submission order.
    requests: Vec<(usize, SourceQuery)>,
}

/// What one [`FetchJob`] produced, ready for the deterministic merge.
struct FetchJobDone {
    source: String,
    breaker: CircuitBreaker,
    stats: MediatorStats,
    /// Virtual milliseconds the job charged itself (its critical path).
    spent_ms: u64,
    /// `(request index, completion)` in submission order.
    results: Vec<(usize, FetchCompletion)>,
}

/// Runs one job's requests serially against its source.
fn run_fetch_job(
    sources: &[RegisteredSource],
    clock: &Arc<dyn Clock>,
    job: FetchJob,
) -> FetchJobDone {
    let src = &sources[job.src_pos];
    let FetchJob {
        policy,
        mut breaker,
        mut budget,
        requests,
        ..
    } = job;
    let mut stats = MediatorStats::default();
    let mut results = Vec::with_capacity(requests.len());
    for (idx, q) in requests {
        let completion = execute_fetch(
            src,
            &policy,
            &mut breaker,
            clock,
            &mut stats,
            &q,
            &mut budget,
        );
        if !completion.quarantined.is_empty() {
            budget.tainted = true;
        }
        results.push((idx, completion));
    }
    FetchJobDone {
        source: src.name.clone(),
        breaker,
        stats,
        spent_ms: budget.spent_ms,
        results,
    }
}

/// The fetch-plane transport. Fetch jobs run on scoped threads, one
/// worker per job up to the pool size; this is the only transport.
///
/// Kept only because the frozen benchmark package (`perfbench/`) still
/// passes it to [`crate::Mediator::set_fetch_mode`], which ignores it.
/// Nothing else in the workspace uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchMode {
    /// One scoped thread per worker job.
    #[default]
    ScopedThreads,
}

/// Tracks how many fetch-plane worker threads are live, and the
/// high-water mark (a stall-aware plan of 64 sources peaks at 64 unless
/// [`Federation::set_in_flight_limit`] caps it).
#[derive(Debug, Default)]
struct ThreadGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl ThreadGauge {
    fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn exit(&self) {
        self.current.fetch_sub(1, Ordering::SeqCst);
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    fn reset(&self) {
        self.current.store(0, Ordering::SeqCst);
        self.peak.store(0, Ordering::SeqCst);
    }
}

/// The source-facing layer of the mediator: registered wrappers plus the
/// resilience machinery guarding every fetch. See the module docs.
#[derive(Debug)]
pub struct Federation {
    sources: Vec<RegisteredSource>,
    clock: Arc<dyn Clock>,
    default_policy: SourcePolicy,
    policies: HashMap<String, SourcePolicy>,
    breakers: HashMap<String, CircuitBreaker>,
    report: AnswerReport,
    /// Worker threads for the parallel fetch plane (0 = auto: one per
    /// involved source, capped by available parallelism).
    fetch_threads: usize,
    /// Caps the stall-aware adaptive sizing of the fetch plane (0 = no
    /// cap).
    in_flight_limit: usize,
    /// Live/peak fetch worker threads (for the bench and the example).
    thread_gauge: ThreadGauge,
    /// End-to-end budget armed for every degradable operation (0 = no
    /// deadline).
    query_budget_ms: u64,
    /// The budget of the operation in flight, if one is armed.
    budget: Option<QueryBudget>,
    /// The query-wide cooperative cancellation token, shared with every
    /// fetch job (and, via the mediator, with the Datalog fixpoint).
    cancel: CancelToken,
    /// Whether budget exhaustion fires [`Self::cancel`] (aggressive
    /// sibling cancellation; off by default — see
    /// [`Self::set_deadline_cancels_siblings`]).
    cancel_on_exhaust: bool,
    /// Query-processing statistics.
    pub stats: MediatorStats,
}

impl Default for Federation {
    fn default() -> Self {
        Self::new()
    }
}

impl Federation {
    /// An empty federation with a fresh [`VirtualClock`] and default
    /// policies.
    pub fn new() -> Self {
        Federation {
            sources: Vec::new(),
            clock: Arc::new(VirtualClock::new()),
            default_policy: SourcePolicy::default(),
            policies: HashMap::new(),
            breakers: HashMap::new(),
            report: AnswerReport::default(),
            fetch_threads: 0,
            in_flight_limit: 0,
            thread_gauge: ThreadGauge::default(),
            query_budget_ms: 0,
            budget: None,
            cancel: CancelToken::new(),
            cancel_on_exhaust: false,
            stats: MediatorStats::default(),
        }
    }

    /// Arms an end-to-end virtual-time budget for every subsequent
    /// degradable operation: each operation starts a fresh
    /// [`QueryBudget`] of this many milliseconds, every fetch job works
    /// against the remaining slice, and sources that run past it are cut
    /// off with [`SourceOutcome::DeadlineExceeded`] — the answer
    /// completes from whatever landed in time. `0` (the default)
    /// disables the deadline.
    pub fn set_query_budget_ms(&mut self, ms: u64) {
        self.query_budget_ms = ms;
    }

    /// The configured per-operation budget (0 = no deadline).
    pub fn query_budget_ms(&self) -> u64 {
        self.query_budget_ms
    }

    /// The budget of the operation in flight (or the most recent one).
    pub fn budget(&self) -> Option<&QueryBudget> {
        self.budget.as_ref()
    }

    /// The query-wide cancellation token. Cancel it (from any thread) to
    /// make in-flight and subsequent fetches of the current operation
    /// abandon cooperatively with [`SourceOutcome::Cancelled`]; each new
    /// operation starts with the token reset.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// When `true`, the first fetch job to exhaust its budget slice fires
    /// the query-wide cancellation token, so sibling jobs abandon their
    /// remaining work immediately instead of each running to its own
    /// deadline. Off by default: cross-job cancellation makes *which*
    /// sibling fetches complete depend on scheduling, trading the
    /// bit-identical-reports guarantee for lower tail latency.
    pub fn set_deadline_cancels_siblings(&mut self, yes: bool) {
        self.cancel_on_exhaust = yes;
    }

    /// The [`Self::set_deadline_cancels_siblings`] setting.
    pub fn deadline_cancels_siblings(&self) -> bool {
        self.cancel_on_exhaust
    }

    /// Sets the worker-thread count for [`Self::fetch_parallel`]: `0`
    /// (the default) means auto — one worker per involved source, capped
    /// by available parallelism; `1` forces serial execution (useful as
    /// the determinism baseline); larger values cap the pool. Results
    /// are bit-identical for every setting — only wall-clock changes.
    pub fn set_fetch_threads(&mut self, threads: usize) {
        self.fetch_threads = threads;
    }

    /// The configured fetch-plane worker count (0 = auto).
    pub fn fetch_threads(&self) -> usize {
        self.fetch_threads
    }

    /// Caps the worker count of a stall-aware plan (0 = no cap, the
    /// default). A plan touching any source that declares a
    /// [`Wrapper::stall_hint`] sizes its pool at one thread per job; this
    /// limit is the only bound on that thread count. It changes wall
    /// clock and thread count, never results, and has no effect while
    /// [`Self::set_fetch_threads`] is set explicitly.
    pub fn set_in_flight_limit(&mut self, n: usize) {
        self.in_flight_limit = n;
    }

    /// The configured in-flight limit (0 = unlimited).
    pub fn in_flight_limit(&self) -> usize {
        self.in_flight_limit
    }

    /// The highest number of fetch-plane worker threads that were ever
    /// live at once since the last [`Self::reset_peak_fetch_threads`].
    pub fn peak_fetch_threads(&self) -> usize {
        self.thread_gauge.peak()
    }

    /// Resets the [`Self::peak_fetch_threads`] high-water mark.
    pub fn reset_peak_fetch_threads(&self) {
        self.thread_gauge.reset();
    }

    /// Registered sources.
    pub fn sources(&self) -> &[RegisteredSource] {
        &self.sources
    }

    /// Looks up a registered source by name.
    pub fn source(&self, name: &str) -> Result<&RegisteredSource> {
        self.sources
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| MediatorError::UnknownSource {
                name: name.to_string(),
            })
    }

    /// The id the next registered source will get.
    pub(crate) fn next_id(&self) -> SourceId {
        SourceId(self.sources.len() as u32)
    }

    /// Whether a source with this name is already registered.
    pub(crate) fn has_source(&self, name: &str) -> bool {
        self.sources.iter().any(|s| s.name == name)
    }

    /// Adds a fully-built source record (the mediator's `register` builds
    /// it after translating the CM and anchoring the data).
    pub(crate) fn add_source(&mut self, src: RegisteredSource) {
        self.sources.push(src);
    }

    /// The federation's clock (share it with [`crate::FaultInjector`]s so
    /// injected delays are visible to timeout checks).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Replaces the clock (e.g. with a pre-advanced [`VirtualClock`]).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Sets the policy used for sources without a per-source override.
    pub fn set_default_policy(&mut self, policy: SourcePolicy) {
        self.default_policy = policy;
    }

    /// Sets a per-source retry/timeout/breaker policy. Any existing
    /// breaker for the source is reset so the new configuration takes
    /// effect immediately.
    pub fn set_source_policy(&mut self, name: impl Into<String>, policy: SourcePolicy) {
        let name = name.into();
        self.breakers.remove(&name);
        self.policies.insert(name, policy);
    }

    /// The policy governing `name` (per-source override or default).
    pub fn policy_for(&self, name: &str) -> &SourcePolicy {
        self.policies.get(name).unwrap_or(&self.default_policy)
    }

    /// The breaker state for a source, once it has been fetched from at
    /// least once.
    pub fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        self.breakers.get(name).map(|b| b.state())
    }

    /// Force-closes a source's breaker (operator override).
    pub fn reset_breaker(&mut self, name: &str) {
        self.breakers.remove(name);
    }

    /// The degradation report of the most recent degradable operation.
    pub fn report(&self) -> &AnswerReport {
        &self.report
    }

    /// Starts a fresh report (each degradable operation calls this), and
    /// arms a fresh [`QueryBudget`] when a deadline is configured. The
    /// cancellation token is reset: every operation starts live.
    pub(crate) fn begin_report(&mut self) {
        self.report = AnswerReport::default();
        self.report.budget_ms = self.query_budget_ms;
        self.cancel.reset();
        self.budget = if self.query_budget_ms > 0 {
            let mut b = QueryBudget::start(&self.clock, self.query_budget_ms)
                .with_cancel(self.cancel.clone());
            b.set_cancel_on_exhaust(self.cancel_on_exhaust);
            Some(b)
        } else {
            None
        };
    }

    /// The names of sources that export `class` (by declared capability).
    pub fn sources_exporting(&self, class: &str) -> Vec<String> {
        self.sources
            .iter()
            .filter(|s| s.classes.iter().any(|c| c == class))
            .map(|s| s.name.clone())
            .collect()
    }

    /// Maps knowledge-layer source ids to names, preserving registration
    /// order.
    pub fn names_of(&self, ids: &[SourceId]) -> Vec<String> {
        self.sources
            .iter()
            .filter(|s| ids.contains(&s.id))
            .map(|s| s.name.clone())
            .collect()
    }

    /// Validates that a request targets a known source exporting the
    /// queried class, returning the roster position.
    fn validate_request(&self, source_name: &str, q: &SourceQuery) -> Result<usize> {
        let pos = self
            .sources
            .iter()
            .position(|s| s.name == source_name)
            .ok_or_else(|| MediatorError::UnknownSource {
                name: source_name.to_string(),
            })?;
        if !self.sources[pos].classes.iter().any(|c| c == &q.class) {
            return Err(MediatorError::UnknownClass {
                class: q.class.clone(),
            });
        }
        Ok(pos)
    }

    /// Takes a source's breaker out of the map (creating a fresh one
    /// under its policy on first contact) so it can run detached — in a
    /// worker job or a serial split-borrow — and be put back afterwards.
    fn take_breaker(&mut self, name: &str, policy: &SourcePolicy) -> CircuitBreaker {
        self.breakers
            .remove(name)
            .unwrap_or_else(|| CircuitBreaker::new(policy.breaker.clone()))
    }

    /// Capability-aware, fault-tolerant fetch: pushes the pushable
    /// selections to the wrapper (with retries, timeout budget, and
    /// circuit breaker per the source's [`SourcePolicy`]), quarantines
    /// rows that violate the source's exported CM, and applies the
    /// remaining selections as a residual filter mediator-side.
    ///
    /// Runs the same guarded-fetch body as the parallel fetch plane
    /// ([`Self::fetch_parallel`]), so retry/breaker/quarantine semantics
    /// cannot drift between entry points.
    ///
    /// A source that exhausts its retry budget — or whose breaker is
    /// open — is a typed [`MediatorError::Source`] error; the outcome is
    /// also folded into the current [`Self::report`].
    pub fn fetch(&mut self, source_name: &str, q: &SourceQuery) -> Result<Vec<ObjectRow>> {
        let pos = self.validate_request(source_name, q)?;
        let policy = self.policy_for(source_name).clone();
        let mut breaker = self.take_breaker(source_name, &policy);
        let mut job_budget = self.job_budget();
        let completion = {
            let Federation {
                sources,
                clock,
                stats,
                ..
            } = self;
            execute_fetch(
                &sources[pos],
                &policy,
                &mut breaker,
                clock,
                stats,
                q,
                &mut job_budget,
            )
        };
        self.breakers.insert(source_name.to_string(), breaker);
        if let Some(b) = &mut self.budget {
            b.charge(job_budget.spent_ms);
        }
        self.report.elapsed_ms = self.report.elapsed_ms.saturating_add(job_budget.spent_ms);
        let FetchCompletion {
            rows,
            quarantined,
            attempts,
            hedged,
            cancelled,
            outcome,
            error,
        } = completion;
        for qr in quarantined {
            self.report.record_quarantine(qr);
        }
        self.report.record_fetch(
            source_name,
            attempts,
            rows.len(),
            hedged,
            cancelled,
            outcome,
        );
        match error {
            None => Ok(rows),
            Some(error) => Err(MediatorError::Source {
                name: source_name.to_string(),
                error,
            }),
        }
    }

    /// A fresh per-job deadline context: the remaining budget (when one
    /// is armed) plus the query-wide cancellation token.
    fn job_budget(&self) -> JobBudget {
        JobBudget {
            slice_ms: self.budget.as_ref().map(QueryBudget::remaining_ms),
            spent_ms: 0,
            cancel: Some(self.cancel.clone()),
            cancel_on_exhaust: self.cancel_on_exhaust,
            tainted: false,
        }
    }

    /// The **fetch phase** of the two-phase pipeline: executes a batch of
    /// [`FetchRequest`]s with one worker job per distinct source on a
    /// scoped thread pool, and returns a [`FetchSet`] whose batches are
    /// in request order. Source-level failures degrade to empty batches
    /// (visible in the set's report), exactly like
    /// [`Self::fetch_degraded`]; unknown sources/classes are typed errors
    /// detected up front, before anything is contacted.
    ///
    /// **Determinism.** Results are bit-identical for any worker count:
    ///
    /// * each source's requests run serially inside that source's job, so
    ///   its breaker transitions, retry schedule, and any
    ///   [`crate::FaultInjector`] call counters see exactly the sequence
    ///   a serial run would produce;
    /// * rows are returned per-batch in request order, so downstream
    ///   interning order does not depend on completion order;
    /// * statistics and report entries are folded job-by-job in the
    ///   sources' first-appearance order (registration order, for plans
    ///   built from the roster) after every worker has joined.
    ///
    /// The one shared mutable resource is the federation [`Clock`]:
    /// concurrent backoff/delay advances interleave, so *timestamps* (not
    /// row contents) can differ from a serial run when a virtual clock is
    /// shared across faulty sources.
    pub fn fetch_parallel(&mut self, requests: &[FetchRequest]) -> Result<FetchSet> {
        for r in requests {
            self.validate_request(&r.source, &r.query)?;
        }
        // Group requests into one job per source, in first-appearance
        // order; move each involved source's breaker into its job.
        let mut jobs: Vec<FetchJob> = Vec::new();
        let mut job_of: HashMap<String, usize> = HashMap::new();
        for (idx, r) in requests.iter().enumerate() {
            let job_idx = match job_of.get(&r.source) {
                Some(&j) => j,
                None => {
                    let policy = self.policy_for(&r.source).clone();
                    let breaker = self.take_breaker(&r.source, &policy);
                    let src_pos = self
                        .sources
                        .iter()
                        .position(|s| s.name == r.source)
                        .expect("validated above");
                    jobs.push(FetchJob {
                        src_pos,
                        policy,
                        breaker,
                        budget: self.job_budget(),
                        requests: Vec::new(),
                    });
                    job_of.insert(r.source.clone(), jobs.len() - 1);
                    jobs.len() - 1
                }
            };
            jobs[job_idx].requests.push((idx, r.query.clone()));
        }
        let workers = self.effective_fetch_threads(jobs.len());
        let finished: Vec<FetchJobDone> = {
            let Federation {
                sources,
                clock,
                thread_gauge,
                ..
            } = &*self;
            if workers <= 1 {
                // Serial baseline: same job code, no thread overhead. The
                // caller's thread is the one fetch worker.
                thread_gauge.enter();
                let finished = jobs
                    .into_iter()
                    .map(|job| run_fetch_job(sources, clock, job))
                    .collect();
                thread_gauge.exit();
                finished
            } else {
                let slots: Vec<Mutex<Option<FetchJobDone>>> =
                    jobs.iter().map(|_| Mutex::new(None)).collect();
                let queue: Vec<Mutex<Option<FetchJob>>> =
                    jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
                let next = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| {
                            thread_gauge.enter();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= queue.len() {
                                    break;
                                }
                                let job = queue[i]
                                    .lock()
                                    .expect("job queue poisoned")
                                    .take()
                                    .expect("each job taken exactly once");
                                let done = run_fetch_job(sources, clock, job);
                                *slots[i].lock().expect("result slot poisoned") = Some(done);
                            }
                            thread_gauge.exit();
                        });
                    }
                });
                slots
                    .into_iter()
                    .map(|slot| {
                        slot.into_inner()
                            .expect("result slot poisoned")
                            .expect("every job produced a result")
                    })
                    .collect()
            }
        };
        // Deterministic merge: jobs in first-appearance order, requests
        // within a job in submission order — regardless of which worker
        // finished when.
        let mut set = FetchSet {
            batches: requests
                .iter()
                .map(|r| FetchBatch {
                    source: r.source.clone(),
                    query: r.query.clone(),
                    rows: Vec::new(),
                })
                .collect(),
            ..FetchSet::default()
        };
        // The round's elapsed time is its critical path: concurrent jobs
        // overlap, so the slowest job — by its own self-charged spend —
        // bounds the round. A max over jobs is commutative, so the value
        // is identical for every worker count and join order.
        let round_elapsed = finished.iter().map(|d| d.spent_ms).max().unwrap_or(0);
        for done in finished {
            self.breakers.insert(done.source.clone(), done.breaker);
            set.stats.merge(&done.stats);
            for (idx, completion) in done.results {
                for qr in completion.quarantined {
                    set.report.record_quarantine(qr);
                }
                set.report.record_fetch(
                    &done.source,
                    completion.attempts,
                    completion.rows.len(),
                    completion.hedged,
                    completion.cancelled,
                    completion.outcome,
                );
                set.batches[idx].rows = completion.rows;
            }
        }
        set.report.elapsed_ms = round_elapsed;
        set.report.budget_ms = self.query_budget_ms;
        if let Some(b) = &mut self.budget {
            b.charge(round_elapsed);
        }
        self.stats.merge(&set.stats);
        self.report.absorb(&set.report);
        Ok(set)
    }

    /// The worker count [`Self::fetch_parallel`] will actually use for a
    /// given number of jobs: the explicit knob when set, otherwise one
    /// worker per core, always capped by the number of plan sources
    /// (adaptive sizing, see [`Self::pool_size`]).
    ///
    /// With one exception: a plan touching any **stall-aware** source ([`Wrapper::stall_hint`]) is
    /// latency-bound, not compute-bound — its workers spend their time
    /// blocked in wrapper I/O, not on a core — so capping the pool at
    /// core count would serialize it (on a 1-core host, 8 × 5ms sources
    /// would fetch in 40ms instead of ~5ms). Such plans size by overlap
    /// instead: one worker per job, capped only by the in-flight limit.
    pub(crate) fn effective_fetch_threads(&self, jobs: usize) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if self.fetch_threads == 0
            && jobs > 0
            && self
                .sources
                .iter()
                .any(|s| s.wrapper.stall_hint().is_some())
        {
            let cap = if self.in_flight_limit == 0 {
                jobs
            } else {
                self.in_flight_limit
            };
            return jobs.min(cap).max(1);
        }
        Self::pool_size(self.fetch_threads, jobs, cores)
    }

    /// The worker count for `units` independent fetch jobs: `knob`
    /// (`0` = auto, i.e. all of `cores`) capped by the number of jobs,
    /// never less than one.
    fn pool_size(knob: usize, units: usize, cores: usize) -> usize {
        let cap = if knob == 0 { cores } else { knob };
        cap.min(units).max(1)
    }

    /// Like [`Self::fetch`], but a source-level failure degrades to an
    /// empty row set instead of an error (the failure stays visible in
    /// [`Self::report`]). Mediator-level errors (unknown source/class)
    /// still propagate.
    pub fn fetch_degraded(&mut self, source_name: &str, q: &SourceQuery) -> Result<Vec<ObjectRow>> {
        match self.fetch(source_name, q) {
            Ok(rows) => Ok(rows),
            Err(MediatorError::Source { .. }) => Ok(Vec::new()),
            Err(other) => Err(other),
        }
    }

    /// Calls a declared query template on a source (§2's "query
    /// templates" capability form): expands the template with the given
    /// arguments and fetches through the capability-aware path.
    pub fn call_template(
        &mut self,
        source_name: &str,
        template: &str,
        args: &[kind_gcm::GcmValue],
    ) -> Result<Vec<ObjectRow>> {
        let src = self.source(source_name)?;
        let t = src
            .wrapper
            .templates()
            .into_iter()
            .find(|t| t.name == template)
            .ok_or_else(|| MediatorError::UnknownClass {
                class: format!("{source_name}::{template}"),
            })?;
        let q = t.expand(args).ok_or_else(|| MediatorError::UnknownClass {
            class: format!(
                "{source_name}::{template}/{} called with {} args",
                t.params.len(),
                args.len()
            ),
        })?;
        self.fetch(source_name, &q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultInjector};
    use crate::mediator::Mediator;
    use crate::wrapper::{Anchor, MemoryWrapper, StallAware};
    use kind_dm::{figures, ExecMode};
    use kind_gcm::GcmValue;

    fn wrapper(name: &str, class: &str, concept: &str, n: usize) -> Arc<MemoryWrapper> {
        let mut w = MemoryWrapper::new(name);
        w.caps.push(Capability {
            class: class.into(),
            pushable: vec!["location".into()],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: class.into(),
            concept: concept.into(),
        });
        for i in 0..n {
            w.add_row(
                class,
                &format!("{name}-o{i}"),
                vec![
                    ("location", GcmValue::Id(concept.into())),
                    ("value", GcmValue::Int(i as i64)),
                ],
            );
        }
        Arc::new(w)
    }

    fn three_source_mediator() -> Mediator {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(wrapper("A", "ca", "Spine", 3)).unwrap();
        m.register(wrapper("B", "cb", "Shaft", 2)).unwrap();
        m.register(wrapper("C", "cc", "Neuron", 4)).unwrap();
        m
    }

    fn all_scans(m: &Mediator) -> Vec<FetchRequest> {
        m.sources()
            .iter()
            .flat_map(|s| {
                s.classes
                    .iter()
                    .map(|c| FetchRequest::scan(s.name.as_str(), c.as_str()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn parallel_results_identical_for_every_worker_count() {
        let mut baseline = three_source_mediator();
        baseline.federation_mut().set_fetch_threads(1);
        let requests = all_scans(&baseline);
        let serial = baseline.federation_mut().fetch_parallel(&requests).unwrap();
        for threads in [2usize, 3, 8] {
            let mut m = three_source_mediator();
            m.federation_mut().set_fetch_threads(threads);
            let parallel = m.federation_mut().fetch_parallel(&requests).unwrap();
            assert_eq!(
                format!("{:?}", serial.batches),
                format!("{:?}", parallel.batches),
                "batches diverge at {threads} threads"
            );
            assert_eq!(serial.report, parallel.report);
            assert_eq!(serial.stats, parallel.stats);
        }
    }

    #[test]
    fn fetch_threads_default_adapts_to_plan_and_cores() {
        let mut m = three_source_mediator();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Knob unset: min(plan sources, cores), never below 1.
        assert_eq!(m.federation().fetch_threads(), 0);
        assert_eq!(m.federation().effective_fetch_threads(3), cores.clamp(1, 3));
        assert_eq!(m.federation().effective_fetch_threads(0), 1);
        // Explicit knob: still capped by the job count.
        m.federation_mut().set_fetch_threads(2);
        assert_eq!(m.federation().effective_fetch_threads(8), 2);
        assert_eq!(m.federation().effective_fetch_threads(1), 1);
    }

    #[test]
    fn parallel_batches_come_back_in_request_order() {
        let mut m = three_source_mediator();
        // Interleave sources on purpose: C, A, C, B.
        let requests = vec![
            FetchRequest::scan("C", "cc"),
            FetchRequest::scan("A", "ca"),
            FetchRequest::new("C", SourceQuery::scan("cc").with("value", GcmValue::Int(1))),
            FetchRequest::scan("B", "cb"),
        ];
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        let order: Vec<&str> = set.batches.iter().map(|b| b.source.as_str()).collect();
        assert_eq!(order, vec!["C", "A", "C", "B"]);
        assert_eq!(set.batches[0].rows.len(), 4);
        assert_eq!(set.batches[1].rows.len(), 3);
        // The residual filter ran inside the worker too.
        assert_eq!(set.batches[2].rows.len(), 1);
        assert_eq!(set.batches[3].rows.len(), 2);
        assert_eq!(set.total_rows(), 10);
        assert!(set.is_complete());
    }

    #[test]
    fn parallel_fetch_degrades_failing_sources() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(wrapper("OK", "ca", "Spine", 3)).unwrap();
        let failing = FaultInjector::new(wrapper("BAD", "cb", "Shaft", 2), m.clock())
            .with_fault(Fault::FailFirst(1000));
        let failing = Arc::new(failing);
        failing.disarm();
        m.register(Arc::clone(&failing) as Arc<dyn Wrapper>)
            .unwrap();
        failing.arm();
        let requests = vec![
            FetchRequest::scan("OK", "ca"),
            FetchRequest::scan("BAD", "cb"),
        ];
        let set = m.federation_mut().fetch_parallel(&requests).unwrap();
        // The healthy source's rows arrive; the failing one degrades to
        // an empty batch, visible in the report.
        assert_eq!(set.batches[0].rows.len(), 3);
        assert!(set.batches[1].rows.is_empty());
        assert!(!set.is_complete());
        assert!(matches!(
            set.report.source("BAD").unwrap().outcome,
            SourceOutcome::Failed { .. }
        ));
        // The breaker advanced under the worker and was put back.
        assert!(m.breaker_state("BAD").is_some());
        // The federation's cumulative report absorbed the delta.
        assert!(!m.report().is_complete());
    }

    #[test]
    fn parallel_fetch_validates_before_contacting_anything() {
        let mut m = three_source_mediator();
        let requests = vec![
            FetchRequest::scan("A", "ca"),
            FetchRequest::scan("NOPE", "ca"),
        ];
        assert!(matches!(
            m.federation_mut().fetch_parallel(&requests),
            Err(MediatorError::UnknownSource { .. })
        ));
        // Nothing was fetched: the wrapper never saw the valid request.
        assert_eq!(m.stats().source_queries, 0);
        let requests = vec![FetchRequest::scan("A", "not_a_class")];
        assert!(matches!(
            m.federation_mut().fetch_parallel(&requests),
            Err(MediatorError::UnknownClass { .. })
        ));
    }

    #[test]
    fn empty_request_list_is_a_complete_noop() {
        let mut m = three_source_mediator();
        let set = m.federation_mut().fetch_parallel(&[]).unwrap();
        assert!(set.batches.is_empty());
        assert!(set.is_complete());
        assert_eq!(set.stats, MediatorStats::default());
    }

    #[test]
    fn worker_count_is_invisible_under_faults_hedges_and_deadlines() {
        // A seeded fault schedule exercising retries (FailFirst), the
        // hedge path (SlowTail + hedge_after_ms), and deadline charging
        // (query budget), run on one worker and on eight.
        let build = |workers: usize| {
            let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
            m.federation_mut().set_fetch_threads(workers);
            m.set_default_policy(SourcePolicy::with_hedge_after_ms(10));
            m.set_query_budget_ms(500);
            m.register(wrapper("OK", "ca", "Spine", 3)).unwrap();
            let shaky = FaultInjector::new(wrapper("SHAKY", "cb", "Shaft", 2), m.clock())
                .with_fault(Fault::FailFirst(1))
                .with_fault(Fault::SlowTail {
                    seed: 77,
                    delay_ms: 40,
                    slow_per_mille: 700,
                });
            let shaky = Arc::new(shaky);
            shaky.disarm();
            m.register(Arc::clone(&shaky) as Arc<dyn Wrapper>).unwrap();
            shaky.arm();
            m.register(wrapper("C", "cc", "Neuron", 4)).unwrap();
            m
        };
        let mut baseline = build(1);
        let requests = all_scans(&baseline);
        let serial = baseline.federation_mut().fetch_parallel(&requests).unwrap();
        let mut m = build(8);
        let parallel = m.federation_mut().fetch_parallel(&requests).unwrap();
        assert_eq!(
            format!("{:?}", serial.batches),
            format!("{:?}", parallel.batches),
            "batches diverge at 8 workers"
        );
        assert_eq!(serial.report, parallel.report, "reports diverge");
        assert_eq!(serial.stats, parallel.stats, "stats diverge");
        assert_eq!(
            baseline.breaker_state("SHAKY"),
            m.breaker_state("SHAKY"),
            "breaker state diverges"
        );
        // The schedule actually exercised the machinery: a retry
        // happened and at least one hedge fired.
        let shaky = serial.report.source("SHAKY").unwrap();
        assert!(shaky.attempts > 1 || shaky.hedged > 0);
    }

    #[test]
    fn stall_aware_plans_size_by_overlap_not_cores() {
        // Satellite: a 1-core host federating 8 stall-bound sources must
        // not serialize them. With a stall hint registered and the knob
        // on auto, the plane sizes one worker per job.
        let mut m = three_source_mediator();
        let slow = StallAware::new(
            wrapper("SLOW", "cd", "Dendrite", 1),
            std::time::Duration::from_millis(1),
        );
        m.register(slow).unwrap();
        assert_eq!(m.federation().effective_fetch_threads(8), 8);
        assert_eq!(m.federation().effective_fetch_threads(1), 1);
        // The in-flight limit still caps the pool.
        m.set_in_flight_limit(3);
        assert_eq!(m.federation().effective_fetch_threads(8), 3);
        m.set_in_flight_limit(0);
        // An explicit knob wins over the stall-aware sizing.
        m.federation_mut().set_fetch_threads(2);
        assert_eq!(m.federation().effective_fetch_threads(8), 2);
    }

    #[test]
    fn pool_size_clamps_and_defaults() {
        // Explicit knob wins, capped by the unit count.
        assert_eq!(Federation::pool_size(4, 100, 1), 4);
        assert_eq!(Federation::pool_size(4, 2, 16), 2);
        // knob = 0 defers to the core count, again capped by units.
        assert_eq!(Federation::pool_size(0, 100, 8), 8);
        assert_eq!(Federation::pool_size(0, 3, 8), 3);
        // Never below one worker, even with no work.
        assert_eq!(Federation::pool_size(0, 0, 8), 1);
        assert_eq!(Federation::pool_size(7, 0, 1), 1);
    }
}
