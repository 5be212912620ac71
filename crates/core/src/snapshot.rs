//! Immutable, thread-safe query snapshots.
//!
//! [`QuerySnapshot`] is the mediator's answer to "serve reads from N
//! threads": [`crate::Mediator::snapshot`] freezes the evaluated state —
//! the GCM base (rules + interner), the evaluated [`Model`], and the
//! resolved domain-map view — behind `Arc`s, and the snapshot then
//! answers queries with **no locks on the hot path**:
//!
//! * [`QuerySnapshot::query_fl`] parses the pattern into a private
//!   scratch symbol table and *remaps* it into the frozen interner
//!   (`FLogic::query_frozen`), so it never mutates shared state — `&self`
//!   all the way down. A constant the snapshot has never seen simply
//!   matches nothing.
//! * [`QuerySnapshot::answer`] evaluates a one-off rule on a per-call
//!   **overlay** of the frozen base (`GcmBase::overlay`): it reads
//!   through the snapshot's symbol table, rules and relations without
//!   copying them, keeps the rule and any symbols it interns to itself,
//!   and is seeded from the shared model so only the rule's own stratum
//!   is computed. Its fixed cost does not grow with the snapshot: the
//!   seed plan starts from the overlay's own delta and the program's
//!   strata come from the base's memoized stratification.
//!
//! The only shared mutable state anywhere below a snapshot is the
//! `RwLock`-backed closure memo tables inside [`Resolved`] — concurrent
//! readers warm those cooperatively, and a lost race merely recomputes a
//! deterministic value.
//!
//! Snapshots are decoupled from the mediator that produced them: the
//! mediator may keep registering sources, loading rows, and rebuilding
//! while old snapshots keep serving the state they captured (snapshot
//! isolation for reads). Publishing a fresher view is just
//! `mediator.snapshot()` again.

use crate::error::{MediatorError, Result};
use crate::knowledge::DomainView;
use crate::plan::{DistributionFetch, NeuroSchema, PlanTrace, Section5Fetch};
use kind_datalog::{EvalOptions, EvalStats, Model, SeedDecline, Term};
use kind_dm::{DomainMap, Resolved, SemanticIndex};
use kind_flogic::{parse_fl_program, Molecule};
use kind_gcm::GcmBase;
use std::sync::Arc;

/// The result of [`QuerySnapshot::answer_with`]: rendered answer rows
/// plus the evaluation counters a serving layer wants to report per
/// response (see `crates/server`).
#[derive(Debug, Clone)]
pub struct SnapshotAnswer {
    /// Rendered rows in head-variable order, sorted.
    pub rows: Vec<Vec<String>>,
    /// Evaluation statistics of the per-call overlay run.
    pub stats: EvalStats,
    /// Whether the magic-sets demand rewrite fired for this goal.
    pub magic_fired: bool,
    /// Whether the cost model declined an otherwise applicable rewrite.
    pub magic_declined: bool,
    /// Whether the answer was evaluated seeded from the snapshot's model
    /// (the warm path); the evaluation profile's
    /// [`kind_datalog::EvalProfile::seed_declined`] says why not.
    pub seeded: bool,
    /// Strata seeded from the snapshot's model and skipped outright.
    pub skipped_strata: usize,
    /// EDB facts the answer added that the snapshot's model lacked — the
    /// delta its seed plan started from (see
    /// [`kind_datalog::EvalProfile::novel_facts`]).
    pub novel_facts: usize,
}

/// A frozen, `Send + Sync` view of an evaluated mediator: shared base +
/// model + domain map + resolved closures, read-only query API. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct QuerySnapshot {
    base: Arc<GcmBase>,
    model: Arc<Model>,
    dm: Arc<DomainMap>,
    resolved: Arc<Resolved>,
    index: Arc<SemanticIndex>,
    eval_options: EvalOptions,
}

// The whole point of a snapshot: hand it to N worker threads. Enforced
// here at compile time (and again from the integration tests).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QuerySnapshot>();
};

impl QuerySnapshot {
    pub(crate) fn new(
        base: Arc<GcmBase>,
        model: Arc<Model>,
        dm: Arc<DomainMap>,
        resolved: Arc<Resolved>,
        index: Arc<SemanticIndex>,
        eval_options: EvalOptions,
    ) -> Self {
        QuerySnapshot {
            base,
            model,
            dm,
            resolved,
            index,
            eval_options,
        }
    }

    /// The frozen evaluated model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The frozen base (rules + interner) backing this snapshot.
    pub fn base(&self) -> &GcmBase {
        &self.base
    }

    /// The semantic index captured by this snapshot: which sources hold
    /// data at which domain-map concepts, frozen at snapshot time.
    pub fn index(&self) -> &SemanticIndex {
        &self.index
    }

    /// The domain map captured by this snapshot.
    pub fn dm(&self) -> &DomainMap {
        &self.dm
    }

    /// The resolved domain-map view captured by this snapshot (its memo
    /// tables are `RwLock`-backed, so concurrent probes are fine).
    pub fn resolved(&self) -> &Resolved {
        &self.resolved
    }

    /// The read-only domain-knowledge slice the **evaluate phase**
    /// consumes — the same view [`crate::Knowledge::domain_view`] hands
    /// out, so plan evaluation is literally the same code either way.
    pub fn domain_view(&self) -> DomainView<'_> {
        DomainView::new(&self.dm, &self.resolved)
    }

    /// The **evaluate phase** of the §5 plan against this snapshot: step
    /// 4 (lub root + downward-closure aggregation) over a fetch artifact
    /// produced earlier by [`crate::plan::section5_fetch`]. Pure and
    /// `&self` — no wrapper is contacted, so any number of threads can
    /// replay warm plans concurrently, and the resulting [`PlanTrace`]
    /// is identical to what the `&mut Mediator` path
    /// ([`crate::plan::run_section5`]) produced from the same fetch.
    pub fn run_section5(&self, schema: &NeuroSchema, fetched: &Section5Fetch) -> Result<PlanTrace> {
        crate::plan::section5_eval(&self.domain_view(), schema, fetched)
    }

    /// The **evaluate phase** of the Example 4 `protein_distribution`
    /// view against this snapshot (see [`Self::run_section5`] for the
    /// pattern; the fetch artifact comes from
    /// [`crate::plan::distribution_fetch`]).
    pub fn protein_distribution(
        &self,
        schema: &NeuroSchema,
        fetched: &DistributionFetch,
    ) -> Result<Vec<(String, i64)>> {
        crate::plan::distribution_eval(&self.domain_view(), schema, fetched)
    }

    /// The evaluation options captured at snapshot time (used by
    /// [`Self::answer`]'s per-call evaluation).
    pub fn eval_options(&self) -> &EvalOptions {
        &self.eval_options
    }

    /// Runs an FL query pattern (e.g. `"X : Neuron"`) against the frozen
    /// model. Lock-free and allocation-light: the pattern is parsed into
    /// a scratch symbol table and remapped into the frozen interner, so
    /// `&self` suffices and threads never contend. Patterns mentioning
    /// symbols the snapshot has never seen yield no rows.
    pub fn query_fl(&self, pattern: &str) -> Result<Vec<Vec<Term>>> {
        self.base
            .flogic()
            .query_frozen(&self.model, pattern)
            .map_err(MediatorError::from)
    }

    /// Renders a term from a query result using the frozen symbol table.
    pub fn show(&self, t: &Term) -> String {
        self.base.flogic().engine().show(t)
    }

    /// [`Self::query_fl`] with every row pre-rendered — convenient for
    /// cross-thread result comparison and for callers that do not want to
    /// hold `Term`s.
    pub fn query_fl_rendered(&self, pattern: &str) -> Result<Vec<Vec<String>>> {
        let mut rows: Vec<Vec<String>> = self
            .query_fl(pattern)?
            .iter()
            .map(|r| r.iter().map(|t| self.show(t)).collect())
            .collect();
        rows.sort();
        Ok(rows)
    }

    /// Answers a one-off conjunctive query given as a single FL rule
    /// (same shape as [`crate::Mediator::answer`]), evaluated **over the
    /// snapshot's materialized data** — no sources are contacted; rows
    /// fetched before the snapshot was taken are what there is to query.
    ///
    /// Each call loads the rule into a private overlay of the frozen base
    /// and evaluates it seeded from the shared model, so strata the rule
    /// does not touch are never recomputed, nothing of the base is
    /// copied, and concurrent callers share nothing mutable. Returns rendered rows (sorted), in
    /// head-variable order.
    pub fn answer(&self, rule_text: &str) -> Result<Vec<Vec<String>>> {
        self.answer_with(rule_text, &self.eval_options)
            .map(|a| a.rows)
    }

    /// The per-call working base of [`Self::answer_with`]: an overlay of
    /// the frozen base. Loading the rule interns new symbols and adds the
    /// rule *there*; the shared snapshot is read through, never copied or
    /// written.
    pub(crate) fn scratch_base(&self) -> GcmBase {
        self.base.overlay()
    }

    /// [`Self::answer`] with caller-supplied evaluation options and the
    /// per-call evaluation counters returned alongside the rows. This is
    /// the serving-plane entry point: a server thread swaps in a
    /// per-request [`kind_datalog::CancelToken`] / budget while keeping
    /// everything else from the snapshot's frozen options, and reports
    /// the [`EvalStats`] and magic-sets outcome with the response.
    pub fn answer_with(&self, rule_text: &str, opts: &EvalOptions) -> Result<SnapshotAnswer> {
        // Validate the rule's shape with a scratch interner first, like
        // `Mediator::answer` does.
        let mut scratch = kind_datalog::Interner::new();
        let clauses = parse_fl_program(rule_text, &mut scratch).map_err(MediatorError::from)?;
        let [clause] = clauses.as_slice() else {
            return Err(MediatorError::Datalog(kind_datalog::DatalogError::Parse {
                offset: 0,
                line: 0,
                message: format!("answer() takes exactly one rule, got {}", clauses.len()),
            }));
        };
        let Molecule::Plain(head) = &clause.head else {
            return Err(MediatorError::Datalog(kind_datalog::DatalogError::Parse {
                offset: 0,
                line: 0,
                message: "answer() rule head must be a plain predicate".to_string(),
            }));
        };
        let head_pred = scratch.resolve(head.pred).to_string();
        let mut work = self.scratch_base();
        let new_rules_from = work.flogic().engine().rules().len();
        work.flogic_mut().load(rule_text)?;
        // Seeding from the cached model is unsound if the head predicate
        // already has base facts (the seed would double as input); fall
        // back to a full evaluation on the overlay in that case.
        let collides = self
            .base
            .flogic()
            .engine()
            .lookup(&head_pred)
            .is_some_and(|p| self.model.facts.relation(p).is_some_and(|r| !r.is_empty()));
        // The goal's constant arguments live in the scratch interner; map
        // them into the overlay so the pattern (and the magic-sets demand
        // seeds derived from it) bind correctly.
        let goal_args: Vec<kind_datalog::Term> = head
            .args
            .iter()
            .map(|t| crate::mediator::reintern_term(&scratch, work.flogic_mut().engine_mut(), t))
            .collect();
        let goal = kind_datalog::Atom::new(
            work.flogic()
                .engine()
                .lookup(&head_pred)
                .expect("head predicate interned by rule load"),
            goal_args,
        );
        let model = if collides {
            let mut model = work
                .flogic_mut()
                .run_for_query(&goal, opts)
                .map_err(MediatorError::from)?;
            model.profile.seed_declined = Some(SeedDecline::HeadCollision);
            model
        } else {
            work.flogic_mut()
                .run_for_query_seeded(&goal, &self.model, new_rules_from, opts)
                .map_err(MediatorError::from)?
        };
        let mut rows: Vec<Vec<String>> = model
            .query(&goal)
            .iter()
            .map(|r| {
                r.iter()
                    .map(|t| work.flogic().engine().show(t))
                    .collect::<Vec<String>>()
            })
            .collect();
        rows.sort();
        Ok(SnapshotAnswer {
            rows,
            stats: model.stats,
            magic_fired: model.profile.magic_fired,
            magic_declined: model.profile.magic_declined,
            seeded: model.profile.seed_declined.is_none(),
            skipped_strata: model.profile.skipped_strata(),
            novel_facts: model.profile.novel_facts,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::mediator::Mediator;
    use crate::wrapper::{Anchor, Capability, MemoryWrapper, ObjectRow};
    use kind_dm::{figures, ExecMode};
    use kind_gcm::GcmValue;
    use std::sync::Arc;

    fn spine_wrapper(name: &str, n: usize) -> Arc<MemoryWrapper> {
        let mut w = MemoryWrapper::new(name);
        w.caps.push(Capability {
            class: "spines".into(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: "spines".into(),
            concept: "Spine".into(),
        });
        for i in 0..n {
            w.add_row(
                "spines",
                &format!("{name}r{i}"),
                vec![("len", GcmValue::Int(i as i64))],
            );
        }
        Arc::new(w)
    }

    fn mediator() -> Mediator {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(spine_wrapper("A", 3)).unwrap();
        m.materialize_all().unwrap();
        m
    }

    /// Two snapshots with no intervening write share *every* component —
    /// republish is pointer-copying, not cloning.
    #[test]
    fn quiet_snapshots_share_all_components() {
        let mut m = mediator();
        let s1 = m.snapshot().unwrap();
        let s2 = m.snapshot().unwrap();
        assert!(std::ptr::eq(s1.model(), s2.model()));
        assert!(std::ptr::eq(s1.base(), s2.base()));
        assert!(std::ptr::eq(s1.dm(), s2.dm()));
        assert!(std::ptr::eq(s1.resolved(), s2.resolved()));
        assert!(std::ptr::eq(s1.index(), s2.index()));
    }

    /// A fact write invalidates exactly the components it touches (base
    /// clone + model); the knowledge-layer structures stay shared, and the
    /// old snapshot keeps serving its frozen state.
    #[test]
    fn fact_write_degrades_sharing_only_where_it_lands() {
        let mut m = mediator();
        let s1 = m.snapshot().unwrap();
        let row = ObjectRow {
            id: "fresh".into(),
            attrs: vec![("len".into(), GcmValue::Int(42))],
        };
        m.load_row("A", "spines", &row).unwrap();
        let s2 = m.snapshot().unwrap();
        assert!(!std::ptr::eq(s1.model(), s2.model()));
        assert!(!std::ptr::eq(s1.base(), s2.base()));
        assert!(std::ptr::eq(s1.dm(), s2.dm()));
        assert!(std::ptr::eq(s1.resolved(), s2.resolved()));
        assert!(std::ptr::eq(s1.index(), s2.index()));
        // Snapshot isolation: the older snapshot still answers from the
        // state it captured.
        assert_eq!(s1.query_fl("X : spines").unwrap().len(), 3);
        assert_eq!(s2.query_fl("X : spines").unwrap().len(), 4);
    }

    /// Evaluation counters are a function of the rule and the state, not
    /// of history: the first answer on a snapshot builds join indexes on
    /// relations it shares with the snapshot's model, yet a second answer
    /// on the same snapshot, and one on a fresh snapshot of the same
    /// state, report identical [`kind_datalog::EvalStats`].
    #[test]
    fn answer_stats_do_not_depend_on_earlier_answers() {
        let q = "long(X, L) :- X : spines, X[len -> L], L >= 1.";
        let s1 = mediator().snapshot().unwrap();
        let first = s1.answer_with(q, s1.eval_options()).unwrap();
        let second = s1.answer_with(q, s1.eval_options()).unwrap();
        let s2 = mediator().snapshot().unwrap();
        let fresh = s2.answer_with(q, s2.eval_options()).unwrap();
        assert_eq!(first.rows.len(), 2);
        assert!(first.seeded);
        assert!(first.stats.index_builds > 0, "{:?}", first.stats);
        assert_eq!(first.stats, second.stats);
        assert_eq!(first.stats, fresh.stats);
        assert_eq!(first.rows, fresh.rows);
    }

    /// A snapshot answer works on an overlay of the frozen base
    /// ([`QuerySnapshot::scratch_base`]): the overlay reads through the
    /// snapshot's symbol table and rules (the very same allocations,
    /// before and after it loads a rule and applies rows), and answering
    /// leaves the snapshot as it was.
    #[test]
    fn answers_overlay_the_frozen_base_without_copying_it() {
        let s = mediator().snapshot().unwrap();
        let frozen = s.base().flogic().engine();
        let (syms, rules, facts) = (
            frozen.symbols().len(),
            frozen.rules().len(),
            frozen.edb().len(),
        );
        let mut work = s.scratch_base();
        assert!(work.flogic().engine().shares_program(frozen));
        work.flogic_mut()
            .load("fresh_view(X) :- X : spines.")
            .unwrap();
        let row = ObjectRow {
            id: "new".into(),
            attrs: vec![("len".into(), GcmValue::Int(7))],
        };
        crate::mediator::apply_row_to(&mut work, "A", "spines", &row).unwrap();
        assert!(work.flogic().engine().shares_program(frozen));
        assert_eq!(work.flogic().engine().rules().len(), rules + 1);
        drop(work);

        let model = s.model() as *const _;
        let q = "long(X, L) :- X : spines, X[len -> L], L >= 1.";
        let a = s.answer_with(q, s.eval_options()).unwrap();
        assert_eq!(a.rows.len(), 2);
        assert!(a.seeded);
        assert_eq!(a.novel_facts, 0, "a snapshot answer adds no facts");
        let frozen = s.base().flogic().engine();
        assert_eq!(frozen.symbols().len(), syms);
        assert_eq!(frozen.rules().len(), rules);
        assert_eq!(frozen.edb().len(), facts);
        assert!(frozen.lookup("long").is_none());
        assert!(frozen.lookup("fresh_view").is_none());
        assert!(std::ptr::eq(s.model(), model));
    }

    /// Registration rebuilds the semantic index (new anchors) but reuses
    /// the resolved domain-map view when the registration did not refine
    /// the map's structure.
    #[test]
    fn registration_updates_index_but_reuses_resolved() {
        let mut m = mediator();
        let s1 = m.snapshot().unwrap();
        m.register(spine_wrapper("B", 2)).unwrap();
        let s2 = m.snapshot().unwrap();
        assert!(!std::ptr::eq(s1.index(), s2.index()));
        assert!(std::ptr::eq(s1.dm(), s2.dm()));
        assert!(std::ptr::eq(s1.resolved(), s2.resolved()));
    }
}
