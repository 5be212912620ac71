//! On-demand integrated queries: the push-down discipline of §5,
//! generalized from the hand-planned protein query to arbitrary one-off
//! conjunctive queries over source classes and the domain map.
//!
//! [`Mediator::answer`] takes a single FL rule text like
//!
//! ```text
//! ans(P, L) :- X : protein_amount, X[protein_name -> P],
//!              X[location -> L], L : relevant_location.
//! ```
//!
//! and:
//!
//! 1. extracts the *source classes* mentioned in `X : class` literals;
//! 2. finds the sources exporting them (and only those) and fetches their
//!    rows — the mediator never contacts an unrelated source;
//! 3. installs the rule as a temporary view and evaluates **only the rule
//!    subprogram relevant to the answer predicate** (relevance-filtered
//!    evaluation, `kind_datalog::Engine::run_for`);
//! 4. returns the answer tuples and uninstalls the view.
//!
//! With the cross-query cache on (the default), steps 3 and 4 happen on a
//! per-call **overlay** of the base (`GcmBase::overlay`) rather than the
//! base itself: the view and the fetched rows land in the overlay's own
//! tail, the base's symbols and rules are read through without a copy,
//! and evaluation is seeded from the cached model with a seed plan sized
//! by the overlay's delta (`kind_datalog::Engine::run_for_query_seeded`).
//! Dropping the overlay uninstalls the view.

use crate::error::{MediatorError, Result};
use crate::fault::AnswerReport;
use crate::federation::FetchRequest;
use crate::mediator::Mediator;
use crate::wrapper::SourceQuery;
use kind_datalog::{EvalStats, Term};
use kind_flogic::{parse_fl_program, FlBodyItem, Molecule};
use std::collections::BTreeSet;

/// The outcome of an on-demand query.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    /// The answer tuples (bindings of the head variables, in head order).
    pub rows: Vec<Vec<Term>>,
    /// Source classes the query mentioned.
    pub classes: Vec<String>,
    /// Sources actually contacted.
    pub sources: Vec<String>,
    /// Per-source outcomes and quarantine diagnostics: a failed or
    /// breaker-skipped source contributes no rows, and
    /// [`AnswerReport::is_complete`] is the answer's completeness flag.
    pub report: AnswerReport,
    /// Evaluation statistics for the answering run (derivation counts
    /// etc.) — how much work the goal-directed plan actually did.
    pub stats: EvalStats,
    /// Whether the magic-sets demand transformation rewrote the query's
    /// rule subprogram (false when disabled or when the rewrite declined,
    /// e.g. for well-founded residues).
    pub magic_fired: bool,
    /// Whether the answer was evaluated seeded from the cached base model
    /// (the warm path) rather than cold.
    pub seeded: bool,
    /// Strata seeded from the cached base model and skipped outright.
    pub skipped_strata: usize,
    /// EDB facts the answer added (fetched rows, the view's own facts)
    /// that the cached base model lacked — the delta its seed plan
    /// started from (see [`kind_datalog::EvalProfile::novel_facts`]).
    pub novel_facts: usize,
}

impl Mediator {
    /// Answers a one-off conjunctive query given as a single FL rule (see
    /// module docs). The rule's head predicate names the answer relation.
    pub fn answer(&mut self, rule_text: &str) -> Result<AnswerSet> {
        self.begin_report();
        // Parse with a scratch interner so we can inspect the clause
        // before committing anything to the base.
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
        // Collect the source classes referenced as `X : class`.
        let mut classes: BTreeSet<String> = BTreeSet::new();
        collect_classes(&clause.body, &scratch, &mut classes);
        let exported: Vec<String> = classes
            .iter()
            .filter(|c| !self.sources_exporting(c).is_empty())
            .cloned()
            .collect();
        // Warm path (cross-query caching): reuse the cached base-layer
        // model and evaluate only this query's delta — the temporary view
        // plus freshly fetched rows — on an overlay of the base.
        // Strata untouched by the delta are seeded from the cache instead
        // of recomputed (see `kind_datalog::Engine::run_for_query_seeded`).
        if self.eval_options().base_cache {
            if let Some((rows, sources, stats, profile)) =
                self.answer_via_base_cache(rule_text, &head_pred, &head.args, &exported, &scratch)?
            {
                return Ok(AnswerSet {
                    rows,
                    classes: exported,
                    sources,
                    report: self.report().clone(),
                    stats,
                    magic_fired: profile.magic_fired,
                    seeded: profile.seed_declined.is_none(),
                    skipped_strata: profile.skipped_strata(),
                    novel_facts: profile.novel_facts,
                });
            }
        }
        // Cold path: install the view (a staged rule addition on a
        // current base; a full rebuild only when one was already owed),
        // fetch only what the query needs — concurrently, then apply in
        // deterministic request order.
        self.define_view(rule_text)?;
        self.ensure_base_current()?;
        let mut contacted: BTreeSet<String> = BTreeSet::new();
        let mut requests: Vec<FetchRequest> = Vec::new();
        for class in &exported {
            for src in self.sources_exporting(class) {
                contacted.insert(src.clone());
                requests.push(FetchRequest::new(src, SourceQuery::scan(class.as_str())));
            }
        }
        let fetched = self.federation_mut().fetch_parallel(&requests)?;
        for batch in &fetched.batches {
            for row in &batch.rows {
                self.apply_row(&batch.source, &batch.query.class, row)?;
            }
        }
        // Goal-directed evaluation towards the answer predicate: the
        // relevance prune plus (when enabled) the magic-sets rewrite
        // specializing the plan to the goal's constant bindings. The
        // goal's arguments were interned by the scratch parse; map them
        // into the base engine so constants bind correctly.
        let opts = self.eval_options().clone();
        let goal_args: Vec<Term> = head
            .args
            .iter()
            .map(|t| {
                crate::mediator::reintern_term(
                    &scratch,
                    self.base_mut().flogic_mut().engine_mut(),
                    t,
                )
            })
            .collect();
        let goal = kind_datalog::Atom::new(
            self.base()
                .flogic()
                .engine()
                .lookup(&head_pred)
                .expect("head predicate interned by rebuild"),
            goal_args,
        );
        let model = self
            .base_mut()
            .flogic_mut()
            .run_for_query(&goal, &opts)
            .map_err(MediatorError::from)?;
        let rows = model.query(&goal);
        // Uninstall the temporary view.
        self.pop_view();
        Ok(AnswerSet {
            rows,
            classes: exported,
            sources: contacted.into_iter().collect(),
            report: self.report().clone(),
            stats: model.stats,
            magic_fired: model.profile.magic_fired,
            seeded: false,
            skipped_strata: 0,
            novel_facts: 0,
        })
    }
}

fn collect_classes(
    items: &[FlBodyItem],
    syms: &kind_datalog::Interner,
    out: &mut BTreeSet<String>,
) {
    for item in items {
        match item {
            FlBodyItem::Pos(Molecule::IsA {
                class: Term::Const(c),
                ..
            })
            | FlBodyItem::Neg(Molecule::IsA {
                class: Term::Const(c),
                ..
            }) => {
                out.insert(syms.resolve(*c).to_string());
            }
            FlBodyItem::Agg { body, .. } => collect_classes(body, syms, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::mediator::Mediator;
    use crate::wrapper::{Anchor, Capability, MemoryWrapper};
    use kind_dm::{figures, ExecMode};
    use kind_gcm::GcmValue;
    use std::sync::Arc;

    fn mediator_with_two_sources() -> Mediator {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        let mut a = MemoryWrapper::new("A");
        a.caps.push(Capability {
            class: "spines".into(),
            pushable: vec![],
        });
        a.anchor_decls.push(Anchor::Fixed {
            class: "spines".into(),
            concept: "Spine".into(),
        });
        for i in 0..4 {
            a.add_row(
                "spines",
                &format!("s{i}"),
                vec![("len", GcmValue::Int(i * 10))],
            );
        }
        m.register(Arc::new(a)).unwrap();
        let mut b = MemoryWrapper::new("B");
        b.caps.push(Capability {
            class: "proteins".into(),
            pushable: vec![],
        });
        b.anchor_decls.push(Anchor::Fixed {
            class: "proteins".into(),
            concept: "Protein".into(),
        });
        b.add_row(
            "proteins",
            "p0",
            vec![("name", GcmValue::Id("calb".into()))],
        );
        m.register(Arc::new(b)).unwrap();
        m
    }

    #[test]
    fn answer_fetches_only_mentioned_classes() {
        let mut m = mediator_with_two_sources();
        let ans = m
            .answer("long_spines(X, L) :- X : spines, X[len -> L], L >= 20.")
            .unwrap();
        assert_eq!(ans.rows.len(), 2);
        assert_eq!(ans.classes, vec!["spines".to_string()]);
        // Only source A was contacted.
        assert_eq!(ans.sources, vec!["A".to_string()]);
    }

    #[test]
    fn answer_view_is_temporary() {
        let mut m = mediator_with_two_sources();
        m.answer("q(X) :- X : spines.").unwrap();
        // After answering, the view is gone: a fresh materialized query
        // does not know `q`.
        m.materialize_all().unwrap();
        let rows = m.query_fl("q(X)").unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn answer_can_join_sources_and_domain_map() {
        let mut m = mediator_with_two_sources();
        let ans = m
            .answer(
                r#"link(X, P) :- X : spines, P : proteins,
                               dm_role("contains", "Spine", "Ion_Binding_Protein")."#,
            )
            .unwrap();
        // Cross product gated on domain knowledge: 4 spines × 1 protein.
        assert_eq!(ans.rows.len(), 4);
        assert_eq!(ans.sources, vec!["A".to_string(), "B".to_string()]);
    }

    fn rendered(m: &Mediator, rows: &[Vec<kind_datalog::Term>]) -> Vec<String> {
        let mut v: Vec<String> = rows
            .iter()
            .map(|r| r.iter().map(|t| m.show(t)).collect::<Vec<_>>().join(","))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn answer_warm_path_matches_cold_path() {
        let mut warm = mediator_with_two_sources();
        let mut cold = mediator_with_two_sources();
        let mut o = cold.eval_options().clone();
        o.base_cache = false;
        cold.set_eval_options(o);
        let q = "long_spines(X, L) :- X : spines, X[len -> L], L >= 20.";
        let w1 = warm.answer(q).unwrap();
        let w2 = warm.answer(q).unwrap(); // second call reuses the cached base
        let c = cold.answer(q).unwrap();
        assert_eq!(rendered(&warm, &w1.rows), rendered(&cold, &c.rows));
        assert_eq!(rendered(&warm, &w1.rows), rendered(&warm, &w2.rows));
        assert_eq!(w1.rows.len(), 2);
        assert_eq!(w1.sources, c.sources);
        assert_eq!(w1.classes, c.classes);
    }

    /// Rows new to the cached model grow `inst`, and the domain-map
    /// rules negate through `inst`: the warm path must re-run that
    /// negation cycle (locally, still seeded) and agree with the cold
    /// path. Once the rows are materialized the same answer skips the
    /// cycle as well and derives less.
    #[test]
    fn answer_over_novel_rows_reruns_the_negation_cycle_seeded() {
        let q = "long_spines(X, L) :- X : spines, X[len -> L], L >= 20.";
        let mut novel = mediator_with_two_sources();
        let mut cold = mediator_with_two_sources();
        let mut o = cold.eval_options().clone();
        o.base_cache = false;
        cold.set_eval_options(o);
        let mut known = mediator_with_two_sources();
        known.materialize_all().unwrap();
        let n = novel.answer(q).unwrap();
        let c = cold.answer(q).unwrap();
        let k = known.answer(q).unwrap();
        assert_eq!(rendered(&novel, &n.rows), rendered(&cold, &c.rows));
        assert_eq!(rendered(&known, &k.rows), rendered(&cold, &c.rows));
        assert_eq!(n.rows.len(), 2);
        assert!(n.seeded && k.seeded && !c.seeded);
        assert!(k.skipped_strata > n.skipped_strata, "{n:?} vs {k:?}");
        assert!(k.stats.derived < n.stats.derived, "{n:?} vs {k:?}");
    }

    #[test]
    fn answer_head_colliding_with_base_falls_back() {
        let mut m = mediator_with_two_sources();
        // `anchored` already has facts in the base model, so the seeded
        // path refuses it and the cold path must produce the answer.
        let ans = m.answer("anchored(S, C) :- anchored(S, C).").unwrap();
        assert_eq!(ans.rows.len(), 2);
    }

    /// The knob-setter audit (write-plane invariant): latency,
    /// parallelism, and query-planning knobs tune *how* an answer is
    /// computed, never *what* the base model is — so toggling every one
    /// of them must leave the published model untouched (same `Arc`, no
    /// pending publish) and keep `answer()` on the warm seeded path.
    #[test]
    fn knob_toggles_keep_warm_answer_warm() {
        use crate::fault::SourcePolicy;
        let mut m = mediator_with_two_sources();
        let q = "long_spines(X, L) :- X : spines, X[len -> L], L >= 20.";
        let first = m.answer(q).unwrap();
        m.publish().unwrap();
        let warm_ptr = Arc::as_ptr(m.cached_model().expect("publish caches the model"));
        m.set_query_budget_ms(250);
        m.federation_mut().set_fetch_threads(2);
        m.set_default_policy(SourcePolicy::with_hedge_after_ms(50));
        m.set_deadline_cancels_siblings(true);
        m.set_magic_sets(false);
        m.set_magic_sets(true);
        assert!(
            !m.publish_pending(),
            "knob setters must not stage writes or force a rebuild"
        );
        let again = m.answer(q).unwrap();
        assert_eq!(
            Arc::as_ptr(m.cached_model().expect("model still cached")),
            warm_ptr,
            "knob setters invalidated the published model"
        );
        assert_eq!(rendered(&m, &first.rows), rendered(&m, &again.rows));
        assert_eq!(again.rows.len(), 2);
    }

    /// The hub side of the audit: subscribing to the hub and publishing
    /// through it are pointer-copying operations on a quiet mediator —
    /// the cached model `Arc` survives untouched, no write is staged,
    /// and only the hub epoch moves. (The server's own serving knobs —
    /// worker count, queue depth, default budget — live in
    /// `kind-server::ServerConfig` and are audited there: they never
    /// reach the mediator at all.)
    #[test]
    fn hub_publication_keeps_warm_model_warm() {
        let mut m = mediator_with_two_sources();
        m.publish().unwrap();
        let warm_ptr = Arc::as_ptr(m.cached_model().expect("publish caches the model"));
        // Subscribing alone changes nothing.
        let hub = m.hub();
        assert_eq!(hub.epoch(), 0);
        assert!(!m.publish_pending());
        // A subscribed publish installs (epoch 1) but reuses the cached
        // model and stages nothing.
        m.publish().unwrap();
        assert_eq!(hub.epoch(), 1);
        let pinned = hub.load().expect("installed");
        assert_eq!(
            Arc::as_ptr(m.cached_model().expect("model still cached")),
            warm_ptr,
            "hub publication invalidated the published model"
        );
        assert_eq!(
            pinned.model() as *const _,
            warm_ptr,
            "the hub serves the very model the mediator cached"
        );
        // Explicit publish_snapshot: same contract, next epoch.
        let p2 = m.publish_snapshot().unwrap();
        assert_eq!(p2.epoch(), 2);
        assert_eq!(
            Arc::as_ptr(m.cached_model().expect("model still cached")),
            warm_ptr
        );
        assert!(!m.publish_pending());
    }

    #[test]
    fn answer_rejects_multi_clause_input() {
        let mut m = mediator_with_two_sources();
        assert!(m.answer("a(X) :- X : spines. b(X) :- X : spines.").is_err());
    }

    #[test]
    fn answer_rejects_molecule_head() {
        let mut m = mediator_with_two_sources();
        assert!(m.answer("X : big :- X : spines.").is_err());
    }
}
