//! Incremental view maintenance: applying a staged [`EngineDelta`] to a
//! cached model instead of re-deriving it from scratch.
//!
//! [`crate::Engine::apply_delta`] walks the stratification of the
//! *current* rule set and picks, per stratum, the cheapest maintenance
//! mode that is sound for what actually changed beneath it:
//!
//! * **reuse** — no predicate in the stratum grew, shrank, or changed
//!   rules: the previous model's relations are `Arc`-shared wholesale
//!   (zero derivation work, zero copying);
//! * **additions** — inputs only grew (monotone): the stratum is seeded
//!   with its previous extension and the novel facts ride semi-naive
//!   delta rounds, with the delta matched at *every* positive body
//!   position (new facts can arrive through any input predicate, not
//!   just same-stratum ones);
//! * **retractions** — inputs only shrank: DRed-style maintenance.
//!   Overdelete every fact whose old-state derivation consumed a
//!   retracted/vanished fact (matching the rest of the body against the
//!   *old* model), then rederive overdeleted facts that still have an
//!   alternative derivation from the surviving facts, head-directed so
//!   the work is proportional to the overdeletion set;
//! * **rebuild** — non-monotone residue (changed rules, or a stratum
//!   reached both by additions and retractions, or through
//!   negation/aggregation): the stratum alone is re-evaluated cold and
//!   diffed against the base to keep the novel/vanished frontiers exact
//!   for downstream strata.
//!
//! A stratum whose cycle goes through negation keeps its locality: when
//! touched, it re-runs the alternating fixpoint over *its own rules only*,
//! against the already-maintained lower layers (the well-founded model
//! restricted to an SCC equals that SCC's well-founded model relative to
//! the two-valued strata below it). Only genuinely three-valued states —
//! a base model with undefined atoms, or a local fixpoint that leaves
//! atoms undefined — fall back to a full cold evaluation with
//! [`crate::EvalProfile::delta_fallback`] set, because the closed-world
//! maintenance modes cannot represent three-valued inputs downstream.
//!
//! The classification mirrors `Engine::seed_plan`'s soundness argument,
//! extended to shrinkage: a positive edge propagates grow→grow and
//! shrink→shrink; any non-monotone edge (negation, aggregation) from a
//! changed predicate marks the head as both, forcing the rebuild mode.
//! New or removed rules can never ride the additions mode: a delta round
//! only fires rule instantiations that touch a novel *fact*, so a new
//! rule over unchanged inputs would never fire at all.
//!
//! Statistics produced by `apply_delta` measure the *delta work*, not a
//! cold evaluation's: they are deterministic for identical mutation
//! histories (the same contract as the cold evaluator), but intentionally
//! smaller than a cold rebuild's.

use crate::error::{DatalogError, Result};
use crate::eval::{
    check_cancelled, eval_stratum, execute_round, plan_rule, solve, EvalOptions, EvalProfile,
    EvalStats, IndexCounters, MatchCtx, Model, NegView, RulePlan, StratumProfile,
};
use crate::fact::{FactStore, Tuple};
use crate::interner::Sym;
use crate::program::Stratum;
use crate::rule::Rule;
use crate::term::{Subst, Term};
use crate::Engine;
use std::collections::HashSet;

/// A typed changelog of engine mutations since the last model was
/// published: asserted facts, retracted facts, and predicates whose
/// defining rules changed (rules added or removed).
///
/// Produced by [`Engine::take_delta`] once recording has been switched on
/// with [`Engine::begin_delta`]; consumed by [`Engine::apply_delta`].
/// Assert/retract pairs cancel: retracting a fact that was asserted since
/// the last publish erases it from the log instead of recording both.
#[derive(Debug, Default, Clone)]
pub struct EngineDelta {
    /// Facts asserted since the last publish (net of cancellations).
    pub(crate) added: FactStore,
    /// Facts retracted since the last publish (net of cancellations).
    pub(crate) removed: FactStore,
    /// Head predicates of rules added or removed since the last publish.
    pub(crate) changed_rule_preds: HashSet<Sym>,
}

impl EngineDelta {
    /// Whether nothing was mutated since the last publish.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed_rule_preds.is_empty()
    }

    /// Number of (net) asserted facts in the log.
    pub fn added_facts(&self) -> usize {
        self.added.len()
    }

    /// Number of (net) retracted facts in the log.
    pub fn removed_facts(&self) -> usize {
        self.removed.len()
    }

    /// Number of predicates whose rule set changed.
    pub fn changed_rules(&self) -> usize {
        self.changed_rule_preds.len()
    }

    /// Records an asserted fact, cancelling a pending retraction of the
    /// same fact if one exists.
    pub(crate) fn log_add(&mut self, pred: Sym, tuple: Tuple) {
        if !self.removed.remove(pred, &tuple) {
            self.added.insert(pred, tuple);
        }
    }

    /// Records a retracted fact, cancelling a pending assertion of the
    /// same fact if one exists.
    pub(crate) fn log_remove(&mut self, pred: Sym, tuple: &[Term]) {
        if !self.added.remove(pred, tuple) {
            self.removed.insert(pred, tuple.to_vec().into());
        }
    }

    /// Records a rule-set change for `pred` (rule added or removed).
    pub(crate) fn log_rule(&mut self, pred: Sym) {
        self.changed_rule_preds.insert(pred);
    }
}

/// Per-stratum maintenance mode (see module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Reuse,
    Additions,
    Retractions,
    Rebuild,
}

fn has_facts(store: &FactStore, pred: Sym) -> bool {
    store.relation(pred).is_some_and(|r| !r.is_empty())
}

/// Classifies every predicate as grown and/or shrunk by propagating the
/// delta's seed sets through the dependency edges to a fixpoint.
fn classify(deps: &[(Sym, Sym, bool)], delta: &EngineDelta) -> (HashSet<Sym>, HashSet<Sym>) {
    let mut grow: HashSet<Sym> = delta
        .added
        .predicates()
        .filter(|&p| has_facts(&delta.added, p))
        .collect();
    let mut shrink: HashSet<Sym> = delta
        .removed
        .predicates()
        .filter(|&p| has_facts(&delta.removed, p))
        .collect();
    // A changed rule set can both add and remove derived facts.
    grow.extend(delta.changed_rule_preds.iter().copied());
    shrink.extend(delta.changed_rule_preds.iter().copied());
    loop {
        let mut changed = false;
        for &(h, b, nonmono) in deps {
            if nonmono && (grow.contains(&b) || shrink.contains(&b)) {
                changed |= grow.insert(h);
                changed |= shrink.insert(h);
            } else {
                if grow.contains(&b) {
                    changed |= grow.insert(h);
                }
                if shrink.contains(&b) {
                    changed |= shrink.insert(h);
                }
            }
        }
        if !changed {
            break;
        }
    }
    (grow, shrink)
}

/// Full cold re-evaluation, flagged as a delta fallback in the profile.
fn cold_fallback(engine: &Engine, rules: &[Rule], opts: &EvalOptions) -> Result<Model> {
    let mut model = engine.run_rules(rules, opts)?;
    model.profile.delta_applied = true;
    model.profile.delta_fallback = true;
    Ok(model)
}

/// Applies `delta` to `base` (a full model of the engine's *pre-delta*
/// state), producing the model the current engine state evaluates to —
/// see [`Engine::apply_delta`] for the contract.
pub(crate) fn apply_delta(
    engine: &Engine,
    base: &Model,
    delta: &EngineDelta,
    opts: &EvalOptions,
) -> Result<Model> {
    let rules = &*engine.rule_slice();
    let shape = engine.shape()?;
    let strat = &shape.strat;
    if !base.undefined.is_empty() {
        // A three-valued base gives the maintenance modes nothing sound to
        // seed from (an undefined atom is neither in nor out of the old
        // extension); re-evaluate cold and say so in the profile.
        return cold_fallback(engine, rules, opts);
    }
    let (grow, shrink) = classify(&shape.deps, delta);
    let stratum_of = &shape.stratum_of;
    let modes: Vec<Mode> = strat
        .strata
        .iter()
        .map(|s| {
            let rule_changed = s.preds.iter().any(|p| delta.changed_rule_preds.contains(p));
            let g = s.preds.iter().any(|p| grow.contains(p));
            let sh = s.preds.iter().any(|p| shrink.contains(p));
            let mode = match (rule_changed, g, sh) {
                (true, _, _) | (false, true, true) => Mode::Rebuild,
                (false, false, false) => Mode::Reuse,
                (false, true, false) => Mode::Additions,
                (false, false, true) => Mode::Retractions,
            };
            // Semi-naive/DRed rounds are unsound through a negation cycle;
            // a touched WFS stratum always re-runs its alternating
            // fixpoint. (Unreachable in practice: `classify` marks every
            // predicate of a touched WFS component as both grown and
            // shrunk, but keep the guard explicit.)
            if s.wfs && mode != Mode::Reuse {
                Mode::Rebuild
            } else {
                mode
            }
        })
        .collect();

    // Frontiers threaded through the strata in evaluation order: facts
    // that are new relative to the base model, and facts that vanished.
    let mut novel = delta.added.clone();
    let mut gone = delta.removed.clone();
    // A predicate whose every rule was removed is in no stratum: its
    // extension collapses to its stored facts, and everything else it
    // used to hold is gone for downstream consumers.
    for &p in &delta.changed_rule_preds {
        if stratum_of.contains_key(&p) {
            continue;
        }
        if let Some(brel) = base.facts.relation(p) {
            let erel = engine.edb.relation(p);
            for t in brel.iter() {
                if !erel.is_some_and(|r| r.contains(t)) {
                    gone.insert(p, t.clone());
                }
            }
        }
    }

    let mut stats = EvalStats::default();
    let mut profile = EvalProfile {
        delta_applied: true,
        ..Default::default()
    };

    // Seed the extensional layer. Predicates owned by a stratum that
    // seeds itself from the base (reuse/additions/retractions) are left
    // to their stratum step; rebuild strata and pure-EDB predicates take
    // the engine's current relations. Unchanged pure-EDB relations share
    // the *base* handle so successive snapshots stay pointer-equal.
    let mut total = FactStore::new();
    for p in engine.edb.predicates() {
        match stratum_of.get(&p) {
            None => {
                let unchanged = !has_facts(&delta.added, p) && !has_facts(&delta.removed, p);
                if unchanged {
                    if let Some(arc) = base.facts.relation_arc(p) {
                        total.set_relation(p, arc);
                        continue;
                    }
                }
                if let Some(arc) = engine.edb.relation_arc(p) {
                    total.set_relation(p, arc);
                }
            }
            Some(&i) => {
                if modes[i] == Mode::Rebuild {
                    if let Some(arc) = engine.edb.relation_arc(p) {
                        total.set_relation(p, arc);
                    }
                }
            }
        }
    }

    for (i, stratum) in strat.strata.iter().enumerate() {
        let mut sp = StratumProfile {
            preds: stratum.preds.clone(),
            recursive: stratum.recursive,
            ..Default::default()
        };
        if modes[i] == Mode::Reuse {
            for &p in &stratum.preds {
                if let Some(arc) = base.facts.relation_arc(p) {
                    total.set_relation(p, arc);
                }
            }
            sp.skipped = true;
            profile.delta_reused_strata += 1;
            profile.strata.push(sp);
            continue;
        }
        let stratum_preds: HashSet<Sym> = stratum.preds.iter().copied().collect();
        if modes[i] != Mode::Rebuild {
            // Additions/retractions start from the previous extension.
            for &p in &stratum.preds {
                if let Some(arc) = base.facts.relation_arc(p) {
                    total.set_relation(p, arc);
                }
            }
        }
        // A WFS stratum re-plans inside the alternating fixpoint (every
        // IDB predicate costed as unbounded there); planning here would be
        // thrown away.
        let wfs_rebuild = stratum.wfs && modes[i] == Mode::Rebuild;
        let prepared: Vec<(Rule, RulePlan)> = if wfs_rebuild {
            Vec::new()
        } else {
            stratum
                .rules
                .iter()
                .map(|&ri| plan_rule(&rules[ri], &total, &stratum_preds, opts))
                .collect()
        };
        sp.plans = prepared.iter().map(|(_, p)| p.clone()).collect();
        let counters = IndexCounters::default();
        let before = stats;
        match modes[i] {
            Mode::Reuse => unreachable!("handled above"),
            Mode::Additions => {
                maintain_additions(
                    stratum, &prepared, delta, &mut total, &mut novel, &mut stats, &counters, opts,
                )?;
                profile.delta_incremental_strata += 1;
            }
            Mode::Retractions => {
                maintain_retractions(
                    stratum, &prepared, delta, base, &mut total, &mut gone, &mut stats, &counters,
                    opts,
                )?;
                profile.delta_incremental_strata += 1;
            }
            Mode::Rebuild => {
                if stratum.wfs {
                    // Stratum-local alternating fixpoint over the already-
                    // maintained lower layers: the global well-founded
                    // model restricted to one SCC equals that SCC's
                    // well-founded model relative to the (two-valued)
                    // strata below it, so locality survives negation
                    // cycles as long as the local model stays two-valued.
                    let planned = engine.wfs_stratum_plan(
                        i,
                        || stratum.rules.iter().map(|&ri| rules[ri].clone()).collect(),
                        &total,
                        opts,
                    );
                    let sub = crate::wfs::eval_well_founded_planned(&planned, &total, opts)?;
                    if !sub.undefined.is_empty() {
                        // Three-valued residue: downstream strata would
                        // need three-valued inputs the closed-world
                        // maintenance modes cannot represent.
                        return cold_fallback(engine, rules, opts);
                    }
                    for &p in &stratum.preds {
                        if let Some(arc) = sub.facts.relation_arc(p) {
                            total.set_relation(p, arc);
                        }
                    }
                    stats.add(&sub.stats);
                    profile.well_founded = true;
                    // Surface the inner run's plans in this stratum's
                    // profile slot.
                    if let Some(s0) = sub.profile.strata.into_iter().next() {
                        sp.plans = s0.plans;
                    }
                } else {
                    let stratum_rules: Vec<&Rule> = prepared.iter().map(|(r, _)| r).collect();
                    eval_stratum(
                        &stratum_rules,
                        stratum.recursive,
                        &stratum_preds,
                        &mut total,
                        &mut stats,
                        &counters,
                        opts,
                    )?;
                }
                // Exact diff against the base keeps downstream frontiers
                // tight.
                for &p in &stratum.preds {
                    let new_rel = total.relation(p);
                    let old_rel = base.facts.relation(p);
                    if let Some(nr) = new_rel {
                        for t in nr.iter() {
                            if !old_rel.is_some_and(|o| o.contains(t)) {
                                novel.insert(p, t.clone());
                            }
                        }
                    }
                    if let Some(or) = old_rel {
                        for t in or.iter() {
                            if !new_rel.is_some_and(|n| n.contains(t)) {
                                gone.insert(p, t.clone());
                            }
                        }
                    }
                }
                profile.delta_rebuilt_strata += 1;
            }
        }
        sp.iterations = stats.iterations - before.iterations;
        sp.derived = stats.derived - before.derived;
        counters.fold_into(&mut stats);
        profile.strata.push(sp);
    }
    Ok(Model {
        facts: total,
        undefined: FactStore::new(),
        stats,
        profile,
    })
}

/// Monotone maintenance: novel facts ride semi-naive delta rounds on top
/// of the seeded previous extension. The delta is matched at every
/// positive body position; duplicate firings (an instantiation touching
/// two novel facts) collapse on the `total`-membership check exactly as
/// in the cold semi-naive engine.
#[allow(clippy::too_many_arguments)]
fn maintain_additions(
    stratum: &Stratum,
    prepared: &[(Rule, RulePlan)],
    delta: &EngineDelta,
    total: &mut FactStore,
    novel: &mut FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    // Asserted base facts of this stratum's own predicates join the
    // extension directly (they are already in the novel frontier).
    for &p in &stratum.preds {
        if let Some(rel) = delta.added.relation(p) {
            for t in rel.iter() {
                total.insert(p, t.clone());
            }
        }
    }
    let mut units: Vec<(&Rule, Option<usize>)> = Vec::new();
    for (r, _) in prepared {
        for di in r.positive_atom_indices() {
            units.push((r, Some(di)));
        }
    }
    let mut frontier = novel.clone();
    let mut stratum_new = FactStore::new();
    loop {
        check_cancelled(opts, stats)?;
        stats.iterations += 1;
        if stats.iterations > opts.max_iterations {
            return Err(DatalogError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let out = execute_round(
            &units,
            total,
            Some(&frontier),
            NegView::Closed,
            opts,
            counters,
            stats,
        );
        let added = total.absorb(&out);
        stats.derived += added;
        if added == 0 {
            break;
        }
        stratum_new.absorb(&out);
        frontier = out;
    }
    novel.absorb(&stratum_new);
    Ok(())
}

/// DRed maintenance: overdelete everything whose old-state derivation
/// consumed a vanished fact, then rederive the overdeleted facts that
/// still have a derivation from the survivors (head-directed, so the
/// rederivation cost follows the overdeletion set, not the stratum).
#[allow(clippy::too_many_arguments)]
fn maintain_retractions(
    stratum: &Stratum,
    prepared: &[(Rule, RulePlan)],
    delta: &EngineDelta,
    base: &Model,
    total: &mut FactStore,
    gone: &mut FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    // Direct retractions of stored facts. They join the overdeletion
    // set: a retracted stored fact survives if a rule still derives it.
    let mut od_total = FactStore::new();
    for &p in &stratum.preds {
        if let Some(rel) = delta.removed.relation(p) {
            let tuples: Vec<Tuple> = rel.iter().cloned().collect();
            for t in tuples {
                if total.remove(p, &t) {
                    od_total.insert(p, t);
                }
            }
        }
    }
    // Phase 1 — overdeletion. Bodies match against the *old* state
    // (`base.facts`): sound because every input of this stratum only
    // shrank, so the old state over-approximates every derivation that
    // could have existed.
    let mut frontier = gone.clone();
    loop {
        check_cancelled(opts, stats)?;
        stats.iterations += 1;
        if stats.iterations > opts.max_iterations {
            return Err(DatalogError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let mut next = FactStore::new();
        for (r, _) in prepared {
            for di in r.positive_atom_indices() {
                let ctx = MatchCtx {
                    total: &base.facts,
                    delta: Some((&frontier, di)),
                    neg: NegView::Closed,
                    use_index: opts.use_index,
                    counters,
                };
                let head = &r.head;
                let mut subst = Subst::with_capacity(r.nvars as usize);
                solve(&r.body, 0, &mut subst, &ctx, &mut |s: &Subst| {
                    let args: Vec<Term> = head.args.iter().map(|t| t.apply(s)).collect();
                    if total.contains(head.pred, &args) && !od_total.contains(head.pred, &args) {
                        next.insert(head.pred, args.into());
                    }
                });
            }
        }
        if next.is_empty() {
            break;
        }
        od_total.absorb(&next);
        frontier = next;
    }
    let od_preds: Vec<Sym> = od_total.predicates().collect();
    for &p in &od_preds {
        if let Some(rel) = od_total.relation(p) {
            let tuples: Vec<Tuple> = rel.iter().cloned().collect();
            for t in tuples {
                total.remove(p, &t);
            }
        }
    }
    // Phase 2 — rederivation: an overdeleted fact survives iff some rule
    // instantiation still derives it from the remaining facts. Passes
    // repeat because a rederived fact can support another overdeleted
    // one.
    loop {
        check_cancelled(opts, stats)?;
        let mut readded = 0usize;
        for (r, _) in prepared {
            let head = &r.head;
            let Some(od) = od_total.relation(head.pred) else {
                continue;
            };
            let tuples: Vec<Tuple> = od.iter().cloned().collect();
            for t in tuples {
                if total.contains(head.pred, &t) || head.args.len() != t.len() {
                    continue;
                }
                let mut subst = Subst::with_capacity(r.nvars as usize);
                if !head
                    .args
                    .iter()
                    .zip(t.iter())
                    .all(|(p, v)| subst.match_term(p, v))
                {
                    continue;
                }
                let mut derivable = false;
                {
                    let ctx = MatchCtx {
                        total,
                        delta: None,
                        neg: NegView::Closed,
                        use_index: opts.use_index,
                        counters,
                    };
                    solve(&r.body, 0, &mut subst, &ctx, &mut |_| {
                        derivable = true;
                    });
                }
                if derivable && total.insert(head.pred, t) {
                    readded += 1;
                }
            }
        }
        stats.derived += readded;
        if readded == 0 {
            break;
        }
    }
    // Facts that stayed dead are gone for downstream strata; rederived
    // survivors are scrubbed from the frontier (a retracted stored fact
    // a rule still derives never actually left the extension).
    for &p in &od_preds {
        if let Some(rel) = od_total.relation(p) {
            for t in rel.iter() {
                if total.contains(p, t) {
                    gone.remove(p, t);
                } else {
                    gone.insert(p, t.clone());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Tuple};
    use std::collections::HashSet as Set;

    fn facts_of(m: &Model, e: &Engine, pred: &str) -> Set<Tuple> {
        e.lookup(pred)
            .and_then(|p| m.facts.relation(p).map(|r| r.iter().cloned().collect()))
            .unwrap_or_default()
    }

    fn assert_models_agree(inc: &Model, cold: &Model, e: &Engine) {
        let preds: Set<Sym> = inc
            .facts
            .predicates()
            .chain(cold.facts.predicates())
            .collect();
        for p in preds {
            let a: Set<Tuple> = inc
                .facts
                .relation(p)
                .map(|r| r.iter().cloned().collect())
                .unwrap_or_default();
            let b: Set<Tuple> = cold
                .facts
                .relation(p)
                .map(|r| r.iter().cloned().collect())
                .unwrap_or_default();
            assert_eq!(a, b, "extension mismatch for {}", e.name(p));
        }
    }

    #[test]
    fn additions_ride_delta_rounds_and_reuse_untouched_strata() {
        let mut e = Engine::new();
        e.load(
            "e(a,b). e(b,c). other(x).
             tc(X,Y) :- e(X,Y).
             tc(X,Y) :- tc(X,Z), e(Z,Y).
             big(X) :- other(X).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        e.add_fact_strs("e", &["c", "d"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert_eq!(facts_of(&inc, &e, "tc").len(), 6);
        assert!(inc.profile.delta_applied);
        assert!(inc.profile.delta_incremental_strata >= 1);
        // `big`'s stratum never saw the delta: its relation is the very
        // same allocation as the base model's.
        let big = e.lookup("big").unwrap();
        assert!(inc.facts.shares_relation(big, &base.facts));
        assert!(inc.profile.delta_reused_strata >= 1);
        // Far less work than the cold run.
        assert!(inc.stats.derived < cold.stats.derived);
    }

    #[test]
    fn retractions_overdelete_and_rederive() {
        let mut e = Engine::new();
        // Diamond: a→b→d and a→c→d, so tc(a,d) has two derivations.
        e.load(
            "e(a,b). e(b,d). e(a,c). e(c,d).
             tc(X,Y) :- e(X,Y).
             tc(X,Y) :- tc(X,Z), e(Z,Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let ep = e.lookup("e").unwrap();
        let b = e.constant("b");
        let a = e.constant("a");
        let d = e.constant("d");
        assert!(e.remove_fact(ep, &[a.clone(), b.clone()]));
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        let tc = e.lookup("tc").unwrap();
        // tc(a,d) survives through the a→c→d path; tc(a,b) is gone.
        assert!(inc.holds(tc, &[a.clone(), d.clone()]));
        assert!(!inc.holds(tc, &[a.clone(), b.clone()]));
        assert!(inc.profile.delta_incremental_strata >= 1);
    }

    #[test]
    fn retraction_through_negation_rebuilds_dependent_stratum() {
        let mut e = Engine::new();
        e.load(
            "n(a). n(b). bad(a).
             good(X) :- n(X), not bad(X).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let bad = e.lookup("bad").unwrap();
        let a = e.constant("a");
        assert!(e.remove_fact(bad, std::slice::from_ref(&a)));
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        let good = e.lookup("good").unwrap();
        assert!(inc.holds(good, &[a]));
        assert_eq!(facts_of(&inc, &e, "good").len(), 2);
        assert!(inc.profile.delta_rebuilt_strata >= 1);
    }

    #[test]
    fn new_rule_forces_stratum_rebuild_not_delta_rounds() {
        let mut e = Engine::new();
        e.load(
            "e(a,b). e(b,c).
             tc(X,Y) :- e(X,Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        // A new rule over *unchanged* inputs: a pure delta round would
        // never fire it.
        e.load("tc(X,Y) :- tc(X,Z), e(Z,Y).").unwrap();
        let delta = e.take_delta().unwrap();
        assert_eq!(delta.changed_rules(), 1);
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert_eq!(facts_of(&inc, &e, "tc").len(), 3);
        assert!(inc.profile.delta_rebuilt_strata >= 1);
    }

    #[test]
    fn removed_rules_retract_their_derivations_downstream() {
        let mut e = Engine::new();
        e.load(
            "n(a). n(b).
             view(X) :- n(X).
             uses(X) :- view(X).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        let nrules = e.rules().len();
        e.begin_delta();
        // Remove the `view` rule (simulating a popped temporary view).
        e.remove_rules(nrules - 2, nrules - 1);
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(facts_of(&inc, &e, "view").is_empty());
        assert!(facts_of(&inc, &e, "uses").is_empty());
    }

    #[test]
    fn assert_retract_pairs_cancel_in_the_log() {
        let mut e = Engine::new();
        e.load("p(a).").unwrap();
        e.begin_delta();
        e.add_fact_strs("p", &["b"]).unwrap();
        let p = e.lookup("p").unwrap();
        let b = e.constant("b");
        assert!(e.remove_fact(p, std::slice::from_ref(&b)));
        let delta = e.take_delta().unwrap();
        assert!(delta.is_empty(), "add+remove must cancel: {delta:?}");
        // And the reverse order: removing an old fact then re-adding it.
        e.begin_delta();
        let a = e.constant("a");
        assert!(e.remove_fact(p, std::slice::from_ref(&a)));
        e.add_fact(p, vec![a.clone()]).unwrap();
        let delta = e.take_delta().unwrap();
        assert!(delta.is_empty(), "remove+add must cancel: {delta:?}");
    }

    #[test]
    fn wfs_stratum_rebuilds_locally_without_fallback() {
        let mut e = Engine::new();
        e.load(
            "move(p0,p1). move(p1,p2). color(p0,red).
             win(X) :- move(X,Y), not win(Y).
             hue(C) :- color(X,C).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        assert!(base.undefined.is_empty());
        e.begin_delta();
        e.add_fact_strs("move", &["p2", "p3"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        // The negation cycle is confined to `win`'s stratum: it re-runs
        // its alternating fixpoint locally instead of dragging the whole
        // program through a cold rebuild.
        assert!(!inc.profile.delta_fallback);
        assert!(inc.profile.delta_rebuilt_strata >= 1);
        assert!(inc.profile.well_founded);
        // The untouched `hue` stratum is reused wholesale.
        assert!(inc.profile.delta_reused_strata >= 1);
        let hue = e.lookup("hue").unwrap();
        assert!(inc.facts.shares_relation(hue, &base.facts));
    }

    #[test]
    fn delta_that_introduces_undefined_falls_back_to_cold() {
        let mut e = Engine::new();
        e.load(
            "move(p0,p1).
             win(X) :- move(X,Y), not win(Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        assert!(base.undefined.is_empty());
        e.begin_delta();
        // A self-loop makes win(p1) — and hence win(p0) — undefined: the
        // local fixpoint's residue forces the cold path.
        e.add_fact_strs("move", &["p1", "p1"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.profile.delta_fallback);
        let win = e.lookup("win").unwrap();
        let p1 = e.constant("p1");
        assert!(inc.is_undefined(win, &[p1]));
    }

    #[test]
    fn three_valued_base_model_falls_back_to_cold() {
        let mut e = Engine::new();
        e.load(
            "move(p0,p0).
             win(X) :- move(X,Y), not win(Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        assert!(!base.undefined.is_empty());
        e.begin_delta();
        e.add_fact_strs("move", &["p1", "p2"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.profile.delta_fallback);
    }

    #[test]
    fn aggregate_downstream_of_change_is_rebuilt() {
        let mut e = Engine::new();
        e.load(
            "n(a). n(b). m(a).
             un(X) :- n(X), not m(X).
             cnt(C) :- C = count{ X : un(X) }.",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        let cnt = e.lookup("cnt").unwrap();
        assert!(base.holds(cnt, &[Term::Int(1)]));
        e.begin_delta();
        e.add_fact_strs("n", &["c"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.holds(cnt, &[Term::Int(2)]));
        assert!(!inc.holds(cnt, &[Term::Int(1)]));
    }

    #[test]
    fn mixed_interleaving_matches_cold_at_every_step() {
        let mut e = Engine::new();
        e.load(
            "e(n0,n1). e(n1,n2). e(n2,n3).
             tc(X,Y) :- e(X,Y).
             tc(X,Y) :- tc(X,Z), e(Z,Y).",
        )
        .unwrap();
        let opts = EvalOptions::default();
        let mut model = e.run(&opts).unwrap();
        e.begin_delta();
        let ep = e.lookup("e").unwrap();
        let script: Vec<(bool, &str, &str)> = vec![
            (true, "n3", "n4"),
            (true, "n4", "n0"), // closes a cycle
            (false, "n1", "n2"),
            (true, "n1", "n2"), // cancels the retraction
            (false, "n4", "n0"),
            (false, "n0", "n1"),
        ];
        for (add, x, y) in script {
            let tx = e.constant(x);
            let ty = e.constant(y);
            if add {
                e.add_fact(ep, vec![tx, ty]).unwrap();
            } else {
                assert!(e.remove_fact(ep, &[tx, ty]));
            }
            let delta = e.take_delta().unwrap();
            model = e.apply_delta(&model, &delta, &opts).unwrap();
            let cold = e.run(&opts).unwrap();
            assert_models_agree(&model, &cold, &e);
        }
    }

    #[test]
    fn empty_delta_reuses_every_stratum() {
        let mut e = Engine::new();
        e.load("e(a,b). tc(X,Y) :- e(X,Y).").unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let delta = e.take_delta().unwrap();
        assert!(delta.is_empty());
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        assert_models_agree(&inc, &base, &e);
        let tc = e.lookup("tc").unwrap();
        let ep = e.lookup("e").unwrap();
        assert!(inc.facts.shares_relation(tc, &base.facts));
        assert!(inc.facts.shares_relation(ep, &base.facts));
        assert_eq!(inc.stats.derived, 0);
    }

    #[test]
    fn edb_only_unchanged_relations_share_base_allocations() {
        let mut e = Engine::new();
        e.load("p(a). q(b). r(c). tc(X) :- p(X).").unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        e.add_fact_strs("q", &["b2"]).unwrap();
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        // r never changed: shares the base allocation. q changed: doesn't.
        let r = e.lookup("r").unwrap();
        let q = e.lookup("q").unwrap();
        assert!(inc.facts.shares_relation(r, &base.facts));
        assert!(!inc.facts.shares_relation(q, &base.facts));
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
    }

    #[test]
    fn removed_edb_fact_still_derivable_by_rule_survives() {
        let mut e = Engine::new();
        // p has both stored facts and a rule; removing the stored p(b)
        // must keep p(b) when the rule still derives it.
        e.load("p(b). q(b). p(X) :- q(X).").unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        e.begin_delta();
        let p = e.lookup("p").unwrap();
        let b = e.constant("b");
        assert!(e.remove_fact(p, std::slice::from_ref(&b)));
        let delta = e.take_delta().unwrap();
        let inc = e.apply_delta(&base, &delta, &opts).unwrap();
        let cold = e.run(&opts).unwrap();
        assert_models_agree(&inc, &cold, &e);
        assert!(inc.holds(p, &[b]));
    }
}
