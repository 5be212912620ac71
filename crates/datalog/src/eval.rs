//! Bottom-up evaluation: naive and semi-naive fixpoint over stratified
//! programs.
//!
//! Each stratum (an SCC of the predicate dependency graph, see
//! [`crate::program`]) is evaluated in order. Non-recursive strata get a
//! single pass; recursive strata run the semi-naive delta iteration (or the
//! naive full re-derivation when [`EvalOptions::semi_naive`] is off — kept
//! as an ablation baseline, see DESIGN.md).
//!
//! Three further performance layers sit on top, each with its own
//! [`EvalOptions`] knob so the ablation benches can decompose the speedup:
//!
//! * **join planning** ([`EvalOptions::join_reorder`]): before a stratum
//!   runs, each rule body is greedily reordered by bound-variable count and
//!   current relation cardinality ([`Rule::reorder`]); the chosen order is
//!   recorded in the model's [`EvalProfile`] for `explain`-style dumps;
//! * **indexing** ([`EvalOptions::use_index`]): joins with any bound
//!   argument probe a lazily-built hash index on exactly the bound column
//!   set ([`crate::fact::Relation::iter_bound`]); build/hit/miss counts
//!   land in [`EvalStats`];
//! * **cross-query caching** ([`EvalOptions::base_cache`], driven by
//!   [`crate::Engine::run_for_query_seeded`]): strata whose predicates are
//!   already at fixpoint in a seeded base model are skipped outright, and
//!   a touched stratum whose cycle goes through negation runs the
//!   alternating fixpoint over its own rules only.
//!
//! Function terms (skolem placeholders from domain-map assertions, paper
//! §4) can generate unboundedly deep terms; derivations whose head exceeds
//! [`EvalOptions::max_term_depth`] are clipped and counted in
//! [`EvalStats::depth_clipped`].

use crate::atom::{AggFunc, Aggregate, Atom, BodyItem, CmpOp};
use crate::error::{DatalogError, Result};
use crate::fact::{FactStore, Tuple};
use crate::interner::Sym;
use crate::program::{RuleList, Stratification, Stratum};
use crate::rule::Rule;
use crate::term::{Subst, Term};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable cancellation flag for cooperative interruption of
/// long-running fixpoints (and, in `kind-core`, of in-flight fetch
/// plans). Every clone observes the same flag; setting it is sticky
/// until [`CancelToken::reset`].
///
/// The evaluators check the token **at round boundaries** (never inside
/// a join), so a cancelled evaluation stops after the current round and
/// returns [`DatalogError::Interrupted`] instead of a half-built model.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every holder of a clone observes it at its
    /// next check point.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Clears the flag so the token can be reused for the next
    /// operation.
    pub fn reset(&self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for CancelToken {
    /// Renders only the flag's value, never the allocation identity, so
    /// two structurally equal option sets format identically (the
    /// mediator's base-model fingerprint hashes a `Debug` rendering).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CancelToken({})",
            if self.is_cancelled() {
                "cancelled"
            } else {
                "live"
            }
        )
    }
}

/// Evaluation knobs.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Use semi-naive (delta) iteration for recursive strata. Turning this
    /// off re-derives everything each round (ablation baseline).
    pub semi_naive: bool,
    /// Maximum nesting depth of function terms in derived facts; deeper
    /// derivations are dropped (and counted). Bounds skolem chains.
    pub max_term_depth: usize,
    /// Hard cap on fixpoint rounds (per stratum, and on alternating
    /// fixpoint sweeps); exceeding it is an error.
    pub max_iterations: usize,
    /// Use hash indexes for joins with bound arguments (any column set,
    /// built on first probe). Turning this off forces full scans
    /// (ablation baseline).
    pub use_index: bool,
    /// Greedily reorder rule bodies per stratum by bound-variable count
    /// and relation cardinality before evaluating. Turning this off keeps
    /// the compiled source order (ablation baseline).
    pub join_reorder: bool,
    /// Allow evaluation on top of a cached base model
    /// ([`crate::Engine::run_for_query_seeded`]): strata untouched by the
    /// delta are seeded from the cache and skipped. Turning this off
    /// re-derives everything from the EDB (ablation baseline).
    pub base_cache: bool,
    /// Apply the magic-sets demand rewrite on the goal-directed query
    /// paths ([`crate::Engine::run_for_query`] and
    /// [`crate::Engine::run_for_query_seeded`]): adorn the relevant rules
    /// from the goal's bound/free pattern, guard them with magic (demand)
    /// predicates seeded from the query constants, and evaluate only what
    /// some demand reaches. Answers are identical with the rewrite on or
    /// off; only the amount of derived intermediate facts (and wall
    /// clock) changes. Full-program evaluation ([`crate::Engine::run`],
    /// `materialize_all`) never applies the rewrite regardless of this
    /// knob — there is no goal to demand from.
    pub magic_sets: bool,
    /// Cooperative cancellation: when set, every fixpoint loop
    /// (stratified, semi-naive, and the alternating fixpoint) checks the
    /// token at round boundaries and returns
    /// [`DatalogError::Interrupted`] once it is cancelled. `None` (the
    /// default) evaluates to completion. The token does not participate
    /// in model identity: two runs differing only in `cancel` produce
    /// the same model (when neither is actually cancelled).
    pub cancel: Option<CancelToken>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            semi_naive: true,
            max_term_depth: 8,
            max_iterations: 100_000,
            use_index: true,
            join_reorder: true,
            base_cache: true,
            magic_sets: true,
            cancel: None,
        }
    }
}

/// The round-boundary cancellation check shared by every fixpoint loop:
/// returns [`DatalogError::Interrupted`] iff the options carry a
/// cancelled token.
pub(crate) fn check_cancelled(opts: &EvalOptions, stats: &EvalStats) -> Result<()> {
    match &opts.cancel {
        Some(token) if token.is_cancelled() => Err(DatalogError::Interrupted {
            after_iterations: stats.iterations,
        }),
        _ => Ok(()),
    }
}

/// Counters reported by an evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Total fixpoint rounds executed.
    pub iterations: usize,
    /// Facts derived (beyond the EDB).
    pub derived: usize,
    /// Derivations dropped by the term-depth limit.
    pub depth_clipped: usize,
    /// Rule applications (body solutions found).
    pub applications: usize,
    /// Column-set indexes built on first probe.
    pub index_builds: usize,
    /// Join probes answered through an index (including fully-ground
    /// membership tests).
    pub index_hits: usize,
    /// Join probes that fell back to a full relation scan.
    pub index_misses: usize,
}

impl EvalStats {
    /// Adds a sub-evaluation's counters (e.g. a stratum-local
    /// well-founded run) into these totals.
    pub(crate) fn add(&mut self, sub: &EvalStats) {
        self.iterations += sub.iterations;
        self.derived += sub.derived;
        self.depth_clipped += sub.depth_clipped;
        self.applications += sub.applications;
        self.index_builds += sub.index_builds;
        self.index_hits += sub.index_hits;
        self.index_misses += sub.index_misses;
    }
}

/// Index probe counters for one working store, threaded through matching
/// by shared reference (matching only ever holds `&self`).
///
/// A working store shares the relations it does not write with the model
/// it was seeded from, and those may already carry indexes some earlier
/// run built. So a build is counted the first time this scope asks for a
/// `(pred, cols)` index of its working store, whether or not the index
/// already exists physically: the counters depend only on the program
/// and the facts, never on run history. Probes of a per-round delta
/// store (always fresh) count physical builds.
#[derive(Debug, Default)]
pub(crate) struct IndexCounters {
    builds: Cell<usize>,
    hits: Cell<usize>,
    misses: Cell<usize>,
    asked: RefCell<HashSet<(Sym, Vec<usize>)>>,
}

impl IndexCounters {
    fn build(&self) {
        self.builds.set(self.builds.get() + 1);
    }
    /// Records an ask for `pred`'s `cols` index; `true` on the first.
    fn first_ask(&self, pred: Sym, cols: Vec<usize>) -> bool {
        self.asked.borrow_mut().insert((pred, cols))
    }
    fn hit(&self) {
        self.hits.set(self.hits.get() + 1);
    }
    fn miss(&self) {
        self.misses.set(self.misses.get() + 1);
    }
    fn totals(&self) -> (usize, usize, usize) {
        (self.builds.get(), self.hits.get(), self.misses.get())
    }
    pub(crate) fn fold_into(&self, stats: &mut EvalStats) {
        stats.index_builds += self.builds.get();
        stats.index_hits += self.hits.get();
        stats.index_misses += self.misses.get();
    }
}

/// The join order chosen for one rule within one stratum evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePlan {
    /// Head predicate of the rule.
    pub head: Sym,
    /// For each executed body position, the index of that item in the
    /// rule's compiled body order.
    pub join_order: Vec<usize>,
    /// Whether the greedy reorder changed the compiled order.
    pub reordered: bool,
}

/// What happened while evaluating one stratum.
#[derive(Debug, Clone, Default)]
pub struct StratumProfile {
    /// Predicates defined in this stratum.
    pub preds: Vec<Sym>,
    /// Whether the stratum required fixpoint iteration.
    pub recursive: bool,
    /// Stratum skipped because every predicate was already at fixpoint in
    /// the seeded base model (cross-query cache).
    pub skipped: bool,
    /// Fixpoint rounds spent on this stratum.
    pub iterations: usize,
    /// Facts derived in this stratum.
    pub derived: usize,
    /// Indexes built while evaluating this stratum.
    pub index_builds: usize,
    /// Index-answered join probes in this stratum.
    pub index_hits: usize,
    /// Full-scan join probes in this stratum.
    pub index_misses: usize,
    /// Adorned (binding-specialized) rules evaluated in this stratum;
    /// `0` unless the magic-sets rewrite fired.
    pub adorned_rules: usize,
    /// Magic (demand) predicates defined in this stratum; `0` unless the
    /// magic-sets rewrite fired.
    pub magic_preds: usize,
    /// The join order used for each rule of the stratum.
    pub plans: Vec<RulePlan>,
}

/// Why [`crate::Engine::run_for_query_seeded`] (or a caller deciding for
/// it) evaluated cold instead of seeding from the cached base model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedDecline {
    /// [`EvalOptions::base_cache`] is off.
    CacheOff,
    /// The base model has undefined atoms: a three-valued base gives the
    /// closed-world seeding nothing sound to stand on.
    ThreeValuedBase,
    /// A touched stratum's local alternating fixpoint left atoms
    /// undefined, which the strata above it cannot take as input.
    UndefinedResidue,
    /// The query's head predicate already has facts in the base model,
    /// so the seed would double as input (decided by the caller).
    HeadCollision,
}

/// A record of how a model was computed: per-stratum join plans and
/// counters, inspectable via [`crate::Engine::render_profile`].
#[derive(Debug, Clone, Default)]
pub struct EvalProfile {
    /// Strata in evaluation order.
    pub strata: Vec<StratumProfile>,
    /// Evaluation ran the alternating fixpoint (well-founded semantics):
    /// over the whole program, when strata hold a single summary entry,
    /// or over the touched negation-cycle strata of a seeded or
    /// incremental run.
    pub well_founded: bool,
    /// Facts seeded from a cached base model before evaluation.
    pub seeded: usize,
    /// EDB facts a seeded query found missing from its cached base model
    /// — the delta its seed plan started from (on an overlay, the facts
    /// the overlay added that the base model lacks).
    pub novel_facts: usize,
    /// Why a seeded query evaluation fell back to a cold one; `None` when
    /// it seeded, or when no seeding was asked for.
    pub seed_declined: Option<SeedDecline>,
    /// Whether the magic-sets demand rewrite produced the evaluated
    /// program (goal-directed query paths only; see
    /// [`EvalOptions::magic_sets`]).
    pub magic_fired: bool,
    /// Total adorned (binding-specialized) rules in the rewritten
    /// program; `0` when the rewrite did not fire.
    pub adorned_rules: usize,
    /// Total magic (demand) predicates generated by the rewrite; `0`
    /// when the rewrite did not fire.
    pub magic_preds: usize,
    /// The magic rewrite applied but was *declined* by the cost model:
    /// the estimated demand cone was too large a fraction of the full
    /// closure for demand filtering to win (see
    /// `kind_datalog::magic`), so plain bottom-up ran instead.
    pub magic_declined: bool,
    /// The cost model's estimated demanded fraction of the reachable EDB
    /// (`None` when no estimate was made — rewrite off, declined for
    /// structural reasons, or below the size floor).
    pub magic_demand_ratio: Option<f64>,
    /// The model was produced by [`crate::Engine::apply_delta`]
    /// (incremental maintenance) rather than a cold evaluation.
    pub delta_applied: bool,
    /// Strata whose relations were reused wholesale from the previous
    /// model (untouched by the delta) during [`crate::Engine::apply_delta`].
    pub delta_reused_strata: usize,
    /// Strata re-evaluated incrementally (seeded semi-naive additions or
    /// DRed overdelete/rederive) during [`crate::Engine::apply_delta`].
    pub delta_incremental_strata: usize,
    /// Strata rebuilt cold (non-monotone residues: changed rules, mixed
    /// grow/shrink inputs) during [`crate::Engine::apply_delta`].
    pub delta_rebuilt_strata: usize,
    /// [`crate::Engine::apply_delta`] fell back to a full cold evaluation
    /// (well-founded program or three-valued base model).
    pub delta_fallback: bool,
}

impl EvalProfile {
    /// Strata skipped outright: seeded from a cached base model, or
    /// reused wholesale by incremental maintenance.
    pub fn skipped_strata(&self) -> usize {
        self.strata.iter().filter(|s| s.skipped).count()
    }
}

/// The result of evaluating a program: a (possibly three-valued) model.
#[derive(Debug, Clone)]
pub struct Model {
    /// True facts: EDB plus everything derived.
    pub facts: FactStore,
    /// Atoms with undefined truth value under the well-founded semantics
    /// (always empty for stratified programs).
    pub undefined: FactStore,
    /// Evaluation counters.
    pub stats: EvalStats,
    /// How the model was computed (join plans, per-stratum counters).
    pub profile: EvalProfile,
}

impl Model {
    /// Whether `pred(args)` is true in the model.
    pub fn holds(&self, pred: crate::interner::Sym, args: &[Term]) -> bool {
        self.facts.contains(pred, args)
    }

    /// Whether `pred(args)` is undefined (neither true nor false).
    pub fn is_undefined(&self, pred: crate::interner::Sym, args: &[Term]) -> bool {
        self.undefined.contains(pred, args)
    }

    /// All tuples of `pred` that are true.
    pub fn tuples(&self, pred: crate::interner::Sym) -> Vec<Tuple> {
        self.facts
            .relation(pred)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Matches a query atom (which may contain variables) against the true
    /// facts, returning one substituted argument vector per solution.
    /// Ground argument positions are answered through the relation index
    /// instead of a full scan.
    pub fn query(&self, pattern: &Atom) -> Vec<Vec<Term>> {
        let mut out = Vec::new();
        let Some(rel) = self.facts.relation(pattern.pred) else {
            return out;
        };
        let mut vars = Vec::new();
        pattern.collect_vars(&mut vars);
        let nvars = vars.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut subst = Subst::with_capacity(nvars);
        let bound: Vec<(usize, &Term)> = pattern
            .args
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ground())
            .collect();
        let mut scan = |tuple: &Tuple, out: &mut Vec<Vec<Term>>| {
            if tuple.len() != pattern.args.len() {
                return;
            }
            let m = subst.mark();
            if pattern
                .args
                .iter()
                .zip(tuple.iter())
                .all(|(p, v)| subst.match_term(p, v))
            {
                out.push(pattern.args.iter().map(|t| t.apply(&subst)).collect());
            }
            subst.undo_to(m);
        };
        if bound.is_empty() {
            for tuple in rel.iter() {
                scan(tuple, &mut out);
            }
        } else {
            for tuple in rel.iter_bound(&bound) {
                scan(tuple, &mut out);
            }
        }
        out
    }
}

/// How negated atoms are decided during matching.
#[derive(Clone, Copy)]
pub(crate) enum NegView<'a> {
    /// Stratified: `not p(t)` holds iff `p(t)` is absent from the total
    /// store (lower strata are complete by construction).
    Closed,
    /// Reduct: `not p(t)` holds iff `p(t)` is absent from a frozen
    /// interpretation (the alternating-fixpoint argument).
    Frozen(&'a FactStore),
}

pub(crate) struct MatchCtx<'a> {
    /// The accumulated store (EDB + everything derived so far).
    pub total: &'a FactStore,
    /// When `Some((store, idx))`, the positive atom at plan position `idx`
    /// must match inside `store` (the delta) instead of `total`.
    pub delta: Option<(&'a FactStore, usize)>,
    /// Negation policy.
    pub neg: NegView<'a>,
    /// Whether index lookups are enabled.
    pub use_index: bool,
    /// Index build/hit/miss counters for this evaluation scope.
    pub counters: &'a IndexCounters,
}

impl MatchCtx<'_> {
    fn neg_holds(&self, pred: crate::interner::Sym, args: &[Term]) -> bool {
        match self.neg {
            NegView::Closed => !self.total.contains(pred, args),
            NegView::Frozen(j) => !j.contains(pred, args),
        }
    }
}

/// Enumerates all solutions of `items[idx..]` under `subst`, invoking `cb`
/// for each complete solution. Returns the number of solutions found.
pub(crate) fn solve(
    items: &[BodyItem],
    idx: usize,
    subst: &mut Subst,
    ctx: &MatchCtx<'_>,
    cb: &mut dyn FnMut(&Subst),
) -> usize {
    let Some(item) = items.get(idx) else {
        cb(subst);
        return 1;
    };
    let mut found = 0;
    match item {
        BodyItem::Pos(atom) => {
            let use_delta = matches!(ctx.delta, Some((_, di)) if di == idx);
            let store: &FactStore = if use_delta {
                ctx.delta.expect("delta set").0
            } else {
                ctx.total
            };
            let Some(rel) = store.relation(atom.pred) else {
                return 0;
            };
            if ctx.use_index {
                // Which argument positions are ground under the current
                // bindings?
                let applied: Vec<Term> = atom.args.iter().map(|t| t.apply(subst)).collect();
                if !applied.is_empty() && applied.iter().all(Term::is_ground) {
                    // Fully ground: a membership probe replaces the scan.
                    ctx.counters.hit();
                    if applied.len() == atom.args.len() && rel.contains(&applied) {
                        found += solve(items, idx + 1, subst, ctx, cb);
                    }
                    return found;
                }
                let bound: Vec<(usize, &Term)> = applied
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.is_ground())
                    .collect();
                if !bound.is_empty() {
                    let mut cols: Vec<usize> = bound.iter().map(|&(c, _)| c).collect();
                    cols.sort_unstable();
                    let built = rel.ensure_index(&cols);
                    let counted = if use_delta {
                        built
                    } else {
                        ctx.counters.first_ask(atom.pred, cols)
                    };
                    if counted {
                        ctx.counters.build();
                    }
                    ctx.counters.hit();
                    for tuple in rel.iter_bound(&bound) {
                        if tuple.len() != atom.args.len() {
                            continue;
                        }
                        let m = subst.mark();
                        if atom
                            .args
                            .iter()
                            .zip(tuple.iter())
                            .all(|(p, v)| subst.match_term(p, v))
                        {
                            found += solve(items, idx + 1, subst, ctx, cb);
                        }
                        subst.undo_to(m);
                    }
                    return found;
                }
            }
            ctx.counters.miss();
            for tuple in rel.iter() {
                if tuple.len() != atom.args.len() {
                    continue;
                }
                let m = subst.mark();
                if atom
                    .args
                    .iter()
                    .zip(tuple.iter())
                    .all(|(p, v)| subst.match_term(p, v))
                {
                    found += solve(items, idx + 1, subst, ctx, cb);
                }
                subst.undo_to(m);
            }
        }
        BodyItem::Neg(atom) => {
            let ground = atom.apply(subst);
            debug_assert!(ground.is_ground(), "negation not ground at runtime");
            if ctx.neg_holds(ground.pred, &ground.args) {
                found += solve(items, idx + 1, subst, ctx, cb);
            }
        }
        BodyItem::Cmp(op, l, r) => {
            if let (Some(lv), Some(rv)) = (l.eval(subst), r.eval(subst)) {
                if cmp_holds(*op, &lv, &rv) {
                    found += solve(items, idx + 1, subst, ctx, cb);
                }
            }
        }
        BodyItem::Assign(lhs, expr) => {
            if let Some(val) = expr.eval(subst) {
                let m = subst.mark();
                if subst.match_term(lhs, &val) {
                    found += solve(items, idx + 1, subst, ctx, cb);
                }
                subst.undo_to(m);
            }
        }
        BodyItem::Agg(agg) => {
            found += solve_aggregate(items, idx, agg, subst, ctx, cb);
        }
    }
    found
}

fn cmp_holds(op: CmpOp, l: &Term, r: &Term) -> bool {
    // Integers compare numerically; other terms use the structural order.
    let ord = l.cmp(r);
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// Evaluates an aggregate subgoal: runs the subquery (against the total
/// store — aggregates are stratified), groups solutions by the group-by
/// variables, folds the distinct collected values, and continues with each
/// group's bindings.
fn solve_aggregate(
    items: &[BodyItem],
    idx: usize,
    agg: &Aggregate,
    subst: &mut Subst,
    ctx: &MatchCtx<'_>,
    cb: &mut dyn FnMut(&Subst),
) -> usize {
    // Subquery sees the total store, never the delta, and inherits the
    // outer bindings (correlation).
    let sub_ctx = MatchCtx {
        total: ctx.total,
        delta: None,
        neg: ctx.neg,
        use_index: ctx.use_index,
        counters: ctx.counters,
    };
    let mut groups: HashMap<Vec<Term>, HashSet<Term>> = HashMap::new();
    {
        let groups = &mut groups;
        let value = &agg.value;
        let group_by = &agg.group_by;
        let m = subst.mark();
        solve(&agg.body, 0, subst, &sub_ctx, &mut |s: &Subst| {
            let key: Vec<Term> = group_by.iter().map(|v| Term::Var(*v).apply(s)).collect();
            let val = value.apply(s);
            if key.iter().all(Term::is_ground) && val.is_ground() {
                groups.entry(key).or_default().insert(val);
            }
        });
        subst.undo_to(m);
    }
    // `count`/`sum` of an empty solution set (no grouping) is 0 — needed to
    // detect cardinality violations of the form "exactly one" (Example 3).
    if groups.is_empty() && agg.group_by.is_empty() {
        if let Some(zero) = fold_empty(agg.func) {
            groups.insert(Vec::new(), HashSet::new());
            let _ = zero; // marker: empty group handled by fold()
        }
    }
    let mut found = 0;
    for (key, values) in groups {
        let Some(result) = fold(agg.func, &values) else {
            continue;
        };
        let m = subst.mark();
        let mut ok = true;
        for (v, k) in agg.group_by.iter().zip(key.iter()) {
            if !subst.match_term(&Term::Var(*v), k) {
                ok = false;
                break;
            }
        }
        if ok && subst.match_term(&Term::Var(agg.result), &result) {
            found += solve(items, idx + 1, subst, ctx, cb);
        }
        subst.undo_to(m);
    }
    found
}

fn fold_empty(func: AggFunc) -> Option<Term> {
    match func {
        AggFunc::Count | AggFunc::Sum => Some(Term::Int(0)),
        AggFunc::Min | AggFunc::Max => None,
    }
}

fn fold(func: AggFunc, values: &HashSet<Term>) -> Option<Term> {
    match func {
        AggFunc::Count => Some(Term::Int(values.len() as i64)),
        AggFunc::Sum => {
            let mut acc: i64 = 0;
            for v in values {
                match v {
                    Term::Int(i) => acc = acc.checked_add(*i)?,
                    _ => return None,
                }
            }
            Some(Term::Int(acc))
        }
        AggFunc::Min => values.iter().min().cloned(),
        AggFunc::Max => values.iter().max().cloned(),
    }
}

/// Applies `rule` under `ctx`, inserting new head facts into `out`.
/// Returns the number of new facts.
pub(crate) fn apply_rule(
    rule: &Rule,
    ctx: &MatchCtx<'_>,
    out: &mut FactStore,
    stats: &mut EvalStats,
    opts: &EvalOptions,
) -> usize {
    let mut subst = Subst::with_capacity(rule.nvars as usize);
    let mut new = 0;
    let head = &rule.head;
    let total = ctx.total;
    let max_depth = opts.max_term_depth;
    let mut clipped = 0usize;
    let mut apps = 0usize;
    solve(&rule.body, 0, &mut subst, ctx, &mut |s: &Subst| {
        apps += 1;
        let args: Vec<Term> = head.args.iter().map(|t| t.apply(s)).collect();
        debug_assert!(args.iter().all(Term::is_ground), "non-ground head");
        if args.iter().any(|t| t.depth() > max_depth) {
            clipped += 1;
            return;
        }
        if !total.contains(head.pred, &args) && out.insert(head.pred, args.into()) {
            new += 1;
        }
    });
    stats.applications += apps;
    stats.depth_clipped += clipped;
    new
}

/// Join planning: reorders `rule` for evaluation (when enabled), recording
/// the chosen plan. Same-stratum predicates are costed as unbounded since
/// their relations grow during iteration.
pub(crate) fn plan_rule(
    rule: &Rule,
    total: &FactStore,
    stratum_preds: &HashSet<Sym>,
    opts: &EvalOptions,
) -> (Rule, RulePlan) {
    if !opts.join_reorder {
        return (
            rule.clone(),
            RulePlan {
                head: rule.head.pred,
                join_order: (0..rule.body.len()).collect(),
                reordered: false,
            },
        );
    }
    let (planned, join_order) = rule.reorder(|p| {
        if stratum_preds.contains(&p) {
            usize::MAX
        } else {
            total.relation(p).map_or(0, |r| r.len())
        }
    });
    let reordered = join_order.iter().enumerate().any(|(i, &o)| i != o);
    (
        planned,
        RulePlan {
            head: rule.head.pred,
            join_order,
            reordered,
        },
    )
}

/// Executes one full application pass (one fixpoint round): every
/// `(rule, delta-variant)` unit once, in order, into one shared store of
/// new facts. Every unit matches against the same frozen pre-round
/// `total`, so the set of facts a round derives does not depend on unit
/// order.
pub(crate) fn execute_round(
    units: &[(&Rule, Option<usize>)],
    total: &FactStore,
    delta: Option<&FactStore>,
    neg: NegView<'_>,
    opts: &EvalOptions,
    counters: &IndexCounters,
    stats: &mut EvalStats,
) -> FactStore {
    let mut out = FactStore::new();
    for &(rule, di) in units {
        let ctx = MatchCtx {
            total,
            delta: di.map(|d| (delta.expect("delta store"), d)),
            neg,
            use_index: opts.use_index,
            counters,
        };
        apply_rule(rule, &ctx, &mut out, stats, opts);
    }
    out
}

/// Evaluates a stratified program over `edb`, producing a two-valued model.
///
/// `rules` is the full rule list; `strat` the stratification computed by
/// [`crate::program::stratify`]. The caller guarantees `!strat.needs_wfs`.
pub(crate) fn eval_stratified(
    rules: &[Rule],
    strat: &Stratification,
    edb: &FactStore,
    opts: &EvalOptions,
) -> Result<Model> {
    let strata: Vec<&Stratum> = strat.strata.iter().collect();
    Ok(
        eval_stratified_skipping(RuleList::from(rules), &strata, edb, opts, None)?
            .expect("a stratified program leaves nothing undefined"),
    )
}

/// Like [`eval_stratified`], but skips any stratum whose predicates are
/// all in `stable` (they are already at fixpoint in `edb`, having been
/// seeded from a cached base model — see
/// [`crate::Engine::run_for_query_seeded`]), and evaluates a stratum
/// whose cycle goes through negation by the alternating fixpoint over its
/// own rules, on top of the strata below it. The well-founded model
/// restricted to one SCC equals that SCC's well-founded model relative to
/// the two-valued strata beneath, so this is exact while every local
/// fixpoint stays two-valued; `Ok(None)` when one leaves atoms undefined.
///
/// `strata` (in evaluation order) address `rules` by index; a skipped
/// stratum's rules are never looked at. `edb` is cloned shallowly:
/// relations no evaluated stratum writes stay shared with it (and with
/// whatever model they were seeded from); the rest are copied on first
/// write.
pub(crate) fn eval_stratified_skipping(
    rules: RuleList<'_>,
    strata: &[&Stratum],
    edb: &FactStore,
    opts: &EvalOptions,
    stable: Option<&HashSet<Sym>>,
) -> Result<Option<Model>> {
    let mut total = edb.clone();
    let mut stats = EvalStats::default();
    let mut profile = EvalProfile::default();
    let counters = IndexCounters::default();
    for &stratum in strata {
        let mut sp = StratumProfile {
            preds: stratum.preds.clone(),
            recursive: stratum.recursive,
            ..Default::default()
        };
        if let Some(stable) = stable {
            if !stratum.preds.is_empty() && stratum.preds.iter().all(|p| stable.contains(p)) {
                sp.skipped = true;
                profile.strata.push(sp);
                continue;
            }
        }
        if stratum.wfs {
            let local: Vec<Rule> = stratum.rules.iter().map(|&ri| rules[ri].clone()).collect();
            let planned = crate::wfs::plan_wfs(&local, &total, opts);
            let sub = crate::wfs::eval_well_founded_planned(&planned, &total, opts)?;
            if !sub.undefined.is_empty() {
                return Ok(None);
            }
            total = sub.facts;
            stats.add(&sub.stats);
            profile.well_founded = true;
            if let Some(summary) = sub.profile.strata.into_iter().next() {
                sp = StratumProfile {
                    preds: sp.preds,
                    ..summary
                };
            }
            profile.strata.push(sp);
            continue;
        }
        let stratum_preds: HashSet<Sym> = stratum.preds.iter().copied().collect();
        let prepared: Vec<(Rule, RulePlan)> = stratum
            .rules
            .iter()
            .map(|&ri| plan_rule(&rules[ri], &total, &stratum_preds, opts))
            .collect();
        let stratum_rules: Vec<&Rule> = prepared.iter().map(|(r, _)| r).collect();
        sp.plans = prepared.iter().map(|(_, p)| p.clone()).collect();
        let before = stats;
        let (builds, hits, misses) = counters.totals();
        eval_stratum(
            &stratum_rules,
            stratum.recursive,
            &stratum_preds,
            &mut total,
            &mut stats,
            &counters,
            opts,
        )?;
        sp.iterations = stats.iterations - before.iterations;
        sp.derived = stats.derived - before.derived;
        let (b, h, m) = counters.totals();
        sp.index_builds = b - builds;
        sp.index_hits = h - hits;
        sp.index_misses = m - misses;
        profile.strata.push(sp);
    }
    counters.fold_into(&mut stats);
    Ok(Some(Model {
        facts: total,
        undefined: FactStore::new(),
        stats,
        profile,
    }))
}

/// Evaluates one stratum to fixpoint on top of `total`, which already
/// holds every lower stratum: a single pass when the stratum is not
/// recursive, otherwise semi-naive iteration (or naive iteration, the
/// ablation baseline, when [`EvalOptions::semi_naive`] is off).
pub(crate) fn eval_stratum(
    rules: &[&Rule],
    recursive: bool,
    stratum_preds: &HashSet<Sym>,
    total: &mut FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    if !recursive {
        let units: Vec<(&Rule, Option<usize>)> = rules.iter().map(|&r| (r, None)).collect();
        let out = execute_round(&units, total, None, NegView::Closed, opts, counters, stats);
        stats.derived += total.absorb(&out);
        stats.iterations += 1;
        Ok(())
    } else if opts.semi_naive {
        seminaive_stratum(rules, stratum_preds, total, stats, counters, opts)
    } else {
        naive_fixpoint(rules, NegView::Closed, total, stats, counters, opts)
    }
}

/// Applies every rule in full rounds until a round derives nothing new
/// (naive iteration). Serves both the naive ablation baseline and the
/// positive reduct of the alternating fixpoint ([`gamma`]).
fn naive_fixpoint(
    rules: &[&Rule],
    neg: NegView<'_>,
    total: &mut FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    let units: Vec<(&Rule, Option<usize>)> = rules.iter().map(|&r| (r, None)).collect();
    loop {
        check_cancelled(opts, stats)?;
        stats.iterations += 1;
        if stats.iterations > opts.max_iterations {
            return Err(DatalogError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let out = execute_round(&units, total, None, neg, opts, counters, stats);
        let added = total.absorb(&out);
        stats.derived += added;
        if added == 0 {
            return Ok(());
        }
    }
}

fn seminaive_stratum(
    rules: &[&Rule],
    stratum_preds: &HashSet<Sym>,
    total: &mut FactStore,
    stats: &mut EvalStats,
    counters: &IndexCounters,
    opts: &EvalOptions,
) -> Result<()> {
    // Round 0: naive pass to seed the delta.
    check_cancelled(opts, stats)?;
    let seed_units: Vec<(&Rule, Option<usize>)> = rules.iter().map(|&r| (r, None)).collect();
    stats.iterations += 1;
    let mut delta = execute_round(
        &seed_units,
        total,
        None,
        NegView::Closed,
        opts,
        counters,
        stats,
    );
    stats.derived += total.absorb(&delta);
    // One delta-variant unit per positive body atom over a stratum
    // predicate, in fixed (rule-index, variant-index) order; the delta
    // store itself changes per round but the unit list does not.
    let mut delta_units: Vec<(&Rule, Option<usize>)> = Vec::new();
    for &rule in rules {
        for di in rule.positive_atom_indices() {
            let BodyItem::Pos(atom) = &rule.body[di] else {
                unreachable!()
            };
            if stratum_preds.contains(&atom.pred) {
                delta_units.push((rule, Some(di)));
            }
        }
    }
    while !delta.is_empty() {
        check_cancelled(opts, stats)?;
        stats.iterations += 1;
        if stats.iterations > opts.max_iterations {
            return Err(DatalogError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let next = execute_round(
            &delta_units,
            total,
            Some(&delta),
            NegView::Closed,
            opts,
            counters,
            stats,
        );
        stats.derived += total.absorb(&next);
        delta = next;
    }
    Ok(())
}

/// Computes the least model of the *positive reduct* of `rules` wrt the
/// frozen interpretation `j`: `not p(t)` holds iff `p(t) ∉ j`. Used by the
/// alternating fixpoint (well-founded semantics). Each call starts a
/// fresh working store (a shallow clone of `edb`), so it keeps its own
/// index counters and folds them into `stats`.
pub(crate) fn gamma(
    rules: &[Rule],
    edb: &FactStore,
    j: &FactStore,
    stats: &mut EvalStats,
    opts: &EvalOptions,
) -> Result<FactStore> {
    let counters = IndexCounters::default();
    let mut total = edb.clone();
    // With negation frozen the program is positive: a single global
    // fixpoint loop is sound. Semi-naive deltas would need per-predicate
    // bookkeeping across the whole program; for clarity we run rounds of
    // full rule application here (the reduct is evaluated only a handful of
    // times).
    let rules: Vec<&Rule> = rules.iter().collect();
    naive_fixpoint(
        &rules,
        NegView::Frozen(j),
        &mut total,
        stats,
        &counters,
        opts,
    )?;
    counters.fold_into(stats);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
    use crate::program::stratify;
    use crate::term::Var;

    struct Fixture {
        syms: Interner,
        edb: FactStore,
        rules: Vec<Rule>,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                syms: Interner::new(),
                edb: FactStore::new(),
                rules: Vec::new(),
            }
        }
        fn c(&mut self, name: &str) -> Term {
            Term::Const(self.syms.intern(name))
        }
        fn fact(&mut self, pred: &str, args: &[Term]) {
            let p = self.syms.intern(pred);
            self.edb.insert(p, args.to_vec().into());
        }
        fn run(&self) -> Model {
            let strat = stratify(&self.rules, |s| format!("{s}")).unwrap();
            assert!(!strat.needs_wfs);
            eval_stratified(&self.rules, &strat, &self.edb, &EvalOptions::default()).unwrap()
        }
    }

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    #[test]
    fn transitive_closure() {
        let mut f = Fixture::new();
        let a = f.c("a");
        let b = f.c("b");
        let c = f.c("c");
        let d = f.c("d");
        f.fact("e", &[a.clone(), b.clone()]);
        f.fact("e", &[b.clone(), c.clone()]);
        f.fact("e", &[c.clone(), d.clone()]);
        let e = f.syms.intern("e");
        let tc = f.syms.intern("tc");
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![BodyItem::Pos(Atom::new(e, vec![v(0), v(1)]))],
                2,
                vec!["X".into(), "Y".into()],
            )
            .unwrap(),
        );
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(tc, vec![v(0), v(2)])),
                    BodyItem::Pos(Atom::new(e, vec![v(2), v(1)])),
                ],
                3,
                vec!["X".into(), "Y".into(), "Z".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(m.holds(tc, &[a.clone(), d.clone()]));
        assert!(m.holds(tc, &[b.clone(), d.clone()]));
        assert!(!m.holds(tc, &[d.clone(), a.clone()]));
        assert_eq!(m.tuples(tc).len(), 6);
    }

    #[test]
    fn seminaive_and_naive_agree() {
        let mut f = Fixture::new();
        // Chain of 30 nodes.
        let nodes: Vec<Term> = (0..30).map(|i| f.c(&format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            f.fact("e", &[w[0].clone(), w[1].clone()]);
        }
        let e = f.syms.intern("e");
        let tc = f.syms.intern("tc");
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![BodyItem::Pos(Atom::new(e, vec![v(0), v(1)]))],
                2,
                vec!["X".into(), "Y".into()],
            )
            .unwrap(),
        );
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(tc, vec![v(0), v(2)])),
                    BodyItem::Pos(Atom::new(tc, vec![v(2), v(1)])),
                ],
                3,
                vec!["X".into(), "Y".into(), "Z".into()],
            )
            .unwrap(),
        );
        let strat = stratify(&f.rules, |s| format!("{s}")).unwrap();
        let semi = eval_stratified(&f.rules, &strat, &f.edb, &EvalOptions::default()).unwrap();
        let naive = eval_stratified(
            &f.rules,
            &strat,
            &f.edb,
            &EvalOptions {
                semi_naive: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(semi.tuples(tc).len(), naive.tuples(tc).len());
        assert_eq!(semi.tuples(tc).len(), 29 * 30 / 2);
    }

    #[test]
    fn stratified_negation_complement() {
        let mut f = Fixture::new();
        let a = f.c("a");
        let b = f.c("b");
        f.fact("node", std::slice::from_ref(&a));
        f.fact("node", std::slice::from_ref(&b));
        f.fact("marked", std::slice::from_ref(&a));
        let node = f.syms.intern("node");
        let marked = f.syms.intern("marked");
        let un = f.syms.intern("unmarked");
        f.rules.push(
            Rule::compile(
                Atom::new(un, vec![v(0)]),
                vec![
                    BodyItem::Pos(Atom::new(node, vec![v(0)])),
                    BodyItem::Neg(Atom::new(marked, vec![v(0)])),
                ],
                1,
                vec!["X".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(!m.holds(un, &[a]));
        assert!(m.holds(un, &[b]));
    }

    #[test]
    fn aggregate_count_groups() {
        let mut f = Fixture::new();
        let n1 = f.c("n1");
        let n2 = f.c("n2");
        let a1 = f.c("a1");
        let a2 = f.c("a2");
        let a3 = f.c("a3");
        f.fact("has", &[n1.clone(), a1]);
        f.fact("has", &[n1.clone(), a2]);
        f.fact("has", &[n2.clone(), a3]);
        let has = f.syms.intern("has");
        let cnt = f.syms.intern("cnt");
        // cnt(N, C) :- C = count{ A [N] : has(N, A) }.
        f.rules.push(
            Rule::compile(
                Atom::new(cnt, vec![v(0), v(1)]),
                vec![BodyItem::Agg(Aggregate {
                    func: AggFunc::Count,
                    value: v(2),
                    group_by: vec![Var(0)],
                    body: vec![BodyItem::Pos(Atom::new(has, vec![v(0), v(2)]))],
                    result: Var(1),
                })],
                3,
                vec!["N".into(), "C".into(), "A".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(m.holds(cnt, &[n1, Term::Int(2)]));
        assert!(m.holds(cnt, &[n2, Term::Int(1)]));
    }

    #[test]
    fn aggregate_count_empty_is_zero() {
        let mut f = Fixture::new();
        let x = f.c("x");
        f.fact("probe", std::slice::from_ref(&x));
        let probe = f.syms.intern("probe");
        let none = f.syms.intern("nothing");
        let res = f.syms.intern("res");
        // res(P, C) :- probe(P), C = count{ Y : nothing(Y) }.
        f.rules.push(
            Rule::compile(
                Atom::new(res, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(probe, vec![v(0)])),
                    BodyItem::Agg(Aggregate {
                        func: AggFunc::Count,
                        value: v(2),
                        group_by: vec![],
                        body: vec![BodyItem::Pos(Atom::new(none, vec![v(2)]))],
                        result: Var(1),
                    }),
                ],
                3,
                vec!["P".into(), "C".into(), "Y".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(m.holds(res, &[x, Term::Int(0)]));
    }

    #[test]
    fn aggregate_sum_min_max() {
        let mut f = Fixture::new();
        let g = f.c("g");
        f.fact("m", &[g.clone(), Term::Int(3)]);
        f.fact("m", &[g.clone(), Term::Int(5)]);
        f.fact("m", &[g.clone(), Term::Int(5)]); // duplicate value: set semantics
        let mp = f.syms.intern("m");
        for (name, func, expect) in [
            ("s", AggFunc::Sum, 8),
            ("mn", AggFunc::Min, 3),
            ("mx", AggFunc::Max, 5),
        ] {
            let p = f.syms.intern(name);
            f.rules.push(
                Rule::compile(
                    Atom::new(p, vec![v(0), v(1)]),
                    vec![BodyItem::Agg(Aggregate {
                        func,
                        value: v(2),
                        group_by: vec![Var(0)],
                        body: vec![BodyItem::Pos(Atom::new(mp, vec![v(0), v(2)]))],
                        result: Var(1),
                    })],
                    3,
                    vec!["G".into(), "R".into(), "V".into()],
                )
                .unwrap(),
            );
            let m = f.run();
            assert!(
                m.holds(p, &[g.clone(), Term::Int(expect)]),
                "{name} expected {expect}"
            );
            f.rules.clear();
        }
    }

    #[test]
    fn depth_limit_clips_skolem_chains() {
        let mut f = Fixture::new();
        let a = f.c("a");
        f.fact("p", &[a]);
        let p = f.syms.intern("p");
        let fsym = f.syms.intern("f");
        // p(f(X)) :- p(X).  — infinite without the depth limit.
        f.rules.push(
            Rule::compile(
                Atom::new(p, vec![Term::func(fsym, vec![v(0)])]),
                vec![BodyItem::Pos(Atom::new(p, vec![v(0)]))],
                1,
                vec!["X".into()],
            )
            .unwrap(),
        );
        let strat = stratify(&f.rules, |s| format!("{s}")).unwrap();
        let opts = EvalOptions {
            max_term_depth: 4,
            ..Default::default()
        };
        let m = eval_stratified(&f.rules, &strat, &f.edb, &opts).unwrap();
        // a, f(a), f(f(a)), f3(a), f4(a): 5 facts.
        assert_eq!(m.tuples(p).len(), 5);
        assert!(m.stats.depth_clipped > 0);
    }

    #[test]
    fn arithmetic_assignment() {
        let mut f = Fixture::new();
        f.fact("n", &[Term::Int(4)]);
        let n = f.syms.intern("n");
        let d = f.syms.intern("double");
        f.rules.push(
            Rule::compile(
                Atom::new(d, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(n, vec![v(0)])),
                    BodyItem::Assign(
                        v(1),
                        crate::atom::Expr::Mul(
                            Box::new(crate::atom::Expr::Term(v(0))),
                            Box::new(crate::atom::Expr::Term(Term::Int(2))),
                        ),
                    ),
                ],
                2,
                vec!["X".into(), "Y".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert!(m.holds(d, &[Term::Int(4), Term::Int(8)]));
    }

    #[test]
    fn profile_records_plans_and_index_counters() {
        let mut f = Fixture::new();
        let a = f.c("a");
        let b = f.c("b");
        f.fact("e", &[a.clone(), b.clone()]);
        f.fact("e", &[b.clone(), a.clone()]);
        let e = f.syms.intern("e");
        let tc = f.syms.intern("tc");
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![BodyItem::Pos(Atom::new(e, vec![v(0), v(1)]))],
                2,
                vec!["X".into(), "Y".into()],
            )
            .unwrap(),
        );
        f.rules.push(
            Rule::compile(
                Atom::new(tc, vec![v(0), v(1)]),
                vec![
                    BodyItem::Pos(Atom::new(tc, vec![v(0), v(2)])),
                    BodyItem::Pos(Atom::new(e, vec![v(2), v(1)])),
                ],
                3,
                vec!["X".into(), "Y".into(), "Z".into()],
            )
            .unwrap(),
        );
        let m = f.run();
        assert_eq!(m.profile.strata.len(), 1);
        let sp = &m.profile.strata[0];
        assert!(sp.recursive);
        assert!(!sp.skipped);
        assert_eq!(sp.plans.len(), 2);
        assert!(sp.plans.iter().all(|p| p.head == tc));
        assert!(sp.iterations >= 2);
        // The recursive rule joins with a bound variable, so some probes
        // must have gone through the index.
        assert!(sp.index_hits > 0);
        assert_eq!(m.stats.index_hits, sp.index_hits);
        // With indexing off the same program reports only misses.
        let strat = stratify(&f.rules, |s| format!("{s}")).unwrap();
        let noidx = eval_stratified(
            &f.rules,
            &strat,
            &f.edb,
            &EvalOptions {
                use_index: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(noidx.stats.index_hits, 0);
        assert_eq!(noidx.stats.index_builds, 0);
        assert!(noidx.stats.index_misses > 0);
        assert_eq!(noidx.tuples(tc).len(), m.tuples(tc).len());
    }

    #[test]
    fn model_query_uses_index_for_ground_positions() {
        let mut f = Fixture::new();
        let a = f.c("a");
        let b = f.c("b");
        let c = f.c("c");
        f.fact("e", &[a.clone(), b.clone()]);
        f.fact("e", &[a.clone(), c.clone()]);
        f.fact("e", &[b.clone(), c.clone()]);
        let e = f.syms.intern("e");
        let m = f.run();
        // Ground first argument: index probe.
        let sols = m.query(&Atom::new(e, vec![a.clone(), v(0)]));
        assert_eq!(sols.len(), 2);
        // Ground second argument only.
        let sols = m.query(&Atom::new(e, vec![v(0), c.clone()]));
        assert_eq!(sols.len(), 2);
        // Fully ground.
        let sols = m.query(&Atom::new(e, vec![a.clone(), b.clone()]));
        assert_eq!(sols.len(), 1);
        // All variables: full scan.
        let sols = m.query(&Atom::new(e, vec![v(0), v(1)]));
        assert_eq!(sols.len(), 3);
        let rel = m.facts.relation(e).unwrap();
        assert!(rel.index_count() >= 2);
    }
}
