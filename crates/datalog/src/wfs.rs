//! Well-founded semantics via the alternating fixpoint.
//!
//! The GCM requires Datalog with well-founded negation (§3: "a declarative
//! rule language with an intuitive semantics that expresses precisely
//! FO(LFP)"), and the paper's nonmonotonic inheritance ("if we want to
//! specify that it *only* projects to the latter, a nonmonotonic
//! inheritance, e.g. using FL with well-founded semantics, can be
//! employed", §4) needs the three-valued reading.
//!
//! We compute the standard alternating fixpoint: with `Γ(J)` the least
//! model of the positive reduct wrt `J`, the sequence
//! `L₀ = EDB, U₀ = Γ(L₀), Lᵢ₊₁ = Γ(Uᵢ), Uᵢ₊₁ = Γ(Lᵢ₊₁)` converges; the
//! final `L` holds the well-founded *true* atoms and `U \ L` the
//! *undefined* ones.

use crate::error::{DatalogError, Result};
use crate::eval::{gamma, plan_rule, EvalOptions, EvalProfile, EvalStats, Model, StratumProfile};
use crate::fact::FactStore;
use crate::rule::Rule;
use std::collections::HashSet;

/// A rule set planned for the alternating fixpoint: bodies reordered by
/// the join planner, with the plans kept for profiling. Planning costs a
/// pass over the EDB, so staged-delta republishes memoize this per
/// stratum on the engine ([`crate::Engine`]) instead of re-planning on
/// every publish.
#[derive(Debug)]
pub(crate) struct PlannedWfs {
    pub(crate) rules: Vec<Rule>,
    pub(crate) plans: Vec<crate::eval::RulePlan>,
    preds: Vec<crate::interner::Sym>,
}

/// Plans `rules` for [`eval_well_founded_planned`]. Join planning happens
/// once against the EDB: the reduct is re-evaluated many times, with
/// every IDB predicate costed as unbounded (its extension varies across
/// sweeps).
pub(crate) fn plan_wfs(rules: &[Rule], edb: &FactStore, opts: &EvalOptions) -> PlannedWfs {
    let idb: HashSet<crate::interner::Sym> = rules.iter().map(|r| r.head.pred).collect();
    let planned: Vec<(Rule, crate::eval::RulePlan)> = rules
        .iter()
        .map(|r| plan_rule(r, edb, &idb, opts))
        .collect();
    let (rules, plans): (Vec<Rule>, Vec<crate::eval::RulePlan>) = planned.into_iter().unzip();
    PlannedWfs {
        rules,
        plans,
        preds: idb.into_iter().collect(),
    }
}

/// Evaluates `rules` over `edb` under the well-founded semantics.
pub(crate) fn eval_well_founded(
    rules: &[Rule],
    edb: &FactStore,
    opts: &EvalOptions,
) -> Result<Model> {
    eval_well_founded_planned(&plan_wfs(rules, edb, opts), edb, opts)
}

/// [`eval_well_founded`] over an already-planned rule set.
pub(crate) fn eval_well_founded_planned(
    planned: &PlannedWfs,
    edb: &FactStore,
    opts: &EvalOptions,
) -> Result<Model> {
    let mut stats = EvalStats::default();
    let rules = &planned.rules;
    let mut summary = StratumProfile {
        preds: planned.preds.clone(),
        recursive: true,
        plans: planned.plans.clone(),
        ..Default::default()
    };
    let mut lower = edb.clone();
    let mut sweeps = 0usize;
    let (facts, undefined) = loop {
        // Sweep boundary: the same cooperative cancellation check the
        // stratified loops run at round boundaries (each `gamma` below
        // also checks per round).
        crate::eval::check_cancelled(opts, &stats)?;
        sweeps += 1;
        if sweeps > opts.max_iterations {
            return Err(DatalogError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let upper = gamma(rules, edb, &lower, &mut stats, opts)?;
        // The lower sequence stays below every upper (both monotone toward
        // the fixpoint), so size equality implies set equality throughout.
        // `Γ(lower) == lower` means the fixpoint is *total* — the
        // two-valued well-founded model, nothing undefined — and the
        // second gamma of this sweep would only reconfirm it.
        if upper.len() == lower.len() {
            break (upper, FactStore::new());
        }
        let new_lower = gamma(rules, edb, &upper, &mut stats, opts)?;
        // `Lᵢ₊₁ = Γ(Uᵢ) ⊆ Γ(Lᵢ) = Uᵢ` (Γ antitone, `Lᵢ ⊆ Uᵢ`), so size
        // equality here means `Lᵢ₊₁ = Uᵢ` — making `Lᵢ₊₁` a fixpoint of Γ
        // (`Γ(Lᵢ₊₁) = Γ(Uᵢ) = Lᵢ₊₁`): the total two-valued model. The next
        // sweep's first gamma would only reconfirm it.
        if new_lower.len() == upper.len() {
            break (new_lower, FactStore::new());
        }
        if new_lower.len() == lower.len() {
            // Only rule heads differ between the two bounds: every other
            // relation is `edb`'s in both.
            let mut undefined = FactStore::new();
            for &p in &planned.preds {
                for t in upper.relation(p).into_iter().flat_map(|r| r.iter()) {
                    if !new_lower.contains(p, t) {
                        undefined.insert(p, t.clone());
                    }
                }
            }
            break (new_lower, undefined);
        }
        lower = new_lower;
    };
    summary.iterations = stats.iterations;
    summary.derived = stats.derived;
    summary.index_builds = stats.index_builds;
    summary.index_hits = stats.index_hits;
    summary.index_misses = stats.index_misses;
    Ok(Model {
        facts,
        undefined,
        stats,
        profile: EvalProfile {
            strata: vec![summary],
            well_founded: true,
            ..Default::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, BodyItem};
    use crate::fact::FactStore;
    use crate::interner::Interner;
    use crate::term::{Term, Var};

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    /// The classic "win" example: a position is winning iff some move
    /// leads to a non-winning position. On a cycle, positions come out
    /// undefined; on a finite path, they alternate.
    #[test]
    fn win_move_game() {
        let mut syms = Interner::new();
        let mv = syms.intern("move");
        let win = syms.intern("win");
        let mut edb = FactStore::new();
        let n: Vec<Term> = (0..4)
            .map(|i| Term::Const(syms.intern(&format!("p{i}"))))
            .collect();
        // Path: p0 -> p1 -> p2 (p2 terminal: lost). Cycle: p3 -> p3.
        edb.insert(mv, vec![n[0].clone(), n[1].clone()].into());
        edb.insert(mv, vec![n[1].clone(), n[2].clone()].into());
        edb.insert(mv, vec![n[3].clone(), n[3].clone()].into());
        let rules = vec![Rule::compile(
            Atom::new(win, vec![v(0)]),
            vec![
                BodyItem::Pos(Atom::new(mv, vec![v(0), v(1)])),
                BodyItem::Neg(Atom::new(win, vec![v(1)])),
            ],
            2,
            vec!["X".into(), "Y".into()],
        )
        .unwrap()];
        let m = eval_well_founded(&rules, &edb, &EvalOptions::default()).unwrap();
        // p2 has no moves: lost => p1 wins => p0 loses.
        assert!(m.holds(win, &[n[1].clone()]));
        assert!(!m.holds(win, &[n[0].clone()]));
        assert!(!m.is_undefined(win, &[n[0].clone()]));
        assert!(!m.holds(win, &[n[2].clone()]));
        // The self-loop position is undefined.
        assert!(m.is_undefined(win, &[n[3].clone()]));
    }

    /// A stratified program evaluated through the WFS path must agree with
    /// the stratified evaluator (no undefined atoms).
    #[test]
    fn wfs_agrees_with_stratified_on_stratified_programs() {
        let mut syms = Interner::new();
        let node = syms.intern("node");
        let marked = syms.intern("marked");
        let un = syms.intern("unmarked");
        let mut edb = FactStore::new();
        let a = Term::Const(syms.intern("a"));
        let b = Term::Const(syms.intern("b"));
        edb.insert(node, vec![a.clone()].into());
        edb.insert(node, vec![b.clone()].into());
        edb.insert(marked, vec![a.clone()].into());
        let rules = vec![Rule::compile(
            Atom::new(un, vec![v(0)]),
            vec![
                BodyItem::Pos(Atom::new(node, vec![v(0)])),
                BodyItem::Neg(Atom::new(marked, vec![v(0)])),
            ],
            1,
            vec!["X".into()],
        )
        .unwrap()];
        let m = eval_well_founded(&rules, &edb, &EvalOptions::default()).unwrap();
        assert!(m.holds(un, &[b]));
        assert!(!m.holds(un, &[a]));
        assert!(m.undefined.is_empty());
    }

    /// Mutual negation with no base facts: both atoms undefined.
    #[test]
    fn mutual_negation_undefined() {
        let mut syms = Interner::new();
        let item = syms.intern("item");
        let p = syms.intern("p");
        let q = syms.intern("q");
        let mut edb = FactStore::new();
        let a = Term::Const(syms.intern("a"));
        edb.insert(item, vec![a.clone()].into());
        let rules = vec![
            Rule::compile(
                Atom::new(p, vec![v(0)]),
                vec![
                    BodyItem::Pos(Atom::new(item, vec![v(0)])),
                    BodyItem::Neg(Atom::new(q, vec![v(0)])),
                ],
                1,
                vec!["X".into()],
            )
            .unwrap(),
            Rule::compile(
                Atom::new(q, vec![v(0)]),
                vec![
                    BodyItem::Pos(Atom::new(item, vec![v(0)])),
                    BodyItem::Neg(Atom::new(p, vec![v(0)])),
                ],
                1,
                vec!["X".into()],
            )
            .unwrap(),
        ];
        let m = eval_well_founded(&rules, &edb, &EvalOptions::default()).unwrap();
        assert!(m.is_undefined(p, std::slice::from_ref(&a)));
        assert!(m.is_undefined(q, std::slice::from_ref(&a)));
        assert!(!m.holds(p, std::slice::from_ref(&a)));
        assert!(!m.holds(q, &[a]));
    }

    /// The alternating fixpoint on a seeded random game graph, checked
    /// against an oracle outside the engine: retrograde analysis (backward
    /// induction). A position is lost when every move leads to a won
    /// position (vacuously so with no moves), won when some move leads to
    /// a lost position, and drawn otherwise. `win` must be true, false and
    /// undefined on exactly the won, lost and drawn positions.
    #[test]
    fn wfs_matches_retrograde_analysis() {
        const N: usize = 30;
        let mut syms = Interner::new();
        let mv = syms.intern("move");
        let win = syms.intern("win");
        let mut edb = FactStore::new();
        let n: Vec<Term> = (0..N)
            .map(|i| Term::Const(syms.intern(&format!("p{i}"))))
            .collect();
        // Deterministic LCG so the move set is reproducible.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); N];
        for _ in 0..120 {
            let a = rng() % N;
            let b = rng() % N;
            succ[a].push(b);
            edb.insert(mv, vec![n[a].clone(), n[b].clone()].into());
        }
        let rules = vec![Rule::compile(
            Atom::new(win, vec![v(0)]),
            vec![
                BodyItem::Pos(Atom::new(mv, vec![v(0), v(1)])),
                BodyItem::Neg(Atom::new(win, vec![v(1)])),
            ],
            2,
            vec!["X".into(), "Y".into()],
        )
        .unwrap()];
        let m = eval_well_founded(&rules, &edb, &EvalOptions::default()).unwrap();

        let (mut won, mut lost) = (vec![false; N], vec![false; N]);
        let mut changed = true;
        while changed {
            changed = false;
            for p in 0..N {
                if won[p] || lost[p] {
                    continue;
                }
                if succ[p].iter().all(|&q| won[q]) {
                    lost[p] = true;
                    changed = true;
                } else if succ[p].iter().any(|&q| lost[q]) {
                    won[p] = true;
                    changed = true;
                }
            }
        }
        let drawn: Vec<bool> = (0..N).map(|p| !won[p] && !lost[p]).collect();
        // The fixture exercises all three truth values.
        for class in [&won, &lost, &drawn] {
            assert!(class.iter().any(|&x| x));
        }
        for p in 0..N {
            let arg = std::slice::from_ref(&n[p]);
            assert_eq!(m.holds(win, arg), won[p], "p{p}: true iff won");
            assert_eq!(
                m.is_undefined(win, arg),
                drawn[p],
                "p{p}: undefined iff drawn"
            );
            assert_eq!(
                !m.holds(win, arg) && !m.is_undefined(win, arg),
                lost[p],
                "p{p}: false iff lost"
            );
        }
    }
}
