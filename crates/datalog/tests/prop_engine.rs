//! Property-based tests for the engine: plan-order invariance,
//! substitution laws, parser/printer agreement, and seeded (warm) query
//! evaluation against the cold run.

use kind_datalog::{
    Atom, BodyItem, Engine, EvalOptions, FactStore, Rule, SeedDecline, Subst, Sym, Term, Tuple, Var,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn tuples(store: &FactStore, pred: Sym) -> BTreeSet<Tuple> {
    store
        .relation(pred)
        .map(|r| r.iter().cloned().collect())
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The body-literal order a rule is written in must not change the
    /// computed model (the planner may reorder internally).
    #[test]
    fn body_order_invariance(
        edges in prop::collection::vec((0u8..6, 0u8..6), 1..15),
        perm in 0usize..6
    ) {
        let facts: String = edges
            .iter()
            .map(|(a, b)| format!("e(n{a}, n{b})."))
            .collect::<Vec<_>>()
            .join("\n");
        // Same rule, six body orders (3 literals).
        let bodies = [
            "e(X,Y), e(Y,Z), X != Z",
            "e(X,Y), X != Z, e(Y,Z)",
            "X != Z, e(X,Y), e(Y,Z)",
            "e(Y,Z), e(X,Y), X != Z",
            "e(Y,Z), X != Z, e(X,Y)",
            "X != Z, e(Y,Z), e(X,Y)",
        ];
        let mut reference = Engine::new();
        reference.load(&facts).unwrap();
        reference.load(&format!("p(X,Z) :- {}.", bodies[0])).unwrap();
        let m0 = reference.run(&EvalOptions::default()).unwrap();
        let mut e = Engine::new();
        e.load(&facts).unwrap();
        e.load(&format!("p(X,Z) :- {}.", bodies[perm])).unwrap();
        let m = e.run(&EvalOptions::default()).unwrap();
        let mut q0 = reference.clone();
        let mut q1 = e.clone();
        prop_assert_eq!(
            q0.query_model(&m0, "p(X,Y)").unwrap().len(),
            q1.query_model(&m, "p(X,Y)").unwrap().len()
        );
    }

    /// match_term(pat, pat.apply(σ)) succeeds whenever σ grounds pat.
    #[test]
    fn match_apply_roundtrip(consts in prop::collection::vec(0u8..5, 1..4)) {
        let mut e = Engine::new();
        let f = e.sym("f");
        // pattern f(V0, V1, ... c...) with σ binding all vars.
        let mut subst = Subst::with_capacity(consts.len());
        let mut args = Vec::new();
        for (i, c) in consts.iter().enumerate() {
            args.push(Term::Var(Var(i as u32)));
            let val = e.constant(&format!("c{c}"));
            subst.bind(Var(i as u32), val);
        }
        let pat = Term::func(f, args);
        let ground = pat.apply(&subst);
        prop_assert!(ground.is_ground());
        let mut fresh = Subst::with_capacity(consts.len());
        prop_assert!(fresh.match_term(&pat, &ground));
        // And the recovered bindings agree.
        for i in 0..consts.len() {
            prop_assert_eq!(fresh.get(Var(i as u32)), subst.get(Var(i as u32)));
        }
    }

    /// A rule printed by the display adapter re-parses into a rule with
    /// the same semantics.
    #[test]
    fn display_reparse_same_model(edges in prop::collection::vec((0u8..5, 0u8..5), 1..10)) {
        let mut e = Engine::new();
        let facts: String = edges
            .iter()
            .map(|(a, b)| format!("e(n{a}, n{b})."))
            .collect::<Vec<_>>()
            .join("\n");
        e.load(&facts).unwrap();
        e.load("tc(X,Y) :- e(X,Y). tc(X,Y) :- tc(X,Z), e(Z,Y).").unwrap();
        let printed: Vec<String> = e
            .rules()
            .iter()
            .map(|r| r.display(e.symbols()).to_string())
            .collect();
        let mut e2 = Engine::new();
        e2.load(&facts).unwrap();
        for p in &printed {
            e2.load(p).unwrap();
        }
        let m1 = e.run(&EvalOptions::default()).unwrap();
        let m2 = e2.run(&EvalOptions::default()).unwrap();
        let mut q1 = e.clone();
        let mut q2 = e2.clone();
        prop_assert_eq!(
            q1.query_model(&m1, "tc(X,Y)").unwrap().len(),
            q2.query_model(&m2, "tc(X,Y)").unwrap().len()
        );
    }

    /// Compiled rules are always safe: every head variable is bound by
    /// some provided variable of the planned body.
    #[test]
    fn compile_never_accepts_unsafe(nvars in 1u32..4) {
        let mut e = Engine::new();
        let p = e.sym("p");
        let q = e.sym("q");
        // Head uses var `nvars` which the body (vars 0..nvars) never binds.
        let head = Atom::new(p, vec![Term::Var(Var(nvars))]);
        let body = vec![BodyItem::Pos(Atom::new(
            q,
            (0..nvars).map(|i| Term::Var(Var(i))).collect(),
        ))];
        let names = (0..=nvars).map(|i| format!("V{i}")).collect();
        prop_assert!(Rule::compile(head, body, nvars + 1, names).is_err());
    }

    /// Seeded query evaluation on top of a cached base model equals the
    /// cold demand-driven run, in true facts and in undefined atoms. The
    /// program has a cycle through negation (`win`/`ghost`) holding an old
    /// predicate with an empty base extension (`ghost`: nothing is
    /// `blocked` yet), an old rule outside the cycle that also derived
    /// nothing (`stale`), and a new goal rule; the EDB grows at random
    /// after the base model was computed. A three-valued base, or a
    /// touched cycle whose local fixpoint leaves atoms undefined, must
    /// fall back to the cold run and say why.
    #[test]
    fn seeded_query_matches_cold_through_a_negation_cycle(
        base_moves in prop::collection::vec((0u8..7, 0u8..7), 0..12),
        acyclic_base in 0u8..4,
        grow_kind in 0u8..3,
        grow_moves in prop::collection::vec((0u8..7, 0u8..7), 1..3),
        grow_marks in prop::collection::vec(0u8..7, 0..4),
        grow_blocked in prop::collection::vec(0u8..7, 1..3),
    ) {
        let mut e = Engine::new();
        let mut text = String::from(
            "win(X) :- move(X,Y), not win(Y).
             win(X) :- move(X,Y), ghost(Y).
             ghost(X) :- blocked(X), not win(X).
             stale(X) :- blocked(X), win(X).
             mark(n0).\n",
        );
        for &(a, b) in &base_moves {
            // Mostly forward moves: an acyclic game keeps the base
            // two-valued; a quarter of the cases may draw.
            let (a, b) = if acyclic_base > 0 { (a.min(b), a.max(b) + 1) } else { (a, b) };
            text.push_str(&format!("move(n{a}, n{b}).\n"));
        }
        e.load(&text).unwrap();
        let opts = EvalOptions::default();
        let base = e.run(&opts).unwrap();
        let new_rules_from = e.rules().len();
        e.load("goal(X) :- mark(X), win(X), not stale(X).").unwrap();
        let mut growth = String::new();
        for m in &grow_marks {
            growth.push_str(&format!("mark(n{m}).\n"));
        }
        if grow_kind >= 1 {
            for (a, b) in &grow_moves {
                growth.push_str(&format!("move(n{a}, n{b}).\n"));
            }
        }
        if grow_kind == 2 {
            for b in &grow_blocked {
                growth.push_str(&format!("blocked(n{b}).\n"));
            }
        }
        e.load(&growth).unwrap();
        let goal = Atom::new(e.lookup("goal").unwrap(), vec![Term::Var(Var(0))]);
        let warm = e.run_for_query_seeded(&goal, &base, new_rules_from, &opts).unwrap();
        let cold = e.run_for_query(&goal, &opts).unwrap();
        for name in ["goal", "win", "ghost", "stale"] {
            let p = e.lookup(name).unwrap();
            prop_assert_eq!(tuples(&warm.facts, p), tuples(&cold.facts, p), "true {}", name);
            prop_assert_eq!(
                tuples(&warm.undefined, p),
                tuples(&cold.undefined, p),
                "undefined {}",
                name
            );
        }
        let expected = if !base.undefined.is_empty() {
            Some(SeedDecline::ThreeValuedBase)
        } else if !cold.undefined.is_empty() {
            Some(SeedDecline::UndefinedResidue)
        } else {
            None
        };
        prop_assert_eq!(warm.profile.seed_declined, expected);
        if expected.is_none() && grow_kind == 0 {
            // Only `mark` grew: the whole negation cycle is stable, so it is
            // seeded and skipped, not re-run.
            let win = e.lookup("win").unwrap();
            prop_assert!(warm
                .profile
                .strata
                .iter()
                .any(|s| s.skipped && s.preds.contains(&win)));
        }
    }

    /// The overlay path: a frozen engine with its full model, and an
    /// overlay that adds a view rule and random EDB growth. The seeded
    /// answer equals the cold one on the same overlay — with the view
    /// non-recursive, recursive on its own head, negating a frozen
    /// predicate or extending one, with magic sets on or off — its seed
    /// delta is exactly
    /// the growth the base model lacks, and the frozen engine is left as
    /// it was.
    #[test]
    fn overlay_seeded_query_matches_cold(
        base_edges in prop::collection::vec((0u8..8, 0u8..8), 0..14),
        grow_edges in prop::collection::vec((0u8..8, 0u8..8), 0..4),
        grow_marks in prop::collection::vec(0u8..8, 0..3),
        grow_banned in prop::collection::vec(0u8..8, 0..3),
        view in 0usize..5,
        anchor in 0u8..8,
        magic in 0u8..2,
    ) {
        let mut frozen = Engine::new();
        let mut text = String::from(
            "tc(X,Y) :- e(X,Y).
             tc(X,Y) :- tc(X,Z), e(Z,Y).
             node(X) :- e(X,_).
             node(Y) :- e(_,Y).
             ok(X) :- node(X), not banned(X).
             banned(n7). mark(n0).\n",
        );
        for (a, b) in &base_edges {
            text.push_str(&format!("e(n{a}, n{b}).\n"));
        }
        frozen.load(&text).unwrap();
        let magic = magic == 1;
        let opts = EvalOptions { magic_sets: magic, ..EvalOptions::default() };
        let base = frozen.run(&opts).unwrap();
        let frozen_rules = frozen.rules().len();
        let frozen_syms = frozen.symbols().len();

        let mut work = frozen.overlay();
        prop_assert!(work.shares_program(&frozen));
        let new_rules_from = work.rules().len();
        let views = [
            "goal(X) :- mark(Y), tc(Y, X), ok(X).".to_string(),
            // Recursive on its own head.
            "goal(X) :- mark(X). goal(Y) :- goal(X), e(X, Y), ok(Y).".to_string(),
            // Negates a frozen predicate.
            "goal(X) :- node(X), not tc(X, X), not banned(X).".to_string(),
            // A constant in the body: bound demand for the rewrite.
            format!("goal(X) :- tc(n{anchor}, X), not mark(X)."),
            // Extends a frozen predicate: the frozen strata cannot simply
            // be stacked under the overlay's rules.
            "tc(X,Y) :- mark(X), mark(Y). goal(X) :- tc(n0, X).".to_string(),
        ];
        let mut growth = String::new();
        for (a, b) in &grow_edges {
            growth.push_str(&format!("e(n{a}, n{b}).\n"));
        }
        for m in &grow_marks {
            growth.push_str(&format!("mark(n{m}).\n"));
        }
        for b in &grow_banned {
            growth.push_str(&format!("banned(n{b}).\n"));
        }
        work.load(&views[view]).unwrap();
        work.load(&growth).unwrap();
        let expected_novel: BTreeSet<(Sym, Tuple)> = work
            .edb()
            .iter()
            .filter(|(p, t)| !base.holds(*p, t))
            .map(|(p, t)| (p, t.clone()))
            .collect();

        let goal = Atom::new(work.lookup("goal").unwrap(), vec![Term::Var(Var(0))]);
        let warm = work.run_for_query_seeded(&goal, &base, new_rules_from, &opts).unwrap();
        let cold = work.run_for_query(&goal, &opts).unwrap();
        let answers = |m: &kind_datalog::Model| -> BTreeSet<Vec<Term>> {
            m.query(&goal).into_iter().collect()
        };
        prop_assert_eq!(answers(&warm), answers(&cold), "view {} magic {} growth {}", view, magic, growth);
        prop_assert_eq!(warm.profile.seed_declined, None);
        prop_assert_eq!(warm.profile.novel_facts, expected_novel.len());
        if !magic {
            // Without the rewrite both sides materialize the whole
            // relevant program: every relevant predicate agrees.
            for name in ["tc", "node", "ok"] {
                if let Some(p) = work.lookup(name) {
                    if !tuples(&cold.facts, p).is_empty() {
                        prop_assert_eq!(tuples(&warm.facts, p), tuples(&cold.facts, p), "{}", name);
                    }
                }
            }
        }
        if grow_edges.is_empty() && grow_banned.is_empty() && !magic && view < 4 {
            // Nothing under `tc`/`ok` grew: whichever of them the view
            // reads is seeded and its stratum skipped, not re-derived.
            let frozen_preds = [work.lookup("tc").unwrap(), work.lookup("ok").unwrap()];
            prop_assert!(warm
                .profile
                .strata
                .iter()
                .any(|s| s.skipped && s.preds.iter().any(|p| frozen_preds.contains(p))));
        }
        // The overlay never wrote through to the frozen engine.
        prop_assert!(work.shares_program(&frozen));
        prop_assert_eq!(frozen.rules().len(), frozen_rules);
        prop_assert_eq!(frozen.symbols().len(), frozen_syms);
        prop_assert!(frozen.lookup("goal").is_none());
    }
}
