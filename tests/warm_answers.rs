//! Warm answers against cold ones on the §5 scenario.
//!
//! `QuerySnapshot::answer_with` evaluates a one-off rule seeded from the
//! snapshot's model: strata the rule cannot change are shared and
//! skipped, and only the rest is re-derived. With `base_cache` off the
//! same call evaluates the rule cold. This oracle compares the two on
//! every answer shape the served mediator sees, with several constants
//! each, at every epoch of a series of incremental publishes — so a
//! seeding bug cannot hide behind a comparison of the seeded path with
//! itself.

use kind_core::Mediator;
use kind_datalog::EvalOptions;
use kind_sources::{
    build_scenario, ncmir_update_rows, ScenarioParams, CALCIUM_BINDING, NCMIR_LOCATIONS,
};

/// The answer shapes of the served workload: protein, location and
/// protein×location selections, an unparameterised scan, a
/// neurotransmission lookup and a join of both source classes.
const SHAPES: [&str; 6] = [
    r#"pb_sites(L, A) :- X : protein_amount, X[protein_name -> "{P}"], X[location -> L], X[amount -> A]."#,
    r#"pb_at(P, A) :- X : protein_amount, X[location -> "{L}"], X[protein_name -> P], X[amount -> A]."#,
    r#"pb_pair(X, A) :- X : protein_amount, X[protein_name -> "{P}"], X[location -> "{L}"], X[amount -> A]."#,
    r#"pb_calcium(P, L) :- X : protein_amount, X[protein_name -> P], X[location -> L], X[ion_bound -> "calcium"]."#,
    r#"pb_recv(Y, O) :- Y : neurotransmission, Y[receiving_compartment -> "{L}"], Y[organism -> O]."#,
    r#"pb_join(C, A) :- Y : neurotransmission, Y[receiving_compartment -> C], X : protein_amount, X[location -> C], X[protein_name -> "{P}"], X[amount -> A]."#,
];

/// Every shape instantiated with two proteins and two locations (one
/// rule for the unparameterised scan).
fn rules() -> Vec<String> {
    let proteins = [CALCIUM_BINDING[0], CALCIUM_BINDING[3]];
    let locations = [NCMIR_LOCATIONS[0], NCMIR_LOCATIONS[2]];
    let mut out: Vec<String> = Vec::new();
    for shape in SHAPES {
        for (p, l) in proteins.iter().zip(&locations) {
            let rule = shape.replace("{P}", p).replace("{L}", l);
            if !out.contains(&rule) {
                out.push(rule);
            }
        }
    }
    out
}

fn check_epoch(m: &mut Mediator, epoch: usize, rules: &[String]) -> usize {
    let snap = m.snapshot().unwrap();
    let warm_opts = snap.eval_options().clone();
    let cold_opts = EvalOptions {
        base_cache: false,
        ..warm_opts.clone()
    };
    let mut rows = 0;
    for rule in rules {
        let warm = snap.answer_with(rule, &warm_opts).unwrap();
        let cold = snap.answer_with(rule, &cold_opts).unwrap();
        assert_eq!(warm.rows, cold.rows, "epoch {epoch}: {rule}");
        assert!(warm.seeded, "epoch {epoch}: warm path declined: {rule}");
        assert!(!cold.seeded);
        assert!(warm.skipped_strata > 0, "epoch {epoch}: {rule}");
        assert!(
            warm.stats.derived < cold.stats.derived,
            "epoch {epoch}: warm {:?} vs cold {:?}: {rule}",
            warm.stats,
            cold.stats
        );
        rows += warm.rows.len();
    }
    rows
}

#[test]
fn warm_answers_equal_cold_answers_at_every_epoch() {
    let params = ScenarioParams::default();
    let mut m = build_scenario(&params);
    m.materialize_all().unwrap();
    m.publish().unwrap();
    let rules = rules();
    assert_eq!(rules.len(), 11);
    let mut rows = vec![check_epoch(&mut m, 0, &rules)];
    for batch in 0..3 {
        for row in ncmir_update_rows(params.seed, batch, 2) {
            m.load_row("NCMIR", "protein_amount", &row).unwrap();
        }
        m.publish().unwrap();
        rows.push(check_epoch(&mut m, batch + 1, &rules));
    }
    // The publishes are visible to the answers: every batch adds
    // calcium-binding rows.
    assert!(rows.windows(2).all(|w| w[1] > w[0]), "{rows:?}");
}
