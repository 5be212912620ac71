//! Shared benchmark workloads for the per-figure/table benches (see
//! DESIGN.md, "Experiment index") and the `report` binary that prints the
//! paper-style outputs.

use kind_core::{Anchor, Capability, Mediator, MemoryWrapper, Wrapper};
use kind_datalog::Engine;
use kind_dm::{figures, DomainMap, ExecMode};
use kind_flogic::FLogic;
use kind_gcm::{ConceptualModel, GcmBase, GcmValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A Datalog engine loaded with the transitive-closure program over a
/// random graph of `n` nodes and `edges` edges (seeded).
pub fn tc_workload(n: usize, edges: usize, seed: u64) -> Engine {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Engine::new();
    e.load(
        "tc(X,Y) :- edge(X,Y).
         tc(X,Y) :- tc(X,Z), edge(Z,Y).",
    )
    .expect("program loads");
    let edge = e.sym("edge");
    for _ in 0..edges {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let ta = e.constant(&format!("n{a}"));
        let tb = e.constant(&format!("n{b}"));
        e.add_fact(edge, vec![ta, tb]).expect("fact");
    }
    e
}

/// An F-logic base with a class tree of the given depth/fanout and one
/// instance per leaf (exercises the Table 1 closure axioms).
pub fn class_tree_flogic(depth: usize, fanout: usize) -> FLogic {
    let mut fl = FLogic::new();
    let mut text = String::new();
    let mut frontier = vec!["root".to_string()];
    for d in 0..depth {
        let mut next = Vec::new();
        for parent in &frontier {
            for k in 0..fanout {
                let child = format!("{parent}_{d}{k}");
                text.push_str(&format!("{child} :: {parent}.\n"));
                next.push(child);
            }
        }
        frontier = next;
    }
    for (i, leaf) in frontier.iter().enumerate() {
        text.push_str(&format!("obj{i} : {leaf}.\n"));
    }
    fl.load(&text).expect("hierarchy loads");
    fl
}

/// A GCM base with a `leq` relation over `n` nodes that is *almost* a
/// partial order: `missing` transitive edges are dropped and one 2-cycle
/// is injected, so Example 2's denials have work to do.
pub fn corrupted_order(n: usize, missing: usize) -> GcmBase {
    let mut base = GcmBase::new();
    let mut cm = ConceptualModel::new("ORDER").relation("leq", &[("lo", "node"), ("hi", "node")]);
    for i in 0..n {
        cm = cm.instance(&format!("x{i}"), "node");
    }
    // A total order's full closure, minus some edges.
    let mut dropped = 0usize;
    for i in 0..n {
        for j in i..n {
            if j > i + 1 && dropped < missing {
                dropped += 1;
                continue;
            }
            cm = cm.relation_inst(
                "leq",
                &[
                    ("lo", GcmValue::Id(format!("x{i}"))),
                    ("hi", GcmValue::Id(format!("x{j}"))),
                ],
            );
        }
    }
    // An antisymmetry violation.
    cm = cm.relation_inst(
        "leq",
        &[
            ("lo", GcmValue::Id(format!("x{}", n - 1))),
            ("hi", GcmValue::Id("x0".to_string())),
        ],
    );
    base.apply(&cm).expect("CM applies");
    base.require_partial_order("node", "leq")
        .expect("constraint");
    base
}

/// A mediator over a generated anatomy of the given shape, with one
/// protein source whose measurements anchor at the anatomy's leaves —
/// the scaled Example 4 workload.
pub fn scaled_anatomy_mediator(
    depth: usize,
    fanout: usize,
    rows: usize,
    seed: u64,
) -> (Mediator, Vec<String>) {
    let dm = figures::anatomy_generated(depth, fanout, 1);
    let leaves = figures::anatomy_leaves(depth, fanout);
    let mut m = Mediator::new(dm, ExecMode::Assertion);
    m.register(measurement_wrapper("PROT", &leaves, rows, seed))
        .expect("source registers");
    (m, leaves)
}

/// A protein-amount wrapper anchored at the given location concepts.
pub fn measurement_wrapper(
    name: &str,
    locations: &[String],
    rows: usize,
    seed: u64,
) -> Arc<dyn Wrapper> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = MemoryWrapper::new(name);
    w.caps.push(Capability {
        class: "protein_amount".into(),
        pushable: vec!["location".into(), "protein_name".into(), "ion_bound".into()],
    });
    w.anchor_decls.push(Anchor::ByAttr {
        class: "protein_amount".into(),
        attr: "location".into(),
    });
    for i in 0..rows {
        let loc = &locations[rng.gen_range(0..locations.len())];
        w.add_row(
            "protein_amount",
            &format!("r{i}"),
            vec![
                ("protein_name", GcmValue::Id("Ryanodine_Receptor".into())),
                ("amount", GcmValue::Int(rng.gen_range(1..50))),
                ("location", GcmValue::Id(loc.clone())),
                ("ion_bound", GcmValue::Id("calcium".into())),
            ],
        );
    }
    Arc::new(w)
}

/// A domain map used by the closure benches: generated anatomy.
pub fn closure_map(depth: usize, fanout: usize) -> DomainMap {
    figures::anatomy_generated(depth, fanout, 2)
}

/// A mediator federating `sources` independent object sources, each
/// behind a [`kind_core::StallAware`] charging `delay` of real wall time
/// per query — the `parallel_materialize` workload. `MemoryWrapper`
/// answers instantly and the mediator's virtual clock burns no wall
/// time, so without the stall the fetch plane would have nothing to
/// overlap and every thread count would measure the same. Every source
/// exports its own class (`c0`, `c1`, …) with `rows` rows anchored at
/// Figure 1 concepts, so a full materialization issues exactly `sources`
/// wrapper queries and the serial fetch wall time is ~`sources × delay`.
pub fn latency_mediator(sources: usize, rows: usize, delay: std::time::Duration) -> Mediator {
    let anchors = ["Spine", "Shaft", "Neuron", "Dendrite"];
    let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
    for s in 0..sources {
        let class = format!("c{s}");
        let mut w = MemoryWrapper::new(format!("S{s}"));
        w.caps.push(Capability {
            class: class.clone(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: class.clone(),
            concept: anchors[s % anchors.len()].into(),
        });
        for i in 0..rows {
            w.add_row(
                &class,
                &format!("s{s}o{i}"),
                vec![("value", GcmValue::Int((s * rows + i) as i64))],
            );
        }
        m.register(kind_core::StallAware::new(Arc::new(w), delay))
            .expect("latency source registers");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use kind_datalog::EvalOptions;

    #[test]
    fn tc_workload_runs() {
        let e = tc_workload(20, 40, 1);
        let m = e.run(&EvalOptions::default()).unwrap();
        assert!(m.stats.derived > 0);
    }

    #[test]
    fn class_tree_runs() {
        let fl = class_tree_flogic(3, 2);
        let m = fl.run().unwrap();
        assert_eq!(fl.instances_of(&m, "root").len(), 8);
    }

    #[test]
    fn corrupted_order_has_witnesses() {
        let base = corrupted_order(6, 3);
        let m = base.run().unwrap();
        let ws = base.witnesses(&m);
        assert!(ws.iter().any(|w| w.starts_with("wtc(")));
        assert!(ws.iter().any(|w| w.starts_with("was(")));
    }

    #[test]
    fn scaled_anatomy_builds() {
        let (m, leaves) = scaled_anatomy_mediator(2, 2, 10, 3);
        assert_eq!(leaves.len(), 4);
        assert_eq!(m.sources().len(), 1);
    }
}
