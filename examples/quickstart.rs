//! Quickstart: annotated relations, query evaluation, and containment
//! checking across different annotation semirings.
//!
//! Run with `cargo run --example quickstart`.

use annot_core::decide::decide_cq;
use annot_polynomial::Var;
use annot_query::eval::eval;
use annot_query::{parser, Instance, Schema};
use annot_semiring::{Bool, NatPoly, Natural, Tropical, Why};

fn main() {
    // 1. A schema and two conjunctive queries (Example 4.6 of the paper).
    let mut schema = Schema::new();
    let q1 = parser::parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)").unwrap();
    let q2 = parser::parse_cq(&mut schema, "Q() :- R(u, v), R(u, v)").unwrap();
    println!("Q1: {}", q1);
    println!("Q2: {}", q2);

    // 2. The same database annotated in different semirings.
    let mut bags: Instance<Natural> = Instance::new(schema.clone());
    bags.insert_named("R", vec!["a".into(), "b".into()], Natural(2));
    bags.insert_named("R", vec!["a".into(), "c".into()], Natural(3));

    let costs: Instance<Tropical> = bags.map_annotations(&|n| Tropical::Finite(n.0));
    let provenance: Instance<NatPoly> = {
        let mut i = Instance::new(schema.clone());
        i.insert_named("R", vec!["a".into(), "b".into()], NatPoly::var(Var(0)));
        i.insert_named("R", vec!["a".into(), "c".into()], NatPoly::var(Var(1)));
        i
    };

    // 3. Evaluation propagates annotations through the query.
    println!("\nEvaluating the Boolean query Q1 over the same data:");
    println!(
        "  bag semantics (N):        {:?}",
        eval(&q1, &bags, &vec![])
    );
    println!(
        "  tropical cost (T+):       {:?}",
        eval(&q1, &costs, &vec![])
    );
    println!(
        "  provenance (N[X]):        {:?}",
        eval(&q1, &provenance, &vec![])
    );

    // 4. Containment depends on the annotation semiring (the paper's point).
    println!("\nIs Q1 contained in Q2?");
    println!(
        "  over B (set semantics):   {:?}",
        decide_cq::<Bool>(&q1, &q2)
    );
    println!(
        "  over Why[X]:              {:?}",
        decide_cq::<Why>(&q1, &q2)
    );
    println!(
        "  over N[X]:                {:?}",
        decide_cq::<NatPoly>(&q1, &q2)
    );
    println!(
        "  over T+ (tropical):       {:?}",
        decide_cq::<Tropical>(&q1, &q2)
    );
    println!(
        "  over N (bags):            {:?}",
        decide_cq::<Natural>(&q1, &q2)
    );

    println!("\nAnd the reverse direction, Q2 ⊆ Q1?");
    println!(
        "  over N[X]:                {:?}",
        decide_cq::<NatPoly>(&q2, &q1)
    );
    println!(
        "  over N (bags):            {:?}",
        decide_cq::<Natural>(&q2, &q1)
    );
}
