//! Query optimisation over provenance-annotated data.
//!
//! A query optimiser may only replace a query by another one when the two are
//! equivalent *for the annotation semantics in use*.  This example walks
//! through a UCQ rewriting (dropping a redundant disjunct / merging
//! disjuncts) and shows which annotation semirings license it — reproducing
//! the Example 5.7 analysis of the paper.
//!
//! Run with `cargo run --example provenance_optimization`.

use annot_core::decide::decide_ucq;
use annot_core::ucq::{bijective, local, surjective};
use annot_polynomial::Var;
use annot_query::eval::eval;
use annot_query::{parser, Instance, Schema};
use annot_semiring::{Bool, BoundedNat, NatPoly, Why};

fn main() {
    let mut schema = Schema::new();
    // The UCQs of Example 5.7.
    let q1 = parser::parse_ucq(
        &mut schema,
        "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v)",
    )
    .unwrap();
    let q2 = parser::parse_ucq(
        &mut schema,
        "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
    )
    .unwrap();
    println!("candidate rewriting:\n  Q1 = {}\n  Q2 = {}", q1, q2);

    // Is the rewriting Q1 → Q2 sound (Q1 ⊆ Q2) for each annotation domain?
    println!("\nQ1 ⊆ Q2 ?");
    println!(
        "  set semantics (B):        {:?}",
        decide_ucq::<Bool>(&q1, &q2)
    );
    println!(
        "  why-provenance (Why[X]):  {:?}",
        decide_ucq::<Why>(&q1, &q2)
    );
    println!(
        "  provenance (N[X]):        {:?}",
        decide_ucq::<NatPoly>(&q1, &q2)
    );
    println!(
        "  criteria: member-wise hom = {}, ↪_∞ = {}, ↠_∞ = {}",
        local::contained_chom(&q1, &q2),
        bijective::counting_infinite(&q1, &q2),
        surjective::unique_surjective(&q1, &q2),
    );

    // Observe the provenance of both queries on a concrete instance.  The
    // two constants are interned once; the three rows reuse the ids.
    let r = schema.relation("R").unwrap();
    let a = schema.intern_value(&"a".into());
    let b = schema.intern_value(&"b".into());
    let mut instance: Instance<NatPoly> = Instance::new(schema.clone());
    instance.insert_row(r, &[a, a], NatPoly::var(Var(0)));
    instance.insert_row(r, &[a, b], NatPoly::var(Var(1)));
    instance.insert_row(r, &[b, b], NatPoly::var(Var(2)));
    println!("\non the instance\n{}", instance);
    println!("  Q1 provenance: {:?}", eval(&q1, &instance, &vec![]));
    println!("  Q2 provenance: {:?}", eval(&q2, &instance, &vec![]));

    // Now extend Q1 with one more copy of its second disjunct: the rewriting
    // breaks for N[X] but stays sound for any offset-2 annotation domain
    // (e.g. saturating duplicate counts B₂).
    let q1_extended = parser::parse_ucq(
        &mut schema,
        "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v) ; Q() :- R(u, u), R(u, u)",
    )
    .unwrap();
    println!("\nextended union Q1' = {}", q1_extended);
    println!(
        "  ↪_∞ (N[X]):   {}",
        bijective::counting_infinite(&q1_extended, &q2)
    );
    println!(
        "  ↪_2 (offset-2 domains such as B₂): {}",
        bijective::counting_offset(&q1_extended, &q2, 2)
    );
    println!(
        "  decision over N[X]: {:?}",
        decide_ucq::<NatPoly>(&q1_extended, &q2)
    );
    println!(
        "  decision over B (set): {:?}",
        decide_ucq::<Bool>(&q1_extended, &q2)
    );
    let _ = BoundedNat::<2>::new(0); // the offset-2 domain the ↪_2 check models
}
