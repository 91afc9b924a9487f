//! Randomized stress suite for the dense, relation-indexed [`EvalState`].
//!
//! PR 5 rewrote `EvalState`'s fact storage from a `HashMap<RelId, Vec<…>>`
//! to dense per-relation flat arenas with `(RelId, u32 len)` undo frames.
//! This suite drives seeded randomized push/pop walks — biased towards
//! pushes, with zero-annotation no-op frames and tombstone-revival episodes
//! (pop a fact, then re-push the same row with a different annotation)
//! interleaved — and checks the maintained **row-level** outputs
//! ([`EvalState::outputs_rows`]) against the one-shot
//! [`eval_all_outputs_rows`] after **every** step, across all four query
//! shapes (CQ / CCQ / UCQ / DUCQ) and both dispatch classes of annotation
//! domain (scalar: `N`, `T⁺`; heap-carrying: `Why[X]`, `N[X]`).  The CQ
//! walks also drive the four lifts of one CQ side by side — `q`,
//! `Ccq::from_cq(q)`, `Ucq::single(q)` and `Ducq::from(Ccq::from_cq(q))` —
//! which must evaluate identically, incrementally and one-shot.
//!
//! The row-level comparison is exact because the state, the mirror
//! instance and the one-shot evaluators all share one interner: clones of
//! a [`Schema`] share its [`Domain`], so equal tuples intern to equal
//! [`ValueId`]s on every side.

use annot_query::eval::{eval_all_outputs_rows, EvalState, Query};
use annot_query::{Ccq, Cq, DbValue, Ducq, Instance, QVar, RelId, Schema, Tuple, Ucq};
use annot_semiring::{NatPoly, Natural, Semiring, Tropical, Why};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::with_relations([("R", 2), ("S", 1)])
}

/// One step of the walk as recorded on the shadow stack.
type Fact<K> = (RelId, Tuple, K);

/// Rebuilds the instance equivalent to the current fact stack.  Annotations
/// accumulate per row exactly like [`EvalState::push_fact`]
/// (`add_annotation`), and zero pushes are the same no-op on both sides.
fn mirror_instance<K: Semiring>(schema: &Schema, stack: &[Fact<K>]) -> Instance<K> {
    let mut instance = Instance::new(schema.clone());
    for (rel, tuple, k) in stack {
        instance.add_annotation(*rel, tuple.clone(), k.clone());
    }
    instance
}

/// Drives one [`EvalState`] per query through `steps` seeded random
/// push/pop steps over the given schema (every state gets the same pushes
/// and pops) and checks, after every step, that every state's row-level
/// outputs and every query's one-shot evaluation of the mirror instance
/// are one and the same map.
///
/// The walk is biased towards pushes (so depth grows), draws annotations
/// from the **full** sample list — including `0`, exercising the no-op
/// undo frames — over a 2-value domain (so rows repeat and annotations
/// accumulate), and with a dedicated move pops the newest fact and
/// immediately re-pushes its row under a different annotation: the
/// tombstone-revival episode of the brute-force enumerators, driven
/// through the undo log.
fn random_walk<K: Semiring>(seed: u64, steps: usize, schema: &Schema, queries: &[&dyn Query]) {
    let mut states: Vec<EvalState<'_, K>> = queries.iter().map(|q| EvalState::new(*q)).collect();
    let check = |states: &[EvalState<'_, K>], stack: &[Fact<K>], step: &str| {
        let mirror = mirror_instance(schema, stack);
        let expected = eval_all_outputs_rows(queries[0], &mirror);
        for (i, (q, state)) in queries.iter().zip(states).enumerate() {
            assert_eq!(
                eval_all_outputs_rows(*q, &mirror),
                expected,
                "{}: one-shot outputs of query {i} diverged {step}",
                K::NAME
            );
            assert_eq!(state.depth(), stack.len(), "depth diverged {step}");
            assert_eq!(
                *state.outputs_rows(),
                expected,
                "{}: row-level outputs of query {i} diverged {step} (depth {})",
                K::NAME,
                stack.len()
            );
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<K> = K::sample_elements();
    let rels: Vec<RelId> = schema.rel_ids().collect();
    let mut stack: Vec<Fact<K>> = Vec::new();
    let random_fact = |rng: &mut StdRng| -> (RelId, Tuple) {
        let rel = rels[rng.gen_range(0..rels.len())];
        let tuple: Tuple = (0..schema.arity(rel))
            .map(|_| DbValue::Int(rng.gen_range(0..2i64)))
            .collect();
        (rel, tuple)
    };
    for step in 0..steps {
        let roll = rng.gen_range(0..10u32);
        if stack.is_empty() || roll < 5 {
            // Push a random fact (possibly zero-annotated).
            let (rel, tuple) = random_fact(&mut rng);
            let k = samples[rng.gen_range(0..samples.len())].clone();
            for state in &mut states {
                state.push_fact(rel, tuple.clone(), k.clone());
            }
            stack.push((rel, tuple, k));
        } else if roll < 8 {
            states.iter_mut().for_each(EvalState::pop_fact);
            stack.pop();
        } else {
            // Tombstone revival: retract the newest fact and revive its row
            // under a different annotation.
            let (rel, tuple, old) = stack.pop().expect("non-empty stack");
            let replacement = samples
                .iter()
                .find(|k| !k.is_zero() && **k != old)
                .expect("samples contain at least two distinct non-zero elements")
                .clone();
            for state in &mut states {
                state.pop_fact();
                state.push_fact(rel, tuple.clone(), replacement.clone());
            }
            stack.push((rel, tuple, replacement));
        }
        check(&states, &stack, &format!("at step {step}"));
    }
    // Unwind completely: the undo log must restore the initial outputs.
    while stack.pop().is_some() {
        states.iter_mut().for_each(EvalState::pop_fact);
        check(&states, &stack, "on unwind");
    }
}

// Push/pop walk length; a short walk under Miri (interpreter overhead),
// still deep enough to exercise push, undo and full unwind.
#[cfg(not(miri))]
const STEPS: usize = 70;
#[cfg(miri)]
const STEPS: usize = 10;

// -- CQ ---------------------------------------------------------------------

fn cq_query(schema: &Schema) -> Cq {
    Cq::builder(schema)
        .free(&["x"])
        .atom("R", &["x", "y"])
        .atom("S", &["y"])
        .build()
}

/// Walks the CQ side by side with its lifts into the three other shapes.
fn stress_cq<K: Semiring>(seed: u64) {
    let schema = schema();
    let q = cq_query(&schema);
    let ccq = Ccq::from_cq(q.clone());
    let ucq = Ucq::single(q.clone());
    let ducq = Ducq::from(ccq.clone());
    random_walk::<K>(seed, STEPS, &schema, &[&q, &ccq, &ucq, &ducq]);
}

#[test]
fn stress_cq_natural() {
    stress_cq::<Natural>(0xE1);
}

#[test]
fn stress_cq_why() {
    stress_cq::<Why>(0xE2);
}

// -- CCQ --------------------------------------------------------------------

fn ccq_query(schema: &Schema) -> Ccq {
    let base = Cq::builder(schema)
        .atom("R", &["x", "y"])
        .atom("R", &["z", "w"])
        .build();
    Ccq::new(base, [(QVar(0), QVar(2)), (QVar(1), QVar(3))])
}

fn stress_ccq<K: Semiring>(seed: u64) {
    let schema = schema();
    random_walk::<K>(seed, STEPS, &schema, &[&ccq_query(&schema)]);
}

#[test]
fn stress_ccq_tropical() {
    stress_ccq::<Tropical>(0xE3);
}

#[test]
fn stress_ccq_nat_poly() {
    stress_ccq::<NatPoly>(0xE4);
}

// -- UCQ --------------------------------------------------------------------

fn ucq_query(schema: &Schema) -> Ucq {
    let q1 = Cq::builder(schema).free(&["v"]).atom("S", &["v"]).build();
    let q2 = Cq::builder(schema)
        .free(&["x"])
        .atom("R", &["x", "y"])
        .atom("S", &["y"])
        .build();
    Ucq::new([q1, q2])
}

fn stress_ucq<K: Semiring>(seed: u64) {
    let schema = schema();
    random_walk::<K>(seed, STEPS, &schema, &[&ucq_query(&schema)]);
}

#[test]
fn stress_ucq_natural() {
    stress_ucq::<Natural>(0xE5);
}

#[test]
fn stress_ucq_why() {
    stress_ucq::<Why>(0xE6);
}

// -- DUCQ -------------------------------------------------------------------

fn ducq_query(schema: &Schema) -> Ducq {
    let ccq1 = ccq_query(schema);
    let ccq2 = Ccq::from_cq(
        Cq::builder(schema)
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build(),
    );
    Ducq::new([ccq1, ccq2])
}

fn stress_ducq<K: Semiring>(seed: u64) {
    let schema = schema();
    random_walk::<K>(seed, STEPS, &schema, &[&ducq_query(&schema)]);
}

#[test]
fn stress_ducq_tropical() {
    stress_ducq::<Tropical>(0xE7);
}

#[test]
fn stress_ducq_nat_poly() {
    stress_ducq::<NatPoly>(0xE8);
}

/// Relations the tracked queries never mention still participate in the
/// dense fact store (their `RelId` indexes past the query schema's tables
/// at first sight): pushes to them must maintain outputs, undo cleanly,
/// and interleave with tracked pushes.
#[test]
fn stress_untracked_relations_round_trip() {
    let schema = Schema::with_relations([("R", 2), ("S", 1), ("T", 3)]);
    let q = Cq::builder(&schema)
        .free(&["x"])
        .atom("R", &["x", "y"])
        .build();
    let mut state: EvalState<'_, Natural> = EvalState::new(&q);
    let r = schema.relation("R").unwrap();
    let t = schema.relation("T").unwrap();
    state.push_fact(t, vec![1.into(), 2.into(), 3.into()], Natural(7));
    assert!(state.outputs_rows().is_empty());
    state.push_fact(r, vec![1.into(), 2.into()], Natural(2));
    assert_eq!(state.outputs_rows().len(), 1);
    state.push_fact(t, vec![3.into(), 2.into(), 1.into()], Natural(0));
    assert_eq!(state.outputs_rows().len(), 1);
    state.pop_fact();
    state.pop_fact();
    state.pop_fact();
    assert!(state.outputs_rows().is_empty());
    assert_eq!(state.depth(), 0);
}
