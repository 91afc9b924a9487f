//! Equivalence suite for the iso-canonical cache keys of [`annot_query::key`].
//!
//! The service cache treats two `DECIDE` requests as the same question when
//! the query pairs are isomorphic, and compares nothing but their canonical
//! codes, so the codes must be
//!
//! * **invariant** under everything isomorphism ignores — α-renaming of
//!   variables, reordering of atoms, reordering of UCQ disjuncts — and the
//!   decisions behind equal codes must agree (randomized checks below), and
//! * **exact**: equal only for isomorphic queries, so a pair of queries
//!   that are hom-equivalent but *not* isomorphic — genuinely different
//!   questions over the injective/surjective semirings of Table 1 — never
//!   share a cache entry.  A seeded differential against
//!   `annot_hom::are_isomorphic_ucq` checks both directions.

use annot_core::registry::{decide_cq_dyn, decide_ucq_dyn, SemiringId};
use annot_hom::iso::are_isomorphic_ucq;
use annot_hom::kinds::exists_hom;
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::key::{cq_code, ucq_code};
use annot_query::{parser, Atom, Cq, QVar, Schema, Ucq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fisher–Yates over the vendored rand shim (which has no `seq` module).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// An α-renamed, atom-reordered copy of `q`: variables are permuted by a
/// random bijection and given fresh names, atoms are shuffled.  By
/// construction the result is isomorphic to `q`.
fn iso_variant(q: &Cq, rng: &mut StdRng) -> Cq {
    let n = q.num_vars();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut perm, rng);
    let rename = |v: QVar| QVar(perm[v.0 as usize]);
    let mut atoms: Vec<Atom> = q.atoms().iter().map(|a| a.map_vars(&rename)).collect();
    shuffle(&mut atoms, rng);
    let free: Vec<QVar> = q.free_vars().iter().copied().map(rename).collect();
    let mut names = vec![String::new(); n];
    for (old, &new) in perm.iter().enumerate() {
        names[new as usize] = format!("w{old}");
    }
    Cq::new(q.schema().clone(), free, atoms, names)
}

/// An iso variant of a UCQ: each disjunct renamed independently, disjunct
/// order shuffled.
fn iso_variant_ucq(q: &Ucq, rng: &mut StdRng) -> Ucq {
    let mut members: Vec<Cq> = q
        .disjuncts()
        .iter()
        .map(|cq| iso_variant(cq, rng))
        .collect();
    shuffle(&mut members, rng);
    Ucq::new(members)
}

fn generator(seed: u64, free_vars: usize) -> QueryGenerator {
    QueryGenerator::new(GeneratorConfig {
        num_atoms: 3,
        shape: QueryShape::Random,
        var_pool: 4,
        num_relations: 2,
        free_vars,
        seed,
    })
}

/// Representative semirings for the decision-agreement check: one per
/// CQ-criterion family that the cache actually serves.
fn probe_semirings() -> Vec<SemiringId> {
    ["B", "Why[X]", "N[X]", "N", "T+"]
        .iter()
        .map(|name| SemiringId::from_name(name).expect("registered"))
        .collect()
}

#[test]
fn cq_keys_are_invariant_under_renaming_and_reordering() {
    for seed in 0..40u64 {
        let mut gen = generator(seed, (seed % 3) as usize);
        let q = gen.cq();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let v = iso_variant(&q, &mut rng);
        assert!(cq_code(&q).is_some(), "seed {seed}: no code");
        assert_eq!(
            cq_code(&q),
            cq_code(&v),
            "seed {seed}: iso variant changed the canonical code"
        );
    }
}

#[test]
fn equal_keys_answer_alike_across_the_registry() {
    // A pair with equal codes must get the same decision — the property the
    // cache relies on when it serves a renamed repeat without re-deciding.
    for seed in 0..20u64 {
        let mut gen = generator(seed, 0);
        let q1 = gen.cq();
        let q2 = gen.cq();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
        let (v1, v2) = (iso_variant(&q1, &mut rng), iso_variant(&q2, &mut rng));
        assert!(cq_code(&q1).is_some() && cq_code(&q2).is_some());
        assert_eq!(cq_code(&q1), cq_code(&v1));
        assert_eq!(cq_code(&q2), cq_code(&v2));
        for id in probe_semirings() {
            let original = decide_cq_dyn(id, &q1, &q2);
            let renamed = decide_cq_dyn(id, &v1, &v2);
            assert_eq!(
                original.answer,
                renamed.answer,
                "seed {seed}, {}: decision not invariant under isomorphism",
                id.name()
            );
        }
    }
}

#[test]
fn ucq_keys_are_invariant_under_member_iso_and_disjunct_order() {
    for seed in 0..30u64 {
        let mut gen = generator(seed, 0);
        let q = gen.ucq(2 + (seed % 2) as usize);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let v = iso_variant_ucq(&q, &mut rng);
        assert!(
            are_isomorphic_ucq(&q, &v),
            "seed {seed}: variant not isomorphic"
        );
        assert!(ucq_code(&q).is_some(), "seed {seed}: no code");
        assert_eq!(
            ucq_code(&q),
            ucq_code(&v),
            "seed {seed}: UCQ iso variant changed the canonical code"
        );
        for id in probe_semirings() {
            assert_eq!(
                decide_ucq_dyn(id, &q, &v).answer,
                decide_ucq_dyn(id, &v, &q).answer,
                "seed {seed}, {}: UCQ decision not symmetric under isomorphism",
                id.name()
            );
        }
    }
}

#[test]
fn hom_equivalent_but_not_isomorphic_pairs_get_distinct_keys() {
    // Q_a() :- R(u,v), R(u,w)  and  Q_b() :- R(u,v)  are homomorphically
    // equivalent (collapse w ↦ v one way, include the other), yet not
    // isomorphic — and over Why[X] the pairs (Q_a ⊑ Q_b) and (Q_b ⊑ Q_b)
    // have different answers, so conflating their keys would poison the
    // cache.
    let schema = Schema::with_relations([("R", 2)]);
    let fork = Cq::builder(&schema)
        .atom("R", &["u", "v"])
        .atom("R", &["u", "w"])
        .build();
    let edge = Cq::builder(&schema).atom("R", &["u", "v"]).build();

    assert!(exists_hom(&fork, &edge) && exists_hom(&edge, &fork));
    let (fork_u, edge_u) = (Ucq::single(fork.clone()), Ucq::single(edge.clone()));
    assert!(!are_isomorphic_ucq(&fork_u, &edge_u));

    assert!(cq_code(&fork).is_some() && cq_code(&edge).is_some());
    assert_ne!(cq_code(&fork), cq_code(&edge));

    let why = SemiringId::from_name("Why").expect("registered");
    let conflated = decide_cq_dyn(why, &fork, &edge);
    let reflexive = decide_cq_dyn(why, &edge, &edge);
    assert_ne!(
        conflated.answer, reflexive.answer,
        "the negative pair must actually be decision-relevant"
    );
}

#[test]
fn keys_do_not_depend_on_unused_schema_relations() {
    // The same query formulated over two schemas that register extra
    // relations in different orders must code identically — only the
    // relations a query uses may shape its code.
    let lean = Schema::with_relations([("R", 2)]);
    let fat = Schema::with_relations([("S", 1), ("T", 3), ("R", 2)]);
    let on = |schema: &Schema| {
        Cq::builder(schema)
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build()
    };
    assert!(cq_code(&on(&lean)).is_some());
    assert_eq!(cq_code(&on(&lean)), cq_code(&on(&fat)));
}

/// Hand-written queries for the cases random generation rarely reaches:
/// repeated atoms, repeated free variables, repeated disjuncts, other
/// relation names and arities.  Each is parsed against a schema of its own.
const HAND_WRITTEN: &[&str] = &[
    "Q() :- R(x, y)",
    "Q() :- R(x, y), R(x, y)",
    "Q() :- R(b, a), R(b, a)",
    "Q() :- R(x, y) ; Q() :- R(x, y)",
    "Q() :- R(x, y), R(y, x)",
    "Q() :- R(x, x), R(y, y)",
    "Q(x, x) :- R(x, y)",
    "Q(u, u) :- R(u, w)",
    "Q(y, y) :- R(x, y)",
    "Q(x, y) :- R(x, y)",
    "Q(x, y) :- R(x, y), R(x, y)",
    "Q(x) :- R(x, y), R(y, x)",
    "Q() :- S(x, y)",
    "Q() :- R(x, y, z)",
    "Q() :- R(x, y, y)",
    "Q() :- R(y, y, x)",
];

/// Random CQs and UCQs, each next to an iso variant of itself, plus the
/// hand-written cases.  Few variables and two binary relations make
/// structurally alike but non-isomorphic queries common.
fn differential_pool() -> Vec<Ucq> {
    let mut pool = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    for seed in 0..24u64 {
        let mut gen = QueryGenerator::new(GeneratorConfig {
            num_atoms: 2 + (seed % 3) as usize,
            shape: QueryShape::Random,
            var_pool: 3,
            num_relations: 2,
            free_vars: (seed % 3) as usize,
            seed,
        });
        let q = Ucq::single(gen.cq());
        let u = gen.ucq(2 + (seed % 2) as usize);
        pool.push(iso_variant_ucq(&q, &mut rng));
        pool.push(q);
        pool.push(iso_variant_ucq(&u, &mut rng));
        pool.push(u);
    }
    for text in HAND_WRITTEN {
        let mut schema = Schema::new();
        pool.push(parser::parse_ucq(&mut schema, text).expect("hand-written query parses"));
    }
    pool
}

#[test]
fn codes_are_equal_exactly_for_isomorphic_queries() {
    let pool = differential_pool();
    let codes: Vec<Vec<u64>> = pool
        .iter()
        .map(|q| ucq_code(q).unwrap_or_else(|| panic!("{q} has no code")))
        .collect();
    let (mut isomorphic, mut distinct) = (0, 0);
    for i in 0..pool.len() {
        for j in i..pool.len() {
            let same_code = codes[i] == codes[j];
            let judged = are_isomorphic_ucq(&pool[i], &pool[j]);
            assert_eq!(
                same_code, judged,
                "code equality {same_code} but isomorphism {judged}:\n  {}\n  {}",
                pool[i], pool[j]
            );
            if i != j {
                if judged {
                    isomorphic += 1;
                } else {
                    distinct += 1;
                }
            }
        }
    }
    // Every random query sits next to its variant, so at least one
    // isomorphic pair per variant; and most pairs differ.
    assert!(isomorphic >= 48, "only {isomorphic} isomorphic pairs");
    assert!(distinct > isomorphic, "only {distinct} distinct pairs");
}
