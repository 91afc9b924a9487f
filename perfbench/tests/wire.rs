//! The generators and the wire-grammar renderer: every generated line
//! parses back into the pair it was rendered from, every `hit_heavy`
//! variant is isomorphic to its class, and a seed fixes the lines byte for
//! byte.

use annot_core::registry::SemiringId;
use annot_hom::are_isomorphic_ucq;
use annot_query::{parser, Schema, Ucq};
use annot_service::proto::{parse_request, Request};
use perfbench::gen::{self, Pair, SplitMix64};
use perfbench::names::{per_layer_names, END_TO_END};
use perfbench::oracle_walk;
use perfbench::service;

/// Parses a `DECIDE` line into its semiring and both sides, over `schema`.
fn parse_line(line: &str, schema: &mut Schema) -> (SemiringId, Ucq, Ucq) {
    let Ok(Request::Decide { semiring, q1, q2 }) = parse_request(line) else {
        panic!("not a DECIDE line: {line:?}");
    };
    let id = SemiringId::from_name(&semiring).expect("known semiring");
    let u1 = parser::parse_ucq(schema, &q1).expect("left side parses");
    let u2 = parser::parse_ucq(schema, &q2).expect("right side parses");
    (id, u1, u2)
}

fn schema_of(pair: &Pair) -> Schema {
    pair.q1.disjuncts()[0].schema().clone()
}

fn assert_round_trip(pair: &Pair) {
    let line = pair.line();
    let (id, u1, u2) = parse_line(&line, &mut schema_of(pair));
    assert_eq!(id, pair.semiring, "{line}");
    assert!(are_isomorphic_ucq(&u1, &pair.q1), "left side of {line}");
    assert!(are_isomorphic_ucq(&u2, &pair.q2), "right side of {line}");
}

#[test]
fn every_generated_line_round_trips_into_an_isomorphic_pair() {
    for seed in [1, 2, 3] {
        for pair in gen::hit_classes(seed) {
            assert_round_trip(&pair);
        }
        let schema = gen::fixed_schema();
        let rows = gen::rows();
        let mut rng = SplitMix64::new(seed);
        for index in 0..300 {
            assert_round_trip(&gen::miss_pair(&mut rng, &schema, &rows));
            assert_round_trip(&gen::churn_pair(&mut rng, 1, index, &rows));
        }
        for search in &oracle_walk::plan(seed).round {
            if let oracle_walk::Search::Small(pair) = search {
                assert_round_trip(pair);
            }
        }
    }
}

#[test]
fn ucqs_render_with_the_semicolon_the_parser_accepts() {
    let pair = gen::hit_classes(1)
        .into_iter()
        .find(|p| p.q1.len() > 1)
        .expect("the class pool has multi-member UCQs");
    let text = gen::render_ucq(&pair.q1);
    assert!(text.contains(" ; "), "{text}");
    assert!(!text.contains('\u{222A}'), "{text}");
}

#[test]
fn every_hit_heavy_variant_is_isomorphic_to_its_class() {
    let classes = gen::hit_classes(5);
    let plan = service::hit_plan(5, &classes);
    let mut schema = gen::fixed_schema();
    let representatives: Vec<(SemiringId, Ucq, Ucq)> = plan
        .prefill
        .iter()
        .map(|line| parse_line(line, &mut schema))
        .collect();
    for (stream, classes_of) in plan.streams.iter().zip(&plan.classes) {
        for (line, &class) in stream.iter().zip(classes_of).take(2_000) {
            let (id, u1, u2) = parse_line(line, &mut schema);
            let (rid, r1, r2) = &representatives[class as usize];
            assert_eq!(id, *rid, "{line}");
            assert!(are_isomorphic_ucq(&u1, r1), "{line}");
            assert!(are_isomorphic_ucq(&u2, r2), "{line}");
        }
    }
}

#[test]
fn hit_heavy_covers_every_table_1_row() {
    let classes = gen::hit_classes(9);
    for row in gen::rows() {
        assert!(classes.iter().any(|p| p.semiring == row), "{}", row.name());
    }
}

#[test]
fn a_seed_fixes_every_line_byte_for_byte() {
    let lines = |seed: u64| -> Vec<String> {
        let classes = gen::hit_classes(seed);
        let mut all = service::hit_plan(seed, &classes).streams.concat();
        all.extend(service::miss_plan(seed, 1).streams.concat());
        all.extend(service::churn_plan(seed, 3).streams.concat());
        all.extend(
            oracle_walk::plan(seed)
                .round
                .iter()
                .filter_map(|s| match s {
                    oracle_walk::Search::Small(p) => Some(p.line()),
                    oracle_walk::Search::Deep(..) => None,
                }),
        );
        all
    };
    let first = lines(42);
    assert_eq!(first, lines(42));
    assert_ne!(first, lines(43));
}

#[test]
fn name_churn_never_reuses_a_relation_name() {
    let plan = service::churn_plan(1, 0);
    let mut seen = std::collections::HashSet::new();
    for stream in &plan.streams {
        for line in stream {
            let mut schema = Schema::new();
            parse_line(line, &mut schema);
            for rel in schema.rel_ids() {
                assert!(seen.insert(schema.name(rel).to_string()), "{line}");
            }
        }
    }
}

/// The `name` fields of one top-level array of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|field| field.split('"').nth(1).expect("name value").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let end_to_end: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(listed(&json, "end_to_end"), end_to_end);
    let per_layer: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed(&json, "per_layer"), per_layer);
    assert_eq!(
        listed(&json, "workloads"),
        ["hit_heavy", "miss_mix", "name_churn", "oracle_walk"]
    );
}
