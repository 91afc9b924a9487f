//! The traced run of the service workloads: the same request lines,
//! replayed in-process through each layer's public functions, with a span
//! around every call into a layer.  The program itself is not
//! instrumented; every span is taken here.
//!
//! Layers, in request order: `proto` (request-line parse, reply format),
//! `parser` (`parse_ucq` of both sides against the shared schema), `cache`
//! (`Cache::get_or_decide` minus the decide closure; it contains the
//! canonical key and the isomorphism judge, which are also timed on their
//! own), `decide` (`decide_ucq_dyn` inside the closure, by method).

use crate::report::{growth, percentile, Metrics};
use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_hom::are_isomorphic_ucq;
use annot_query::key::ucq_code;
use annot_query::{parser, Schema, Ucq};
use annot_service::proto::{self, Request};
use annot_service::{Cache, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every `Decision::method` the UCQ deciders report, with its metric slug.
pub const METHODS: &[(&str, &str)] = &[
    ("member-wise homomorphism (C_hom)", "hom"),
    ("member-wise injective homomorphism (C¹_in)", "injective"),
    ("member-wise surjective homomorphism (C¹_sur)", "surjective"),
    ("member-wise bijective homomorphism (C¹_bi)", "bijective"),
    ("covering ⇉₁ (C¹_hcov)", "covering1"),
    ("covering ⇉₂ (C²_hcov)", "covering2"),
    ("complete-description counting ↪_k (C^k_bi)", "counting_k"),
    ("complete-description counting ↪_∞ (C^∞_bi)", "counting_inf"),
    ("unique surjection ↠_∞ (C^∞_sur)", "unique_surjection"),
    (
        "small-model / canonical instances (UCQ extension of Thm. 4.17)",
        "small_model",
    ),
    (
        "sufficient UCQ bound (↠_∞ / distinct bijective witnesses)",
        "bound_sufficient",
    ),
    ("necessary UCQ bound violated", "bound_necessary"),
    ("sufficient/necessary UCQ bounds", "bounds_open"),
];

/// The slug of a method, `other` for one this table does not know.
pub fn method_slug(method: &str) -> &'static str {
    METHODS
        .iter()
        .find(|(m, _)| *m == method)
        .map_or("other", |(_, slug)| slug)
}

/// Input of a replay: the prefill (untimed) and the timed lines, each with
/// the prefill index of its `hit_heavy` class representative, if any.
pub struct Replay<'a> {
    /// Lines that warm the cache before timing.
    pub prefill: &'a [String],
    /// Timed lines, in replay order.
    pub lines: Vec<(&'a str, Option<usize>)>,
}

fn decide_request(line: &str) -> (String, String, String) {
    match proto::parse_request(line) {
        Ok(Request::Decide { semiring, q1, q2 }) => (semiring, q1, q2),
        other => panic!("replayed line is not a DECIDE: {other:?}"),
    }
}

fn us(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e6
}

/// The mean of `values`; 0 for none.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Lines per slice of the interleaved replay.
const SLICE: usize = 200;

/// The clock of a pass: reads the time only when spans are on.
fn clock(spans: bool) -> Option<Instant> {
    spans.then(Instant::now)
}

fn span_us(from: Option<Instant>, to: Option<Instant>) -> f64 {
    match (from, to) {
        (Some(a), Some(b)) => us(a, b),
        _ => 0.0,
    }
}

/// What a layered replay times.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Timing {
    /// Whole requests only.
    Requests,
    /// Whole requests and a span around every layer call.
    Spans,
    /// Nothing of the request; the canonical key and the isomorphism judge
    /// of each parsed pair, called on their own.  A pass of its own, so
    /// their work does not disturb the caches of the timed requests.
    Side,
}

/// A replay through the layers' public functions, in the order
/// `Service::handle_line` calls them, on its own schema and cache.
struct Layered {
    timing: Timing,
    schema: Schema,
    cache: Cache,
    representatives: Vec<(Ucq, Ucq)>,
    /// Wall time of the requests (without the side measurements), µs.
    total: f64,
    request_us: Vec<f64>,
    parse_us: Vec<f64>,
    cache_us: Vec<f64>,
    decide_us: Vec<f64>,
    format_us: Vec<f64>,
    key_us: Vec<f64>,
    judge_us: Vec<f64>,
    by_method: BTreeMap<&'static str, (u64, f64)>,
}

impl Layered {
    fn new(config: &ServiceConfig, prefill: &[String], timing: Timing) -> Layered {
        let mut schema = Schema::new();
        let cache = Cache::with_config(config.cache);
        let mut representatives = Vec::new();
        for line in prefill {
            let (semiring, q1, q2) = decide_request(line);
            let id = SemiringId::from_name(&semiring).expect("generated semiring name");
            let u1 = parser::parse_ucq(&mut schema, &q1).expect("generated left query");
            let u2 = parser::parse_ucq(&mut schema, &q2).expect("generated right query");
            cache.get_or_decide(id, &u1, &u2, |a, b| decide_ucq_dyn(id, a, b));
            representatives.push((u1, u2));
        }
        Layered {
            timing,
            schema,
            cache,
            representatives,
            total: 0.0,
            request_us: Vec::new(),
            parse_us: Vec::new(),
            cache_us: Vec::new(),
            decide_us: Vec::new(),
            format_us: Vec::new(),
            key_us: Vec::new(),
            judge_us: Vec::new(),
            by_method: BTreeMap::new(),
        }
    }

    fn run(&mut self, lines: &[(&str, Option<usize>)]) {
        let spans = self.timing == Timing::Spans;
        for &(line, class) in lines {
            if self.timing == Timing::Side {
                self.side(line, class);
                continue;
            }
            let start = Instant::now();
            let t0 = clock(spans);
            let (semiring, q1, q2) = decide_request(line);
            let t1 = clock(spans);
            let id = SemiringId::from_name(&semiring).expect("generated semiring name");
            let u1 = parser::parse_ucq(&mut self.schema, &q1).expect("generated left query");
            let u2 = parser::parse_ucq(&mut self.schema, &q2).expect("generated right query");
            let t2 = clock(spans);
            let mut decided: Option<(&'static str, f64)> = None;
            let (decision, hit) = self.cache.get_or_decide(id, &u1, &u2, |a, b| {
                let d0 = clock(spans);
                let d = decide_ucq_dyn(id, a, b);
                decided = Some((d.method, span_us(d0, clock(spans))));
                d
            });
            let t3 = clock(spans);
            black_box(proto::format_decision(&decision, hit));
            let t4 = clock(spans);
            self.total += us(start, Instant::now());
            if !spans {
                continue;
            }

            let decide = decided.map_or(0.0, |(method, spent)| {
                let slot = self.by_method.entry(method_slug(method)).or_default();
                slot.0 += 1;
                slot.1 += spent;
                spent
            });
            self.request_us.push(span_us(t0, t1));
            self.parse_us.push(span_us(t1, t2));
            self.cache_us.push(span_us(t2, t3) - decide);
            self.decide_us.push(decide);
            self.format_us.push(span_us(t3, t4));
        }
    }

    fn side(&mut self, line: &str, class: Option<usize>) {
        let (_, q1, q2) = decide_request(line);
        let u1 = parser::parse_ucq(&mut self.schema, &q1).expect("generated left query");
        let u2 = parser::parse_ucq(&mut self.schema, &q2).expect("generated right query");
        let k0 = Instant::now();
        black_box((ucq_code(&u1), ucq_code(&u2)));
        self.key_us.push(us(k0, Instant::now()));
        if let Some((r1, r2)) = class.map(|c| &self.representatives[c]) {
            let j0 = Instant::now();
            let same = are_isomorphic_ucq(&u1, r1) && are_isomorphic_ucq(&u2, r2);
            self.judge_us.push(us(j0, Instant::now()));
            assert!(same, "a hit_heavy variant is not isomorphic to its class");
        }
    }
}

/// Replays `replay` four ways, each on its own state: through
/// `Service::handle_line` (one span per request), through the layers
/// without spans, through the layers with a span around every layer call,
/// and through the key and the judge alone.  The four advance in
/// interleaved slices, so a change in machine speed during the replay
/// touches all of them alike.  Returns the per-layer metrics.
pub fn replay_service(config: &ServiceConfig, replay: &Replay<'_>) -> Metrics {
    let service = Service::with_config(config.clone());
    for line in replay.prefill {
        black_box(service.handle_line(line));
    }
    let mut plain = Layered::new(config, replay.prefill, Timing::Requests);
    let mut l = Layered::new(config, replay.prefill, Timing::Spans);
    let mut side = Layered::new(config, replay.prefill, Timing::Side);
    let mut handle_us = Vec::with_capacity(replay.lines.len());
    for slice in replay.lines.chunks(SLICE) {
        for (line, _) in slice {
            let t0 = Instant::now();
            black_box(service.handle_line(line));
            handle_us.push(us(t0, Instant::now()));
        }
        plain.run(slice);
        l.run(slice);
        side.run(slice);
    }
    drop(service);

    let mut m = Metrics::default();
    let handle_mean = mean(&handle_us);
    let mut sorted = handle_us.clone();
    sorted.sort_by(f64::total_cmp);
    m.push(
        "service.handle_line_us.p50",
        "us",
        percentile(&sorted, 50.0, false).value,
    );
    m.push(
        "service.handle_line_us.p99",
        "us",
        percentile(&sorted, 99.0, true).value,
    );
    m.push("service.handle_line_us.mean", "us", handle_mean);
    let layers = [
        ("proto.parse_request_us", mean(&l.request_us)),
        ("parser.parse_ucq_us", mean(&l.parse_us)),
        ("cache.self_us", mean(&l.cache_us)),
        ("decide.self_us", mean(&l.decide_us)),
        ("proto.format_reply_us", mean(&l.format_us)),
    ];
    for (name, value) in layers {
        m.push(name, "us", value);
    }
    m.push(
        "parser.parse_ucq_growth_x",
        "ratio",
        growth(&l.parse_us).unwrap_or(f64::NAN),
    );
    m.push("parser.schema_relations", "count", l.schema.len() as f64);
    m.push("key.ucq_code_us", "us", mean(&side.key_us));
    m.push("hom.iso_judge_us", "us", mean(&side.judge_us));
    let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
    m.push("layer.unattributed_us", "us", handle_mean - attributed);
    m.push(
        "decide.share_pct",
        "%",
        100.0 * mean(&l.decide_us) / handle_mean,
    );
    for (_, slug) in METHODS.iter().chain([&("", "other")]) {
        let (calls, spent) = l.by_method.get(slug).copied().unwrap_or((0, 0.0));
        m.push(
            format!("decide.us.{slug}"),
            "us",
            if calls == 0 {
                0.0
            } else {
                spent / calls as f64
            },
        );
        m.push(format!("decide.calls.{slug}"), "count", calls as f64);
    }
    m.push(
        "trace.overhead_pct",
        "%",
        100.0 * (l.total - plain.total) / plain.total,
    );
    m
}
