//! The metric names the benchmark prints, in output order, with their
//! units.  `BENCHMARK.json` lists the same names; a test keeps the two in
//! step.

use crate::oracle_walk::Family;
use crate::trace::METHODS;

/// The per-layer metric names and units, in output order.  Every traced
/// run reports all of them; a layer the workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut names = fixed(&[
        ("service.handle_line_us.p50", "us"),
        ("service.handle_line_us.p99", "us"),
        ("service.handle_line_us.mean", "us"),
        ("server.transport_us", "us"),
        ("proto.parse_request_us", "us"),
        ("parser.parse_ucq_us", "us"),
        ("cache.self_us", "us"),
        ("decide.self_us", "us"),
        ("proto.format_reply_us", "us"),
        ("parser.parse_ucq_growth_x", "ratio"),
        ("parser.schema_relations", "count"),
        ("key.ucq_code_us", "us"),
        ("hom.iso_judge_us", "us"),
        ("layer.unattributed_us", "us"),
        ("decide.share_pct", "%"),
    ]);
    for (_, slug) in METHODS.iter().chain([&("", "other")]) {
        names.push((format!("decide.us.{slug}"), "us"));
        names.push((format!("decide.calls.{slug}"), "count"));
    }
    names.extend(fixed(&[
        ("trace.overhead_pct", "%"),
        ("cache.hit_ratio", "ratio"),
        ("cache.evictions", "count"),
        ("cache.entries", "count"),
        ("cache.approx_bytes", "bytes"),
        ("cache.decides_per_insert", "ratio"),
        ("cache.rss_per_approx_byte", "ratio"),
    ]));
    for family in Family::ALL {
        let slug = family.slug();
        names.push((format!("oracle.walk_ms.{slug}"), "ms"));
        names.push((format!("oracle.instances_visited.{slug}"), "count"));
        names.push((format!("oracle.instances_per_s.{slug}"), "1/s"));
    }
    for family in &Family::ALL[1..] {
        names.push((format!("steal.speedup_t2.{}", family.slug()), "ratio"));
    }
    names
}

/// The end-to-end metric names and units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("latency_growth_x", "ratio"),
];
