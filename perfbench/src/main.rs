//! `perfbench` — runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <hit_heavy|miss_mix|name_churn|oracle_walk>
//!           --seed <n> --seconds <s> --trace <0|1> --server <annot_serve binary>
//! ```
//!
//! The last stdout line is the result: `{"correct", "attempted", "failed",
//! "metrics"}`, with the end-to-end metrics under `--trace 0` and the
//! per-layer metrics under `--trace 1`.  The line before it is a report
//! with the run environment, the server flags, sample counts, the
//! percentile levels used, `error_rate` and every referee rejection.

use perfbench::cpus::Cpus;
use perfbench::gen;
use perfbench::load::{Span, SERVER_WORKERS};
use perfbench::names::{per_layer_names, END_TO_END};
use perfbench::oracle_walk::{self, Family};
use perfbench::report::{
    best_of, growth, halves_growth, json_num, json_str, median, percentile, Environment, Metrics,
};
use perfbench::service::{self, Episode, Workload, CONNECTIONS};
use perfbench::trace::{self, Replay};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Load before timing starts on `hit_heavy` and `miss_mix`.
const WARMUP: Duration = Duration::from_secs(2);

/// Timed lines per connection that the traced run replays in-process.
const TRACE_LINES_PER_CONN: usize = 20_000;

/// Rounds of `oracle_walk` the traced run replays.
const TRACE_ROUNDS: usize = 3;

/// Repetitions of each deep walk per thread count for `steal.speedup_t2`.
const STEAL_REPEATS: usize = 3;

/// Least set-ups of `oracle_walk` per run; `setup_s` is their median.
const ORACLE_SETUPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".to_string()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
    })
}

/// What a run measured, before it is printed.
struct Outcome {
    attempted: usize,
    failed: usize,
    rejections: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
    report: Vec<(String, String)>,
}

/// Throughput and latency percentiles of one window of a run.
struct Window {
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p99_level: f64,
    samples: usize,
}

fn window(latencies_ms: &[f64], seconds: f64) -> Window {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p99 = percentile(&sorted, 99.0, true);
    Window {
        rps: sorted.len() as f64 / seconds,
        p50_ms: percentile(&sorted, 50.0, false).value,
        p99_ms: p99.value,
        p99_level: p99.level,
        samples: sorted.len(),
    }
}

/// Pushes throughput, p50 and p99 as medians over `windows` (one-second
/// slices of a run, or whole episodes), which keeps a burst of machine
/// noise in one window from moving the run's figures.  Returns the p50.
fn window_metrics(windows: &[Window], report: &mut Vec<(String, String)>, m: &mut Metrics) -> f64 {
    let med = |f: &dyn Fn(&Window) -> f64| median(&mut windows.iter().map(f).collect::<Vec<_>>());
    let p50 = med(&|w| w.p50_ms);
    m.push("throughput_rps", "1/s", med(&|w| w.rps));
    m.push("latency_p50_ms", "ms", p50);
    m.push("latency_p99_ms", "ms", med(&|w| w.p99_ms));
    report.push(("windows".into(), windows.len().to_string()));
    report.push((
        "latency_samples_per_window".into(),
        json_num(med(&|w| w.samples as f64)),
    ));
    report.push((
        "latency_p99_level".into(),
        json_num(
            windows
                .iter()
                .map(|w| w.p99_level)
                .fold(f64::INFINITY, f64::min),
        ),
    ));
    p50
}

fn run_service(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let flags = workload.server_flags();
    let duration = Duration::from_secs(args.seconds);
    let mut report = vec![(
        "server_flags".to_string(),
        json_str(&format!("--workers {SERVER_WORKERS} {}", flags.join(" "))),
    )];
    let (first_plan, answers) = match workload {
        Workload::HitHeavy => {
            let classes = gen::hit_classes(args.seed);
            (
                service::hit_plan(args.seed, &classes),
                service::class_answers(&classes),
            )
        }
        Workload::MissMix => (
            service::miss_plan(args.seed, args.seconds + WARMUP.as_secs()),
            Vec::new(),
        ),
        Workload::NameChurn => (service::churn_plan(args.seed, 0), Vec::new()),
    };
    let mut setups: Vec<f64> = service::extra_setups(&args.server, &flags, &first_plan)?
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    let mut episodes: Vec<Episode> = Vec::new();
    if workload == Workload::NameChurn {
        // Fixed-count episodes on fresh servers until the time is up.
        let started = Instant::now();
        while episodes.is_empty() || started.elapsed() < duration {
            let later = (!episodes.is_empty())
                .then(|| service::churn_plan(args.seed, episodes.len() as u64));
            let plan = later.as_ref().unwrap_or(&first_plan);
            episodes.push(service::run_episode(
                &args.server,
                &flags,
                plan,
                Span::Once,
                &answers,
            )?);
        }
        report.push(("episodes".into(), episodes.len().to_string()));
        report.push((
            "requests_per_episode".into(),
            (service::CHURN_REQUESTS * CONNECTIONS).to_string(),
        ));
    } else {
        // A hit_heavy stream is a pool of variants and starts over when it
        // runs out; a miss_mix stream must not repeat a pair.
        let span = Span::For {
            warmup: WARMUP,
            duration,
            cycle: workload == Workload::HitHeavy,
        };
        episodes.push(service::run_episode(
            &args.server,
            &flags,
            &first_plan,
            span,
            &answers,
        )?);
    }

    let mut windows: Vec<Window> = Vec::new();
    let mut growths: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut refereed) = (0usize, 0usize, 0usize);
    let mut rejections: Vec<String> = Vec::new();
    for e in &episodes {
        setups.push(e.setup.as_secs_f64());
        for r in &e.runs {
            attempted += r.attempted;
            failed += r.failed;
            rejections.extend(r.failures.iter().cloned());
        }
        failed += e.rejections.len();
        rejections.extend(e.rejections.iter().cloned());
        refereed += e.refereed;
        if workload == Workload::NameChurn {
            // Each episode is one window: its cost grows along it, tenth by
            // tenth of each connection's requests.
            growths.extend(e.runs.iter().filter_map(|r| growth(&r.latencies_ms)));
            let elapsed = e
                .runs
                .iter()
                .map(|r| r.elapsed.as_secs_f64())
                .fold(0.0, f64::max);
            let all: Vec<f64> = e
                .runs
                .iter()
                .flat_map(|r| r.latencies_ms.iter().copied())
                .collect();
            windows.push(window(&all, elapsed));
        } else {
            let full = args.seconds.max(1) as usize;
            let mut slices: Vec<Vec<f64>> = vec![Vec::new(); full];
            for r in &e.runs {
                let mut own: Vec<Vec<f64>> = vec![Vec::new(); full];
                for (&latency, &done) in r.latencies_ms.iter().zip(&r.done_s) {
                    if let Some(slice) = slices.get_mut(done as usize) {
                        slice.push(latency);
                        own[done as usize].push(latency);
                    }
                }
                // The halves of a timed run are compared by their
                // one-second p50s: a tenth (a few seconds) can fall wholly
                // into a slow spell of the machine (see `cpus`).
                let p50s: Vec<f64> = own
                    .iter()
                    .filter(|s| s.len() > 10)
                    .map(|s| window(s, 1.0).p50_ms)
                    .collect();
                growths.extend(halves_growth(&p50s));
            }
            windows.extend(
                slices
                    .iter()
                    .filter(|s| s.len() > 10)
                    .map(|s| window(s, 1.0)),
            );
        }
    }
    if windows.is_empty() || growths.is_empty() {
        return Err(format!("too few replies: {rejections:?}"));
    }
    let mut m = Metrics::default();
    let tcp_p50_ms = window_metrics(&windows, &mut report, &mut m);
    let mut peaks: Vec<f64> = episodes.iter().map(|e| e.peak_rss_mb).collect();
    let peak = median(&mut peaks);
    m.push("peak_rss_mb", "MB", peak);
    m.push("setup_s", "s", median(&mut setups));
    m.push("latency_growth_x", "ratio", median(&mut growths));
    report.push(("setups".into(), setups.len().to_string()));
    report.push(("oracle_refereed_pairs".into(), refereed.to_string()));

    let last = episodes.last().expect("at least one episode");
    let stat = |k: &str| last.stats.get(k).copied().unwrap_or(0) as f64;
    let stats_json: Vec<String> = last
        .stats
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    report.push((
        "server_stats".into(),
        format!("{{{}}}", stats_json.join(", ")),
    ));

    let mut per_layer = Metrics::default();
    if args.trace {
        let lines = match workload {
            Workload::NameChurn => usize::MAX,
            _ => TRACE_LINES_PER_CONN,
        };
        let mut replay = Replay {
            prefill: &first_plan.prefill,
            lines: Vec::new(),
        };
        for i in 0..lines {
            let mut any = false;
            for (conn, stream) in first_plan.streams.iter().enumerate() {
                if let Some(line) = stream.get(i) {
                    any = true;
                    let class = first_plan.classes.get(conn).map(|c| c[i] as usize);
                    replay.lines.push((line.as_str(), class));
                }
            }
            if !any {
                break;
            }
        }
        report.push((
            "trace_requests_replayed".into(),
            replay.lines.len().to_string(),
        ));
        let config = service_config(&flags);
        let layers = trace::replay_service(&config, &replay);
        let handle_p50 = layers
            .0
            .iter()
            .find(|x| x.name == "service.handle_line_us.p50")
            .map_or(0.0, |x| x.value);
        per_layer = layers;
        per_layer.push("server.transport_us", "us", tcp_p50_ms * 1e3 - handle_p50);
        let (hits, misses) = (stat("hits"), stat("misses"));
        per_layer.push("cache.hit_ratio", "ratio", hits / (hits + misses));
        per_layer.push("cache.evictions", "count", stat("evictions"));
        per_layer.push("cache.entries", "count", stat("entries"));
        per_layer.push("cache.approx_bytes", "bytes", stat("approx_bytes"));
        per_layer.push(
            "cache.decides_per_insert",
            "ratio",
            stat("decides") / stat("inserts"),
        );
        per_layer.push(
            "cache.rss_per_approx_byte",
            "ratio",
            last.peak_rss_mb * 1024.0 * 1024.0 / stat("approx_bytes"),
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        rejections,
        end_to_end: m,
        per_layer,
        report,
    })
}

/// The in-process equivalent of a workload's server flags.
fn service_config(flags: &[String]) -> annot_service::ServiceConfig {
    let mut config = annot_service::ServiceConfig::default();
    for pair in flags.chunks(2) {
        let value: usize = pair[1].parse().expect("numeric server flag");
        match pair[0].as_str() {
            "--cache-capacity" => config.cache.shard_capacity = Some(value),
            "--byte-budget" => config.cache.byte_budget = Some(value as u64),
            other => panic!("no in-process equivalent for {other}"),
        }
    }
    config
}

/// Builds the `oracle_walk` plan and warms its small walks once; returns
/// the plan and the time taken.
fn oracle_setup(seed: u64) -> (oracle_walk::Plan, f64) {
    let t0 = Instant::now();
    let plan = oracle_walk::plan(seed);
    for search in &plan.round {
        if oracle_walk::family(search) == Family::Small {
            std::hint::black_box(oracle_walk::run_search(&plan, search).visited);
        }
    }
    (plan, t0.elapsed().as_secs_f64())
}

fn run_oracle(args: &Args) -> Result<Outcome, String> {
    // Rounds alternate between the CPUs, each preceded by one more set-up,
    // so neither the searches nor the set-ups sit out a slow spell of one
    // vCPU (see `cpus`).
    let cpus = Cpus::of_this_thread();
    let (plan, first_setup) = oracle_setup(args.seed);
    let mut setups = vec![first_setup];

    let budget = args.seconds as f64;
    let mut spent = 0.0;
    let mut rejections = Vec::new();
    // Every round runs the same searches in the same order, so a search is
    // summarised over rounds before searches are compared: the small
    // walks' times cluster, and the p50 of a single round jumps between
    // clusters from round to round.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    while rounds.is_empty() || spent < budget {
        cpus.pin(rounds.len());
        setups.push(oracle_setup(args.seed).1);
        let mut round_ms = Vec::with_capacity(plan.round.len());
        for search in &plan.round {
            let outcome = oracle_walk::run_search(&plan, search);
            spent += outcome.seconds;
            round_ms.push(outcome.seconds * 1e3);
            rejections.extend(outcome.rejection);
        }
        rounds.push(round_ms);
    }
    while setups.len() < ORACLE_SETUPS {
        cpus.pin(setups.len());
        setups.push(oracle_setup(args.seed).1);
    }
    let cpu_count = cpus.count();
    drop(cpus);
    let peak = perfbench::report::vm_hwm_mb("self").ok_or("cannot read VmHWM")?;

    let mut report = vec![
        ("rounds".to_string(), rounds.len().to_string()),
        (
            "searches_per_round".to_string(),
            plan.round.len().to_string(),
        ),
        ("oracle_threads".to_string(), "1".to_string()),
        ("cpus_alternated".to_string(), cpu_count.to_string()),
        ("setups".to_string(), setups.len().to_string()),
    ];
    let mut m = Metrics::default();
    // Each vCPU runs these walks at one of two speeds about 2x apart, in
    // spells (see `cpus`).  A median over rounds follows whichever speed
    // held longer in the run, so every search is summarised by its fastest
    // time over the rounds of interest: the walks are deterministic, and
    // the best time is their cost on an undisturbed core.
    let profile = best_of(&rounds);
    m.push(
        "throughput_rps",
        "1/s",
        profile.len() as f64 * 1e3 / profile.iter().sum::<f64>(),
    );
    m.push("latency_p50_ms", "ms", median(&mut profile.clone()));
    // Percentiles over every search of the run, each at its best time.  A
    // round holds one search of each deep family, so p99 falls inside one
    // (see `oracle_walk::SMALL_PER_ROUND`).
    let mut sorted: Vec<f64> = profile
        .iter()
        .flat_map(|&t| std::iter::repeat_n(t, rounds.len()))
        .collect();
    sorted.sort_by(f64::total_cmp);
    let p99 = percentile(&sorted, 99.0, true);
    m.push("latency_p99_ms", "ms", p99.value);
    report.push(("latency_samples".into(), sorted.len().to_string()));
    report.push(("latency_p99_level".into(), json_num(p99.level)));
    m.push("peak_rss_mb", "MB", peak);
    m.push("setup_s", "s", median(&mut setups));
    // The first and last halves of the rounds, compared search by search at
    // their best.  A tenth of a run (a few seconds) can fall wholly into a
    // spell in which both vCPUs are slow; a half rarely does.
    let half = (rounds.len() / 2).max(1);
    let first = best_of(&rounds[..half]);
    let last = best_of(&rounds[rounds.len() - half..]);
    let mut ratios: Vec<f64> = last.iter().zip(&first).map(|(l, f)| l / f).collect();
    m.push("latency_growth_x", "ratio", median(&mut ratios));

    let mut per_layer = Metrics::default();
    if args.trace {
        let mut by_family: BTreeMap<Family, (f64, u64, u64)> = BTreeMap::new();
        let mut traced = 0.0;
        for _ in 0..TRACE_ROUNDS {
            for search in &plan.round {
                let outcome = oracle_walk::run_search(&plan, search);
                let slot = by_family.entry(oracle_walk::family(search)).or_default();
                slot.0 += outcome.seconds;
                slot.1 += outcome.visited;
                slot.2 += 1;
                traced += outcome.seconds;
                rejections.extend(outcome.rejection);
            }
        }
        let t0 = Instant::now();
        for _ in 0..TRACE_ROUNDS {
            for search in &plan.round {
                std::hint::black_box(oracle_walk::run_search(&plan, search).visited);
            }
        }
        let untraced = t0.elapsed().as_secs_f64();
        for family in Family::ALL {
            let (seconds, visited, count) = by_family.get(&family).copied().unwrap_or_default();
            per_layer.push(
                format!("oracle.walk_ms.{}", family.slug()),
                "ms",
                seconds * 1e3 / count.max(1) as f64,
            );
            per_layer.push(
                format!("oracle.instances_visited.{}", family.slug()),
                "count",
                visited as f64,
            );
            per_layer.push(
                format!("oracle.instances_per_s.{}", family.slug()),
                "1/s",
                visited as f64 / seconds,
            );
        }
        for &family in &Family::ALL[1..] {
            let at = |threads: usize| -> Result<f64, String> {
                let mut times = (0..STEAL_REPEATS)
                    .map(|_| oracle_walk::deep_walk(&plan, family, threads).map(|r| r.0))
                    .collect::<Result<Vec<f64>, String>>()?;
                Ok(median(&mut times))
            };
            let ratio = at(1)? / at(2)?;
            per_layer.push(
                format!("steal.speedup_t2.{}", family.slug()),
                "ratio",
                ratio,
            );
        }
        per_layer.push(
            "trace.overhead_pct",
            "%",
            100.0 * (traced - untraced) / untraced,
        );
    }
    let failed = rejections.len();
    Ok(Outcome {
        attempted: rounds.len() * plan.round.len(),
        failed,
        rejections,
        end_to_end: m,
        per_layer,
        report,
    })
}

/// Orders `measured` by `names`, filling metrics the workload does not
/// exercise with 0.
fn complete(names: &[(String, &'static str)], measured: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in names {
        let value = measured
            .0
            .iter()
            .find(|m| &m.name == name)
            .map_or(0.0, |m| m.value);
        out.push(name.clone(), unit, value);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Environment::capture();
    let outcome = match args.workload.as_str() {
        "hit_heavy" => run_service(&args, Workload::HitHeavy),
        "miss_mix" => run_service(&args, Workload::MissMix),
        "name_churn" => run_service(&args, Workload::NameChurn),
        "oracle_walk" => run_oracle(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let mut report: Vec<String> = vec![
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"environment\": {}", env.to_json()),
        format!(
            "\"error_rate\": {{\"value\": {}, \"unit\": \"ratio\"}}",
            json_num(error_rate)
        ),
        format!("\"end_to_end\": {}", outcome.end_to_end.to_json()),
    ];
    report.extend(
        outcome
            .report
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k))),
    );
    let rejections: Vec<String> = outcome
        .rejections
        .iter()
        .take(20)
        .map(|r| json_str(r))
        .collect();
    report.push(format!("\"rejections\": [{}]", rejections.join(", ")));
    println!("{{\"report\": {{{}}}}}", report.join(", "));

    let end_to_end: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    let metrics = if args.trace {
        complete(&per_layer_names(), &outcome.per_layer)
    } else {
        complete(&end_to_end, &outcome.end_to_end)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
