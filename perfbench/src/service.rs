//! The three service workloads: closed-loop TCP load on an `annot_serve`
//! child, the correctness referee, and the server's `STATS` and memory.

use crate::gen::{self, Pair, SplitMix64};
use crate::load::{closed_loop, ConnectionRun, Server, Span};
use crate::referee::{self, parse_decide_reply, WireVerdict};
use annot_core::registry::decide_ucq_dyn;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// Client connections (and client threads) of every service workload.
pub const CONNECTIONS: usize = 2;

/// Throwaway set-ups before the measured one; `setup_s` is the median.
const EXTRA_SETUPS: usize = 14;

/// Distinct request lines per `hit_heavy` connection, cycled.
const HIT_POOL: usize = 20_000;

/// `miss_mix` lines generated per connection and second of load (warm-up
/// included).  About twice what a connection sends today; a connection
/// that runs out ends its loop early.
const MISS_LINES_PER_SECOND: usize = 16_000;

/// Per-shard entry cap of the `miss_mix` server: 64 shards × 16 entries,
/// small enough that CLOCK eviction runs on nearly every miss.
const MISS_SHARD_CAPACITY: usize = 16;

/// Requests per connection in one `name_churn` episode.
pub const CHURN_REQUESTS: usize = 500;

/// Byte budget of the `name_churn` server (the budget whose real-memory
/// bound the workload checks).
const CHURN_BYTE_BUDGET: usize = 262_144;

/// Pairs of one run that the oracle referees.
const ORACLE_SAMPLES: usize = 24;

/// Sampled lines are drawn from this prefix of each stream, which every
/// run sends.
const SAMPLE_PREFIX: usize = 1_000;

/// The three service workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fixed pool of pair classes; after the prefill, nearly all hits.
    HitHeavy,
    /// Fresh random pairs over two relations; a bounded, evicting cache.
    MissMix,
    /// Two fresh relation names per request; fixed request count.
    NameChurn,
}

impl Workload {
    /// The server flags this workload runs with (besides the address and
    /// `--workers`).
    pub fn server_flags(self) -> Vec<String> {
        let flags: &[String] = &match self {
            Workload::HitHeavy => vec![],
            Workload::MissMix => {
                vec!["--cache-capacity".into(), MISS_SHARD_CAPACITY.to_string()]
            }
            Workload::NameChurn => vec!["--byte-budget".into(), CHURN_BYTE_BUDGET.to_string()],
        };
        flags.to_vec()
    }
}

/// The request lines of one server's lifetime.
pub struct Plan {
    /// Lines sent, one at a time on one connection, right after start-up
    /// (counted in set-up time).
    pub prefill: Vec<String>,
    /// One line stream per connection, newline-terminated.
    pub streams: Vec<Vec<String>>,
    /// The `hit_heavy` class of every line, per connection.
    pub classes: Vec<Vec<u16>>,
    /// Pairs the oracle referees, by `(connection, index)`.
    pub samples: BTreeMap<(usize, usize), Pair>,
}

fn framed(mut line: String) -> String {
    line.push('\n');
    line
}

/// The `hit_heavy` plan: each class's representative as prefill, then
/// variants of random classes.
pub fn hit_plan(seed: u64, classes: &[Pair]) -> Plan {
    let (streams, class_of) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::stream(seed, conn as u64);
                    (0..HIT_POOL)
                        .map(|_| {
                            let (class, line) = gen::hit_request(&mut rng, classes);
                            (framed(line), class as u16)
                        })
                        .unzip::<_, _, Vec<_>, Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .unzip::<_, _, Vec<_>, Vec<_>>()
    });
    Plan {
        prefill: classes.iter().map(Pair::line).collect(),
        streams,
        classes: class_of,
        samples: BTreeMap::new(),
    }
}

/// Which line indices of a stream of `len` lines the oracle referees.
fn sample_indices(seed: u64, conn: usize, len: usize, count: usize) -> Vec<usize> {
    let mut rng = SplitMix64::stream(seed ^ 0x5A5A, conn as u64);
    let prefix = len.min(SAMPLE_PREFIX);
    let mut picked: Vec<usize> = Vec::with_capacity(count);
    while picked.len() < count.min(prefix) {
        let i = rng.below(prefix);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Generates `len` lines per connection with `pair(rng, conn, index)`,
/// keeping the pairs at the sampled indices.
fn generated_plan(
    seed: u64,
    len: usize,
    samples_per_conn: usize,
    pair: &(dyn Fn(&mut SplitMix64, usize, usize) -> Pair + Sync),
) -> Plan {
    let mut plan = Plan {
        prefill: Vec::new(),
        streams: Vec::new(),
        classes: Vec::new(),
        samples: BTreeMap::new(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let sampled = sample_indices(seed, conn, len, samples_per_conn);
                    let mut rng = SplitMix64::stream(seed, conn as u64);
                    let mut lines = Vec::with_capacity(len);
                    let mut kept = Vec::new();
                    for index in 0..len {
                        let p = pair(&mut rng, conn, index);
                        lines.push(framed(p.line()));
                        if sampled.contains(&index) {
                            kept.push(((conn, index), p));
                        }
                    }
                    (lines, kept)
                })
            })
            .collect();
        for handle in handles {
            let (lines, kept) = handle.join().expect("generator thread panicked");
            plan.streams.push(lines);
            plan.samples.extend(kept);
        }
    });
    plan
}

/// The `miss_mix` plan for `seconds` of load.
pub fn miss_plan(seed: u64, seconds: u64) -> Plan {
    let schema = gen::fixed_schema();
    let rows = gen::rows();
    let len = MISS_LINES_PER_SECOND * seconds.max(1) as usize;
    generated_plan(seed, len, ORACLE_SAMPLES / CONNECTIONS, &|rng, _, _| {
        gen::miss_pair(rng, &schema, &rows)
    })
}

/// The plan of `name_churn` episode `episode`.
pub fn churn_plan(seed: u64, episode: u64) -> Plan {
    let rows = gen::rows();
    generated_plan(
        seed.wrapping_add(episode.wrapping_mul(0x9E37_79B9)),
        CHURN_REQUESTS,
        ORACLE_SAMPLES / CONNECTIONS / 2,
        &|rng, conn, index| gen::churn_pair(rng, conn, index, &rows),
    )
}

/// The verdict token and method every member of a `hit_heavy` class must
/// be answered with: the decider's own answer on the representative.
pub fn class_answers(classes: &[Pair]) -> Vec<(WireVerdict, &'static str)> {
    classes
        .iter()
        .map(|p| {
            let d = decide_ucq_dyn(p.semiring, &p.q1, &p.q2);
            (d.answer.into(), d.method)
        })
        .collect()
}

/// Everything one server's lifetime produced.
pub struct Episode {
    /// Spawn to first pong, plus the prefill.
    pub setup: Duration,
    /// One entry per connection.
    pub runs: Vec<ConnectionRun>,
    /// The server's `STATS` counters after the load.
    pub stats: BTreeMap<String, u64>,
    /// `VmHWM` of the server after the load, MiB.
    pub peak_rss_mb: f64,
    /// Referee and bookkeeping rejections (beyond per-reply failures).
    pub rejections: Vec<String>,
    /// Pairs the oracle refereed.
    pub refereed: usize,
}

/// Starts a server and sends the plan's prefill; returns the server and
/// the set-up time.
fn set_up(binary: &Path, flags: &[String], plan: &Plan) -> Result<(Server, Duration), String> {
    let started = std::time::Instant::now();
    let (server, _) = Server::start(binary, flags)?;
    if !plan.prefill.is_empty() {
        let mut conn = crate::load::Connection::open(server.addr)?;
        for line in &plan.prefill {
            let reply = conn.request(line)?;
            if parse_decide_reply(&reply).is_none() {
                return Err(format!("prefill {line:?} answered {reply:?}"));
            }
        }
    }
    Ok((server, started.elapsed()))
}

/// Set-up times of throwaway servers started like the measured one.
pub fn extra_setups(binary: &Path, flags: &[String], plan: &Plan) -> Result<Vec<Duration>, String> {
    (0..EXTRA_SETUPS)
        .map(|_| {
            let (server, setup) = set_up(binary, flags, plan)?;
            server.shutdown();
            Ok(setup)
        })
        .collect()
}

/// Runs one server's lifetime: set-up, closed-loop load, `STATS`, memory,
/// referee.
pub fn run_episode(
    binary: &Path,
    flags: &[String],
    plan: &Plan,
    span: Span,
    answers: &[(WireVerdict, &'static str)],
) -> Result<Episode, String> {
    let (server, setup) = set_up(binary, flags, plan)?;
    let sampled: Mutex<HashMap<(usize, usize), WireVerdict>> = Mutex::new(HashMap::new());
    let check = |conn: usize, index: usize, reply: &str| -> Result<(), String> {
        let parsed = parse_decide_reply(reply).ok_or_else(|| format!("reply {reply:?}"))?;
        if let Some(class) = plan.classes.get(conn).map(|c| c[index] as usize) {
            let (verdict, method) = answers[class];
            if parsed.verdict != verdict || parsed.method != method {
                return Err(format!(
                    "class {class} expects {verdict:?} by {method:?}, got {reply:?}"
                ));
            }
        } else if plan.samples.contains_key(&(conn, index)) {
            sampled
                .lock()
                .expect("sample map lock")
                .insert((conn, index), parsed.verdict);
        }
        Ok(())
    };
    let runs = closed_loop(server.addr, &plan.streams, span, &check);
    let stats = server.stats()?;
    let peak_rss_mb = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    server.shutdown();

    let mut rejections = Vec::new();
    let decides: u64 =
        (plan.prefill.len() + runs.iter().map(|r| r.attempted).sum::<usize>()) as u64;
    let stat = |k: &str| stats.get(k).copied().unwrap_or(u64::MAX);
    if stat("hits").wrapping_add(stat("misses")) != decides {
        rejections.push(format!(
            "STATS hits+misses = {}+{} but {decides} DECIDEs were sent",
            stat("hits"),
            stat("misses")
        ));
    }
    if stat("entries") != stat("inserts").wrapping_sub(stat("evictions")) {
        rejections.push(format!(
            "STATS entries = {} but inserts − evictions = {} − {}",
            stat("entries"),
            stat("inserts"),
            stat("evictions")
        ));
    }
    let verdicts = sampled.into_inner().expect("sample map lock");
    for (at, pair) in &plan.samples {
        let Some(&verdict) = verdicts.get(at) else {
            continue;
        };
        if let Err(e) = referee::check_against_oracle(pair.semiring, &pair.q1, &pair.q2, verdict) {
            rejections.push(format!("{} ({e})", pair.line()));
        }
    }
    Ok(Episode {
        setup,
        runs,
        stats,
        peak_rss_mb,
        rejections,
        refereed: verdicts.len(),
    })
}
