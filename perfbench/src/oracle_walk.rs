//! The `oracle_walk` workload: a seeded sequence of brute-force searches,
//! called in-process at one thread.
//!
//! Two families.  Small domain-2 walks over random pairs in the
//! cross-validation regime, mostly refutable and µs–ms each, set the
//! median.  Deep irrefutable `R(u,v) ⊑ R(u,v)²` walks at domain 3, support
//! cap 6, set throughput: over `N` the oracle takes its direct walk, over
//! `Lin[X]` and `Why[X]` its factorized walk, so the workload sits on both
//! sides of that choice.

use crate::gen::{self, Pair, SplitMix64};
use crate::referee::{
    check_directions, dispatch, small_walk_config, ucq_row_is_exact, PerSemiring, WireVerdict,
};
use annot_core::brute_force::{
    quotiented_instance_count, try_find_counterexample_ucq, BruteForceConfig, SearchOutcome,
};
use annot_core::classes::ClassifiedSemiring;
use annot_core::decide::decide_ucq;
use annot_query::{parser, Schema, Ucq};
use annot_semiring::{Lineage, Natural, Semiring, Why};
use std::time::Instant;

/// Small walks per round, sixteen per Table 1 row, so that their median
/// depends little on the seed.  With one walk of each deep family, the
/// deep walks are 1.2 % of a round, a family 0.4 %, so p99 falls inside the
/// fastest deep family (`Lin[X]`, slower than any small walk) rather than
/// on the edge between two.
pub const SMALL_PER_ROUND: usize = 240;

/// Domain and support cap of the deep walks.
const DEEP_DOMAIN: usize = 3;
const DEEP_CAP: usize = 6;

/// A search family, for per-family metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Domain-2 walks over random pairs.
    Small,
    /// `R(u,v) ⊑ R(u,v)²` over `N` (direct walk).
    DeepN,
    /// The same pair over `Lin[X]` (factorized walk).
    DeepLin,
    /// The same pair over `Why[X]` (factorized walk).
    DeepWhy,
}

impl Family {
    /// Every family, in metric order.
    pub const ALL: [Family; 4] = [
        Family::Small,
        Family::DeepN,
        Family::DeepLin,
        Family::DeepWhy,
    ];

    /// The metric-name suffix.
    pub fn slug(self) -> &'static str {
        match self {
            Family::Small => "small",
            Family::DeepN => "deep_n",
            Family::DeepLin => "deep_lin",
            Family::DeepWhy => "deep_why",
        }
    }
}

/// One search of the sequence.
pub enum Search {
    /// A small walk over a random pair.
    Small(Pair),
    /// A deep walk and the visit count its full walk must report.
    Deep(Family, u64),
}

/// The seeded search plan.
pub struct Plan {
    /// One round of searches.  The workload repeats the same round, so
    /// every part of a run does the same work and a cost that grows with
    /// history shows in `latency_growth_x`.
    pub round: Vec<Search>,
    /// The deep pair `R(u,v)` and `R(u,v), R(u,v)`.
    pub deep: (Ucq, Ucq),
}

struct Decide<'a>(&'a Pair);

impl PerSemiring for Decide<'_> {
    type Out = WireVerdict;
    fn run<K: ClassifiedSemiring>(self) -> WireVerdict {
        decide_ucq::<K>(&self.0.q1, &self.0.q2).answer.into()
    }
}

fn deep_visits<K: Semiring>(schema: &Schema) -> u64 {
    let s = K::decisive_samples()
        .into_iter()
        .filter(|k| !k.is_zero())
        .count();
    u64::try_from(quotiented_instance_count(schema, DEEP_DOMAIN, s, DEEP_CAP))
        .expect("deep visit count fits in u64")
}

/// Builds the plan for `seed`: the small pairs over one binary relation
/// and the deep walks' expected visit counts.
pub fn plan(seed: u64) -> Plan {
    let mut deep_schema = Schema::with_relations([("R", 2)]);
    let d1 = parser::parse_ucq(&mut deep_schema, "Q() :- R(u, v)").expect("deep left query");
    let d2 =
        parser::parse_ucq(&mut deep_schema, "Q() :- R(u, v), R(u, v)").expect("deep right query");
    let visits = [
        (Family::DeepN, deep_visits::<Natural>(&deep_schema)),
        (Family::DeepLin, deep_visits::<Lineage>(&deep_schema)),
        (Family::DeepWhy, deep_visits::<Why>(&deep_schema)),
    ];
    let small_schema = Schema::with_relations([("R", 2)]);
    let mut rng = SplitMix64::stream(seed, 0x0AC1E);
    let mut round: Vec<Search> = (0..SMALL_PER_ROUND)
        .map(|k| Search::Small(gen::stratified_pair(&mut rng, k, &small_schema)))
        .collect();
    // Spread the deep walks evenly through the round.
    for (k, &(family, count)) in visits.iter().enumerate() {
        let at = (k + 1) * SMALL_PER_ROUND / (visits.len() + 1) + k;
        round.insert(at, Search::Deep(family, count));
    }
    Plan {
        round,
        deep: (d1, d2),
    }
}

/// What one search did.
pub struct Outcome {
    /// Wall time of the search call.
    pub seconds: f64,
    /// `SearchStats::instances_visited`.
    pub visited: u64,
    /// `None` if the referee accepted the result.
    pub rejection: Option<String>,
}

struct Walk<'a> {
    q1: &'a Ucq,
    q2: &'a Ucq,
    config: &'a BruteForceConfig,
}

impl PerSemiring for Walk<'_> {
    type Out = Result<(f64, bool, u64), String>;
    fn run<K: ClassifiedSemiring>(self) -> Self::Out {
        timed_walk::<K>(self.q1, self.q2, self.config)
    }
}

/// Runs one search; returns its time, whether it found a counterexample,
/// and the instances it visited.
fn timed_walk<K: Semiring>(
    q1: &Ucq,
    q2: &Ucq,
    config: &BruteForceConfig,
) -> Result<(f64, bool, u64), String> {
    let t0 = Instant::now();
    let outcome: Result<SearchOutcome<K>, _> = try_find_counterexample_ucq(q1, q2, config);
    let seconds = t0.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| e.to_string())?;
    Ok((
        seconds,
        outcome.counterexample.is_some(),
        outcome.stats.instances_visited,
    ))
}

/// The deep-walk configuration at `threads` workers.
fn deep_config(threads: usize) -> BruteForceConfig {
    BruteForceConfig {
        domain_size: DEEP_DOMAIN,
        max_support: DEEP_CAP,
        threads,
        ..BruteForceConfig::default()
    }
}

/// Runs one deep walk of `family` at `threads` workers.
pub fn deep_walk(plan: &Plan, family: Family, threads: usize) -> Result<(f64, bool, u64), String> {
    let (q1, q2) = (&plan.deep.0, &plan.deep.1);
    let config = deep_config(threads);
    match family {
        Family::DeepN => timed_walk::<Natural>(q1, q2, &config),
        Family::DeepLin => timed_walk::<Lineage>(q1, q2, &config),
        Family::DeepWhy => timed_walk::<Why>(q1, q2, &config),
        Family::Small => unreachable!("the small family has no fixed walk"),
    }
}

/// Runs one search of the plan at one thread and referees it; the referee
/// (the decider's verdict on small pairs) runs outside the timed call.
pub fn run_search(plan: &Plan, search: &Search) -> Outcome {
    let result = match search {
        Search::Small(pair) => dispatch(
            pair.semiring,
            Walk {
                q1: &pair.q1,
                q2: &pair.q2,
                config: &small_walk_config(),
            },
        ),
        Search::Deep(family, _) => deep_walk(plan, *family, 1),
    };
    let (seconds, refuted, visited) = match result {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                seconds: 0.0,
                visited: 0,
                rejection: Some(e),
            }
        }
    };
    let rejection = match search {
        Search::Small(pair) => check_directions(
            dispatch(pair.semiring, Decide(pair)),
            refuted,
            dispatch(pair.semiring, Exact),
        )
        .err()
        .map(|e| format!("{}: {e}", pair.line())),
        Search::Deep(family, expected) => {
            if refuted {
                Some(format!("{family:?}: counterexample to an irrefutable pair"))
            } else if visited != *expected {
                Some(format!(
                    "{family:?}: visited {visited} instances, closed form says {expected}"
                ))
            } else {
                None
            }
        }
    };
    Outcome {
        seconds,
        visited,
        rejection,
    }
}

struct Exact;

impl PerSemiring for Exact {
    type Out = bool;
    fn run<K: ClassifiedSemiring>(self) -> bool {
        ucq_row_is_exact::<K>()
    }
}

/// The family of a search.
pub fn family(search: &Search) -> Family {
    match search {
        Search::Small(..) => Family::Small,
        Search::Deep(f, _) => *f,
    }
}
