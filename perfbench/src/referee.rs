//! The correctness referee: untimed checks of the program's answers.
//!
//! Service replies are checked against the brute-force oracle in the two
//! directions that hold for every sample and domain bound (the directions
//! of `check_against_oracle` in the repository's cross-validation suite):
//! a `Contained` verdict must never coexist with a semantic
//! counterexample, and on a row with an exact criterion a counterexample
//! forces `NotContained` (and the verdict is never `unknown`).

use annot_core::brute_force::{try_find_counterexample_ucq, BruteForceConfig, SearchOutcome};
use annot_core::classes::{ClassifiedSemiring, UcqCriterion};
use annot_core::decide::Verdict;
use annot_core::registry::SemiringId;
use annot_query::Ucq;
use annot_semiring::{
    Bool, BoolPoly, BoundedNat, Clearance, Fuzzy, Lineage, NatPoly, Natural, PosBool, Schedule,
    Trio, Tropical, Viterbi, Why,
};

/// A computation generic in the semiring, run for a [`SemiringId`] chosen
/// at runtime by [`dispatch`].
pub trait PerSemiring {
    /// What the computation returns.
    type Out;
    /// Runs the computation over `K`.
    fn run<K: ClassifiedSemiring>(self) -> Self::Out;
}

/// Runs `job` over the semiring `id` names.  The registry dispatches only
/// the deciders, so the oracle needs this typed bridge.
pub fn dispatch<P: PerSemiring>(id: SemiringId, job: P) -> P::Out {
    match id.name() {
        "B" => job.run::<Bool>(),
        "PosBool[X]" => job.run::<PosBool>(),
        "Fuzzy" => job.run::<Fuzzy>(),
        "Access" => job.run::<Clearance>(),
        "Lin[X]" => job.run::<Lineage>(),
        "Why[X]" => job.run::<Why>(),
        "Trio[X]" => job.run::<Trio>(),
        "B[X]" => job.run::<BoolPoly>(),
        "N[X]" => job.run::<NatPoly>(),
        "N" => job.run::<Natural>(),
        "T+" => job.run::<Tropical>(),
        "T-" => job.run::<Schedule>(),
        "Viterbi" => job.run::<Viterbi>(),
        "B_2" => job.run::<BoundedNat<2>>(),
        "B_3" => job.run::<BoundedNat<3>>(),
        other => panic!("registry row {other:?} has no oracle bridge"),
    }
}

/// Whether `K`'s UCQ decider is exact (never answers `unknown`).
pub fn ucq_row_is_exact<K: ClassifiedSemiring>() -> bool {
    match K::class_profile().ucq_criterion {
        UcqCriterion::OpenProblem => false,
        UcqCriterion::SmallModel => K::poly_order().is_some(),
        _ => true,
    }
}

/// The oracle regime of the cross-validation suite: domain 2, at most three
/// annotated tuples, one thread.
pub fn small_walk_config() -> BruteForceConfig {
    BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        threads: 1,
        ..BruteForceConfig::default()
    }
}

/// A verdict as the wire protocol spells it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireVerdict {
    /// `contained`
    Contained,
    /// `not-contained`
    NotContained,
    /// `unknown`
    Unknown,
}

impl From<Verdict> for WireVerdict {
    fn from(verdict: Verdict) -> WireVerdict {
        match verdict {
            Verdict::Contained => WireVerdict::Contained,
            Verdict::NotContained => WireVerdict::NotContained,
            Verdict::Unknown { .. } => WireVerdict::Unknown,
        }
    }
}

impl WireVerdict {
    /// Parses the verdict token of an `OK` decide reply.
    pub fn parse(token: &str) -> Option<WireVerdict> {
        match token {
            "contained" => Some(WireVerdict::Contained),
            "not-contained" => Some(WireVerdict::NotContained),
            "unknown" => Some(WireVerdict::Unknown),
            _ => None,
        }
    }
}

/// One `OK <verdict> <hit|miss> <method>` decide reply, split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecideReply<'a> {
    /// The verdict.
    pub verdict: WireVerdict,
    /// The criterion the decider used.
    pub method: &'a str,
}

/// Splits a decide reply; `None` for anything else (`ERR`, `OVERLOAD`, …).
pub fn parse_decide_reply(reply: &str) -> Option<DecideReply<'_>> {
    let rest = reply.strip_prefix("OK ")?;
    let (verdict, rest) = rest.split_once(' ')?;
    let (cache, method) = rest.split_once(' ')?;
    if cache != "hit" && cache != "miss" {
        return None;
    }
    Some(DecideReply {
        verdict: WireVerdict::parse(verdict)?,
        method,
    })
}

struct OracleCheck<'a> {
    q1: &'a Ucq,
    q2: &'a Ucq,
    verdict: WireVerdict,
}

impl PerSemiring for OracleCheck<'_> {
    type Out = Result<(), String>;
    fn run<K: ClassifiedSemiring>(self) -> Self::Out {
        let outcome: SearchOutcome<K> =
            try_find_counterexample_ucq(self.q1, self.q2, &small_walk_config())
                .map_err(|e| format!("oracle did not settle: {e}"))?;
        check_directions(
            self.verdict,
            outcome.counterexample.is_some(),
            ucq_row_is_exact::<K>(),
        )
    }
}

/// The two directions every bounded search can check.
pub fn check_directions(
    verdict: WireVerdict,
    counterexample: bool,
    exact: bool,
) -> Result<(), String> {
    if exact && verdict == WireVerdict::Unknown {
        return Err("exact row answered unknown".to_string());
    }
    if verdict == WireVerdict::Contained && counterexample {
        return Err("contained, but the oracle found a counterexample".to_string());
    }
    if counterexample && exact && verdict != WireVerdict::NotContained {
        return Err("the oracle refutes containment on an exact row".to_string());
    }
    Ok(())
}

/// Checks one service verdict for `q1 ⊑_K q2` against the oracle.
pub fn check_against_oracle(
    semiring: SemiringId,
    q1: &Ucq,
    q2: &Ucq,
    verdict: WireVerdict,
) -> Result<(), String> {
    dispatch(semiring, OracleCheck { q1, q2, verdict })
}
