//! Runtime dispatch over the registered semirings of Table 1.
//!
//! The typed entry points [`crate::decide::decide_cq`] /
//! [`crate::decide::decide_ucq`] are monomorphized per semiring — ideal
//! inside Rust code, useless to a wire protocol that receives the semiring
//! as a *string*.  This module closes the gap: every shipped
//! [`ClassifiedSemiring`] is monomorphized **once**, here, into a row of a
//! static registry holding plain function pointers, and [`SemiringId`]
//! names a row.  [`decide_cq_dyn`] / [`decide_ucq_dyn`] then dispatch
//! without any generic parameter, returning exactly the [`Decision`] the
//! typed path would.
//!
//! Lookup by [`SemiringId::from_name`] is case-insensitive and accepts the
//! paper's symbol (`"Why[X]"`, `"T+"`, `"N"`) as well as common aliases
//! (`"Why"`, `"Tropical"`, `"Bag"`).

use crate::classes::{ClassProfile, ClassifiedSemiring};
use crate::decide::{decide_cq, decide_ucq, Decision};
use annot_query::{Cq, Ucq};
use annot_semiring::{
    Bool, BoolPoly, BoundedNat, Clearance, Fuzzy, Lineage, NatPoly, Natural, PosBool, Schedule,
    Trio, Tropical, Viterbi, Why,
};

/// One registry row: a semiring of Table 1, monomorphized to fn pointers.
struct Entry {
    /// Canonical name (the paper's symbol, as printed in Table 1).
    name: &'static str,
    /// Accepted alternative spellings (case-insensitive, like `name`).
    aliases: &'static [&'static str],
    /// The declared class profile.
    profile: fn() -> ClassProfile,
    /// `decide_cq::<K>`, coerced.
    cq: fn(&Cq, &Cq) -> Decision,
    /// `decide_ucq::<K>`, coerced.
    ucq: fn(&Ucq, &Ucq) -> Decision,
}

macro_rules! entry {
    ($name:literal, [$($alias:literal),*], $ty:ty) => {
        Entry {
            name: $name,
            aliases: &[$($alias),*],
            profile: <$ty as ClassifiedSemiring>::class_profile,
            cq: decide_cq::<$ty>,
            ucq: decide_ucq::<$ty>,
        }
    };
}

/// Every semiring of Table 1 with a [`ClassifiedSemiring`] impl, one row
/// each.  `B_k` is a const-generic family; its two smallest non-boolean
/// members are registered as representatives.
static REGISTRY: &[Entry] = &[
    entry!("B", ["Bool", "Boolean", "Set"], Bool),
    entry!("PosBool[X]", ["PosBool"], PosBool),
    entry!("Fuzzy", [], Fuzzy),
    entry!("Access", ["Clearance", "A"], Clearance),
    entry!("Lin[X]", ["Lineage", "Lin"], Lineage),
    entry!("Why[X]", ["Why"], Why),
    entry!("Trio[X]", ["Trio"], Trio),
    entry!("B[X]", ["BoolPoly"], BoolPoly),
    entry!("N[X]", ["NatPoly", "Provenance"], NatPoly),
    entry!("N", ["Natural", "Bag"], Natural),
    entry!("T+", ["Tropical"], Tropical),
    entry!("T-", ["Schedule"], Schedule),
    entry!("Viterbi", [], Viterbi),
    entry!("B_2", ["B2"], BoundedNat<2>),
    entry!("B_3", ["B3"], BoundedNat<3>),
];

/// Identifies a registered semiring — a row of Table 1.
///
/// Obtained from [`SemiringId::from_name`] (string lookup, for wire
/// protocols) or [`SemiringId::all`] (enumeration, for differential
/// testing).  A `SemiringId` is always valid: it can only be constructed
/// in-range.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SemiringId(u16);

impl SemiringId {
    /// Looks up a semiring by name, case-insensitively.  Accepts the
    /// canonical Table 1 symbol and the registered aliases.
    pub fn from_name(name: &str) -> Option<SemiringId> {
        let wanted = name.trim();
        REGISTRY
            .iter()
            .position(|e| {
                e.name.eq_ignore_ascii_case(wanted)
                    || e.aliases.iter().any(|a| a.eq_ignore_ascii_case(wanted))
            })
            .map(|i| SemiringId(i as u16))
    }

    /// All registered semirings, in Table 1 order.
    pub fn all() -> impl Iterator<Item = SemiringId> {
        (0..REGISTRY.len()).map(|i| SemiringId(i as u16))
    }

    /// The position of this semiring in Table 1 order, as enumerated by
    /// [`SemiringId::all`].
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The canonical (paper) name.
    pub fn name(self) -> &'static str {
        self.entry().name
    }

    /// The accepted alternative spellings.
    pub fn aliases(self) -> &'static [&'static str] {
        self.entry().aliases
    }

    /// The declared class profile of this semiring.
    pub fn profile(self) -> ClassProfile {
        (self.entry().profile)()
    }

    fn entry(self) -> &'static Entry {
        &REGISTRY[self.0 as usize]
    }
}

/// Decides `Q₁ ⊆_K Q₂` for CQs, with `K` chosen at runtime.  Returns the
/// same [`Decision`] as `decide_cq::<K>` for the semiring `id` names.
pub fn decide_cq_dyn(id: SemiringId, q1: &Cq, q2: &Cq) -> Decision {
    (id.entry().cq)(q1, q2)
}

/// Decides `Q₁ ⊆_K Q₂` for UCQs, with `K` chosen at runtime.  Returns the
/// same [`Decision`] as `decide_ucq::<K>` for the semiring `id` names.
pub fn decide_ucq_dyn(id: SemiringId, q1: &Ucq, q2: &Ucq) -> Decision {
    (id.entry().ucq)(q1, q2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::{parser, Schema};

    #[test]
    fn lookup_is_case_insensitive_and_alias_aware() {
        let why = SemiringId::from_name("Why[X]").unwrap();
        assert_eq!(SemiringId::from_name("Why"), Some(why));
        assert_eq!(SemiringId::from_name("why"), Some(why));
        assert_eq!(SemiringId::from_name("WHY[x]"), Some(why));
        assert_eq!(why.name(), "Why[X]");
        assert_eq!(SemiringId::from_name("Tropical").unwrap().name(), "T+");
        assert_eq!(SemiringId::from_name("bag").unwrap().name(), "N");
        assert_eq!(SemiringId::from_name("no-such-semiring"), None);
        // Distinct rows stay distinct under the shared prefix "B".
        assert_ne!(
            SemiringId::from_name("B").unwrap(),
            SemiringId::from_name("B[X]").unwrap()
        );
        assert_ne!(
            SemiringId::from_name("B_2").unwrap(),
            SemiringId::from_name("B_3").unwrap()
        );
    }

    #[test]
    fn every_row_resolves_by_its_own_name_and_aliases() {
        for id in SemiringId::all() {
            assert_eq!(SemiringId::from_name(id.name()), Some(id));
            for alias in id.aliases() {
                assert_eq!(SemiringId::from_name(alias), Some(id), "alias {alias}");
            }
        }
    }

    #[test]
    fn dyn_dispatch_matches_typed_dispatch() {
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_cq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_cq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let why = SemiringId::from_name("Why").unwrap();
        assert_eq!(
            decide_cq_dyn(why, &q1, &q2),
            decide_cq::<annot_semiring::Why>(&q1, &q2)
        );
        let trop = SemiringId::from_name("T+").unwrap();
        assert_eq!(
            decide_cq_dyn(trop, &q1, &q2),
            decide_cq::<annot_semiring::Tropical>(&q1, &q2)
        );
        assert_eq!(decide_cq_dyn(trop, &q1, &q2).decided(), Some(true));
    }

    #[test]
    fn profiles_are_reachable_through_ids() {
        let natural = SemiringId::from_name("N").unwrap();
        assert_eq!(natural.profile().name, "N");
        let bool_id = SemiringId::from_name("Set").unwrap();
        assert_eq!(bool_id.profile().name, "B");
    }
}
