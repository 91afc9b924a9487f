//! Unions of conjunctive queries (UCQs) and unions of CCQs.
//!
//! A UCQ (Sec. 2 of the paper) is a **multiset** of CQs over the same schema
//! with the same number of free variables; its evaluation is the semiring sum
//! of its members' evaluations.  The empty UCQ evaluates to `0` everywhere.
//!
//! [`Ducq`] ("disjunction of CCQs") plays the same role for CQs with
//! inequalities; complete descriptions ⟨Q⟩ (Sec. 4.6, 5) are `Ducq`s.

use crate::ccq::Ccq;
use crate::cq::Cq;
use std::fmt;

/// A union (multiset) of conjunctive queries.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Ucq {
    disjuncts: Vec<Cq>,
}

impl Ucq {
    /// The empty UCQ (evaluates to `0` on every instance).
    pub fn empty() -> Self {
        Ucq {
            disjuncts: Vec::new(),
        }
    }

    /// Builds a UCQ from CQs.  All members must have the same number of free
    /// variables (the paper additionally requires the same schema; this is
    /// the caller's responsibility since schemas compare structurally).
    ///
    /// Panics if two members have different numbers of free variables.
    pub fn new(disjuncts: impl IntoIterator<Item = Cq>) -> Self {
        let disjuncts: Vec<Cq> = disjuncts.into_iter().collect();
        assert_one_arity(disjuncts.iter());
        Ucq { disjuncts }
    }

    /// A UCQ with a single member.
    pub fn single(cq: Cq) -> Self {
        Ucq {
            disjuncts: vec![cq],
        }
    }

    /// The member CQs.
    pub fn disjuncts(&self) -> &[Cq] {
        &self.disjuncts
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Whether the UCQ is empty.
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// The multiset union of two UCQs (the operation `Q₁ ∪ Q₃` of
    /// requirement (C4), Sec. 3.1).  Panics like [`Ucq::new`].
    pub fn union(&self, other: &Ucq) -> Ucq {
        Ucq::new(self.disjuncts.iter().chain(&other.disjuncts).cloned())
    }

    /// Adds a disjunct.  Panics like [`Ucq::new`].
    pub fn push(&mut self, cq: Cq) {
        assert_one_arity(self.disjuncts.iter().take(1).chain([&cq]));
        self.disjuncts.push(cq);
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "∅");
        }
        for (i, q) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∪  ")?;
            }
            write!(f, "{}", q)?;
        }
        Ok(())
    }
}

impl From<Cq> for Ucq {
    fn from(cq: Cq) -> Self {
        Ucq::single(cq)
    }
}

/// A union (multiset) of CCQs — e.g. a complete description ⟨Q⟩.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Ducq {
    disjuncts: Vec<Ccq>,
}

impl Ducq {
    /// The empty union.
    pub fn empty() -> Self {
        Ducq {
            disjuncts: Vec::new(),
        }
    }

    /// Builds a union of CCQs.
    ///
    /// Panics if two members have different numbers of free variables.
    pub fn new(disjuncts: impl IntoIterator<Item = Ccq>) -> Self {
        let disjuncts: Vec<Ccq> = disjuncts.into_iter().collect();
        assert_one_arity(disjuncts.iter().map(Ccq::cq));
        Ducq { disjuncts }
    }

    /// The member CCQs.
    pub fn disjuncts(&self) -> &[Ccq] {
        &self.disjuncts
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Whether the union is empty.
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Multiset union.  Panics like [`Ducq::new`].
    pub fn union(&self, other: &Ducq) -> Ducq {
        Ducq::new(self.disjuncts.iter().chain(&other.disjuncts).cloned())
    }

    /// Adds a disjunct.  Panics like [`Ducq::new`].
    pub fn push(&mut self, ccq: Ccq) {
        assert_one_arity(self.disjuncts.iter().take(1).chain([&ccq]).map(Ccq::cq));
        self.disjuncts.push(ccq);
    }
}

impl fmt::Display for Ducq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "∅");
        }
        for (i, q) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∪  ")?;
            }
            write!(f, "{}", q)?;
        }
        Ok(())
    }
}

/// Asserts the union rule of Sec. 2: all members have the same number of
/// free variables.
fn assert_one_arity<'q>(members: impl IntoIterator<Item = &'q Cq>) {
    let mut arities = members.into_iter().map(|q| q.free_vars().len());
    if let Some(first) = arities.next() {
        assert!(
            arities.all(|arity| arity == first),
            "all members of a union must have the same number of free variables"
        );
    }
}

impl From<Ccq> for Ducq {
    fn from(ccq: Ccq) -> Self {
        Ducq::new([ccq])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::with_relations([("R", 1), ("S", 1)])
    }

    fn r_query() -> Cq {
        Cq::builder(&schema()).atom("R", &["v"]).build()
    }

    fn s_query() -> Cq {
        Cq::builder(&schema()).atom("S", &["v"]).build()
    }

    #[test]
    fn construction_and_access() {
        let ucq = Ucq::new([r_query(), s_query()]);
        assert_eq!(ucq.len(), 2);
        assert!(!ucq.is_empty());
        assert!(Ucq::empty().is_empty());
        assert_eq!(Ucq::single(r_query()).len(), 1);
        let from: Ucq = r_query().into();
        assert_eq!(from.len(), 1);
    }

    #[test]
    fn union_is_multiset_concatenation() {
        let a = Ucq::single(r_query());
        let b = Ucq::new([r_query(), s_query()]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        // duplicates are kept — multisets matter for offset-k semirings (Ex. 5.7)
        assert_eq!(u.disjuncts().iter().filter(|q| **q == r_query()).count(), 2);
    }

    #[test]
    fn push_checks_head_arity() {
        let mut u = Ucq::single(r_query());
        u.push(s_query());
        assert_eq!(u.len(), 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_head_arities_rejected() {
        let q_free = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x"])
            .build();
        let _ = Ucq::new([r_query(), q_free]);
    }

    fn r_free() -> Cq {
        Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x"])
            .build()
    }

    #[test]
    #[should_panic(expected = "same number of free variables")]
    fn ucq_union_checks_head_arity() {
        let _ = Ucq::single(r_query()).union(&Ucq::single(r_free()));
    }

    #[test]
    #[should_panic(expected = "same number of free variables")]
    fn ducq_new_checks_head_arity() {
        let _ = Ducq::new([Ccq::from_cq(r_query()), Ccq::from_cq(r_free())]);
    }

    #[test]
    #[should_panic(expected = "same number of free variables")]
    fn ducq_push_checks_head_arity() {
        let mut d = Ducq::from(Ccq::from_cq(r_query()));
        d.push(Ccq::from_cq(r_free()));
    }

    #[test]
    #[should_panic(expected = "same number of free variables")]
    fn ducq_union_checks_head_arity() {
        let _ = Ducq::from(Ccq::from_cq(r_query())).union(&Ducq::from(Ccq::from_cq(r_free())));
    }

    #[test]
    fn display() {
        let ucq = Ucq::new([r_query(), s_query()]);
        let s = format!("{}", ucq);
        assert!(s.contains("R(v)"));
        assert!(s.contains("∪"));
        assert_eq!(format!("{}", Ucq::empty()), "∅");
        assert_eq!(format!("{}", Ducq::empty()), "∅");
    }

    #[test]
    fn ducq_construction() {
        let ccq = Ccq::completion_of(
            Cq::builder(&schema())
                .atom("R", &["u"])
                .atom("S", &["v"])
                .build(),
        );
        let d = Ducq::new([ccq.clone()]);
        assert_eq!(d.len(), 1);
        let d2 = d.union(&Ducq::from(ccq));
        assert_eq!(d2.len(), 2);
        let mut d3 = Ducq::empty();
        d3.push(d2.disjuncts()[0].clone());
        assert_eq!(d3.len(), 1);
        let shown = format!("{}", d2);
        assert!(shown.contains("!="));
    }
}
