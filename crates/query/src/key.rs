//! Exact canonical codes for queries up to isomorphism.
//!
//! Every containment criterion in the paper is invariant under *isomorphism*
//! of queries — bijective renaming of existential variables (free variables
//! are positional).  A semantic cache for containment decisions therefore
//! wants a key that is identical exactly for isomorphic queries: this module
//! computes one as a canonical serialization ([`cq_code`] / [`ucq_code`]).
//!
//! The construction is the classic colour-refinement + canonical-labelling
//! scheme:
//!
//! 1. variables are coloured by their occurrence structure (relation,
//!    argument position), free variables pinned by their output positions;
//! 2. colours are refined Weisfeiler–Leman-style until the partition
//!    stabilises;
//! 3. a canonical variable numbering is chosen as the one minimising the
//!    serialized atom list, searching only orderings consistent with the
//!    colour classes.
//!
//! The serialization spells the whole query, so two queries get equal codes
//! if and only if they are isomorphic.  The search in step 3 is capped
//! ([`LABELING_CAP`]): a query whose colour classes are too large and
//! symmetric gets no code at all (`None`), never an approximate one.
//!
//! A relation is its name and arity, across schemas: the code opens with a
//! name-sorted table of the relations the query uses, spelled byte for
//! byte, and atoms refer to its rows by index.  Relations the schema holds
//! but the query does not use leave no trace.

use crate::{Atom, Cq, Ucq};

/// Maximum number of colour-consistent labelings examined; a query that
/// admits more gets no code.
pub const LABELING_CAP: u64 = 5040;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a word slice: the colour hash of the refinement.
fn hash64(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The canonical code of a CQ, or `None` when its colour classes admit
/// more than [`LABELING_CAP`] labelings.  Two CQs that both have codes get
/// equal codes exactly when they are isomorphic.
///
/// Layout: `[num_rels, relations…, num_vars, num_free, free tuple…,
/// num_atoms, atoms…]`, each relation as `[name length, name bytes packed
/// 8 per word…, arity]` in name order, each atom as `[relation index,
/// canonical arg numbers…]`, atoms sorted.
pub fn cq_code(q: &Cq) -> Option<Vec<u64>> {
    let (mut code, atom_rels) = relation_table(q);
    let colors = refine_colors(q, &atom_rels);
    let classes = color_classes(&colors);
    let mut labelings: u64 = 1;
    for class in &classes {
        labelings = labelings.saturating_mul(factorial(class.len() as u64));
        if labelings > LABELING_CAP {
            return None;
        }
    }

    let mut best: Option<Vec<u64>> = None;
    let mut order: Vec<usize> = Vec::with_capacity(colors.len());
    let mut label = vec![0u64; colors.len()];
    enumerate_labelings(&classes, 0, &mut order, &mut |order| {
        // order[k] = variable index with canonical number k.
        for (canon, &var) in order.iter().enumerate() {
            label[var] = canon as u64;
        }
        let body = serialize(q, &atom_rels, &label);
        match &best {
            Some(b) if *b <= body => {}
            _ => best = Some(body),
        }
    });
    // invariant: the class partition covers every variable, so at least one
    // labeling is always enumerated
    code.extend(best.expect("at least one labeling"));
    Some(code)
}

/// The canonical code of a UCQ: member codes, sorted, length-prefixed; or
/// `None` when some member has no code.  Equal exactly for UCQs whose
/// disjunct multisets match up to isomorphism.
pub fn ucq_code(q: &Ucq) -> Option<Vec<u64>> {
    let mut members: Vec<Vec<u64>> = q.disjuncts().iter().map(cq_code).collect::<Option<_>>()?;
    members.sort();
    let mut out = vec![q.len() as u64];
    for member in members {
        out.push(member.len() as u64);
        out.extend(member);
    }
    Some(out)
}

fn factorial(n: u64) -> u64 {
    (2..=n).fold(1u64, |acc, k| acc.saturating_mul(k))
}

/// The code's relation table — `[num_rels, (name length, name words…,
/// arity)…]` over the relations `q` uses, sorted by name and arity — and
/// each atom's row in it.
fn relation_table(q: &Cq) -> (Vec<u64>, Vec<u64>) {
    let spell = |atom: &Atom| (q.schema().name(atom.relation), atom.args.len());
    let mut rels: Vec<(&str, usize)> = q.atoms().iter().map(spell).collect();
    rels.sort_unstable();
    rels.dedup();
    let mut table = vec![rels.len() as u64];
    for &(name, arity) in &rels {
        table.push(name.len() as u64);
        table.extend(name.as_bytes().chunks(8).map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        }));
        table.push(arity as u64);
    }
    let atom_rels = q
        .atoms()
        .iter()
        .map(|atom| {
            // invariant: `rels` lists the relation of every atom
            rels.binary_search(&spell(atom)).expect("listed") as u64
        })
        .collect();
    (table, atom_rels)
}

/// Colour refinement: returns a stable colour per variable index.  Free
/// variables are pinned by their positions in the output tuple; existential
/// variables start from their occurrence structure; both are refined by the
/// colours of co-occurring variables until the partition stabilises.
/// `atom_rels[i]` is the relation-table row of atom `i`.
fn refine_colors(q: &Cq, atom_rels: &[u64]) -> Vec<u64> {
    let n = q.num_vars();
    let mut colors = vec![0u64; n];
    for (i, color) in colors.iter_mut().enumerate() {
        let v = crate::QVar(i as u32);
        let mut free_positions: Vec<u64> = q
            .free_vars()
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f == v)
            .map(|(pos, _)| pos as u64)
            .collect();
        free_positions.sort_unstable();
        let mut occurrences: Vec<u64> = Vec::new();
        for (atom, &rel) in q.atoms().iter().zip(atom_rels) {
            for (pos, &arg) in atom.args.iter().enumerate() {
                if arg == v {
                    occurrences.push(hash64(&[rel, pos as u64]));
                }
            }
        }
        occurrences.sort_unstable();
        let mut seed = vec![1, free_positions.len() as u64];
        seed.extend(free_positions);
        seed.push(occurrences.len() as u64);
        seed.extend(occurrences);
        *color = hash64(&seed);
    }

    let mut distinct = count_distinct(&colors);
    for _ in 0..n {
        let atom_colors: Vec<u64> = q
            .atoms()
            .iter()
            .zip(atom_rels)
            .map(|(atom, &rel)| {
                let mut words = vec![rel];
                words.extend(atom.args.iter().map(|a| colors[a.0 as usize]));
                hash64(&words)
            })
            .collect();
        let mut next = vec![0u64; n];
        for (i, next_color) in next.iter_mut().enumerate() {
            let v = crate::QVar(i as u32);
            let mut signature: Vec<u64> = Vec::new();
            for (ai, atom) in q.atoms().iter().enumerate() {
                for (pos, &arg) in atom.args.iter().enumerate() {
                    if arg == v {
                        signature.push(hash64(&[atom_colors[ai], pos as u64]));
                    }
                }
            }
            signature.sort_unstable();
            let mut words = vec![colors[i], signature.len() as u64];
            words.extend(signature);
            *next_color = hash64(&words);
        }
        let next_distinct = count_distinct(&next);
        colors = next;
        if next_distinct == distinct {
            break;
        }
        distinct = next_distinct;
    }
    colors
}

fn count_distinct(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Variable indices grouped by colour, classes ordered by colour value.
fn color_classes(colors: &[u64]) -> Vec<Vec<usize>> {
    let mut pairs: Vec<(u64, usize)> = colors.iter().copied().zip(0..).collect();
    pairs.sort_unstable();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (color, var) in pairs {
        match classes.last_mut() {
            Some(last) if colors[last[0]] == color => last.push(var),
            _ => classes.push(vec![var]),
        }
    }
    classes
}

/// Enumerates every concatenation of per-class permutations, invoking `f`
/// with the full variable order each time.
fn enumerate_labelings(
    classes: &[Vec<usize>],
    class_index: usize,
    order: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if class_index == classes.len() {
        f(order);
        return;
    }
    let mut class = classes[class_index].clone();
    permute(&mut class, 0, &mut |perm| {
        let base = order.len();
        order.extend_from_slice(perm);
        enumerate_labelings(classes, class_index + 1, order, f);
        order.truncate(base);
    });
}

fn permute(items: &mut [usize], k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

/// Serializes the query's variable structure under a fixed relabelling.
fn serialize(q: &Cq, atom_rels: &[u64], label: &[u64]) -> Vec<u64> {
    let mut atoms: Vec<Vec<u64>> = q
        .atoms()
        .iter()
        .zip(atom_rels)
        .map(|(atom, &rel)| {
            let mut words = vec![rel];
            words.extend(atom.args.iter().map(|a| label[a.0 as usize]));
            words
        })
        .collect();
    atoms.sort();
    let mut out = vec![q.num_vars() as u64, q.free_vars().len() as u64];
    out.extend(q.free_vars().iter().map(|f| label[f.0 as usize]));
    out.push(q.num_atoms() as u64);
    out.extend(atoms.into_iter().flatten());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cq, Schema};

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    #[test]
    fn renaming_and_reordering_preserve_codes() {
        let a = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("S", &["v"])
            .build();
        let b = Cq::builder(&schema())
            .atom("S", &["q"])
            .atom("R", &["p", "q"])
            .build();
        assert!(cq_code(&a).is_some());
        assert_eq!(cq_code(&a), cq_code(&b));
    }

    #[test]
    fn structurally_different_queries_get_different_codes() {
        let path = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let fork = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "z"])
            .build();
        let double = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "y"])
            .build();
        assert_ne!(cq_code(&path), cq_code(&fork));
        assert_ne!(cq_code(&path), cq_code(&double));
        assert_ne!(cq_code(&fork), cq_code(&double));
    }

    #[test]
    fn free_variable_positions_are_pinned() {
        let first = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let second = Cq::builder(&schema())
            .free(&["y"])
            .atom("R", &["x", "y"])
            .build();
        assert_ne!(cq_code(&first), cq_code(&second));
        // … but renaming a free variable together with its position is fine.
        let renamed = Cq::builder(&schema())
            .free(&["a"])
            .atom("R", &["a", "b"])
            .build();
        assert!(cq_code(&first).is_some());
        assert_eq!(cq_code(&first), cq_code(&renamed));
    }

    #[test]
    fn symmetric_queries_are_stable_under_renaming() {
        // R(x,y), R(y,x) has a non-trivial automorphism: the colour classes
        // are non-singleton, exercising the labelling search.
        let a = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "x"])
            .build();
        let b = Cq::builder(&schema())
            .atom("R", &["q", "p"])
            .atom("R", &["p", "q"])
            .build();
        assert!(cq_code(&a).is_some());
        assert_eq!(cq_code(&a), cq_code(&b));
    }

    #[test]
    fn ucq_codes_ignore_disjunct_order() {
        let s = schema();
        let m1 = Cq::builder(&s).atom("R", &["x", "y"]).build();
        let m2 = Cq::builder(&s).atom("S", &["x"]).build();
        let u1 = Ucq::new(vec![m1.clone(), m2.clone()]);
        let u2 = Ucq::new(vec![m2, m1]);
        assert!(ucq_code(&u1).is_some());
        assert_eq!(ucq_code(&u1), ucq_code(&u2));
    }

    #[test]
    fn relation_identity_is_by_name_not_id() {
        // Same query spelled against two schemas that register the
        // relations in a different order.
        let s1 = Schema::with_relations([("R", 2), ("S", 1)]);
        let s2 = Schema::with_relations([("S", 1), ("R", 2)]);
        let a = Cq::builder(&s1)
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build();
        let b = Cq::builder(&s2)
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build();
        assert!(cq_code(&a).is_some());
        assert_eq!(cq_code(&a), cq_code(&b));
    }

    #[test]
    fn relation_names_and_arities_are_spelled_exactly() {
        let s = Schema::with_relations([("R", 2), ("S", 2)]);
        let r = Cq::builder(&s).atom("R", &["x", "y"]).build();
        let t = Cq::builder(&s).atom("S", &["x", "y"]).build();
        assert!(cq_code(&r).is_some() && cq_code(&t).is_some());
        assert_ne!(cq_code(&r), cq_code(&t));

        let ternary = Schema::with_relations([("R", 3)]);
        let r3 = Cq::builder(&ternary).atom("R", &["x", "y", "z"]).build();
        assert!(cq_code(&r3).is_some());
        assert_ne!(cq_code(&r), cq_code(&r3));

        // Names that share a prefix or pad to the same words stay apart.
        let long = Schema::with_relations([("Relation", 1), ("Relation\0", 1)]);
        let eight = Cq::builder(&long).atom("Relation", &["x"]).build();
        let nine = Cq::builder(&long).atom("Relation\0", &["x"]).build();
        assert_ne!(cq_code(&eight), cq_code(&nine));
    }

    #[test]
    fn too_symmetric_queries_get_no_code() {
        // Eight interchangeable variables: 8! = 40 320 labelings.
        let s = Schema::with_relations([("R", 1)]);
        let mut builder = Cq::builder(&s);
        for i in 1..=8 {
            builder = builder.atom("R", &[format!("x{i}").as_str()]);
        }
        let q = builder.build();
        assert_eq!(cq_code(&q), None);
        assert_eq!(ucq_code(&Ucq::single(q)), None);
        // Seven give 7! = 5 040, exactly the cap: still coded.
        let mut builder = Cq::builder(&s);
        for i in 1..=7 {
            builder = builder.atom("R", &[format!("x{i}").as_str()]);
        }
        assert!(cq_code(&builder.build()).is_some());
    }
}
