//! Seeded request generators for the four workloads and the wire-grammar
//! renderer.
//!
//! Every generator is a pure function of the workload seed (and of the
//! connection or episode index it serves), so the same seed yields
//! byte-identical request lines on every run.  Queries are built as
//! [`Ucq`] values first and rendered second: the structured pair is what
//! the correctness referee and the renderer test compare the server's
//! input against.

use annot_core::registry::SemiringId;
use annot_query::{Atom, Cq, QVar, RelId, Schema, Ucq};

/// Most atoms in any generated disjunct.  At four atoms the `T+`/`Viterbi`
/// small-model procedure hits a cliff (single requests of 0.6–8 s and
/// gigabytes of server memory), so one request would set a whole run's
/// throughput; three atoms keep every request in the µs–ms range.
const MAX_ATOMS: usize = 3;

/// Variables a generated disjunct draws its atom arguments from.
const VAR_POOL: u64 = 3;

/// Most disjuncts in a generated UCQ.
const MAX_DISJUNCTS: usize = 2;

/// Query-pair classes of the `hit_heavy` pool.
const HIT_CLASSES: usize = 64;

/// SplitMix64: a small, fast, seedable generator.  The benchmark needs
/// nothing more, and owning it keeps generated inputs stable across
/// changes to the repository's random-number shims.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for one stream of `seed`, independent of the other
    /// streams (connections, episodes, samples).
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut mix = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(mix.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Renders a UCQ in the grammar [`annot_query::parser::parse_ucq`] accepts:
/// members joined by `;`.  (`Ucq`'s `Display` joins them with `∪`, which the
/// parser rejects.)
pub fn render_ucq(q: &Ucq) -> String {
    let members: Vec<String> = q.disjuncts().iter().map(render_cq).collect();
    members.join(" ; ")
}

fn render_cq(q: &Cq) -> String {
    let head: Vec<&str> = q.free_vars().iter().map(|&v| q.var_name(v)).collect();
    let body: Vec<String> = q
        .atoms()
        .iter()
        .map(|atom| {
            let args: Vec<&str> = atom.args.iter().map(|&v| q.var_name(v)).collect();
            format!("{}({})", q.schema().name(atom.relation), args.join(", "))
        })
        .collect();
    format!("Q({}) :- {}", head.join(", "), body.join(", "))
}

/// The `DECIDE` request line for `q1 ⊑_K q2`, without the newline.
pub fn render_decide(semiring: SemiringId, q1: &Ucq, q2: &Ucq) -> String {
    format!(
        "DECIDE {} {} <= {}",
        semiring.name(),
        render_ucq(q1),
        render_ucq(q2)
    )
}

/// One generated containment question.
#[derive(Clone, Debug)]
pub struct Pair {
    /// The Table 1 row the question is asked over.
    pub semiring: SemiringId,
    /// Left side.
    pub q1: Ucq,
    /// Right side.
    pub q2: Ucq,
}

impl Pair {
    /// The request line the server receives for this pair.
    pub fn line(&self) -> String {
        render_decide(self.semiring, &self.q1, &self.q2)
    }
}

/// The Table 1 rows, in registry order.
pub fn rows() -> Vec<SemiringId> {
    SemiringId::all().collect()
}

/// A random Boolean CQ over `rels`: `atoms` binary atoms whose arguments
/// come from a pool of `VAR_POOL` variables, compacted to the variables
/// actually used (the parser's safety condition).
fn random_cq(rng: &mut SplitMix64, schema: &Schema, rels: &[RelId], atoms: usize) -> Cq {
    let raw: Vec<(RelId, u64, u64)> = (0..atoms)
        .map(|_| {
            let rel = rels[rng.below(rels.len())];
            (rel, rng.next_u64() % VAR_POOL, rng.next_u64() % VAR_POOL)
        })
        .collect();
    let mut used: Vec<u64> = raw.iter().flat_map(|&(_, a, b)| [a, b]).collect();
    used.sort_unstable();
    used.dedup();
    let index = |v: u64| QVar(used.iter().position(|&u| u == v).expect("used variable") as u32);
    let atoms = raw
        .iter()
        .map(|&(rel, a, b)| Atom::new(rel, vec![index(a), index(b)]))
        .collect();
    let names = used.iter().map(|v| format!("v{v}")).collect();
    Cq::new(schema.clone(), Vec::new(), atoms, names)
}

/// The size of a generated UCQ: members, and atoms per member.
#[derive(Clone, Copy, Debug)]
struct Shape {
    members: usize,
    atoms: usize,
}

impl Shape {
    /// A shape drawn uniformly: 1..=`MAX_DISJUNCTS` members of
    /// 1..=`MAX_ATOMS` atoms each.
    fn random(rng: &mut SplitMix64) -> Shape {
        Shape {
            members: 1 + rng.below(MAX_DISJUNCTS),
            atoms: 1 + rng.below(MAX_ATOMS),
        }
    }
}

fn random_ucq(rng: &mut SplitMix64, schema: &Schema, rels: &[RelId], shape: Shape) -> Ucq {
    Ucq::new(
        (0..shape.members)
            .map(|_| random_cq(rng, schema, rels, shape.atoms))
            .collect::<Vec<_>>(),
    )
}

fn random_pair(
    rng: &mut SplitMix64,
    semiring: SemiringId,
    schema: &Schema,
    shapes: [Shape; 2],
) -> Pair {
    let rels: Vec<RelId> = schema.rel_ids().collect();
    Pair {
        semiring,
        q1: random_ucq(rng, schema, &rels, shapes[0]),
        q2: random_ucq(rng, schema, &rels, shapes[1]),
    }
}

fn random_shapes(rng: &mut SplitMix64) -> [Shape; 2] {
    [Shape::random(rng), Shape::random(rng)]
}

/// The fixed two-relation schema of `hit_heavy` and `miss_mix`.
pub fn fixed_schema() -> Schema {
    Schema::with_relations([("R0", 2), ("R1", 2)])
}

/// An α-renamed, atom- and member-shuffled copy of `q`: isomorphic to it,
/// but spelled differently on the wire.
pub fn variant(rng: &mut SplitMix64, q: &Ucq) -> Ucq {
    let mut members: Vec<Cq> = q
        .disjuncts()
        .iter()
        .map(|cq| {
            let mut atoms = cq.atoms().to_vec();
            rng.shuffle(&mut atoms);
            let tag = rng.below(1000);
            let names = (0..cq.var_names().len())
                .map(|i| format!("{}{tag}_{i}", ['a', 'x', 'u', 'p'][rng.below(4)]))
                .collect();
            Cq::new(cq.schema().clone(), cq.free_vars().to_vec(), atoms, names)
        })
        .collect();
    rng.shuffle(&mut members);
    Ucq::new(members)
}

/// Pair `index` of a stratified pool over `schema`: asked over Table 1 row
/// `index mod 15`, with sizes fixed by the index, so a pool of a few dozen
/// pairs covers every row and every size; only the atoms are drawn from
/// `rng`.  The cost of a pool then varies little between seeds.
pub fn stratified_pair(rng: &mut SplitMix64, index: usize, schema: &Schema) -> Pair {
    let rows = rows();
    let shape = |k: usize| Shape {
        members: 1 + k % MAX_DISJUNCTS,
        atoms: 1 + (k / MAX_DISJUNCTS) % MAX_ATOMS,
    };
    let shapes = [shape(index), shape(index / 2 + 1)];
    random_pair(rng, rows[index % rows.len()], schema, shapes)
}

/// The `hit_heavy` class pool: `HIT_CLASSES` stratified pairs over the
/// fixed schema.
pub fn hit_classes(seed: u64) -> Vec<Pair> {
    let schema = fixed_schema();
    let mut rng = SplitMix64::stream(seed, u64::MAX);
    (0..HIT_CLASSES)
        .map(|c| stratified_pair(&mut rng, c, &schema))
        .collect()
}

/// Request `i` of a `hit_heavy` connection: a random class and a fresh
/// variant of its pair.  Returns the class index and the line.
pub fn hit_request(rng: &mut SplitMix64, classes: &[Pair]) -> (usize, String) {
    let class = rng.below(classes.len());
    let pair = &classes[class];
    let line = render_decide(
        pair.semiring,
        &variant(rng, &pair.q1),
        &variant(rng, &pair.q2),
    );
    (class, line)
}

/// The next `miss_mix` question: a fresh random pair over the fixed schema
/// on a uniformly drawn Table 1 row.
pub fn miss_pair(rng: &mut SplitMix64, schema: &Schema, rows: &[SemiringId]) -> Pair {
    let semiring = rows[rng.below(rows.len())];
    let shapes = random_shapes(rng);
    random_pair(rng, semiring, schema, shapes)
}

/// The names of the two fresh relations of `name_churn` request `index`
/// on connection `conn`.  Fixed width, so the text cost of a request does
/// not depend on its index.
pub fn churn_relations(conn: usize, index: usize) -> [String; 2] {
    [
        format!("F{conn}x{index:06}a"),
        format!("F{conn}x{index:06}b"),
    ]
}

/// `name_churn` request `index` on connection `conn`: a random pair over
/// two relations no earlier request used, on a uniformly drawn row.
pub fn churn_pair(rng: &mut SplitMix64, conn: usize, index: usize, rows: &[SemiringId]) -> Pair {
    let [a, b] = churn_relations(conn, index);
    let schema = Schema::with_relations([(a.as_str(), 2), (b.as_str(), 2)]);
    let semiring = rows[rng.below(rows.len())];
    let shapes = random_shapes(rng);
    random_pair(rng, semiring, &schema, shapes)
}
