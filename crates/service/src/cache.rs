//! The iso-canonical semantic cache, bounded for long-lived processes.
//!
//! Containment decisions are keyed by the *canonical form of the query
//! pair up to isomorphism*: a request for `Q₁ ⊑ Q₂` over semiring `K`
//! hits the cache whenever an α-renamed / atom-reordered variant of the
//! same pair was decided before.  The lookup is two-stage:
//!
//! 1. a 64-bit fingerprint built from the renaming-invariant canonical
//!    codes of both queries ([`annot_query::key`]) plus the semiring
//!    selects a bucket — isomorphic pairs always agree on it;
//! 2. within the bucket, a candidate entry counts as a hit only if both
//!    sides are actually isomorphic ([`annot_hom::are_isomorphic_ucq`]) —
//!    this refinement makes the cache *exact* even when the capped
//!    canonical-labelling search fell back to a coarse code or two
//!    non-isomorphic pairs collide in 64 bits.
//!
//! The map is sharded: each shard is its own mutex-guarded table, picked
//! by key, so concurrent decisions on different pairs rarely contend.
//! Decisions are computed *outside* the shard lock — a duplicated compute
//! when two clients race on the same fresh pair is benign (both arrive at
//! the same [`Decision`]), a decider running under a shard lock would
//! serialise the server.
//!
//! ## Bounds and eviction
//!
//! A long-lived server cannot let the shards grow without bound, so the
//! cache takes a [`CacheConfig`] with two independent, optional limits:
//!
//! * **per-shard capacity** — each shard holds at most `shard_capacity`
//!   entries; inserting past it evicts via a CLOCK-style second-chance
//!   scan (below);
//! * **global byte budget** — the per-entry footprint estimate that
//!   `STATS` reports as `approx_bytes` is also the *enforcement input*:
//!   after every insert the cache evicts (round-robin across shards,
//!   one lock at a time) until the tracked total is at or under
//!   `byte_budget`.  An entry that alone exceeds the budget is never
//!   cached at all.  The estimate counts what an entry really owns —
//!   each stored query's atoms, variable names and schema copy — so the
//!   budget bounds real memory (within 2×, pinned by a counting-allocator
//!   test).
//!
//! Entries never expire: whether `Q₁ ⊑_K Q₂` holds is fixed by the two
//! queries and the semiring, so a cached [`Decision`] cannot go stale and
//! only memory pressure is a reason to drop one.
//!
//! The eviction policy is the classic second-chance ring: every shard
//! keeps its entries in an insertion-ordered ring; a hit sets the entry's
//! `referenced` bit; the evictor pops the ring front, grants one more
//! round to referenced entries (clearing the bit, pushing them to the
//! back), and evicts the first unreferenced entry it meets.  O(1)
//! amortised, no per-hit reordering, and — because all state is under the
//! shard mutex — deterministic for a fixed operation order.

use annot_core::decide::Decision;
use annot_core::registry::SemiringId;
use annot_core::sync::atomic::{AtomicU64, Ordering};
use annot_core::sync::{Mutex, PoisonError};
use annot_hom::are_isomorphic_ucq;
use annot_query::key::{hash64, ucq_code};
use annot_query::{RelId, Schema, Ucq};
use std::collections::{HashMap, VecDeque};
use std::mem::{size_of, size_of_val};

/// Number of independently locked shards.  A small power of two well above
/// the worker count keeps contention negligible without wasting memory.
const NUM_SHARDS: usize = 64;

/// Size limits for the cache.  Both fields are optional; the default
/// (`CacheConfig::default()`) is an unbounded cache that never evicts,
/// which the exact-counter smoke tests pin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum entries per shard (`None` = unbounded).  The whole cache
    /// holds at most `64 × shard_capacity` entries.
    pub shard_capacity: Option<usize>,
    /// Global cap on the tracked approximate byte footprint (`None` =
    /// unbounded).  Enforced after every insert; `STATS.approx_bytes`
    /// reports the same tracked number.
    pub byte_budget: Option<u64>,
}

/// One cached decision: the pair it answers (held for the isomorphism
/// refinement), the decision, and the eviction bookkeeping.
struct Entry {
    semiring: SemiringId,
    q1: Ucq,
    q2: Ucq,
    decision: Decision,
    /// Shard-unique id linking this entry to its ring slot.
    id: u64,
    /// Precomputed footprint estimate (see [`entry_footprint`]).
    bytes: u64,
    /// Second-chance bit: set on every hit, cleared (once) by the
    /// eviction scan before the entry becomes a victim.
    referenced: bool,
}

/// One shard: the fingerprint-keyed table plus the second-chance ring.
/// All fields are guarded by the shard mutex.
struct Shard {
    table: HashMap<u64, Vec<Entry>>,
    /// Insertion-ordered `(fingerprint, entry id)` ring for the CLOCK
    /// scan.  Slots whose entry was already removed are skipped lazily.
    ring: VecDeque<(u64, u64)>,
    /// Source of shard-unique entry ids.
    next_id: u64,
    /// Live entries in this shard (ring slots may be stale; this is not).
    entries: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            table: HashMap::new(),
            ring: VecDeque::new(),
            next_id: 0,
            entries: 0,
        }
    }
}

/// Counter snapshot returned by [`Cache::stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that missed and ran a decider.
    pub misses: u64,
    /// Decider executions: one per miss, so always `== misses`.  A miss
    /// whose insert loses a race to the same pair still decided; the lost
    /// race shows up in `inserts`, not here.
    pub decides: u64,
    /// Entries ever inserted (`entries + evictions` at quiescence; racing
    /// same-pair inserts lose and do not count).  An entry refused for
    /// being larger than the whole byte budget counts as an insert that
    /// the budget evicts at once, so the identity survives refusals.
    pub inserts: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries evicted for shard-capacity pressure.
    pub evicted_capacity: u64,
    /// Entries evicted (or refused at insert) by the global byte budget.
    pub evicted_bytes: u64,
    /// Entries per shard, indexed by shard number — the load-balance view
    /// of the fingerprint distribution.  Sums to [`CacheStats::entries`].
    pub shard_entries: Vec<u64>,
    /// Approximate bytes held by the cached entries: the entry structs and
    /// the heap each stored query owns, its schema copy included.  Not an
    /// allocator audit, but the byte-budget enforcement input, and
    /// `tests/heap_accounting.rs` pins it within 2× of the live heap.
    pub approx_bytes: u64,
}

impl CacheStats {
    /// Total evictions, all reasons.
    pub fn evictions(&self) -> u64 {
        self.evicted_capacity + self.evicted_bytes
    }
}

/// The sharded semantic cache.
pub struct Cache {
    config: CacheConfig,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    decides: AtomicU64,
    inserts: AtomicU64,
    entries: AtomicU64,
    evicted_capacity: AtomicU64,
    evicted_bytes: AtomicU64,
    /// Tracked total of every live entry's `bytes` — the byte-budget
    /// enforcement input and the `STATS.approx_bytes` source.
    bytes: AtomicU64,
}

impl Cache {
    /// An empty, unbounded cache that never evicts.
    pub fn new() -> Cache {
        Cache::with_config(CacheConfig::default())
    }

    /// An empty cache under the given limits.
    pub fn with_config(config: CacheConfig) -> Cache {
        Cache {
            config,
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            decides: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            evicted_capacity: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The limits this cache enforces.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The canonical fingerprint of a request: semiring + canonical codes
    /// of the (ordered) query pair.  Isomorphic requests agree on it.
    fn fingerprint(semiring: SemiringId, q1: &Ucq, q2: &Ucq) -> u64 {
        let c1 = ucq_code(q1);
        let c2 = ucq_code(q2);
        let name: Vec<u64> = semiring.name().bytes().map(u64::from).collect();
        let mut words = Vec::with_capacity(c1.len() + c2.len() + 2);
        words.push(hash64(&name));
        words.push(c1.len() as u64);
        words.extend(c1);
        words.extend(c2);
        hash64(&words)
    }

    /// Returns the cached decision for an isomorphic variant of
    /// `(semiring, q1, q2)`, or runs `decide` and caches its result.
    /// The second component reports whether this was a cache hit.
    pub fn get_or_decide(
        &self,
        semiring: SemiringId,
        q1: &Ucq,
        q2: &Ucq,
        decide: impl FnOnce(&Ucq, &Ucq) -> Decision,
    ) -> (Decision, bool) {
        let key = Self::fingerprint(semiring, q1, q2);
        let shard_index = (key as usize) % NUM_SHARDS;
        let shard = &self.shards[shard_index];
        {
            let mut guard = self.lock(shard);
            if let Some(found) = Self::lookup(&mut guard, key, semiring, q1, q2) {
                // relaxed: monotonic statistics counter, no ordering needed
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (found, true);
            }
        }
        // relaxed: monotonic statistics counter, no ordering needed
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Decide outside the lock; see the module docs for the race note.
        let decision = decide(q1, q2);
        // relaxed: monotonic statistics counter, no ordering needed
        self.decides.fetch_add(1, Ordering::Relaxed);
        let entry_bytes = entry_footprint(q1, q2);
        if self.config.byte_budget.is_some_and(|b| entry_bytes > b) {
            // A single entry larger than the whole budget can never be
            // held without busting it — refuse to cache, and count it as
            // an insert the budget evicts at once, so the books balance.
            // relaxed: monotonic statistics counters, no ordering needed
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(1, Ordering::Relaxed);
            return (decision, false);
        }
        {
            let mut guard = self.lock(shard);
            if Self::lookup(&mut guard, key, semiring, q1, q2).is_none() {
                let id = guard.next_id;
                guard.next_id += 1;
                // A bucket rarely holds more than one entry: allocate
                // exactly one slot, not `Vec`'s default first four.
                let bucket = guard.table.entry(key);
                bucket.or_insert_with(|| Vec::with_capacity(1)).push(Entry {
                    semiring,
                    q1: q1.clone(),
                    q2: q2.clone(),
                    decision: decision.clone(),
                    id,
                    bytes: entry_bytes,
                    referenced: false,
                });
                guard.ring.push_back((key, id));
                guard.entries += 1;
                // relaxed: monotonic statistics counters, no ordering needed
                self.inserts.fetch_add(1, Ordering::Relaxed);
                self.entries.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(entry_bytes, Ordering::Relaxed);
                if let Some(cap) = self.config.shard_capacity {
                    while guard.entries as usize > cap {
                        if !self.evict_one(&mut guard, &self.evicted_capacity) {
                            break;
                        }
                    }
                }
            }
        }
        self.enforce_byte_budget(shard_index);
        (decision, false)
    }

    /// Evicts one entry from `shard` via the second-chance scan: ring
    /// front first, referenced entries spared once.  Counts the victim in
    /// `counter` (the reason the scan ran) and returns `false` when the
    /// shard is empty.  Caller holds the shard lock.
    fn evict_one(&self, shard: &mut Shard, counter: &AtomicU64) -> bool {
        // Each live entry is popped at most twice (once to clear its
        // referenced bit, once to evict), and stale slots are consumed,
        // so the scan terminates; the explicit bound documents it.
        let mut budget = 2 * shard.ring.len() + 1;
        while budget > 0 {
            budget -= 1;
            let Some((key, id)) = shard.ring.pop_front() else {
                return false;
            };
            let Some(bucket) = shard.table.get_mut(&key) else {
                continue; // stale slot: the whole bucket is gone
            };
            let Some(pos) = bucket.iter().position(|e| e.id == id) else {
                continue; // stale slot: this entry is gone
            };
            if bucket[pos].referenced {
                bucket[pos].referenced = false;
                shard.ring.push_back((key, id));
                continue;
            }
            let entry = bucket.swap_remove(pos);
            if bucket.is_empty() {
                shard.table.remove(&key);
            }
            shard.entries -= 1;
            // relaxed: monotonic statistics counters, no ordering needed
            counter.fetch_add(1, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Brings the tracked byte total back under the budget by evicting
    /// round-robin across shards, starting at the shard just inserted
    /// into.  One shard lock at a time — never two, so no ordering cycle.
    /// Stops early when a full round frees nothing (all remaining bytes
    /// belong to entries raced in by concurrent inserts, each of which
    /// runs its own enforcement after its insert).
    fn enforce_byte_budget(&self, start: usize) {
        let Some(budget) = self.config.byte_budget else {
            return;
        };
        // relaxed: approximate pressure reading; the loop re-reads it
        while self.bytes.load(Ordering::Relaxed) > budget {
            let mut freed_any = false;
            for offset in 0..NUM_SHARDS {
                // relaxed: approximate pressure reading
                if self.bytes.load(Ordering::Relaxed) <= budget {
                    return;
                }
                let shard = &self.shards[(start + offset) % NUM_SHARDS];
                let mut guard = self.lock(shard);
                freed_any |= self.evict_one(&mut guard, &self.evicted_bytes);
            }
            if !freed_any {
                return;
            }
        }
    }

    fn lookup(
        shard: &mut Shard,
        key: u64,
        semiring: SemiringId,
        q1: &Ucq,
        q2: &Ucq,
    ) -> Option<Decision> {
        shard.table.get_mut(&key).and_then(|bucket| {
            bucket
                .iter_mut()
                .find(|e| {
                    e.semiring == semiring
                        && are_isomorphic_ucq(&e.q1, q1)
                        && are_isomorphic_ucq(&e.q2, q2)
                })
                .map(|e| {
                    e.referenced = true; // second chance for the evictor
                    e.decision.clone()
                })
        })
    }

    fn lock<'a>(&self, shard: &'a Mutex<Shard>) -> annot_core::sync::MutexGuard<'a, Shard> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A consistent-enough snapshot of the counters (each counter is read
    /// atomically; the set is not).  The per-shard occupancy walks the
    /// shards one lock at a time — `STATS` is rare, and holding one shard
    /// briefly never blocks decisions on the others.
    pub fn stats(&self) -> CacheStats {
        let mut shard_entries = Vec::with_capacity(NUM_SHARDS);
        for shard in &self.shards {
            shard_entries.push(self.lock(shard).entries);
        }
        CacheStats {
            // relaxed: statistics snapshot, approximate by design
            hits: self.hits.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            misses: self.misses.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            decides: self.decides.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            inserts: self.inserts.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            entries: self.entries.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            evicted_capacity: self.evicted_capacity.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            shard_entries,
            // relaxed: statistics snapshot, approximate by design
            approx_bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// The tracked footprint of one entry: the entry struct, its table and
/// ring slots, and the heap both stored queries own.  This estimate *is*
/// the byte-budget enforcement input.
fn entry_footprint(q1: &Ucq, q2: &Ucq) -> u64 {
    let slots = size_of::<Entry>() + size_of::<(u64, Vec<Entry>)>() + size_of::<(u64, u64)>();
    (slots + approx_ucq_bytes(q1) + approx_ucq_bytes(q2)) as u64
}

/// The heap one stored query owns, counted from its structure: the
/// disjunct list and, per disjunct, its free variables, atoms, variable
/// names and its own copy of the request's schema.  Allocator slack and
/// the value domain the copies share are out of scope.
fn approx_ucq_bytes(u: &Ucq) -> usize {
    let mut bytes = size_of_val(u.disjuncts());
    for cq in u.disjuncts() {
        bytes += size_of_val(cq.free_vars()) + size_of_val(cq.atoms());
        bytes += cq
            .atoms()
            .iter()
            .map(|a| size_of_val(&a.args[..]))
            .sum::<usize>();
        bytes += size_of_val(cq.var_names());
        bytes += cq.var_names().iter().map(String::len).sum::<usize>();
        bytes += approx_schema_bytes(cq.schema());
    }
    bytes
}

/// The heap of a schema's relation table: the `(name, arity)` list and the
/// name index, each holding its own copy of every name.  The index is
/// counted at two slots (plus a control byte each) per relation, a hash
/// table's typical headroom.
fn approx_schema_bytes(schema: &Schema) -> usize {
    let slot = size_of::<(String, usize)>() + 2 * (size_of::<(String, RelId)>() + 1);
    let names: usize = schema.rel_ids().map(|rel| schema.name(rel).len()).sum();
    schema.len() * slot + 2 * names
}

impl Default for Cache {
    fn default() -> Self {
        Cache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_core::registry::decide_ucq_dyn;
    use annot_query::{parser, Schema};

    fn decide_with(semiring: SemiringId) -> impl Fn(&Ucq, &Ucq) -> Decision {
        move |a: &Ucq, b: &Ucq| decide_ucq_dyn(semiring, a, b)
    }

    /// `count` pairwise non-isomorphic (pair-wise distinct as *pairs*)
    /// query pairs: the same small shape over `count` distinct relation
    /// symbols, so every pair is its own cache entry, every entry has the
    /// same byte footprint, and every decide stays cheap (3 variables —
    /// growing the queries instead would hand the worst-case-exponential
    /// deciders an exponentially growing job).  Each pair is parsed
    /// against a schema of its own, as the server parses each request.
    fn distinct_pairs(count: usize) -> Vec<(Ucq, Ucq)> {
        (0..count)
            .map(|i| {
                let mut s = Schema::new();
                let q1 = parser::parse_ucq(&mut s, &format!("Q() :- C{i:03}(x, y), C{i:03}(y, z)"));
                let q2 = parser::parse_ucq(&mut s, &format!("Q() :- C{i:03}(u, v)"));
                (q1.unwrap(), q2.unwrap())
            })
            .collect()
    }

    #[test]
    fn isomorphic_requests_hit_without_redeciding() {
        let cache = Cache::new();
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let why = SemiringId::from_name("Why").unwrap();

        let (first, hit) = cache.get_or_decide(why, &q1, &q2, decide_with(why));
        assert!(!hit);
        // An α-renamed, atom-reordered variant of the same pair.
        let p1 = parser::parse_ucq(&mut s, "Q() :- R(a, c), R(a, b)").unwrap();
        let p2 = parser::parse_ucq(&mut s, "Q() :- R(x, y), R(x, y)").unwrap();
        let (second, hit) =
            cache.get_or_decide(why, &p1, &p2, |_, _| panic!("must be served from cache"));
        assert!(hit);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.decides), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.evictions(), 0, "unbounded cache never evicts");
    }

    #[test]
    fn schemas_registering_relations_in_opposite_orders_share_entries() {
        // Relation ids differ between the two schemas; names and arities
        // do not, and those are what both the key and the judge compare.
        let cache = Cache::new();
        let why = SemiringId::from_name("Why").unwrap();
        let mut rs = Schema::with_relations([("R", 2), ("S", 2)]);
        let q1 = parser::parse_ucq(&mut rs, "Q() :- R(u, v), S(v, t), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut rs, "Q() :- R(u, v), S(v, w)").unwrap();
        let (first, hit) = cache.get_or_decide(why, &q1, &q2, decide_with(why));
        assert!(!hit);
        let mut sr = Schema::with_relations([("S", 2), ("R", 2)]);
        let p1 = parser::parse_ucq(&mut sr, "Q() :- R(a, c), R(a, b), S(b, d)").unwrap();
        let p2 = parser::parse_ucq(&mut sr, "Q() :- S(y, z), R(x, y)").unwrap();
        let (second, hit) =
            cache.get_or_decide(why, &p1, &p2, |_, _| panic!("must be served from cache"));
        assert!(hit);
        assert_eq!(first, second);
    }

    #[test]
    fn different_semirings_do_not_share_entries() {
        let cache = Cache::new();
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let bool_id = SemiringId::from_name("B").unwrap();
        let why = SemiringId::from_name("Why").unwrap();
        let (b, _) = cache.get_or_decide(bool_id, &q1, &q2, decide_with(bool_id));
        let (w, hit) = cache.get_or_decide(why, &q1, &q2, decide_with(why));
        assert!(!hit);
        // B: contained; Why[X]: not — the entries must not be conflated.
        assert_eq!(b.decided(), Some(true));
        assert_eq!(w.decided(), Some(false));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn stats_report_shard_occupancy_and_bytes() {
        let cache = Cache::new();
        let empty = cache.stats();
        assert_eq!(empty.shard_entries, vec![0; NUM_SHARDS]);
        assert_eq!(empty.approx_bytes, 0);

        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v)").unwrap();
        let n = SemiringId::from_name("N").unwrap();
        cache.get_or_decide(n, &q1, &q2, decide_with(n));
        cache.get_or_decide(n, &q2, &q1, decide_with(n));

        let stats = cache.stats();
        assert_eq!(stats.shard_entries.len(), NUM_SHARDS);
        assert_eq!(stats.entries, 2);
        assert_eq!(
            stats.shard_entries.iter().sum::<u64>(),
            stats.entries,
            "per-shard occupancy must sum to the entry counter"
        );
        assert!(
            stats.approx_bytes > 0,
            "two cached entries must occupy bytes"
        );
    }

    #[test]
    fn ordered_pair_directions_are_distinct() {
        let cache = Cache::new();
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v)").unwrap();
        let n = SemiringId::from_name("N").unwrap();
        let (_, hit1) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        let (_, hit2) = cache.get_or_decide(n, &q2, &q1, decide_with(n));
        assert!(!hit1 && !hit2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn byte_budget_is_never_exceeded_and_evictions_are_counted() {
        let pairs = distinct_pairs(12);
        let n = SemiringId::from_name("N").unwrap();
        // A budget that fits roughly two entries.
        let one = entry_footprint(&pairs[0].0, &pairs[0].1);
        let budget = one * 2 + one / 2;
        let cache = Cache::with_config(CacheConfig {
            byte_budget: Some(budget),
            ..CacheConfig::default()
        });
        for (q1, q2) in &pairs {
            cache.get_or_decide(n, q1, q2, decide_with(n));
            assert!(
                cache.stats().approx_bytes <= budget,
                "tracked bytes {} broke the budget {budget}",
                cache.stats().approx_bytes
            );
        }
        let stats = cache.stats();
        assert!(stats.evicted_bytes > 0, "churn must evict: {stats:?}");
        assert_eq!(
            stats.inserts,
            stats.entries + stats.evictions(),
            "insert/evict bookkeeping must balance: {stats:?}"
        );
    }

    #[test]
    fn an_entry_larger_than_the_whole_budget_is_never_cached() {
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let cache = Cache::with_config(CacheConfig {
            byte_budget: Some(8), // smaller than any entry
            ..CacheConfig::default()
        });
        let n = SemiringId::from_name("N").unwrap();
        let (_, hit) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.approx_bytes, 0);
        assert_eq!(stats.evicted_bytes, 1, "the refusal is counted");
        assert_eq!(stats.inserts, stats.entries + stats.evictions());
        // The same request decides again — nothing was cached.
        let (_, hit) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        assert!(!hit);
        assert_eq!(cache.stats().decides, 2);
    }

    #[test]
    fn shard_capacity_bounds_every_shard() {
        let pairs = distinct_pairs(16);
        let n = SemiringId::from_name("N").unwrap();
        let cache = Cache::with_config(CacheConfig {
            shard_capacity: Some(1),
            ..CacheConfig::default()
        });
        for (q1, q2) in &pairs {
            cache.get_or_decide(n, q1, q2, decide_with(n));
            let stats = cache.stats();
            assert!(
                stats.shard_entries.iter().all(|&c| c <= 1),
                "a shard broke its capacity: {:?}",
                stats.shard_entries
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts, 16);
        assert_eq!(stats.inserts, stats.entries + stats.evictions());
    }

    #[test]
    fn recently_hit_entries_survive_capacity_eviction() {
        // Pin the second-chance policy exactly: find three pairs that
        // land in the SAME shard (by probing the fingerprints, so no
        // hashing luck is involved), fill the shard, hit one entry, then
        // overflow — the unreferenced entry must be the victim.
        let n = SemiringId::from_name("N").unwrap();
        let cache = Cache::with_config(CacheConfig {
            shard_capacity: Some(2),
            ..CacheConfig::default()
        });
        let pairs = distinct_pairs(256);
        let mut by_shard: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut colliding: Option<Vec<usize>> = None;
        for (i, (q1, q2)) in pairs.iter().enumerate() {
            let shard = (Cache::fingerprint(n, q1, q2) as usize) % NUM_SHARDS;
            let bucket = by_shard.entry(shard).or_default();
            bucket.push(i);
            if bucket.len() == 3 {
                colliding = Some(bucket.clone());
                break;
            }
        }
        let idx = colliding.expect("256 distinct pairs must collide 3-deep in some shard");
        let (a1, a2) = &pairs[idx[0]];
        let (b1, b2) = &pairs[idx[1]];
        let (c1, c2) = &pairs[idx[2]];
        cache.get_or_decide(n, a1, a2, decide_with(n)); // shard: [A]
        cache.get_or_decide(n, b1, b2, decide_with(n)); // shard: [A, B] — full
        let (_, hit) = cache.get_or_decide(n, a1, a2, |_, _| panic!("cached"));
        assert!(hit, "A is cached; the hit sets its second-chance bit");
        cache.get_or_decide(n, c1, c2, decide_with(n)); // overflow: evict one
        let (_, hit_a) = cache.get_or_decide(n, a1, a2, |_, _| panic!("A must survive"));
        assert!(hit_a, "the referenced entry gets its second chance");
        let (_, hit_b) = cache.get_or_decide(n, b1, b2, decide_with(n));
        assert!(!hit_b, "the unreferenced entry was the victim");
        let stats = cache.stats();
        assert!(stats.evicted_capacity >= 1, "{stats:?}");
        assert_eq!(stats.inserts, stats.entries + stats.evictions());
    }

    #[test]
    fn eviction_is_deterministic_for_a_fixed_operation_order() {
        // All eviction state is under the shard locks ⇒ two identical
        // runs evict identically.
        let run = || {
            let pairs = distinct_pairs(10);
            let n = SemiringId::from_name("N").unwrap();
            let cache = Cache::with_config(CacheConfig {
                shard_capacity: Some(1),
                byte_budget: Some(4096),
            });
            for (q1, q2) in pairs.iter().chain(pairs.iter()) {
                cache.get_or_decide(n, q1, q2, decide_with(n));
            }
            let stats = cache.stats();
            (
                stats.hits,
                stats.misses,
                stats.inserts,
                stats.entries,
                stats.evicted_capacity,
                stats.evicted_bytes,
                stats.shard_entries.clone(),
            )
        };
        assert_eq!(run(), run());
    }
}
