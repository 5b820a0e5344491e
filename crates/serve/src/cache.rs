//! The shared cross-tenant plan cache.
//!
//! Every tenant on one daemon plans against the same read-only platform
//! catalogs, and fleets of tenants tend to ask near-identical questions
//! (same mix, demand vectors a few percent apart). [`PlanCache`] is one
//! LRU, shared across every session and connection under a single lock,
//! keyed by (platform fingerprint, mix signature, objective, quantized
//! demand vector). It serves two tiers:
//!
//! * **Exact tier** — the stored demand vector bit-equals the query's.
//!   Because [`MixPlanner`](adept_core::planner::MixPlanner) is
//!   deterministic, returning the cached result is *bit-identical* to
//!   recomputing it, so exact hits are safe everywhere — including the
//!   journaled `register` answer path, whose replay recomputes cold and
//!   must land on the same plan.
//! * **Near tier** — no exact entry, but a neighbor within
//!   `NEAR_RADIUS` relative distance exists. The neighbor's plan is
//!   served as a *revision starting point* (the caller revises it
//!   toward the actual demand), never as an answer. Only the stateless
//!   `plan` endpoint uses this tier; journaled paths stay exact-only.
//!
//! Only canonical cold-computed planner results are ever inserted —
//! revised near-tier answers are not — so the cache can never drift
//! away from what the planner would say. Resume/replay bypasses the
//! cache entirely: replay correctness must not depend on what other
//! tenants planned since the journal was written.
//!
//! Building a key reads the platform's
//! [`fingerprint`](Platform::fingerprint), which hashes the whole catalog
//! on its first call and returns the stored value after; from then on a
//! key costs O(services). `lookup` and `insert` build their key before
//! taking the lock, so a catalog's one real hash never holds up another
//! connection.
//!
//! Memory bound: at most `capacity` entries, each one deployment plan +
//! assignment (O(servers) each), so the worst case is
//! `capacity × O(n)`. Operators size it via
//! [`ServeConfig::plan_cache_capacity`](crate::ServeConfig); `0`
//! disables caching outright.

use adept_core::planner::{MixObjective, MixPlan};
use adept_platform::Platform;
use adept_workload::ServiceMix;
use parking_lot::Mutex;

/// Default entry capacity of a daemon's plan cache.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// Maximum symmetric relative per-service distance for a near-tier hit:
/// a neighbor further than this from the queried demand is a worse
/// starting point than the incumbent-free cold planner.
const NEAR_RADIUS: f64 = 0.5;

/// Geometric quantization step (~5% buckets) for the demand key used to
/// deduplicate insertions.
const QUANT_STEP: f64 = 0.05;

/// Counters and occupancy of a [`PlanCache`], as reported in the
/// daemon's `status` frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Configured entry capacity (`0` = caching disabled).
    pub capacity: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Lookups answered bit-identically from a stored result.
    pub exact_hits: u64,
    /// Lookups that found a revision starting point within the
    /// near-tier radius.
    pub near_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Canonical planner results stored (including replacements).
    pub insertions: u64,
}

/// Cache identity of a planning question, minus the demand vector.
///
/// The platform is identified by its structural
/// [`fingerprint`](Platform::fingerprint) — the same identity the
/// journal layer uses to refuse resuming on changed hardware — and the
/// mix by its exact share/`Wapp` bit patterns (service *names* are
/// deliberately excluded: they label reports, they never shape a plan).
///
/// Once the catalog has been hashed, a key costs O(services); callers
/// build it before taking the cache lock.
#[derive(Debug, Clone, PartialEq)]
struct Key {
    fingerprint: u64,
    objective: MixObjective,
    /// `(share bits, wapp bits)` per mix service.
    mix: Vec<(u64, u64)>,
}

impl Key {
    fn of(platform: &Platform, mix: &ServiceMix, objective: MixObjective) -> Key {
        Key {
            fingerprint: platform.fingerprint(),
            objective,
            mix: (0..mix.len())
                .map(|j| {
                    (
                        mix.share(j).to_bits(),
                        mix.service(j).wapp.value().to_bits(),
                    )
                })
                .collect(),
        }
    }
}

struct Entry {
    key: Key,
    /// The exact demand rates the stored result was planned for.
    demand: Vec<f64>,
    /// Quantized demand — the insertion-dedup key.
    quantized: Vec<i64>,
    result: MixPlan,
    /// LRU clock value of the last touch.
    stamp: u64,
}

struct Inner {
    clock: u64,
    entries: Vec<Entry>,
    exact_hits: u64,
    near_hits: u64,
    misses: u64,
    insertions: u64,
}

/// What a [`PlanCache::lookup`] found.
pub(crate) enum CacheLookup {
    /// A stored result for bit-identical inputs — safe to return as the
    /// answer on any path, journaled or not.
    Exact(Box<MixPlan>),
    /// A neighboring entry usable as a revision starting point. The
    /// caller must still search toward the actual demand.
    Near(Box<MixPlan>),
    /// Nothing usable; plan cold (and [`insert`](PlanCache::insert) the
    /// result).
    Miss,
}

/// The daemon-wide shared plan cache. One lock, many tenants: every
/// operation is a short critical section over at most `capacity`
/// entries, so contention is bounded by design.
#[derive(Debug)]
pub struct PlanCache {
    /// Entry capacity, fixed at construction; `0` disables the cache.
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("entries", &self.entries.len())
            .finish_non_exhaustive()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` entries; `0` disables it
    /// (every lookup misses silently, every insert is dropped).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::named(
                "serve.plan-cache",
                Inner {
                    clock: 0,
                    entries: Vec::new(),
                    exact_hits: 0,
                    near_hits: 0,
                    misses: 0,
                    insertions: 0,
                },
            ),
        }
    }

    /// Looks up a planning question. `allow_near` enables the near tier
    /// — only ever pass `true` on paths whose answers are not journaled
    /// (the stateless `plan` endpoint).
    pub(crate) fn lookup(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
        demand: &[f64],
        allow_near: bool,
    ) -> CacheLookup {
        if self.capacity == 0 {
            return CacheLookup::Miss;
        }
        let key = Key::of(platform, mix, objective);
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;

        if let Some(e) = inner
            .entries
            .iter_mut()
            .find(|e| e.key == key && bits_eq(&e.demand, demand))
        {
            e.stamp = clock;
            let result = Box::new(e.result.clone());
            inner.exact_hits += 1;
            return CacheLookup::Exact(result);
        }

        // Nearest neighbor under the same key: the entry minimizing the
        // worst per-service symmetric relative distance. Unbounded
        // demands never near-match — revising toward infinity from an
        // arbitrary neighbor is not an acceleration.
        if allow_near && demand.iter().all(|r| r.is_finite()) {
            let mut best: Option<(f64, usize)> = None;
            for (i, e) in inner.entries.iter().enumerate() {
                if e.key != key || !e.demand.iter().all(|r| r.is_finite()) {
                    continue;
                }
                let d = distance(&e.demand, demand);
                if d <= NEAR_RADIUS && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, i));
                }
            }
            if let Some((_, i)) = best {
                let e = &mut inner.entries[i];
                e.stamp = clock;
                let result = Box::new(e.result.clone());
                inner.near_hits += 1;
                return CacheLookup::Near(result);
            }
        }
        inner.misses += 1;
        CacheLookup::Miss
    }

    /// Stores a canonical (cold-computed) planner result. Entries whose
    /// quantized demand collides are replaced rather than duplicated;
    /// past `capacity`, the least recently used entry is evicted.
    pub(crate) fn insert(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
        demand: &[f64],
        result: &MixPlan,
    ) {
        if self.capacity == 0 {
            return;
        }
        let key = Key::of(platform, mix, objective);
        let quantized: Vec<i64> = demand.iter().map(|&r| quantize(r)).collect();
        let mut inner = self.inner.lock();
        inner.clock += 1;
        inner.insertions += 1;
        let clock = inner.clock;
        if let Some(e) = inner
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.quantized == quantized)
        {
            e.demand = demand.to_vec();
            e.result = result.clone();
            e.stamp = clock;
            return;
        }
        inner.entries.push(Entry {
            key,
            demand: demand.to_vec(),
            quantized,
            result: result.clone(),
            stamp: clock,
        });
        if inner.entries.len() > self.capacity {
            let lru = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i);
            if let Some(lru) = lru {
                inner.entries.swap_remove(lru);
            }
        }
    }

    /// A snapshot of the counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            capacity: self.capacity as u64,
            entries: inner.entries.len() as u64,
            exact_hits: inner.exact_hits,
            near_hits: inner.near_hits,
            misses: inner.misses,
            insertions: inner.insertions,
        }
    }
}

/// Bit-pattern equality of two demand vectors (distinguishes `0.0` from
/// `-0.0`; demand validation upstream guarantees no NaN reaches here).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Worst per-service symmetric relative distance between two finite
/// demand vectors (`infinity` on arity mismatch, so it never matches).
fn distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let scale = x.abs().max(y.abs());
            if scale == 0.0 {
                0.0
            } else {
                (x - y).abs() / scale
            }
        })
        .fold(0.0, f64::max)
}

/// Geometric demand bucket (~5% wide) for insertion dedup. Zero and
/// infinity get sentinel buckets of their own.
fn quantize(rate: f64) -> i64 {
    if !rate.is_finite() {
        return i64::MAX;
    }
    if rate <= 0.0 {
        return i64::MIN;
    }
    (rate.ln() / QUANT_STEP).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::planner::MixPlanner;
    use adept_platform::generator;
    use adept_workload::{Dgemm, MixDemand, ServiceMix};

    fn mix2() -> ServiceMix {
        ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ])
    }

    fn plan_for(platform: &Platform, mix: &ServiceMix, demand: &[f64]) -> MixPlan {
        MixPlanner::default()
            .plan_mix(platform, mix, &MixDemand::targets(demand.to_vec()))
            .expect("platform fits")
    }

    #[test]
    fn exact_hit_returns_the_stored_result_bit_identically() {
        let platform = generator::lyon_cluster(20);
        let mix = mix2();
        let demand = [2.0, 0.3];
        let got = plan_for(&platform, &mix, &demand);
        let cache = PlanCache::new(8);
        cache.insert(&platform, &mix, MixObjective::WeightedMin, &demand, &got);

        let CacheLookup::Exact(hit) =
            cache.lookup(&platform, &mix, MixObjective::WeightedMin, &demand, false)
        else {
            panic!("bit-identical inputs must hit the exact tier");
        };
        assert!(hit.plan.structurally_eq(&got.plan));
        assert_eq!(hit.assignment, got.assignment);
        assert_eq!(hit.report.rho.to_bits(), got.report.rho.to_bits());
        assert_eq!(hit.objective_value.to_bits(), got.objective_value.to_bits());
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.misses), (1, 0));
    }

    #[test]
    fn near_tier_serves_neighbors_only_when_allowed() {
        let platform = generator::lyon_cluster(20);
        let mix = mix2();
        let got = plan_for(&platform, &mix, &[2.0, 0.3]);
        let cache = PlanCache::new(8);
        cache.insert(
            &platform,
            &mix,
            MixObjective::WeightedMin,
            &[2.0, 0.3],
            &got,
        );

        // 10% away: a near hit when allowed, a miss on exact-only paths.
        let query = [2.2, 0.33];
        assert!(matches!(
            cache.lookup(&platform, &mix, MixObjective::WeightedMin, &query, true),
            CacheLookup::Near(_)
        ));
        assert!(matches!(
            cache.lookup(&platform, &mix, MixObjective::WeightedMin, &query, false),
            CacheLookup::Miss
        ));
        // Far beyond the radius: always a miss.
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedMin,
                &[20.0, 3.0],
                true
            ),
            CacheLookup::Miss
        ));
        let stats = cache.stats();
        assert_eq!((stats.near_hits, stats.misses), (1, 2));
    }

    #[test]
    fn key_separates_platform_mix_and_objective() {
        let platform = generator::lyon_cluster(20);
        let other = generator::lyon_cluster(21);
        let mix = mix2();
        let got = plan_for(&platform, &mix, &[2.0, 0.3]);
        let cache = PlanCache::new(8);
        cache.insert(
            &platform,
            &mix,
            MixObjective::WeightedMin,
            &[2.0, 0.3],
            &got,
        );

        assert!(matches!(
            cache.lookup(&other, &mix, MixObjective::WeightedMin, &[2.0, 0.3], true),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedSum,
                &[2.0, 0.3],
                true
            ),
            CacheLookup::Miss
        ));
        let heavier = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1500).service(), 1.0),
        ]);
        assert!(matches!(
            cache.lookup(
                &platform,
                &heavier,
                MixObjective::WeightedMin,
                &[2.0, 0.3],
                true
            ),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn lru_eviction_keeps_recently_touched_entries() {
        let platform = generator::lyon_cluster(20);
        let mix = mix2();
        let cache = PlanCache::new(2);
        let demands = [[1.0, 0.1], [2.0, 0.2], [4.0, 0.4]];
        let plans: Vec<MixPlan> = demands
            .iter()
            .map(|d| plan_for(&platform, &mix, d))
            .collect();
        cache.insert(
            &platform,
            &mix,
            MixObjective::WeightedMin,
            &demands[0],
            &plans[0],
        );
        cache.insert(
            &platform,
            &mix,
            MixObjective::WeightedMin,
            &demands[1],
            &plans[1],
        );
        // Touch the first entry, then overflow: the second is the LRU.
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedMin,
                &demands[0],
                false
            ),
            CacheLookup::Exact(_)
        ));
        cache.insert(
            &platform,
            &mix,
            MixObjective::WeightedMin,
            &demands[2],
            &plans[2],
        );
        assert_eq!(cache.stats().entries, 2);
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedMin,
                &demands[0],
                false
            ),
            CacheLookup::Exact(_)
        ));
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedMin,
                &demands[1],
                false
            ),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn same_quantized_bucket_replaces_instead_of_duplicating() {
        let platform = generator::lyon_cluster(20);
        let mix = mix2();
        let cache = PlanCache::new(8);
        let got = plan_for(&platform, &mix, &[2.0, 0.3]);
        // Two demands within the ~5% quantization bucket.
        cache.insert(
            &platform,
            &mix,
            MixObjective::WeightedMin,
            &[2.0, 0.3],
            &got,
        );
        cache.insert(
            &platform,
            &mix,
            MixObjective::WeightedMin,
            &[2.01, 0.3],
            &got,
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "bucket collisions replace");
        assert_eq!(stats.insertions, 2);
        // The replacement's exact demand is the live one.
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedMin,
                &[2.01, 0.3],
                false
            ),
            CacheLookup::Exact(_)
        ));
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedMin,
                &[2.0, 0.3],
                false
            ),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let platform = generator::lyon_cluster(20);
        let mix = mix2();
        let got = plan_for(&platform, &mix, &[2.0, 0.3]);
        let cache = PlanCache::new(0);
        cache.insert(
            &platform,
            &mix,
            MixObjective::WeightedMin,
            &[2.0, 0.3],
            &got,
        );
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedMin,
                &[2.0, 0.3],
                true
            ),
            CacheLookup::Miss
        ));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn unbounded_demands_hit_exactly_but_never_near() {
        let platform = generator::lyon_cluster(20);
        let mix = mix2();
        let got = MixPlanner::default()
            .plan_mix(&platform, &mix, &MixDemand::unbounded(2))
            .expect("fits");
        let unbounded = [f64::INFINITY, f64::INFINITY];
        let cache = PlanCache::new(8);
        cache.insert(&platform, &mix, MixObjective::WeightedMin, &unbounded, &got);
        assert!(matches!(
            cache.lookup(&platform, &mix, MixObjective::WeightedMin, &unbounded, true),
            CacheLookup::Exact(_)
        ));
        assert!(matches!(
            cache.lookup(
                &platform,
                &mix,
                MixObjective::WeightedMin,
                &[5.0, 5.0],
                true
            ),
            CacheLookup::Miss
        ));
    }
}
