//! Seeded input generators.
//!
//! Every input the benchmark sends is made here from `--seed`: the same
//! seed gives the same frames, so behaviour counts (migrations, replans,
//! cache tiers) repeat exactly for a seed and a change in them is a
//! change in behaviour, not noise. The daemon only ever sees the frames.

use adept_platform::{generator, MbitRate, Mflop, MflopRate, Platform};
use adept_serve::{ServiceDef, SessionConfig};
use adept_workload::{Dgemm, ServiceMix, ServiceSpec};
use std::f64::consts::TAU;

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Name of the daemon's one platform catalog.
pub const CATALOG: &str = "grid2x5000";

/// The daemon workloads' catalog: 2 sites of 5 000 nodes. n = 10⁴
/// rather than 10⁵ because at 10⁵ a restart's replay time swings by a
/// third within one run, which would hide any change smaller than that.
/// The catalog is the operator's hardware, so it does not vary with the
/// seed; the traffic does.
pub fn catalog() -> Platform {
    generator::multi_site_grid(
        2,
        5_000,
        MflopRate(400.0),
        MbitRate(100.0),
        MbitRate(10.0),
        7,
    )
}

/// DGEMM service mixes as `(matrix size, weight)`.
const MIXES: [&[(u32, f64)]; 3] = [
    &[(310, 2.0), (700, 1.0), (1000, 1.0)],
    &[(100, 1.0), (310, 1.0)],
    &[(700, 1.0), (1000, 2.0)],
];

fn mix(index: usize) -> Vec<ServiceDef> {
    MIXES[index]
        .iter()
        .map(|&(n, weight)| ServiceDef {
            name: format!("dgemm-{n}"),
            wapp_mflop: Dgemm::new(n).wapp().value(),
            weight,
        })
        .collect()
}

/// Every mix, as declared over the wire.
pub fn mixes() -> Vec<Vec<ServiceDef>> {
    (0..MIXES.len()).map(mix).collect()
}

/// The library's view of a declared mix.
pub fn service_mix(services: &[ServiceDef]) -> ServiceMix {
    ServiceMix::new(
        services
            .iter()
            .map(|s| {
                (
                    ServiceSpec::new(s.name.clone(), Mflop(s.wapp_mflop)),
                    s.weight,
                )
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// tenant-day
// ---------------------------------------------------------------------------

/// Control intervals in a day: 24 h of 5-minute ticks.
pub const TICKS_PER_DAY: usize = 288;
pub const TENANTS: usize = 16;
/// Relative swing of the diurnal curve around each tenant's base demand.
const AMPLITUDE: f64 = 0.5;
/// Relative per-tick measurement noise, well below the drift trigger.
const NOISE: f64 = 0.03;

/// One tenant of the synthetic day.
pub struct Tenant {
    pub id: String,
    pub services: Vec<ServiceDef>,
    /// The demand `register` plans for: the curve's value at tick 0.
    pub demand: Vec<f64>,
    pub config: SessionConfig,
    /// Observed per-service rates, one vector per tick.
    pub ticks: Vec<Vec<f64>>,
}

/// The tenant-day: 16 tenants, each with its own base demand (so every
/// `register` misses the plan cache), a diurnal curve with its own phase,
/// one flash crowd on one service, and seeded GoDiet failure injection.
/// About one tick in thirty migrates; the rest are quiet, so the median
/// tick measures the serve path and the 99th percentile the reviser.
pub fn tenant_day(seed: u64) -> Vec<Tenant> {
    let mut rng = Rng::new(seed);
    (0..TENANTS)
        .map(|i| {
            let services = mix(i % MIXES.len());
            let base: Vec<f64> = services.iter().map(|_| rng.range(2.0, 6.0)).collect();
            let phase = rng.range(0.0, TAU);
            let flash_at = 24 + rng.below(TICKS_PER_DAY - 60);
            let flash_len = 6 + rng.below(7);
            let flash_service = rng.below(services.len());
            let flash_factor = rng.range(2.0, 3.0);
            let diurnal =
                |t: usize| 1.0 + AMPLITUDE * (TAU * t as f64 / TICKS_PER_DAY as f64 + phase).sin();
            let demand = base.iter().map(|b| b * diurnal(0)).collect();
            let ticks = (1..=TICKS_PER_DAY)
                .map(|t| {
                    let crowd = (flash_at..flash_at + flash_len).contains(&t);
                    base.iter()
                        .enumerate()
                        .map(|(j, b)| {
                            let flash = if crowd && j == flash_service {
                                flash_factor
                            } else {
                                1.0
                            };
                            b * diurnal(t) * flash * rng.range(1.0 - NOISE, 1.0 + NOISE)
                        })
                        .collect()
                })
                .collect();
            let config = SessionConfig {
                demand_alpha: 0.5,
                failure_probability: 0.2,
                // Journaled as a JSON number: keep it exact in an f64.
                failure_seed: rng.next_u64() >> 11,
                ..SessionConfig::default()
            };
            Tenant {
                id: format!("tenant-{i:02}"),
                services,
                demand,
                config,
                ticks,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// what-if
// ---------------------------------------------------------------------------

/// Which plan-cache tier a question is built to land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Exact,
    Near,
    Miss,
}

/// A demand point on a mix's lattice.
pub struct Point {
    pub mix: usize,
    pub demand: Vec<f64>,
}

/// One `plan` question of the stream.
pub struct Ask {
    /// The lattice point asked about (the perturbed point's parent for
    /// `Near`).
    pub point: usize,
    pub demand: Vec<f64>,
    pub tier: Tier,
}

pub struct WhatIf {
    pub points: Vec<Point>,
    /// Points asked again and again; the cache holds them once warm.
    pub popular: Vec<usize>,
    /// One cycle of the question stream; callers repeat it.
    pub stream: Vec<Ask>,
}

/// Lattice step: two lattice points differ by at least this factor in
/// one service, so their relative distance (1 − 1/2.1 ≈ 0.52) exceeds
/// the cache's near radius of 0.5 and no point is near another.
const LATTICE_STEP: f64 = 2.1;
const LATTICE_LEVELS: u32 = 4;
const POPULAR: usize = 16;
/// Fixes which lattice points are popular, whatever the seed.
const POPULAR_SEED: u64 = 0x0DD5_EED5;
/// Near questions move each service of a popular point by at most this
/// much, so the popular parent is always the nearest cached entry.
const PERTURB: f64 = 0.15;
/// Tier shares of one stream cycle, in slots of 320: 35% exact, 40%
/// near, 25% miss. Exact answers are the fastest, near revisions and
/// cold misses the slowest, so the median lands inside the near tier and
/// the 99th percentile inside the miss tail, neither on a boundary.
const EXACT_SLOTS: usize = 112;
const NEAR_SLOTS: usize = 128;

/// The what-if question stream: stateless `plan` questions over three
/// mixes. Popular lattice points repeat (exact hits once cached), small
/// perturbations of them land within the near radius (near hits), and
/// the other 80 lattice points come round once per cycle (misses: with
/// 64 cache entries and 16 held by popular points, a fresh point is
/// evicted long before it comes round again). The 96 lattice points and
/// 128 perturbations make a working set larger than the cache.
///
/// Which points are popular does not vary with the seed: the heaviest
/// popular point's near revisions are the slowest 2.5% of questions and
/// set the 99th percentile, so a seed that drew a different heaviest
/// point would move the tail by a factor of two. The seed varies the
/// demand levels (within ±6%), the perturbations, and the order.
pub fn what_if(seed: u64) -> WhatIf {
    let mut rng = Rng::new(seed ^ 0x57A7_E1E5);
    let mut points = Vec::new();
    for (m, mix) in MIXES.iter().enumerate() {
        let services = mix.len() as u32;
        let base: Vec<f64> = (0..services).map(|_| rng.range(1.7, 1.9)).collect();
        for code in 0..LATTICE_LEVELS.pow(services) {
            let demand = (0..services)
                .map(|j| {
                    let level = (code / LATTICE_LEVELS.pow(j)) % LATTICE_LEVELS;
                    base[j as usize] * LATTICE_STEP.powi(level as i32)
                })
                .collect();
            points.push(Point { mix: m, demand });
        }
    }
    let mut order: Vec<usize> = (0..points.len()).collect();
    Rng::new(POPULAR_SEED).shuffle(&mut order);
    let popular = order[..POPULAR].to_vec();
    let mut fresh = order[POPULAR..].to_vec();
    rng.shuffle(&mut fresh);

    let mut slots: Vec<Tier> = std::iter::repeat_n(Tier::Exact, EXACT_SLOTS)
        .chain(std::iter::repeat_n(Tier::Near, NEAR_SLOTS))
        .chain(std::iter::repeat_n(Tier::Miss, fresh.len()))
        .collect();
    rng.shuffle(&mut slots);
    let (mut exact, mut near, mut miss) = (0, 0, 0);
    let stream = slots
        .into_iter()
        .map(|tier| match tier {
            Tier::Exact => {
                let point = popular[exact % POPULAR];
                exact += 1;
                Ask {
                    point,
                    demand: points[point].demand.clone(),
                    tier,
                }
            }
            Tier::Near => {
                let point = popular[near % POPULAR];
                near += 1;
                let demand = points[point]
                    .demand
                    .iter()
                    .map(|r| {
                        let shift = rng.range(0.03, PERTURB);
                        if rng.unit() < 0.5 {
                            r * (1.0 + shift)
                        } else {
                            r * (1.0 - shift)
                        }
                    })
                    .collect();
                Ask {
                    point,
                    demand,
                    tier,
                }
            }
            Tier::Miss => {
                let point = fresh[miss];
                miss += 1;
                Ask {
                    point,
                    demand: points[point].demand.clone(),
                    tier,
                }
            }
        })
        .collect();
    WhatIf {
        points,
        popular,
        stream,
    }
}

// ---------------------------------------------------------------------------
// pipeline-1e6
// ---------------------------------------------------------------------------

/// Nodes of the library pipeline's platform.
pub const PIPELINE_NODES: usize = 1_000_000;

/// The platform seed of pipeline iteration `iteration`: every iteration
/// plans on a platform it has never seen, because a one-shot user pays
/// the first plan on fresh data, not a repeat on warm memory.
pub fn pipeline_platform_seed(seed: u64, iteration: usize) -> u64 {
    Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ iteration as u64).next_u64()
}

/// A freshly generated 4-site grid of [`PIPELINE_NODES`] nodes.
pub fn pipeline_platform(platform_seed: u64) -> Platform {
    generator::multi_site_grid(
        4,
        PIPELINE_NODES / 4,
        MflopRate(400.0),
        MbitRate(100.0),
        MbitRate(10.0),
        platform_seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache's near-tier distance: worst per-service relative gap.
    fn distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs() / x.max(*y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn lattice_points_are_beyond_the_near_radius_of_each_other() {
        let q = what_if(7);
        for (i, a) in q.points.iter().enumerate() {
            for b in q.points.iter().skip(i + 1).filter(|b| b.mix == a.mix) {
                assert!(distance(&a.demand, &b.demand) > 0.5);
            }
        }
    }

    #[test]
    fn near_questions_are_nearest_to_their_popular_parent() {
        let q = what_if(7);
        for ask in q.stream.iter().filter(|a| a.tier == Tier::Near) {
            let parent = &q.points[ask.point];
            let own = distance(&ask.demand, &parent.demand);
            assert!(own < 0.5 && q.popular.contains(&ask.point));
            for (i, other) in q.points.iter().enumerate() {
                if i != ask.point && other.mix == parent.mix {
                    assert!(distance(&ask.demand, &other.demand) > own);
                }
            }
        }
    }

    #[test]
    fn the_stream_cycle_has_the_designed_tier_shares() {
        let q = what_if(7);
        let count = |tier| q.stream.iter().filter(|a| a.tier == tier).count();
        assert_eq!(
            (count(Tier::Exact), count(Tier::Near), count(Tier::Miss)),
            (112, 128, 80)
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let (a, b) = (tenant_day(7), tenant_day(7));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.ticks == y.ticks && x.demand == y.demand));
        assert_ne!(tenant_day(8)[0].ticks, a[0].ticks);
        let (a, b) = (what_if(7), what_if(7));
        assert!(a
            .stream
            .iter()
            .zip(&b.stream)
            .all(|(x, y)| x.demand == y.demand));
        assert_eq!(pipeline_platform_seed(7, 3), pipeline_platform_seed(7, 3));
        assert_ne!(pipeline_platform_seed(7, 3), pipeline_platform_seed(7, 4));
    }
}
