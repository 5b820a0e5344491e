//! Synthetic platform generators.
//!
//! The paper's experiments ran on two Grid'5000 sites: **Lyon** (homogeneous
//! cluster, used for calibration and the client machines) and **Orsay**
//! (200 nodes, used for the middleware). Section 5.3 explains how the
//! authors *heterogenized* the homogeneous Orsay cluster: they launched
//! matrix-multiplication programs of different sizes in the background on
//! some nodes and re-measured the effective MFlops with the Linpack
//! mini-benchmark.
//!
//! These generators produce the equivalent synthetic platforms:
//!
//! * [`homogeneous_cluster`] — a Lyon-like uniform cluster;
//! * [`heterogenized_cluster`] — the paper's background-load methodology:
//!   each node runs `k_i` background processes drawn from a seeded
//!   distribution, and the effective power is `base / (1 + k_i)` (CPU fair
//!   sharing between the middleware process and `k_i` compute-bound
//!   background processes), then re-measured through a [`CapacityProbe`];
//! * [`uniform_random_cluster`] — powers drawn uniformly from a range, for
//!   property tests and stress tests;
//! * [`grid5000`] — a two-site platform (orsay for middleware, lyon for
//!   clients) mirroring Section 5.3's setup.

// audit: allow-file(unwrap, "the generator builds platforms from non-empty node
// sets with names it mints itself, so build() and uniqueness expects cannot
// fail")
use crate::calibration::{CapacityProbe, MiddlewareCalibration};
use crate::names::WriteName;
use crate::network::Network;
use crate::platform::Platform;
use crate::resource::SiteId;
use crate::units::{MbitRate, MflopRate};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A homogeneous cluster of `n` nodes of the given power, on one site,
/// with the reference homogeneous bandwidth.
///
/// # Panics
/// Panics if `n == 0`.
pub fn homogeneous_cluster(name: &str, n: usize, power: MflopRate) -> Platform {
    homogeneous_cluster_with_bandwidth(name, n, power, MiddlewareCalibration::reference_bandwidth())
}

/// A homogeneous cluster with an explicit bandwidth.
///
/// # Panics
/// Panics if `n == 0`.
pub fn homogeneous_cluster_with_bandwidth(
    name: &str,
    n: usize,
    power: MflopRate,
    bandwidth: MbitRate,
) -> Platform {
    assert!(n > 0, "cluster must have at least one node");
    let mut b = Platform::builder(Network::homogeneous(bandwidth));
    let site = b.add_site(name);
    let prefix = format!("{name}-");
    b.add_nodes((0..n).map(|i| (host_name(&prefix, i, ""), power, site)))
        .expect("generated names are unique");
    b.build().expect("n > 0")
}

/// The two-digit decimal strings `00` to `99`, back to back.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `prefix`, then `index` in decimal, then `suffix`: the name
/// `format!("{prefix}{index}{suffix}")` gives, as a small value that the
/// builder writes straight into the platform's name buffer, so minting a
/// catalog allocates no `String` per name.
pub(crate) fn host_name<'a>(prefix: &'a str, index: usize, suffix: &'a str) -> HostName<'a> {
    HostName {
        prefix,
        index,
        suffix,
    }
}

/// A host name minted by [`host_name`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostName<'a> {
    prefix: &'a str,
    index: usize,
    suffix: &'a str,
}

impl WriteName for HostName<'_> {
    /// Writes the index two digits at a time, without the formatting
    /// machinery: 10⁶ names took 23–37 ms against 44–69 ms with
    /// `format!` (9 rounds, 2-vCPU x86-64 host).
    fn write_to(self, buf: &mut String) {
        let pair = |limb: usize| &DIGIT_PAIRS[2 * limb..2 * limb + 2];
        // `index` in base 100, least significant limb first; `rest` ends
        // as the leading limb.
        let mut limbs = [0usize; 10];
        let mut len = 0;
        let mut rest = self.index;
        while rest >= 100 {
            limbs[len] = rest % 100;
            rest /= 100;
            len += 1;
        }
        let lead = if rest < 10 {
            &pair(rest)[1..]
        } else {
            pair(rest)
        };
        buf.push_str(self.prefix);
        buf.push_str(lead);
        for &limb in limbs[..len].iter().rev() {
            buf.push_str(pair(limb));
        }
        buf.push_str(self.suffix);
    }
}

/// A Lyon-like reference cluster: `n` nodes at the paper's reference power.
pub fn lyon_cluster(n: usize) -> Platform {
    homogeneous_cluster("lyon", n, MiddlewareCalibration::reference_node_power())
}

/// Background-load description for [`heterogenized_cluster`]: how many
/// background compute processes may run on a node.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundLoad {
    /// Maximum number of background processes per node (inclusive).
    pub max_processes: u32,
    /// Fraction of nodes left unloaded (kept at full power).
    pub unloaded_fraction: f64,
}

impl Default for BackgroundLoad {
    fn default() -> Self {
        // Matches the spread we observed the paper's methodology to produce:
        // effective powers from base/4 to base, with a quarter of the nodes
        // untouched.
        Self {
            max_processes: 3,
            unloaded_fraction: 0.25,
        }
    }
}

/// The paper's heterogenization methodology: start from a homogeneous
/// cluster, run `k_i ∈ [0, max]` background processes on each node (drawn
/// from a seeded RNG), and re-measure effective power `base / (1 + k_i)`
/// through the given probe.
///
/// # Panics
/// Panics if `n == 0` or `unloaded_fraction ∉ [0, 1]`.
pub fn heterogenized_cluster(
    name: &str,
    n: usize,
    base_power: MflopRate,
    load: BackgroundLoad,
    probe: CapacityProbe,
    seed: u64,
) -> Platform {
    assert!(n > 0, "cluster must have at least one node");
    assert!(
        (0.0..=1.0).contains(&load.unloaded_fraction),
        "unloaded_fraction must be in [0,1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let proc_dist = Uniform::new_inclusive(1, load.max_processes.max(1));
    let coin = Uniform::new(0.0f64, 1.0);

    let mut b = Platform::builder(Network::homogeneous(
        MiddlewareCalibration::reference_bandwidth(),
    ));
    let site = b.add_site(name);
    let prefix = format!("{name}-");
    b.add_nodes((0..n).map(|i| {
        let background = if coin.sample(&mut rng) < load.unloaded_fraction {
            0
        } else {
            proc_dist.sample(&mut rng)
        };
        let true_power = MflopRate(base_power.value() / (1.0 + background as f64));
        (
            host_name(&prefix, i, ""),
            probe.measure(true_power, i),
            site,
        )
    }))
    .expect("generated names are unique");
    b.build().expect("n > 0")
}

/// A cluster whose node powers are drawn uniformly from `[min, max]`.
///
/// # Panics
/// Panics if `n == 0`, or `min <= 0`, or `min > max`.
pub fn uniform_random_cluster(
    name: &str,
    n: usize,
    min: MflopRate,
    max: MflopRate,
    seed: u64,
) -> Platform {
    assert!(n > 0, "cluster must have at least one node");
    assert!(
        min.value() > 0.0 && min.value() <= max.value(),
        "need 0 < min <= max"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new_inclusive(min.value(), max.value());
    let mut b = Platform::builder(Network::homogeneous(
        MiddlewareCalibration::reference_bandwidth(),
    ));
    let site = b.add_site(name);
    let prefix = format!("{name}-");
    b.add_nodes((0..n).map(|i| {
        (
            host_name(&prefix, i, ""),
            MflopRate(dist.sample(&mut rng)),
            site,
        )
    }))
    .expect("generated names are unique");
    b.build().expect("n > 0")
}

/// A multi-site grid in the Grid'5000 mold: `sites` clusters of
/// `nodes_per_site` heterogenized nodes each (the paper's background-load
/// methodology, seeded per node), wired as a [`Network::PerSitePair`] —
/// `intra` inside every site, `inter` between sites. This is the
/// substrate of the heterogeneous-communication extension: the planner's
/// min-bandwidth scalarization sees only `min(intra, inter)` while the
/// site-aware engine prices every link.
///
/// # Panics
/// Panics if `sites == 0` or `nodes_per_site == 0`.
pub fn multi_site_grid(
    sites: usize,
    nodes_per_site: usize,
    base_power: MflopRate,
    intra: MbitRate,
    inter: MbitRate,
    seed: u64,
) -> Platform {
    assert!(sites > 0, "grid must have at least one site");
    assert!(nodes_per_site > 0, "sites must have at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let proc_dist = Uniform::new_inclusive(1u32, 3);
    let coin = Uniform::new(0.0f64, 1.0);
    let mut b = Platform::builder(Network::PerSitePair {
        intra: vec![intra; sites],
        inter,
        latency: crate::units::Seconds::ZERO,
    });
    // Every site first, then every node as one batch, so the builder
    // sizes its key set once for the whole grid.
    let site_ids: Vec<(SiteId, String)> = (0..sites)
        .map(|s| (b.add_site(format!("site-{s}")), format!("site-{s}-n")))
        .collect();
    let site_ids = &site_ids;
    b.add_nodes((0..sites * nodes_per_site).map(|k| {
        let (site, prefix) = &site_ids[k / nodes_per_site];
        let background = if coin.sample(&mut rng) < 0.25 {
            0
        } else {
            proc_dist.sample(&mut rng)
        };
        let power = MflopRate(base_power.value() / (1.0 + background as f64));
        (host_name(prefix, k % nodes_per_site, ""), power, *site)
    }))
    .expect("generated names are unique");
    b.build().expect("sites * nodes_per_site > 0")
}

/// The Section 5.3 setup: `middleware_nodes` heterogenized Orsay nodes plus
/// `client_nodes` Lyon nodes on a second site. The planner should only be
/// offered the Orsay site (`platform.nodes_on_site(orsay)`); the Lyon nodes
/// model the client launchers.
///
/// Returns `(platform, orsay_site, lyon_site)`.
pub fn grid5000(
    middleware_nodes: usize,
    client_nodes: usize,
    seed: u64,
) -> (Platform, SiteId, SiteId) {
    assert!(middleware_nodes > 0, "need at least one middleware node");
    let base = MiddlewareCalibration::reference_node_power();
    let mut rng = StdRng::seed_from_u64(seed);
    let proc_dist = Uniform::new_inclusive(1u32, 3);
    let coin = Uniform::new(0.0f64, 1.0);
    let probe = CapacityProbe::with_noise(0.02, seed ^ 0xA5A5);

    let mut b = Platform::builder(Network::homogeneous(
        MiddlewareCalibration::reference_bandwidth(),
    ));
    let orsay = b.add_site("orsay");
    let lyon = b.add_site("lyon");
    let middleware = (0..middleware_nodes).map(|i| {
        let background = if coin.sample(&mut rng) < 0.25 {
            0
        } else {
            proc_dist.sample(&mut rng)
        };
        let true_power = MflopRate(base.value() / (1.0 + background as f64));
        (
            host_name("gdx-", i, ""),
            probe.measure(true_power, i),
            orsay,
        )
    });
    let clients = (0..client_nodes).map(|i| (host_name("sagittaire-", i, ""), base, lyon));
    b.add_nodes(middleware.chain(clients)).expect("unique");
    (b.build().expect("non-empty"), orsay, lyon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_names_read_like_format() {
        let mut indices: Vec<usize> = (0..2_000).collect();
        for digits in 1..=19 {
            let p = 10usize.pow(digits);
            indices.extend([p - 1, p, p + 1, p + p / 3]);
        }
        indices.push(usize::MAX);
        let minted = |prefix, i, suffix| {
            // Written after other text, as a batch writes each name.
            let mut buf = String::from("before|");
            host_name(prefix, i, suffix).write_to(&mut buf);
            buf.split_off("before|".len())
        };
        for i in indices {
            assert_eq!(minted("site-3-n", i, ""), format!("site-3-n{i}"));
            assert_eq!(minted("gdx-", i, ".orsay"), format!("gdx-{i}.orsay"));
            assert_eq!(minted("", i, ""), i.to_string());
        }
    }

    #[test]
    fn homogeneous_cluster_is_homogeneous() {
        let p = lyon_cluster(8);
        assert_eq!(p.node_count(), 8);
        assert!(p.is_homogeneous_compute());
        assert_eq!(p.powers()[0], MflopRate(400.0));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        let _ = lyon_cluster(0);
    }

    #[test]
    fn heterogenized_cluster_spreads_powers() {
        let p = heterogenized_cluster(
            "orsay",
            100,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            7,
        );
        assert_eq!(p.node_count(), 100);
        assert!(!p.is_homogeneous_compute());
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for w in p.powers().iter().map(|w| w.value()) {
            lo = lo.min(w);
            hi = hi.max(w);
            // base/(1+k), k in 0..=3 → power in {100, 133.3, 200, 400}.
            assert!((100.0 - 1e-9..=400.0 + 1e-9).contains(&w));
        }
        assert!(hi > lo, "must actually be heterogeneous");
        assert!((hi - 400.0).abs() < 1e-9, "some nodes stay unloaded");
    }

    #[test]
    fn heterogenized_cluster_is_deterministic_in_seed() {
        let mk = |seed| {
            heterogenized_cluster(
                "x",
                32,
                MflopRate(400.0),
                BackgroundLoad::default(),
                CapacityProbe::exact(),
                seed,
            )
        };
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
    }

    #[test]
    fn uniform_random_cluster_respects_bounds() {
        let p = uniform_random_cluster("u", 50, MflopRate(10.0), MflopRate(20.0), 1);
        for w in p.powers() {
            assert!(w.value() >= 10.0 && w.value() <= 20.0);
        }
    }

    #[test]
    #[should_panic(expected = "0 < min <= max")]
    fn uniform_random_cluster_bad_bounds() {
        let _ = uniform_random_cluster("u", 5, MflopRate(20.0), MflopRate(10.0), 1);
    }

    #[test]
    fn multi_site_grid_shape_and_network() {
        let p = multi_site_grid(4, 25, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 3);
        assert_eq!(p.node_count(), 100);
        assert_eq!(p.site_count(), 4);
        for s in 0..4 {
            assert_eq!(p.nodes_on_site(SiteId(s)).len(), 25);
        }
        assert!(!p.network().is_homogeneous());
        assert_eq!(
            p.network().bandwidth_between(SiteId(0), SiteId(0)),
            MbitRate(100.0)
        );
        assert_eq!(
            p.network().bandwidth_between(SiteId(0), SiteId(3)),
            MbitRate(10.0)
        );
        assert_eq!(p.bandwidth(), MbitRate(10.0), "scalarization is the min");
        // Deterministic in the seed, heterogeneous in powers.
        assert_eq!(
            p,
            multi_site_grid(4, 25, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 3)
        );
        assert!(!p.is_homogeneous_compute());
        // Node sites line up with the id layout.
        assert_eq!(p.site_of(crate::resource::NodeId(0)), SiteId(0));
        assert_eq!(p.site_of(crate::resource::NodeId(99)), SiteId(3));
    }

    #[test]
    fn grid5000_has_two_sites() {
        let (p, orsay, lyon) = grid5000(200, 30, 11);
        assert_eq!(p.node_count(), 230);
        assert_eq!(p.nodes_on_site(orsay).len(), 200);
        assert_eq!(p.nodes_on_site(lyon).len(), 30);
        // Lyon client nodes are uniform; Orsay nodes heterogenized.
        let lyon_nodes = p.nodes_on_site(lyon);
        let first = p.power(lyon_nodes[0]);
        assert!(lyon_nodes.iter().all(|&id| p.power(id) == first));
    }
}
