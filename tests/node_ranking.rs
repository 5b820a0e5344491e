//! Property tests for the lazily sorted [`NodeRanking`]: every read
//! equals the same position of the full sort it replaces —
//! `Platform::sort_by_power_desc` for the strongest-first ranking,
//! `batch::sort_rate_desc_id_asc` for the heuristic's rate-keyed one —
//! whatever the order and depth of the reads.

use adept::core::model::batch;
use adept::platform::{MbitRate, MflopRate, Network, NodeId, NodeRanking, Platform};
use proptest::prelude::*;

/// Ranked-set sizes around the first sorted chunk (256 entries), then a
/// few thousand.
const SIZES: [usize; 5] = [0, 1, 255, 256, 257];

/// A small LCG: the property's own inputs derive from one seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The inputs of one case: a platform, the ids to rank (a shuffled subset
/// of its nodes, as a site's bucket is) and the reads to make.
#[derive(Debug)]
struct Case {
    platform: Platform,
    ids: Vec<NodeId>,
    reads: Vec<(u32, usize)>,
}

/// `size` picks the ranked-set size ([`SIZES`], or up to 3,000);
/// `powers` picks 1–4 distinct powers (the pipeline grid has 4) or
/// continuous ones.
fn case(size: usize, powers: usize, seed: u64, reads: Vec<(u32, usize)>) -> Case {
    let mut rng = Lcg(seed | 1);
    let m = SIZES.get(size).copied().unwrap_or_else(|| rng.below(3_000));
    let n = m + 1 + rng.below(50);
    let levels = [400.0, 250.0, 310.0, 175.0];
    let mut b = Platform::builder(Network::homogeneous(MbitRate(100.0)));
    let site = b.add_site("s");
    for i in 0..n {
        let power = if powers < 4 {
            levels[rng.below(powers + 1)]
        } else {
            50.0 + rng.next() as f64 / (1u64 << 53) as f64 * 750.0
        };
        b.add_node(format!("n{i}"), MflopRate(power), site).unwrap();
    }
    let platform = b.build().unwrap();
    let mut ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i + 1));
    }
    ids.truncate(m);
    Case {
        platform,
        ids,
        reads,
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        0usize..6,
        0usize..5,
        0u64..1 << 40,
        proptest::collection::vec((0u32..4, 0usize..4_000), 1..24),
    )
        .prop_map(|(size, powers, seed, reads)| case(size, powers, seed, reads))
}

/// Makes `reads` on `ranking` and checks each against `want`, then reads
/// the whole ranking. Read kinds: 0 reads at a cursor that moves forward
/// by `arg % 300` (0 repeats a read), 1 reads at `arg`, 2 reads the
/// prefix of length `arg`, 3 reads past the end.
fn check_reads(
    ranking: &mut NodeRanking,
    want: &[NodeId],
    reads: &[(u32, usize)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let n = want.len();
    prop_assert_eq!(ranking.len(), n);
    prop_assert_eq!(ranking.is_empty(), n == 0);
    let mut cursor = 0usize;
    for &(kind, arg) in reads {
        match kind {
            0 => {
                prop_assert_eq!(ranking.get(cursor), want.get(cursor).copied());
                cursor += arg % 300;
            }
            1 => prop_assert_eq!(ranking.get(arg), want.get(arg).copied()),
            2 => prop_assert_eq!(ranking.prefix(arg), &want[..arg.min(n)]),
            _ => {
                prop_assert_eq!(ranking.get(n + arg), None);
                prop_assert_eq!(ranking.prefix(n + 1 + arg), want);
            }
        }
    }
    prop_assert_eq!(ranking.iter().collect::<Vec<_>>(), want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn power_ranking_reads_match_sort_by_power_desc(c in arb_case()) {
        let mut want = c.ids.clone();
        c.platform.sort_by_power_desc(&mut want);
        let mut ranking = c.platform.rank_by_power(c.ids.iter().copied());
        check_reads(&mut ranking, &want, &c.reads)?;
    }

    #[test]
    fn rate_ranking_reads_match_sort_rate_desc_id_asc(c in arb_case()) {
        // A rate that many powers share: the scheduling power of a fixed
        // degree would also tie equal powers.
        let rate = |id: NodeId| 1.0 / (1.0 + 100.0 / c.platform.power(id).value());
        let mut keyed: Vec<(f64, NodeId)> = c.ids.iter().map(|&id| (rate(id), id)).collect();
        batch::sort_rate_desc_id_asc(&mut keyed);
        let want: Vec<NodeId> = keyed.into_iter().map(|(_, id)| id).collect();
        let mut ranking = NodeRanking::new(
            c.ids.iter().map(|&id| (batch::descending_key(rate(id)), id)).collect(),
        );
        check_reads(&mut ranking, &want, &c.reads)?;
    }
}
