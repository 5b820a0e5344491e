//! SIMD-batched forms of the branch-free cycle arithmetic — the scale
//! layer under every planner hot path.
//!
//! # Layout and vectorization strategy
//!
//! The paper's per-slot kernels (Eq. 1–5, 13–14) are short chains of
//! mul/add/div on `(power, degree)` pairs. Called one slot at a time
//! through [`throughput::agent_cycle`](super::throughput::agent_cycle) /
//! [`server_prediction_cycle`](super::throughput::server_prediction_cycle)
//! they cost more in call and load scatter than in arithmetic; at
//! n = 10⁵–10⁶ slots that overhead dominates planner setup. The batched
//! forms here take **flat `f64` lanes** (the structure-of-arrays slices
//! the incremental engine and the planners already keep) and evaluate
//! the identical per-element operation sequence in a straight-line loop
//! the compiler unrolls and auto-vectorizes (4/8-wide on AVX targets).
//! Where the caller builds its own array in a pass over the catalog,
//! [`sch_pow_shared_degree`] gives the per-element function instead, its
//! loop-invariant terms hoisted once, so no lane is materialized.
//!
//! Two contracts every batched kernel upholds:
//!
//! * **Bit-exactness** — each element performs *exactly* the scalar
//!   reference's floating-point operations in the same order, so
//!   `batch(out)[i] == scalar(in[i])` to the last bit. The randomized
//!   parity suite (`model::batch::tests` and `tests/simd_parity.rs`)
//!   pins this; the scalar kernels stay as the checked reference.
//! * **Tie rules** — reductions keep the sequential scan's tie
//!   semantics: [`max_with_index`] returns the **first** strict
//!   maximum (lower index wins ties), matching both the sequential
//!   Eq. 14 scan and the tournament tree's `combine`.
//!
//! The chunked max scan processes [`LANES`] independent partial maxima
//! per stride so the loop carries no serial dependency; the final
//! cross-lane fold re-establishes the first-max rule (on equal lane
//! maxima the smallest original index wins — lane order alone is not
//! enough, since a tie across chunks can place the earlier index in a
//! later lane).

use super::ModelParams;

/// Lane width of the manually chunked reductions. 4 × f64 = one AVX2
/// register; on wider or narrower targets the compiler re-tiles the
/// inner loop, so this is a portability-neutral default.
pub const LANES: usize = 4;

/// Batched [`agent_cycle`](super::throughput::agent_cycle): full
/// per-request cycle of an agent of power `powers[i]` with `degrees[i]`
/// children, written to `out[i]`. Bit-exact with the scalar kernel.
///
/// # Panics
/// Panics when `powers` and `degrees` differ in length.
pub fn agent_cycles_into(
    params: &ModelParams,
    powers: &[f64],
    degrees: &[usize],
    out: &mut Vec<f64>,
) {
    assert_eq!(powers.len(), degrees.len(), "lane lengths must match");
    out.clear();
    out.reserve(powers.len());
    // Same operation sequence as `comm::agent_receive_time` +
    // `comm::agent_send_time` + `compute::agent_comp_time`, element-wise
    // over the lanes; the struct loads are hoisted out of the loop.
    let a = &params.calibration.agent;
    let (sreq, srep) = (a.sreq.value(), a.srep.value());
    let (wreq, wfix, wsel) = (a.wreq.value(), a.wfix.value(), a.wsel.value());
    let b = params.bandwidth.value();
    let lat = params.latency.value();
    out.extend(powers.iter().zip(degrees).map(|(&w, &deg)| {
        let d = deg as f64;
        let recv = (sreq + srep * d) / b + lat * (1.0 + d);
        let send = (sreq * d + srep) / b + lat * (1.0 + d);
        let comp = (wreq + (wfix + wsel * d)) / w;
        recv + send + comp
    }));
}

/// Batched [`server_prediction_cycle`](super::throughput::server_prediction_cycle):
/// the scheduling-phase cycle of a server on `powers[i]`, written to
/// `out[i]`. Bit-exact with the scalar kernel.
pub fn server_prediction_cycles_into(params: &ModelParams, powers: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.reserve(powers.len());
    let s = &params.calibration.server;
    let (sreq, srep, wpre) = (s.sreq.value(), s.srep.value(), s.wpre.value());
    let b = params.bandwidth.value();
    let lat = params.latency.value();
    out.extend(powers.iter().map(|&w| {
        let recv = sreq / b + lat;
        let send = srep / b + lat;
        recv + wpre / w + send
    }));
}

/// [`sch_pow`](super::throughput::sch_pow) at one **shared** degree, as a
/// per-node function — the planner-setup pattern (`ranked_nodes` keys
/// every node at `d = n − 1` in the pass that builds its ranking). The
/// degree-dependent terms are hoisted once; each call is one division
/// chain, `1 / agent_cycle(w, degree)`, bit-exact with the scalar kernel.
pub fn sch_pow_shared_degree(params: &ModelParams, degree: usize) -> impl Fn(f64) -> f64 {
    let a = &params.calibration.agent;
    let d = degree as f64;
    let b = params.bandwidth.value();
    let lat = params.latency.value();
    let recv = (a.sreq.value() + a.srep.value() * d) / b + lat * (1.0 + d);
    let send = (a.sreq.value() * d + a.srep.value()) / b + lat * (1.0 + d);
    let wnum = a.wreq.value() + (a.wfix.value() + a.wsel.value() * d);
    move |w| 1.0 / (recv + send + wnum / w)
}

/// Batched prediction **rates** `1 / server_prediction_cycle(powers[i])`
/// — the sweep's per-node Eq. 14 server bound, precomputed once per node
/// list and shared by every per-k scan.
pub fn prediction_rates_into(params: &ModelParams, powers: &[f64], out: &mut Vec<f64>) {
    server_prediction_cycles_into(params, powers, out);
    for v in out.iter_mut() {
        *v = 1.0 / *v;
    }
}

/// Chunked max scan with the sequential first-max tie rule: returns
/// `(value, index)` of the first strict maximum, `None` on an empty
/// slice. [`LANES`] independent partial maxima per stride keep the loop
/// free of a serial dependency; the cross-lane fold walks lanes in
/// ascending order with strictly-greater comparisons, which restores
/// "lowest index wins ties" exactly.
pub fn max_with_index(values: &[f64]) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut best = [f64::NEG_INFINITY; LANES];
    let mut at = [usize::MAX; LANES];
    let chunks = values.chunks_exact(LANES);
    let tail = chunks.remainder();
    let mut base = 0usize;
    for chunk in chunks {
        for l in 0..LANES {
            // `>` keeps the earliest occurrence within each lane.
            if chunk[l] > best[l] {
                best[l] = chunk[l];
                at[l] = base + l;
            }
        }
        base += LANES;
    }
    let mut max = f64::NEG_INFINITY;
    let mut idx = usize::MAX;
    for l in 0..LANES {
        // On equal values the smallest *index* must win, not the
        // smallest lane: a tie across different chunks can put the
        // earlier index in a later lane (e.g. indices 33 and 36 sit in
        // lanes 1 and 0), so lane order alone would pick the wrong slot.
        if at[l] != usize::MAX && (best[l] > max || (best[l] == max && at[l] < idx)) {
            max = best[l];
            idx = at[l];
        }
    }
    for (off, &v) in tail.iter().enumerate() {
        if v > max {
            max = v;
            idx = base + off;
        }
    }
    if idx == usize::MAX {
        // All-NEG_INFINITY input: match the sequential scan, which
        // would keep the first element.
        return Some((f64::NEG_INFINITY, 0));
    }
    Some((max, idx))
}

/// Monotone map from a **positive, finite** `f64` to a `u64` that sorts
/// in the same order — the planner sort-key trick: pair keys map to
/// integers once, then `sort_unstable` runs branch-light integer
/// comparisons instead of calling `partial_cmp` per probe. Sorting by
/// `Reverse(descending_key(x))` is a descending sort by `x`.
#[inline]
pub fn descending_key(x: f64) -> u64 {
    debug_assert!(x >= 0.0 && x.is_finite(), "keys are positive rates");
    // Positive IEEE-754 doubles compare like their bit patterns.
    x.to_bits()
}

/// Sorts `(rate, id)` pairs by descending rate, ties to ascending id —
/// the planners' shared node-ordering rule — via the integer-key map.
/// Equal rates (and only equal rates) fall back to the id, so the order
/// equals the comparator-based stable sort's.
pub fn sort_rate_desc_id_asc<T: Ord + Copy>(keyed: &mut [(f64, T)]) {
    keyed.sort_unstable_by_key(|&(rate, id)| (std::cmp::Reverse(descending_key(rate)), id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::throughput::{agent_cycle, sch_pow, server_prediction_cycle};
    use adept_platform::{MbitRate, MflopRate, Seconds};

    /// Deterministic pseudo-random power in the planner's usual range.
    fn powers(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                100.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 300.0
            })
            .collect()
    }

    fn params() -> ModelParams {
        ModelParams::new(MbitRate(100.0))
    }

    #[test]
    fn agent_cycles_bit_exact_vs_scalar() {
        let p = params().with_latency(Seconds(1e-4));
        let w = powers(1000, 7);
        let degrees: Vec<usize> = (0..1000).map(|i| i % 17).collect();
        let mut out = Vec::new();
        agent_cycles_into(&p, &w, &degrees, &mut out);
        for i in 0..w.len() {
            let reference = agent_cycle(&p, MflopRate(w[i]), degrees[i]).value();
            assert_eq!(
                out[i].to_bits(),
                reference.to_bits(),
                "lane {i}: batch {} vs scalar {}",
                out[i],
                reference
            );
        }
    }

    #[test]
    fn server_cycles_bit_exact_vs_scalar() {
        let p = params().with_latency(Seconds(2e-4));
        let w = powers(1000, 21);
        let mut out = Vec::new();
        server_prediction_cycles_into(&p, &w, &mut out);
        for i in 0..w.len() {
            let reference = server_prediction_cycle(&p, MflopRate(w[i])).value();
            assert_eq!(out[i].to_bits(), reference.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn shared_degree_sch_pow_bit_exact_vs_scalar() {
        let w = powers(777, 3);
        for p in [params(), params().with_latency(Seconds(3e-4))] {
            for degree in [0usize, 1, 9, 99_999] {
                let at = sch_pow_shared_degree(&p, degree);
                for (i, &wi) in w.iter().enumerate() {
                    let reference = sch_pow(&p, MflopRate(wi), degree);
                    assert_eq!(at(wi).to_bits(), reference.to_bits(), "d={degree} node {i}");
                }
            }
        }
    }

    #[test]
    fn prediction_rates_invert_cycles() {
        let p = params();
        let w = powers(64, 5);
        let (mut rates, mut cycles) = (Vec::new(), Vec::new());
        prediction_rates_into(&p, &w, &mut rates);
        server_prediction_cycles_into(&p, &w, &mut cycles);
        for i in 0..w.len() {
            assert_eq!(rates[i].to_bits(), (1.0 / cycles[i]).to_bits());
        }
    }

    #[test]
    fn max_with_index_matches_sequential_scan() {
        for n in [0usize, 1, 3, 4, 5, 8, 13, 64, 1000] {
            let v = powers(n, n as u64 + 11);
            let batch = max_with_index(&v);
            let mut seq: Option<(f64, usize)> = None;
            for (i, &x) in v.iter().enumerate() {
                if seq.is_none_or(|(m, _)| x > m) {
                    seq = Some((x, i));
                }
            }
            assert_eq!(batch, seq, "n={n}");
        }
    }

    #[test]
    fn max_with_index_ties_to_first() {
        let v = [1.0, 3.0, 3.0, 2.0, 3.0];
        assert_eq!(max_with_index(&v), Some((3.0, 1)));
        // A tie across chunks where the earlier index sits in a later
        // lane (5 is lane 1, 8 is lane 0): index order must win.
        let v = [0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 3.0, 0.0];
        assert_eq!(max_with_index(&v), Some((3.0, 5)));
        let all_equal = [2.5; 9];
        assert_eq!(max_with_index(&all_equal), Some((2.5, 0)));
        assert_eq!(
            max_with_index(&[f64::NEG_INFINITY; 5]),
            Some((f64::NEG_INFINITY, 0))
        );
    }

    #[test]
    fn sort_matches_comparator_reference() {
        let w = powers(500, 13);
        let mut keyed: Vec<(f64, u32)> = w
            .iter()
            .enumerate()
            // Duplicate every 5th rate to exercise the id tiebreak.
            .map(|(i, &x)| (if i % 5 == 0 { 250.0 } else { x }, i as u32))
            .collect();
        let mut reference = keyed.clone();
        reference.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("rates are finite")
                .then(a.1.cmp(&b.1))
        });
        sort_rate_desc_id_asc(&mut keyed);
        assert_eq!(keyed, reference);
    }
}
