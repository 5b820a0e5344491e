//! The one parallel loop of the planners: [`par_claim`].
//!
//! Every threaded loop in the workspace (the sweep's per-`k` scans, the
//! per-site refinement of the multi-site sweeps, the mix sweep's grid
//! walk, the bench harness's load curves) is an index loop whose
//! iterations are independent and whose results must fold in index
//! order. They all run through this helper, so the claim counter below
//! is the only work-queue kernel in the tree and
//! `crates/core/tests/interleave_kernels.rs` model-checks it once.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job(i)` for every `i` in `0..n` and returns the results indexed
/// by claim index: element `i` is `job(i)`.
///
/// With `workers ≤ 1` or `n ≤ 1` the jobs run in order on the caller's
/// thread. Otherwise `min(workers, n)` workers claim indices from a
/// shared counter — dynamic load balance, since jobs may differ widely
/// in cost — and the results are put back in index order, so a caller
/// folding them sees the same sequence whatever the schedule was. A
/// panic in `job` is re-raised on the caller's thread with its own
/// payload.
///
/// The caller's thread is one of the workers; only the others are
/// spawned, as scoped threads. So the first claim runs at once on a
/// thread that is already on a CPU, and a spawned thread that waits for
/// one (on a 2-vCPU host often 1.5–4 ms, a tenth of the per-site phase
/// of a 10⁶-node multi-site sweep) delays only the jobs it claims while
/// the caller claims the rest.
pub fn par_claim<R: Send>(workers: usize, n: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            // audit: allow(relaxed, "pure claim counter: the index is the
            // only datum and fetch_add is an RMW, so no ordering is needed;
            // exactly-once claiming is model-checked in
            // interleave_kernels.rs")
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return local;
            }
            local.push((i, job(i)));
        }
    };
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(claim)).collect();
        // A panic here unwinds out of the scope, which joins the helpers
        // first and then re-raises this payload.
        let mut tagged = claim();
        for helper in helpers {
            tagged.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        tagged
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        let job = |i: usize| i * i + 3;
        for workers in [0usize, 1, 2, 7] {
            for n in [0usize, 1, 5, 100] {
                let want: Vec<usize> = (0..n).map(job).collect();
                assert_eq!(par_claim(workers, n, job), want, "workers={workers} n={n}");
            }
        }
    }

    #[test]
    fn a_panicking_job_re_panics_in_the_caller_with_its_payload() {
        for workers in [1usize, 3] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_claim(workers, 6, |i| {
                    if i == 4 {
                        std::panic::panic_any(format!("job {i} failed"));
                    }
                    i
                })
            }));
            let payload = caught.expect_err("the job panicked");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("job 4 failed"),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn panics_on_the_caller_and_a_helper_re_raise_a_job_payload() {
        // Every job panics, so the caller's first claim panics and so
        // does each helper's; the payload that comes back must be a
        // job's, not the scope's generic "a scoped thread panicked".
        for workers in [2usize, 3] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_claim(workers, 8, |i| -> usize {
                    std::panic::panic_any(format!("job {i} failed"))
                })
            }));
            let payload = caught.expect_err("every job panicked");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert!(
                message.is_some_and(|m| m.starts_with("job ") && m.ends_with(" failed")),
                "workers={workers}: {message:?}"
            );
        }
    }
}
