//! Exhaustive model checks (via the vendored `interleave` checker) of
//! the two lock-free kernels the parallel sweeps rely on:
//!
//! 1. the shared-incumbent protocol — `f64` objectives mapped through
//!    the order-preserving `ordered_bits` into a single `AtomicU64`
//!    advanced with `fetch_max` (`sweep_mix.rs`), and
//! 2. the `fetch_add` work-queue claim counter handing indices to
//!    workers (`par.rs`, `par_claim`: the one claim loop every threaded
//!    loop of the planners and the bench harness runs through).
//!
//! Each positive test explores *every* interleaving (and every weak-
//! memory-legal load result) of a small instance of the kernel; a
//! companion negative test replaces the RMW with the tempting broken
//! variant and asserts the checker refutes it, so we know the harness
//! has the power to see the bug class the kernel avoids.
//!
//! Models are deliberately tiny (2 threads, 2-3 operations each):
//! state-space growth is factorial and the checker runs real OS
//! threads under a token scheduler, so small models keep the suite
//! fast while still covering every ordering of the primitive pair
//! whose correctness is in question.

use interleave::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use interleave::{model, thread};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Runs `f` under the checker expecting it to FAIL; returns the panic
/// message of the refuting schedule.
fn expect_caught(f: impl Fn() + Send + Sync + 'static) -> String {
    match catch_unwind(AssertUnwindSafe(|| model(f))) {
        Ok(report) => panic!(
            "expected the model check to catch a bug, but {} schedules all passed",
            report.schedules
        ),
        Err(payload) => {
            if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                String::from("(non-string panic)")
            }
        }
    }
}

/// Mirror of `sweep_mix::ordered_bits`: order-preserving `f64 → u64`
/// (sign-magnitude to biased), so integer `max` is float `max`.
fn ordered_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn from_ordered_bits(b: u64) -> f64 {
    f64::from_bits(if b >> 63 == 1 { b & !(1 << 63) } else { !b })
}

/// The incumbent kernel as written: each worker publishes its local
/// best with `fetch_max(ordered_bits(obj), Relaxed)`. Across every
/// interleaving the final incumbent is the true maximum — no update is
/// ever lost, even at `Relaxed`, because `fetch_max` is a read-modify-
/// write and C11 RMWs always operate on the latest value in
/// modification order.
#[test]
fn incumbent_fetch_max_never_loses_an_update() {
    // Negative objectives: makespans are minimized as -cost upstream,
    // so the sign-handling branch of ordered_bits is the one that
    // matters.
    let objs = [-3.5_f64, -1.25, -2.0];
    let report = model(move || {
        let shared = Arc::new(AtomicU64::new(ordered_bits(objs[0])));
        let handles: Vec<_> = objs[1..]
            .iter()
            .map(|&obj| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    shared.fetch_max(ordered_bits(obj), Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let winner = from_ordered_bits(shared.load(Ordering::Relaxed));
        assert_eq!(winner, -1.25, "incumbent must end at the true max");
    });
    assert!(report.schedules > 1, "expected multiple interleavings");
}

/// Workers also *read* the incumbent to tighten their pruning bound
/// (`shared.load(Relaxed)` before `scan_k_mix`). The bound only prunes
/// candidates `<=` the observed incumbent, so correctness needs the
/// observed value to be *some* published objective (never garbage,
/// never above the true max) — staleness is safe, over-reporting is
/// not. The model lets one worker race its load against the other's
/// fetch_max and asserts every readable value is a real published one.
#[test]
fn incumbent_reads_are_always_published_objectives() {
    model(|| {
        let shared = Arc::new(AtomicU64::new(ordered_bits(-10.0)));
        let publisher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                shared.fetch_max(ordered_bits(-4.0), Ordering::Relaxed);
                shared.fetch_max(ordered_bits(-2.0), Ordering::Relaxed);
            })
        };
        let observed = from_ordered_bits(shared.load(Ordering::Relaxed));
        assert!(
            observed == -10.0 || observed == -4.0 || observed == -2.0,
            "read a value nobody published: {observed}"
        );
        publisher.join();
        // After the join (happens-before), staleness is gone.
        let settled = from_ordered_bits(shared.load(Ordering::Relaxed));
        assert_eq!(settled, -2.0);
    });
}

/// The tempting broken incumbent: `load` + compare + `store` instead
/// of `fetch_max`. Two workers interleave between the load and the
/// store and one update is lost. The checker must find that schedule —
/// this is the certificate that the positive test above is meaningful.
#[test]
fn load_then_store_incumbent_is_refuted() {
    let msg = expect_caught(|| {
        let shared = Arc::new(AtomicU64::new(ordered_bits(-10.0)));
        let handles: Vec<_> = [-4.0_f64, -2.0]
            .iter()
            .map(|&obj| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let cur = shared.load(Ordering::Relaxed);
                    let cand = ordered_bits(obj);
                    if cand > cur {
                        shared.store(cand, Ordering::Relaxed); // lost-update window
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let winner = from_ordered_bits(shared.load(Ordering::Relaxed));
        assert_eq!(winner, -2.0);
    });
    assert!(msg.contains("-2"), "unexpected refutation message: {msg}");
}

/// The work-queue claim counter as written: every worker loops on
/// `next.fetch_add(1, Relaxed)` until the index runs off the end of
/// the queue. Across every interleaving each queue slot is claimed by
/// exactly one worker and no slot is skipped.
#[test]
fn fetch_add_claims_every_index_exactly_once() {
    const QUEUE: usize = 3;
    model(|| {
        let next = Arc::new(AtomicUsize::new(0));
        // One claim counter per slot; each must end at exactly 1.
        let claims: Arc<Vec<AtomicUsize>> =
            Arc::new((0..QUEUE).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let next = Arc::clone(&next);
                let claims = Arc::clone(&claims);
                thread::spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= QUEUE {
                        break;
                    }
                    claims[i].fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "slot {i} claimed a wrong number of times"
            );
        }
    });
}

/// The broken claim counter: `load` then `store(i + 1)`. Two workers
/// read the same index and double-claim a slot. Refuted by the
/// checker, certifying the positive claim test.
#[test]
fn load_then_store_claim_counter_is_refuted() {
    const QUEUE: usize = 2;
    let msg = expect_caught(|| {
        let next = Arc::new(AtomicUsize::new(0));
        let claims: Arc<Vec<AtomicUsize>> =
            Arc::new((0..QUEUE).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let next = Arc::clone(&next);
                let claims = Arc::clone(&claims);
                thread::spawn(move || loop {
                    let i = next.load(Ordering::Relaxed);
                    if i >= QUEUE {
                        break;
                    }
                    next.store(i + 1, Ordering::Relaxed); // double-claim window
                    claims[i].fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        for c in claims.iter() {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    });
    assert!(
        msg.contains("left") || msg.contains("assert"),
        "unexpected refutation message: {msg}"
    );
}
