//! Load curves: sustained throughput vs. number of clients, the x/y axes
//! of the paper's Figures 2, 4, 6 and 7.
//!
//! Client counts are independent simulation runs, so they are distributed
//! over worker threads with [`adept_core::par_claim`].

// audit: allow-file(unwrap, "bench harness: fail fast on impossible states; output
// feeds tables, not servers")
use adept_hierarchy::DeploymentPlan;
use adept_nes_sim::{measure_throughput, SimConfig};
use adept_platform::Platform;
use adept_workload::ServiceSpec;

/// One point of a load curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Sustained throughput (req/s).
    pub throughput: f64,
    /// Mean response time (s).
    pub mean_response_time: f64,
}

/// Measures the plan at every client count, in parallel. Points come back
/// sorted by client count.
pub fn load_curve(
    platform: &Platform,
    plan: &DeploymentPlan,
    service: &ServiceSpec,
    client_counts: &[usize],
    config: &SimConfig,
) -> Vec<CurvePoint> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut points = adept_core::par_claim(workers, client_counts.len(), |i| {
        let clients = client_counts[i];
        // Distinct seeds per load level keep runs independent.
        let cfg = config.with_seed(config.seed.wrapping_add(clients as u64));
        let out = measure_throughput(platform, plan, service, clients, &cfg);
        CurvePoint {
            clients,
            throughput: out.throughput,
            mean_response_time: out.mean_response_time,
        }
    });
    points.sort_by_key(|p| p.clients);
    points
}

/// A standard geometric-ish client schedule from 1 to `max`, with `steps`
/// points (always includes 1 and `max`).
pub fn client_schedule(max: usize, steps: usize) -> Vec<usize> {
    assert!(max >= 1 && steps >= 2, "need a non-trivial schedule");
    let mut out = vec![1];
    let ratio = (max as f64).powf(1.0 / (steps - 1) as f64);
    let mut x = 1.0;
    for _ in 1..steps {
        x *= ratio;
        let c = (x.round() as usize).clamp(1, max);
        if *out.last().expect("non-empty") != c {
            out.push(c);
        }
    }
    if *out.last().expect("non-empty") != max {
        out.push(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_hierarchy::builder::star;
    use adept_platform::generator::lyon_cluster;
    use adept_platform::{NodeId, Seconds};
    use adept_workload::Dgemm;

    #[test]
    fn schedule_is_increasing_and_bounded() {
        let s = client_schedule(200, 8);
        assert_eq!(*s.first().unwrap(), 1);
        assert_eq!(*s.last().unwrap(), 200);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn schedule_handles_small_max() {
        let s = client_schedule(2, 5);
        assert_eq!(s, vec![1, 2]);
    }

    #[test]
    fn parallel_curve_matches_sequential_runs() {
        let platform = lyon_cluster(3);
        let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
        let plan = star(&ids);
        let svc = Dgemm::new(310).service();
        let cfg = SimConfig::ideal().with_windows(Seconds(1.0), Seconds(4.0));
        let counts = [1usize, 4, 8];
        let curve = load_curve(&platform, &plan, &svc, &counts, &cfg);
        assert_eq!(curve.len(), 3);
        for (point, &clients) in curve.iter().zip(&counts) {
            let cfg_i = cfg.with_seed(cfg.seed.wrapping_add(clients as u64));
            let solo = measure_throughput(&platform, &plan, &svc, clients, &cfg_i);
            assert_eq!(point.clients, clients);
            assert!((point.throughput - solo.throughput).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "non-trivial schedule")]
    fn schedule_needs_steps() {
        let _ = client_schedule(10, 1);
    }
}
