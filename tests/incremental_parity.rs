//! Property test: the incremental evaluation engine must match the full
//! Section-3 evaluator at every step of randomized mutation sequences.
//!
//! A [`DeploymentPlan`] and an [`IncrementalEval`] are mutated in lock
//! step by random attach / promote / move-child / undo operations on
//! heterogeneous platforms (the paper's background-load heterogenization),
//! and after **every** step the engine's `ρ`, `ρ_sched`, `ρ_service`, and
//! reported bottleneck *kind* are checked against a from-scratch
//! `ModelParams::evaluate` of the plan, to 1e-9 relative. Over a thousand
//! mutation steps are exercised across seeds and platform sizes.
//!
//! The **multi-service** half does the same for the batched evaluator: a
//! plan plus a server→service assignment is mutated by random
//! service-targeted attaches, promotions, moves, and undos, and after
//! every step each service's Eq. 15 rate, the shared `ρ_sched`, the mix
//! `ρ`, and the binding service are checked against a from-scratch
//! per-service evaluation (`evaluate_mix_full`), to 1e-9 relative —
//! including bit-exact unwinds of deep probe chains.

use adept::core::model::hetero::evaluate_hetero;
use adept::core::model::mix::{evaluate_mix_full, ServerAssignment};
use adept::platform::SiteId;
use adept::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One reversible mutation, as recorded for undo mirroring.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Attached `node` as a server (it became the last slot).
    Attach { slot: Slot },
    /// Promoted the server at `slot` to an agent.
    Promote { slot: Slot },
    /// Moved `child` from `old_parent` to a new parent.
    Move { child: Slot, old_parent: Slot },
    /// Reinstalled the server at `slot` for another service (mix
    /// harness only).
    Reassign { slot: Slot, old_service: usize },
}

struct Harness<'a> {
    platform: &'a Platform,
    service: &'a ServiceSpec,
    params: ModelParams,
    plan: DeploymentPlan,
    eval: IncrementalEval,
    log: Vec<Op>,
    steps_checked: usize,
}

impl<'a> Harness<'a> {
    fn new(platform: &'a Platform, service: &'a ServiceSpec) -> Self {
        Self::with_params(platform, service, ModelParams::from_platform(platform))
    }

    fn with_params(platform: &'a Platform, service: &'a ServiceSpec, params: ModelParams) -> Self {
        let ids = platform.ids_by_power_desc();
        let plan = DeploymentPlan::agent_server(ids[0], ids[1]);
        let eval = IncrementalEval::from_plan(&params, platform, &plan, service);
        Self {
            platform,
            service,
            params,
            plan,
            eval,
            log: Vec::new(),
            steps_checked: 0,
        }
    }

    fn check(&mut self, context: &str) {
        // On a multi-site platform the reference is the from-scratch
        // per-link evaluator (what `params.evaluate` dispatches to);
        // calling it directly keeps the contract explicit.
        let full = if self.params.uses_link_bandwidths(self.platform) {
            evaluate_hetero(&self.params, self.platform, &self.plan, self.service)
        } else {
            self.params
                .evaluate(self.platform, &self.plan, self.service)
        };
        let fast = self.eval.report();
        let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        assert!(
            rel(fast.rho, full.rho),
            "{context}: rho {} vs full {}\n{}",
            fast.rho,
            full.rho,
            self.plan.render()
        );
        assert!(
            rel(fast.rho_sched, full.rho_sched),
            "{context}: rho_sched {} vs {}",
            fast.rho_sched,
            full.rho_sched
        );
        assert!(
            rel(fast.rho_service, full.rho_service),
            "{context}: rho_service {} vs {}",
            fast.rho_service,
            full.rho_service
        );
        assert_eq!(
            std::mem::discriminant(&fast.bottleneck),
            std::mem::discriminant(&full.bottleneck),
            "{context}: bottleneck {:?} vs {:?}",
            fast.bottleneck,
            full.bottleneck
        );
        self.steps_checked += 1;
    }

    fn try_attach(&mut self, rng: &mut StdRng) -> bool {
        let unused: Vec<NodeId> = self
            .platform
            .ids()
            .filter(|&id| !self.plan.uses_node(id))
            .collect();
        if unused.is_empty() {
            return false;
        }
        let node = unused[rng.gen_range(0..unused.len())];
        let agents: Vec<Slot> = self.plan.agents().collect();
        let parent = agents[rng.gen_range(0..agents.len())];
        let s1 = self.plan.add_server(parent, node).expect("node unused");
        let s2 = self
            .eval
            .add_server(parent, node, self.platform.power(node))
            .expect("node unused");
        assert_eq!(s1, s2, "slot alignment");
        self.log.push(Op::Attach { slot: s1 });
        true
    }

    fn try_promote(&mut self, rng: &mut StdRng) -> bool {
        let servers: Vec<Slot> = self.plan.servers().collect();
        if servers.is_empty() {
            return false;
        }
        let slot = servers[rng.gen_range(0..servers.len())];
        self.plan.convert_to_agent(slot).expect("is a server");
        self.eval.promote_to_agent(slot).expect("is a server");
        self.log.push(Op::Promote { slot });
        true
    }

    fn try_move(&mut self, rng: &mut StdRng) -> bool {
        if self.plan.len() < 3 {
            return false;
        }
        let child = Slot(rng.gen_range(1..self.plan.len()));
        let agents: Vec<Slot> = self.plan.agents().collect();
        let target = agents[rng.gen_range(0..agents.len())];
        let old_parent = self.plan.parent(child).expect("non-root");
        // Plan and engine must agree on rejection too.
        let plan_result = self.plan.move_child(child, target);
        let eval_result = self.eval.move_child(child, target);
        assert_eq!(
            plan_result.is_ok(),
            eval_result.is_ok(),
            "move {child} -> {target}: plan {plan_result:?} vs eval {eval_result:?}"
        );
        match eval_result {
            Ok(true) => {
                self.log.push(Op::Move { child, old_parent });
                true
            }
            // Rejected, or the same-parent no-op (nothing recorded on
            // the engine's undo stack — `move_child` returns false).
            Ok(false) | Err(_) => false,
        }
    }

    fn undo(&mut self) -> bool {
        let Some(op) = self.log.pop() else {
            return false;
        };
        assert!(self.eval.undo(), "engine undo stack in sync with the log");
        match op {
            Op::Attach { slot } => {
                self.plan
                    .remove_last(slot)
                    .expect("undo retracts the last slot");
            }
            Op::Promote { slot } => {
                self.plan
                    .convert_to_server(slot)
                    .expect("promotion is reverted before children attach");
            }
            Op::Move { child, old_parent } => {
                self.plan
                    .move_child(child, old_parent)
                    .expect("reverse move is always legal");
            }
            Op::Reassign { .. } => unreachable!("single-service harness never reassigns"),
        }
        true
    }

    /// Undoing a promote requires the promoted agent to be childless, and
    /// undoing an attach requires the slot to still be last — so undos are
    /// only drawn while the log's tail is safely reversible. The harness
    /// keeps it simple: undo is only offered directly after a reversible
    /// op, or in a full unwind at the end.
    fn run(&mut self, rng: &mut StdRng, steps: usize) {
        self.check("initial");
        for step in 0..steps {
            let acted = match rng.gen_range(0u32..10) {
                // Attach dominates: it grows the structure the other ops feed on.
                0..=4 => self.try_attach(rng),
                5..=6 => self.try_promote(rng),
                7..=8 => self.try_move(rng),
                _ => self.undo(),
            };
            if acted {
                self.check(&format!("step {step}"));
            }
        }
        // Full unwind back to the seed deployment, checking parity the
        // whole way down.
        while self.undo() {
            self.check("unwind");
        }
        assert_eq!(self.plan.len(), 2, "unwind returns to the seed pair");
    }
}

/// Multi-service mirror of [`Harness`]: plan + assignment + batched
/// evaluator mutated in lock step, checked per service after every step.
struct MixHarness<'a> {
    platform: &'a Platform,
    mix: &'a ServiceMix,
    params: ModelParams,
    plan: DeploymentPlan,
    assignment: ServerAssignment,
    eval: IncrementalEval,
    log: Vec<Op>,
    steps_checked: usize,
}

impl<'a> MixHarness<'a> {
    fn new(platform: &'a Platform, mix: &'a ServiceMix) -> Self {
        let params = ModelParams::from_platform(platform);
        let ids = platform.ids_by_power_desc();
        let mut plan = DeploymentPlan::with_root(ids[0]);
        let mut assignment = ServerAssignment::default();
        // One seed server per service so every partition starts non-empty.
        for j in 0..mix.len() {
            plan.add_server(plan.root(), ids[1 + j]).unwrap();
            assignment.service_of.insert(ids[1 + j], j);
        }
        let eval = IncrementalEval::from_plan_mix(&params, platform, &plan, mix, &assignment)
            .expect("seed assignment is complete");
        Self {
            platform,
            mix,
            params,
            plan,
            assignment,
            eval,
            log: Vec::new(),
            steps_checked: 0,
        }
    }

    fn check(&mut self, context: &str) {
        let full = evaluate_mix_full(
            &self.params,
            self.platform,
            &self.plan,
            self.mix,
            &self.assignment,
        );
        let fast = self.eval.mix_report();
        let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        assert!(
            rel(fast.rho, full.rho),
            "{context}: mix rho {} vs full {}\n{}",
            fast.rho,
            full.rho,
            self.plan.render()
        );
        assert!(
            rel(fast.rho_sched, full.rho_sched),
            "{context}: rho_sched {} vs {}",
            fast.rho_sched,
            full.rho_sched
        );
        for j in 0..self.mix.len() {
            assert!(
                rel(fast.rho_service[j], full.rho_service[j]),
                "{context}: service {j} rate {} vs {}",
                fast.rho_service[j],
                full.rho_service[j]
            );
        }
        assert_eq!(
            fast.binding_service, full.binding_service,
            "{context}: binding service"
        );
        self.steps_checked += 1;
    }

    fn try_attach(&mut self, rng: &mut StdRng) -> bool {
        let unused: Vec<NodeId> = self
            .platform
            .ids()
            .filter(|&id| !self.plan.uses_node(id))
            .collect();
        if unused.is_empty() {
            return false;
        }
        let node = unused[rng.gen_range(0..unused.len())];
        let service = rng.gen_range(0..self.mix.len());
        let agents: Vec<Slot> = self.plan.agents().collect();
        let parent = agents[rng.gen_range(0..agents.len())];
        let s1 = self.plan.add_server(parent, node).expect("node unused");
        let s2 = self
            .eval
            .add_server_for(parent, node, self.platform.power(node), service)
            .expect("node unused");
        assert_eq!(s1, s2, "slot alignment");
        self.assignment.service_of.insert(node, service);
        self.log.push(Op::Attach { slot: s1 });
        true
    }

    fn try_promote(&mut self, rng: &mut StdRng) -> bool {
        let servers: Vec<Slot> = self.plan.servers().collect();
        if servers.is_empty() {
            return false;
        }
        let slot = servers[rng.gen_range(0..servers.len())];
        self.plan.convert_to_agent(slot).expect("is a server");
        self.eval.promote_to_agent(slot).expect("is a server");
        // The reference evaluation reads the assignment map, so the
        // promoted node must leave it (the engine remembers the service
        // internally for demotion symmetry).
        self.assignment.service_of.remove(&self.plan.node(slot));
        self.log.push(Op::Promote { slot });
        true
    }

    fn try_move(&mut self, rng: &mut StdRng) -> bool {
        if self.plan.len() < 3 {
            return false;
        }
        let child = Slot(rng.gen_range(1..self.plan.len()));
        let agents: Vec<Slot> = self.plan.agents().collect();
        let target = agents[rng.gen_range(0..agents.len())];
        let old_parent = self.plan.parent(child).expect("non-root");
        let plan_result = self.plan.move_child(child, target);
        let eval_result = self.eval.move_child(child, target);
        assert_eq!(plan_result.is_ok(), eval_result.is_ok());
        match eval_result {
            Ok(true) => {
                self.log.push(Op::Move { child, old_parent });
                true
            }
            Ok(false) | Err(_) => false,
        }
    }

    fn try_reassign(&mut self, rng: &mut StdRng) -> bool {
        let servers: Vec<Slot> = self.plan.servers().collect();
        if servers.is_empty() {
            return false;
        }
        let slot = servers[rng.gen_range(0..servers.len())];
        let service = rng.gen_range(0..self.mix.len());
        let old_service = self.eval.service_of(slot);
        if !self
            .eval
            .reassign_server(slot, service)
            .expect("slot is a server of the mix")
        {
            return false; // same-service no-op: nothing recorded
        }
        self.assignment
            .service_of
            .insert(self.plan.node(slot), service);
        self.log.push(Op::Reassign { slot, old_service });
        true
    }

    fn undo(&mut self) -> bool {
        let Some(op) = self.log.pop() else {
            return false;
        };
        assert!(self.eval.undo(), "engine undo stack in sync with the log");
        match op {
            Op::Attach { slot } => {
                self.assignment.service_of.remove(&self.plan.node(slot));
                self.plan
                    .remove_last(slot)
                    .expect("undo retracts the last slot");
            }
            Op::Promote { slot } => {
                self.plan
                    .convert_to_server(slot)
                    .expect("promotion is reverted before children attach");
                // Back into the partition, under its remembered service.
                self.assignment
                    .service_of
                    .insert(self.plan.node(slot), self.eval.service_of(slot));
            }
            Op::Move { child, old_parent } => {
                self.plan
                    .move_child(child, old_parent)
                    .expect("reverse move is always legal");
            }
            Op::Reassign { slot, old_service } => {
                self.assignment
                    .service_of
                    .insert(self.plan.node(slot), old_service);
            }
        }
        true
    }

    fn run(&mut self, rng: &mut StdRng, steps: usize) {
        self.check("initial");
        for step in 0..steps {
            let acted = match rng.gen_range(0u32..10) {
                0..=3 => self.try_attach(rng),
                4..=5 => self.try_promote(rng),
                6 => self.try_move(rng),
                7..=8 => self.try_reassign(rng),
                _ => self.undo(),
            };
            if acted {
                self.check(&format!("step {step}"));
            }
        }
        while self.undo() {
            self.check("unwind");
        }
        assert_eq!(
            self.plan.len(),
            1 + self.mix.len(),
            "unwind returns to the seed deployment"
        );
    }
}

#[test]
fn incremental_matches_full_eval_on_randomized_sequences() {
    let mut total_steps = 0;
    for (size, seed) in [(20usize, 7u64), (35, 11), (50, 23), (64, 42)] {
        let platform = generator::heterogenized_cluster(
            "orsay",
            size,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            seed,
        );
        for dgemm in [10u32, 310, 1000] {
            let service = Dgemm::new(dgemm).service();
            let mut harness = Harness::new(&platform, &service);
            let mut rng = StdRng::seed_from_u64(seed ^ (dgemm as u64) << 8);
            harness.run(&mut rng, 120);
            total_steps += harness.steps_checked;
        }
    }
    assert!(
        total_steps >= 1000,
        "property test must exercise >= 1000 checked mutations, got {total_steps}"
    );
}

#[test]
fn batched_mix_matches_per_service_full_eval_on_randomized_sequences() {
    let mut total_steps = 0;
    for (size, seed) in [(24usize, 3u64), (40, 17), (56, 29)] {
        let platform = generator::heterogenized_cluster(
            "orsay",
            size,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            seed,
        );
        for weights in [
            vec![1.0, 1.0],
            vec![4.0, 2.0, 1.0],
            vec![3.0, 1.0, 1.0, 1.0],
        ] {
            let mix = ServiceMix::new(
                weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (Dgemm::new(100 + 200 * i as u32).service(), w))
                    .collect(),
            );
            let mut harness = MixHarness::new(&platform, &mix);
            let mut rng = StdRng::seed_from_u64(seed ^ (weights.len() as u64) << 16);
            harness.run(&mut rng, 120);
            total_steps += harness.steps_checked;
        }
    }
    assert!(
        total_steps >= 800,
        "mix property test must exercise >= 800 checked mutations, got {total_steps}"
    );
}

#[test]
fn mix_undo_is_bit_exact_after_deep_probe_chains() {
    let platform = generator::heterogenized_cluster(
        "orsay",
        40,
        MflopRate(400.0),
        BackgroundLoad::default(),
        CapacityProbe::exact(),
        13,
    );
    let mix = ServiceMix::new(vec![
        (Dgemm::new(100).service(), 2.0),
        (Dgemm::new(310).service(), 1.0),
        (Dgemm::new(1000).service(), 1.0),
    ]);
    let mut harness = MixHarness::new(&platform, &mix);
    let mut rng = StdRng::seed_from_u64(77);
    let baseline_rho = harness.eval.rho();
    let baseline_rates: Vec<u64> = (0..mix.len())
        .map(|j| harness.eval.rho_service_of(j).to_bits())
        .collect();
    for _ in 0..150 {
        let depth = rng.gen_range(1usize..6);
        let mut applied = 0;
        for _ in 0..depth {
            let acted = match rng.gen_range(0u32..4) {
                0 => harness.try_attach(&mut rng),
                1 => harness.try_promote(&mut rng),
                2 => harness.try_move(&mut rng),
                _ => harness.try_reassign(&mut rng),
            };
            if acted {
                applied += 1;
            }
        }
        for _ in 0..applied {
            assert!(harness.undo());
        }
        assert_eq!(
            harness.eval.rho().to_bits(),
            baseline_rho.to_bits(),
            "mix probe chains must unwind bit-exactly"
        );
        for (j, &bits) in baseline_rates.iter().enumerate() {
            assert_eq!(
                harness.eval.rho_service_of(j).to_bits(),
                bits,
                "service {j} must unwind bit-exactly"
            );
        }
    }
}

#[test]
fn site_aware_incremental_matches_evaluate_hetero_on_randomized_sequences() {
    // Every delta + undo of the site-aware engine checked against the
    // from-scratch per-link evaluator at 1e-9, across site counts,
    // inter-site bandwidths, and DGEMM sizes — including a run with an
    // explicit client site.
    let mut total_steps = 0;
    for (sites, per_site, inter, seed) in [
        (2usize, 14usize, 5.0f64, 7u64),
        (3, 9, 10.0, 19),
        (4, 7, 25.0, 33),
    ] {
        let platform = generator::multi_site_grid(
            sites,
            per_site,
            MflopRate(400.0),
            MbitRate(100.0),
            MbitRate(inter),
            seed,
        );
        for dgemm in [10u32, 310, 1000] {
            let service = Dgemm::new(dgemm).service();
            let mut harness = Harness::new(&platform, &service);
            assert!(
                harness.eval.is_site_aware(),
                "multi-site platforms engage the site-aware engine"
            );
            let mut rng = StdRng::seed_from_u64(seed ^ ((dgemm as u64) << 8));
            harness.run(&mut rng, 120);
            total_steps += harness.steps_checked;
        }
        // Clients declared on the last site: root parent links and
        // Eq. 15 transfers cross the WAN for every other site.
        let service = Dgemm::new(310).service();
        let params =
            ModelParams::from_platform(&platform).with_client_site(SiteId(sites as u16 - 1));
        let mut harness = Harness::with_params(&platform, &service, params);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC11E57);
        harness.run(&mut rng, 80);
        total_steps += harness.steps_checked;
    }
    assert!(
        total_steps >= 800,
        "multi-site property test must exercise >= 800 checked mutations, got {total_steps}"
    );
}

#[test]
fn site_aware_flag_is_bit_inert_on_uniform_networks() {
    // On a homogeneous network the site-aware machinery must never
    // engage: the default (site-aware) engine and the explicitly
    // scalarized one walk the same randomized delta sequence with
    // bit-identical state at every step — the single-site fast path of
    // the refactor costs nothing.
    let platform = generator::heterogenized_cluster(
        "orsay",
        40,
        MflopRate(400.0),
        BackgroundLoad::default(),
        CapacityProbe::exact(),
        17,
    );
    let service = Dgemm::new(310).service();
    let mut aware = Harness::new(&platform, &service);
    assert!(!aware.eval.is_site_aware(), "uniform network: fast path");
    let mut scalar = Harness::with_params(
        &platform,
        &service,
        ModelParams::from_platform(&platform).scalarized(),
    );
    let mut rng_a = StdRng::seed_from_u64(4242);
    let mut rng_b = StdRng::seed_from_u64(4242);
    for step in 0..150 {
        let op = rng_a.gen_range(0u32..10);
        assert_eq!(op, rng_b.gen_range(0u32..10));
        let (acted_a, acted_b) = match op {
            0..=4 => (aware.try_attach(&mut rng_a), scalar.try_attach(&mut rng_b)),
            5..=6 => (
                aware.try_promote(&mut rng_a),
                scalar.try_promote(&mut rng_b),
            ),
            7..=8 => (aware.try_move(&mut rng_a), scalar.try_move(&mut rng_b)),
            _ => (aware.undo(), scalar.undo()),
        };
        assert_eq!(acted_a, acted_b, "step {step}: divergent action");
        assert_eq!(
            aware.eval.rho().to_bits(),
            scalar.eval.rho().to_bits(),
            "step {step}: rho must stay bit-identical on a uniform network"
        );
        assert_eq!(
            aware.eval.rho_sched().to_bits(),
            scalar.eval.rho_sched().to_bits(),
            "step {step}: rho_sched"
        );
        assert_eq!(
            aware.eval.rho_service().to_bits(),
            scalar.eval.rho_service().to_bits(),
            "step {step}: rho_service"
        );
    }
}

/// Builds a randomized demand walk with plateaus: each drawn rate is
/// held for 2–4 steps, so the warm engine sees both demand changes
/// (delta-apply) and steady-state repeats (memo short-circuit).
fn demand_walk(rng: &mut StdRng, steps: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut walk = Vec::with_capacity(steps);
    while walk.len() < steps {
        let rate = rng.gen_range(lo..hi);
        for _ in 0..rng.gen_range(2usize..5) {
            walk.push(rate);
        }
    }
    walk.truncate(steps);
    walk
}

#[test]
fn warm_replan_matches_cold_replan_on_randomized_demand_walks() {
    // The warm-started reviser must be a pure acceleration: at every
    // step of a randomized demand walk, a warm revision (persistent
    // engine state threaded across calls) and a cold `replan` of the
    // same incumbent must produce the same plan and bit-equal ρ.
    // Single-service `replan` is a one-service mix round, so the warm
    // side is `replan_mix_warm` on that mix. The walk adopts the warm
    // result, so any divergence would compound — and the warm path must
    // actually engage (hits > 0), or the test would only be comparing
    // cold to cold.
    for (size, seed) in [(30usize, 7u64), (48, 21)] {
        let platform = generator::heterogenized_cluster(
            "orsay",
            size,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            seed,
        );
        let service = Dgemm::new(310).service();
        let mix = ServiceMix::single(service.clone());
        let planner = OnlinePlanner {
            max_changes: 6,
            ..Default::default()
        };
        let mut running = HeuristicPlanner::paper()
            .plan(&platform, &service, ClientDemand::Target(2.0))
            .expect("platform fits the seed demand");
        let mut assignment = ServerAssignment {
            service_of: running.servers().map(|s| (running.node(s), 0)).collect(),
        };
        let mut warm = WarmCache::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3A17);
        for (step, rate) in demand_walk(&mut rng, 60, 0.5, 8.0).into_iter().enumerate() {
            // Occasionally simulate an external plan mutation: the
            // caller-owned invalidation must also preserve parity.
            if step % 17 == 16 {
                warm.invalidate();
            }
            let demand = MixDemand::targets(vec![rate]);
            let warm_r = planner
                .replan_mix_warm(&platform, &running, &mix, &assignment, &demand, &mut warm)
                .expect("revision is routine");
            let cold_r = planner.replan(&platform, &running, &service, ClientDemand::Target(rate));
            assert!(
                warm_r.plan.structurally_eq(&cold_r.plan),
                "step {step} (rate {rate}): warm and cold plans diverge"
            );
            assert_eq!(
                warm_r.report.rho.to_bits(),
                cold_r.rho.to_bits(),
                "step {step} (rate {rate}): warm rho must be bit-equal to cold"
            );
            assert_eq!(
                warm_r.diff.len(),
                cold_r.diff.len(),
                "step {step} (rate {rate}): diffs diverge"
            );
            running = warm_r.plan;
            assignment = warm_r.assignment;
        }
        assert!(
            warm.hits() > 0,
            "size {size}: the plateaus must engage the warm path ({} misses)",
            warm.misses()
        );
    }
}

#[test]
fn warm_mix_replan_matches_cold_on_randomized_demand_walks() {
    // Mix counterpart: plan + assignment walk through randomized
    // per-service demand vectors, warm vs cold in lock step. Plans,
    // assignments, reassignments, and every reported rate must agree
    // bit for bit at each step.
    for (size, seed) in [(28usize, 5u64), (44, 31)] {
        let platform = generator::heterogenized_cluster(
            "orsay",
            size,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            seed,
        );
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 2.0),
            (Dgemm::new(700).service(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ]);
        let planner = OnlinePlanner {
            max_changes: 8,
            ..Default::default()
        };
        let seed_demand = MixDemand::targets(vec![1.0, 0.5, 0.4]);
        let got = MixPlanner::default()
            .plan_mix(&platform, &mix, &seed_demand)
            .expect("platform fits the seed demand");
        let (mut running, mut assignment) = (got.plan, got.assignment);
        let mut warm = WarmCache::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9B2E);
        let walks: Vec<Vec<f64>> = (0..mix.len())
            .map(|j| demand_walk(&mut rng, 40, 0.2, 2.5 - 0.5 * j as f64))
            .collect();
        for step in 0..40 {
            // Occasionally simulate an external plan mutation: the
            // caller-owned invalidation must also preserve parity.
            if step % 17 == 16 {
                warm.invalidate();
            }
            let rates: Vec<f64> = walks.iter().map(|w| w[step]).collect();
            let demand = MixDemand::targets(rates.clone());
            let warm_r = planner
                .replan_mix_warm(&platform, &running, &mix, &assignment, &demand, &mut warm)
                .expect("revision is routine");
            let cold_r = planner
                .replan_mix(&platform, &running, &mix, &assignment, &demand)
                .expect("revision is routine");
            assert!(
                warm_r.plan.structurally_eq(&cold_r.plan),
                "step {step} ({rates:?}): warm and cold plans diverge"
            );
            assert_eq!(
                warm_r.assignment, cold_r.assignment,
                "step {step} ({rates:?}): assignments diverge"
            );
            assert_eq!(
                warm_r.reassigned, cold_r.reassigned,
                "step {step} ({rates:?}): reassignments diverge"
            );
            assert_eq!(
                warm_r.report.rho.to_bits(),
                cold_r.report.rho.to_bits(),
                "step {step} ({rates:?}): mix rho must be bit-equal"
            );
            for j in 0..mix.len() {
                assert_eq!(
                    warm_r.report.rho_service[j].to_bits(),
                    cold_r.report.rho_service[j].to_bits(),
                    "step {step} ({rates:?}): service {j} rate must be bit-equal"
                );
            }
            running = warm_r.plan;
            assignment = warm_r.assignment;
        }
        assert!(
            warm.hits() > 0,
            "size {size}: the plateaus must engage the warm path ({} misses)",
            warm.misses()
        );
    }
}

#[test]
fn undo_is_bit_exact_after_deep_probe_chains() {
    let platform = generator::heterogenized_cluster(
        "orsay",
        40,
        MflopRate(400.0),
        BackgroundLoad::default(),
        CapacityProbe::exact(),
        5,
    );
    let service = Dgemm::new(310).service();
    let mut harness = Harness::new(&platform, &service);
    let mut rng = StdRng::seed_from_u64(99);
    let baseline = harness.eval.rho();
    for _ in 0..200 {
        // Random probe chains of depth 1..6, always fully retracted.
        let depth = rng.gen_range(1usize..6);
        let mut applied = 0;
        for _ in 0..depth {
            let acted = match rng.gen_range(0u32..3) {
                0 => harness.try_attach(&mut rng),
                1 => harness.try_promote(&mut rng),
                _ => harness.try_move(&mut rng),
            };
            if acted {
                applied += 1;
            }
        }
        for _ in 0..applied {
            assert!(harness.undo());
        }
        assert_eq!(
            harness.eval.rho().to_bits(),
            baseline.to_bits(),
            "probe chains must unwind bit-exactly"
        );
    }
}
