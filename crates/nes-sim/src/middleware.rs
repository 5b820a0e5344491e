//! The middleware world: agents, servers and clients exchanging costed
//! messages over `M(r,s,w)` timelines.
//!
//! Event flow for one request (paper Figure 1):
//!
//! ```text
//! client ──SchedRequest──▶ root ──▶ … agents … ──▶ servers (Wpre, predict)
//! client ◀──SchedReply─── root ◀── … agents … ◀── servers
//!        (agents aggregate: Wrep(d), keep best predicted server)
//! client ──ServiceRequest──▶ selected server (Wapp) ──ServiceReply──▶ client
//! ```
//!
//! Every hop costs the sender and the receiver their own tier's calibrated
//! message size over the shared bandwidth (plus the configured per-message
//! overhead), serialized on each node's timeline. Compute steps (`Wreq`,
//! `Wrep(d)`, `Wpre`, `Wapp`) are reserved the same way, with optional
//! jitter.

// audit: allow-file(unwrap, "documented # Panics contract: an invalid config, plan,
// or assignment is caller error in this simulator front-end")
use crate::config::SimConfig;
use crate::resources::Timelines;
use adept_desim::{DetRng, OnlineStats, Scheduler, SimDuration, SimTime, ThroughputMeter, World};
use adept_hierarchy::{DeploymentPlan, Role};
use adept_platform::{Platform, Seconds};
use adept_workload::ServiceSpec;

/// Compiled, slot-indexed view of a deployment plan.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPlan {
    /// Platform node index per slot.
    pub node: Vec<u32>,
    /// Role per slot.
    pub role: Vec<Role>,
    /// Parent slot (None for the root).
    pub parent: Vec<Option<u32>>,
    /// Children slots per slot.
    pub children: Vec<Vec<u32>>,
}

impl CompiledPlan {
    fn compile(plan: &DeploymentPlan) -> Self {
        let n = plan.len();
        let mut node = Vec::with_capacity(n);
        let mut role = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n);
        for slot in plan.slots() {
            node.push(plan.node(slot).0);
            role.push(plan.role(slot));
            parent.push(plan.parent(slot).map(|p| p.0 as u32));
            children.push(plan.children(slot).iter().map(|c| c.0 as u32).collect());
        }
        Self {
            node,
            role,
            parent,
            children,
        }
    }
}

/// Where a message lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// A middleware element (plan slot).
    Slot(u32),
    /// A client (unconstrained machine).
    Client(u32),
}

/// Message payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Msg {
    /// Scheduling request travelling down the tree.
    SchedRequest {
        /// Request slab index.
        req: u32,
    },
    /// Scheduling reply travelling up (predicted completion in absolute
    /// seconds, proposed server as platform node index, cumulative
    /// selection weight of the subtree that produced it).
    SchedReply {
        /// Request slab index.
        req: u32,
        /// Predicted completion instant (seconds).
        pred: f64,
        /// Proposed server (platform node index).
        server: u32,
        /// Subtree selection weight (sum of candidate rates below).
        weight: f64,
    },
    /// Service request from client to the selected server.
    ServiceRequest {
        /// Request slab index.
        req: u32,
    },
    /// Service reply back to the client.
    ServiceReply {
        /// Request slab index.
        req: u32,
    },
}

/// Simulator events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A client issues a new scheduling request.
    ClientIssue {
        /// Client index.
        client: u32,
    },
    /// Message bytes reached the destination port (sender occupancy and
    /// wire latency paid); the receiver still has to serialize its receive.
    Deliver(EndpointEvent),
    /// The receiver finished its receive occupancy; middleware logic runs.
    Received(EndpointEvent),
    /// A compute step finished on a slot.
    ComputeDone {
        /// Plan slot the computation ran on.
        slot: u32,
        /// The message/context being processed.
        msg: MsgEvent,
    },
}

/// Internal payload wrapper (kept opaque outside the crate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointEvent {
    pub(crate) at: Endpoint,
    pub(crate) msg: Msg,
    /// Bandwidth of the link this message crosses (Mb/s). Computed once
    /// at send time from the endpoints' sites; the receiver's occupancy
    /// uses the same link. Uniform networks always carry the global `B`.
    pub(crate) edge_bw: f64,
}

/// Internal compute-context wrapper (kept opaque outside the crate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgEvent(pub(crate) Msg);

#[derive(Debug, Clone)]
struct RequestState {
    client: u32,
    issued_at: SimTime,
    /// Index of the requested service in the mix.
    service: u8,
    /// When the client received the scheduling reply (phase boundary).
    sched_done_at: Option<SimTime>,
    /// Outstanding child replies per agent slot (0 elsewhere).
    pending: Vec<u16>,
    /// Selected (pred, server) so far per agent slot.
    best: Vec<(f64, u32)>,
    /// Cumulative selection weight per agent slot (weighted reservoir
    /// sampling state for
    /// [`SelectionPolicy::WeightedByRate`](crate::config::SelectionPolicy::WeightedByRate)).
    cum_weight: Vec<f64>,
    active: bool,
}

/// The simulated middleware deployment.
pub struct Middleware {
    plan: CompiledPlan,
    /// Plan slot per platform node index (`u32::MAX` for unused nodes).
    node_to_slot: Vec<u32>,
    /// Node power in MFlop/s, by platform node index.
    powers: Vec<f64>,
    /// Uniform (scalarized) bandwidth in Mb/s, used for client links on
    /// homogeneous networks.
    bandwidth: f64,
    /// Site of each platform node (for per-link bandwidths).
    sites: Vec<adept_platform::SiteId>,
    /// The network model (per-link bandwidth lookups).
    network: adept_platform::Network,
    /// Wire latency per message (seconds).
    latency: f64,
    config: SimConfig,
    /// The workload mix (shares for drawing each request's service).
    mix: adept_workload::ServiceMix,
    /// Service computation per request, per mix service (MFlop).
    wapps: Vec<f64>,
    /// Service-phase payload sizes (request, reply) per mix service (Mb).
    service_sizes: Vec<(f64, f64)>,
    /// Hosted service per plan slot (`u8::MAX` for agents).
    slot_service: Vec<u8>,
    think_time: SimDuration,
    /// Open-loop mode: clients issue exactly one request (arrivals come
    /// from an external process) instead of looping.
    open_loop: bool,

    /// Control-plane timeline per node: scheduling messages, `Wreq`,
    /// `Wrep`, `Wpre`.
    timelines: Timelines,
    /// Service-plane timeline per node: service messages and `Wapp`.
    ///
    /// Real SeDs execute application jobs in separate processes, so a
    /// queued multi-second DGEMM does not block prediction replies; with a
    /// single FIFO lane the whole scheduling phase would stall behind the
    /// service queue, which neither the paper's model nor its testbed
    /// exhibits. Splitting the lanes inflates server capacity by at most
    /// `Wpre/Wapp` (≤ 0.01% for the service-limited scenarios), which is
    /// far below measurement noise. See DESIGN.md, substitution table.
    service_lanes: Timelines,
    requests: Vec<RequestState>,
    free: Vec<u32>,
    clients: u32,
    rng: DetRng,

    /// Completed-request instants (the measurement signal).
    pub meter: ThroughputMeter,
    /// Requests issued.
    pub issued: u64,
    /// Requests completed (scheduling + service phases).
    pub completed: u64,
    /// Response-time statistics (seconds), one sample per completion.
    pub response_times: OnlineStats,
    /// Scheduling-phase latency statistics (request issue → scheduling
    /// reply at the client), one sample per completed scheduling phase.
    pub scheduling_times: OnlineStats,
    /// Service-phase latency statistics (service request → service reply),
    /// one sample per completion.
    pub service_times: OnlineStats,
    /// Per-server completed service executions, by platform node index.
    pub per_server_completions: Vec<u64>,
    /// Completed requests per mix service.
    pub completed_per_service: Vec<u64>,
}

impl Middleware {
    /// Builds the world for a platform + plan + service.
    ///
    /// # Panics
    /// Panics if the plan references nodes outside the platform or the
    /// config is invalid.
    pub fn new(
        platform: &Platform,
        plan: &DeploymentPlan,
        service: &ServiceSpec,
        config: SimConfig,
        think_time: Seconds,
    ) -> Self {
        // Single-service deployments are a mix of one, every server
        // hosting it.
        let mix = adept_workload::ServiceMix::single(service.clone());
        let assignment: Vec<(adept_platform::NodeId, usize)> =
            plan.servers().map(|s| (plan.node(s), 0usize)).collect();
        Self::new_mix(platform, plan, &mix, &assignment, config, think_time)
    }

    /// Builds a **multi-service** world: `assignment` gives the hosted
    /// service (index into `mix`) for every server node of the plan — the
    /// paper's last future-work item ("deploy several … applications").
    ///
    /// # Panics
    /// Panics if the config is invalid, the plan references nodes outside
    /// the platform, a server is missing from the assignment, or a mix
    /// service has no server at all (its requests could never complete).
    pub fn new_mix(
        platform: &Platform,
        plan: &DeploymentPlan,
        mix: &adept_workload::ServiceMix,
        assignment: &[(adept_platform::NodeId, usize)],
        config: SimConfig,
        think_time: Seconds,
    ) -> Self {
        config.validate().expect("invalid simulator configuration");
        let compiled = CompiledPlan::compile(plan);
        let powers: Vec<f64> = platform.nodes().iter().map(|r| r.power.value()).collect();
        for &n in &compiled.node {
            assert!(
                (n as usize) < powers.len(),
                "plan references node n{n} outside the platform"
            );
        }
        let cal = &config.calibration;
        let wapps: Vec<f64> = mix.services().iter().map(|s| s.wapp.value()).collect();
        let service_sizes: Vec<(f64, f64)> = mix
            .services()
            .iter()
            .map(|service| {
                (
                    service
                        .request_payload
                        .map_or(cal.server.sreq.value(), |m| m.value()),
                    service
                        .reply_payload
                        .map_or(cal.server.srep.value(), |m| m.value()),
                )
            })
            .collect();
        let lookup: std::collections::HashMap<u32, usize> = assignment
            .iter()
            .map(|&(node, svc)| {
                assert!(
                    svc < mix.len(),
                    "assignment references service {svc} outside the mix"
                );
                (node.0, svc)
            })
            .collect();
        let mut hosted = vec![0usize; mix.len()];
        let slot_service: Vec<u8> = compiled
            .node
            .iter()
            .zip(&compiled.role)
            .map(|(&node, &role)| match role {
                Role::Agent => u8::MAX,
                Role::Server => {
                    let svc = *lookup
                        .get(&node)
                        // audit: allow(panic, "documented # Panics contract of
                        // new_mix: a server missing from the assignment is
                        // caller error")
                        .unwrap_or_else(|| panic!("server n{node} missing from the assignment"));
                    hosted[svc] += 1;
                    svc as u8
                }
            })
            .collect();
        assert!(
            hosted.iter().all(|&h| h > 0),
            "every mix service needs at least one server, got {hosted:?}"
        );
        let mut node_to_slot = vec![u32::MAX; powers.len()];
        for (slot, &node) in compiled.node.iter().enumerate() {
            node_to_slot[node as usize] = slot as u32;
        }
        let sites: Vec<adept_platform::SiteId> = platform.nodes().iter().map(|r| r.site).collect();
        Self {
            plan: compiled,
            node_to_slot,
            bandwidth: platform.bandwidth().value(),
            sites,
            network: platform.network().clone(),
            latency: platform.network().latency().value(),
            config,
            mix: mix.clone(),
            wapps,
            service_sizes,
            slot_service,
            think_time: SimDuration::from_seconds(think_time.value().max(0.0)),
            open_loop: false,
            timelines: Timelines::new(powers.len()),
            service_lanes: Timelines::new(powers.len()),
            per_server_completions: vec![0; powers.len()],
            powers,
            requests: Vec::new(),
            free: Vec::new(),
            clients: 0,
            rng: DetRng::new(config.seed),
            meter: ThroughputMeter::new(),
            issued: 0,
            completed: 0,
            completed_per_service: vec![0; mix.len()],
            response_times: OnlineStats::new(),
            scheduling_times: OnlineStats::new(),
            service_times: OnlineStats::new(),
        }
    }

    /// Switches to open-loop mode: clients issue a single request each
    /// (used with an external arrival process) instead of looping.
    pub fn set_open_loop(&mut self, open_loop: bool) {
        self.open_loop = open_loop;
    }

    /// Registers one more client and returns its index.
    pub fn add_client(&mut self) -> u32 {
        let id = self.clients;
        self.clients += 1;
        id
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> u32 {
        self.clients
    }

    /// Control-plane utilization of a platform node over `[0, now]`.
    pub fn utilization(&self, node: usize, now: SimTime) -> f64 {
        self.timelines.get(node).utilization(now)
    }

    /// Service-plane utilization of a platform node over `[0, now]`
    /// (non-zero only for servers).
    pub fn service_utilization(&self, node: usize, now: SimTime) -> f64 {
        self.service_lanes.get(node).utilization(now)
    }

    /// Accumulated control-plane busy time of a node, in seconds. Divided
    /// by the number of completed requests this recovers the per-request
    /// occupancy — the measurement behind the paper's Table 3 calibration
    /// (`bench --bin table3`).
    pub fn control_busy_seconds(&self, node: usize) -> f64 {
        self.timelines.get(node).busy_total().as_seconds()
    }

    fn power_of_slot(&self, slot: u32) -> f64 {
        self.powers[self.plan.node[slot as usize] as usize]
    }

    /// Transfer duration of `mb` megabits over a link of `bw` Mb/s plus
    /// per-message overhead.
    fn occupancy(&self, mb: f64, bw: f64) -> SimDuration {
        SimDuration::from_seconds(mb / bw + self.config.per_message_overhead.value())
    }

    /// Bandwidth of the link between two slots (or a slot and a client —
    /// clients are co-located with the peer's site, the convention of the
    /// hetero model extension).
    fn edge_bandwidth(&self, from: u32, to: Endpoint) -> f64 {
        let site_from = self.sites[self.plan.node[from as usize] as usize];
        let site_to = match to {
            Endpoint::Slot(slot) => self.sites[self.plan.node[slot as usize] as usize],
            Endpoint::Client(_) => site_from,
        };
        self.network.bandwidth_between(site_from, site_to).value()
    }

    fn compute_duration(&mut self, mflop: f64, power: f64) -> SimDuration {
        let d = SimDuration::from_seconds(mflop / power);
        self.rng.jitter(d, self.config.compute_jitter)
    }

    /// Message size (Mb) the given slot pays to SEND `msg`.
    fn send_size(&self, slot: u32, msg: &Msg) -> f64 {
        let cal = &self.config.calibration;
        match (self.plan.role[slot as usize], msg) {
            (Role::Agent, Msg::SchedRequest { .. }) => cal.agent.sreq.value(),
            (Role::Agent, Msg::SchedReply { .. }) => cal.agent.srep.value(),
            (Role::Server, Msg::SchedReply { .. }) => cal.server.srep.value(),
            (Role::Server, Msg::ServiceReply { req }) => {
                self.service_sizes[self.requests[*req as usize].service as usize].1
            }
            (role, m) => unreachable!("{role:?} never sends {m:?}"),
        }
    }

    /// Message size (Mb) the given slot pays to RECEIVE `msg`.
    fn recv_size(&self, slot: u32, msg: &Msg) -> f64 {
        let cal = &self.config.calibration;
        match (self.plan.role[slot as usize], msg) {
            (Role::Agent, Msg::SchedRequest { .. }) => cal.agent.sreq.value(),
            (Role::Agent, Msg::SchedReply { .. }) => cal.agent.srep.value(),
            (Role::Server, Msg::SchedRequest { .. }) => cal.server.sreq.value(),
            (Role::Server, Msg::ServiceRequest { req }) => {
                self.service_sizes[self.requests[*req as usize].service as usize].0
            }
            (role, m) => unreachable!("{role:?} never receives {m:?}"),
        }
    }

    /// Sends `msg` from a middleware slot: reserves the sender occupancy
    /// on the node's port (the control timeline — all messages go through
    /// the single port; only `Wapp` executions live on the service lane,
    /// so a finished job's reply is never stuck behind queued jobs) and
    /// schedules delivery.
    fn send_from_slot(
        &mut self,
        now: SimTime,
        from: u32,
        to: Endpoint,
        msg: Msg,
        sched: &mut Scheduler<Event>,
    ) {
        let edge_bw = self.edge_bandwidth(from, to);
        let occ = self.occupancy(self.send_size(from, &msg), edge_bw);
        let node = self.plan.node[from as usize] as usize;
        let (_, end) = self.timelines.get_mut(node).reserve(now, occ);
        let arrival = end + SimDuration::from_seconds(self.latency);
        sched.at(
            arrival,
            Event::Deliver(EndpointEvent {
                at: to,
                msg,
                edge_bw,
            }),
        );
    }

    /// Sends `msg` from a client (no sender occupancy). Clients are
    /// co-located with the destination's site.
    fn send_from_client(&self, now: SimTime, to: Endpoint, msg: Msg, sched: &mut Scheduler<Event>) {
        let edge_bw = match to {
            Endpoint::Slot(slot) => self.edge_bandwidth(slot, to),
            Endpoint::Client(_) => self.bandwidth,
        };
        let arrival = now + SimDuration::from_seconds(self.latency);
        sched.at(
            arrival,
            Event::Deliver(EndpointEvent {
                at: to,
                msg,
                edge_bw,
            }),
        );
    }

    fn alloc_request(&mut self, client: u32, now: SimTime) -> u32 {
        let n_slots = self.plan.node.len();
        let service = if self.mix.len() == 1 {
            0u8
        } else {
            self.mix.draw(self.rng.unit()) as u8
        };
        if let Some(idx) = self.free.pop() {
            let r = &mut self.requests[idx as usize];
            debug_assert!(!r.active, "freed request still active");
            r.client = client;
            r.issued_at = now;
            r.service = service;
            r.sched_done_at = None;
            r.pending.iter_mut().for_each(|p| *p = 0);
            r.best
                .iter_mut()
                .for_each(|b| *b = (f64::INFINITY, u32::MAX));
            r.cum_weight.iter_mut().for_each(|w| *w = 0.0);
            r.active = true;
            idx
        } else {
            self.requests.push(RequestState {
                client,
                issued_at: now,
                service,
                sched_done_at: None,
                pending: vec![0; n_slots],
                best: vec![(f64::INFINITY, u32::MAX); n_slots],
                cum_weight: vec![0.0; n_slots],
                active: true,
            });
            (self.requests.len() - 1) as u32
        }
    }

    fn handle_received(&mut self, now: SimTime, slot: u32, msg: Msg, sched: &mut Scheduler<Event>) {
        let s = slot as usize;
        match (self.plan.role[s], msg) {
            // Agent got a scheduling request: process it (Wreq), then
            // forward to every child.
            (Role::Agent, Msg::SchedRequest { .. }) => {
                let power = self.power_of_slot(slot);
                let d = self.compute_duration(self.config.calibration.agent.wreq.value(), power);
                let node = self.plan.node[s] as usize;
                let (_, end) = self.timelines.get_mut(node).reserve(now, d);
                sched.at(
                    end,
                    Event::ComputeDone {
                        slot,
                        msg: MsgEvent(msg),
                    },
                );
            }
            // Server got a scheduling request: predict (Wpre), then reply.
            (Role::Server, Msg::SchedRequest { .. }) => {
                let power = self.power_of_slot(slot);
                let d = self.compute_duration(self.config.calibration.server.wpre.value(), power);
                let node = self.plan.node[s] as usize;
                let (_, end) = self.timelines.get_mut(node).reserve(now, d);
                sched.at(
                    end,
                    Event::ComputeDone {
                        slot,
                        msg: MsgEvent(msg),
                    },
                );
            }
            // Agent got a child's reply: aggregate; on the last one, run
            // the selection computation Wrep(d) and forward up.
            (
                Role::Agent,
                Msg::SchedReply {
                    req,
                    pred,
                    server,
                    weight,
                },
            ) => {
                let selection = self.config.selection;
                let draw = if selection == crate::config::SelectionPolicy::WeightedByRate {
                    self.rng.unit()
                } else {
                    0.0
                };
                let r = &mut self.requests[req as usize];
                debug_assert!(r.active, "reply for an inactive request");
                let best = &mut r.best[s];
                match selection {
                    crate::config::SelectionPolicy::BestPrediction => {
                        // Strict `<` keeps INFINITY non-bids out unless no
                        // server in the subtree hosts the service.
                        if pred < best.0 || (pred == best.0 && server < best.1) {
                            *best = (pred, server);
                        }
                    }
                    crate::config::SelectionPolicy::WeightedByRate => {
                        // Weighted reservoir sampling with *subtree*
                        // weights: replacing the running winner with
                        // probability w/(W+w) makes the final pick exactly
                        // ∝ each server's own rate across the whole tree,
                        // because every reply carries the cumulative
                        // weight of the subtree that produced it.
                        let cum = &mut r.cum_weight[s];
                        *cum += weight;
                        if draw < weight / *cum {
                            *best = (pred, server);
                        }
                    }
                }
                debug_assert!(r.pending[s] > 0, "unexpected extra reply");
                r.pending[s] -= 1;
                if r.pending[s] == 0 {
                    let degree = self.plan.children[s].len();
                    let power = self.power_of_slot(slot);
                    let wrep = self.config.calibration.agent.wrep(degree).value();
                    let d = self.compute_duration(wrep, power);
                    let node = self.plan.node[s] as usize;
                    let (_, end) = self.timelines.get_mut(node).reserve(now, d);
                    sched.at(
                        end,
                        Event::ComputeDone {
                            slot,
                            msg: MsgEvent(Msg::SchedReply {
                                req,
                                pred,
                                server,
                                weight,
                            }),
                        },
                    );
                }
            }
            // Server got the service request: execute the application on
            // the service lane.
            (Role::Server, Msg::ServiceRequest { req }) => {
                let power = self.power_of_slot(slot);
                let wapp = self.wapps[self.requests[req as usize].service as usize];
                debug_assert_eq!(
                    self.slot_service[s], self.requests[req as usize].service,
                    "service requests only reach matching servers"
                );
                let d = self.compute_duration(wapp, power);
                let node = self.plan.node[s] as usize;
                let (_, end) = self.service_lanes.get_mut(node).reserve(now, d);
                sched.at(
                    end,
                    Event::ComputeDone {
                        slot,
                        msg: MsgEvent(Msg::ServiceRequest { req }),
                    },
                );
            }
            (role, m) => unreachable!("{role:?} cannot handle {m:?}"),
        }
    }

    fn handle_compute_done(
        &mut self,
        now: SimTime,
        slot: u32,
        msg: Msg,
        sched: &mut Scheduler<Event>,
    ) {
        let s = slot as usize;
        match (self.plan.role[s], msg) {
            // Agent finished Wreq: broadcast to children.
            (Role::Agent, Msg::SchedRequest { req }) => {
                let degree = self.plan.children[s].len() as u16;
                self.requests[req as usize].pending[s] = degree;
                let children = self.plan.children[s].clone();
                for child in children {
                    self.send_from_slot(
                        now,
                        slot,
                        Endpoint::Slot(child),
                        Msg::SchedRequest { req },
                        sched,
                    );
                }
            }
            // Server finished Wpre: predicted completion is its current
            // backlog plus one service execution. A small random term
            // (1% of one service quantum) breaks exact ties between
            // equally-loaded servers — without it, simultaneous requests
            // all herd to the lowest-id server and service parallelism
            // collapses, which neither the model's optimal division
            // (Eq. 6–10) nor real middleware (randomized choice among
            // near-equal candidates) exhibits.
            (Role::Server, Msg::SchedRequest { req }) => {
                let node = self.plan.node[s] as usize;
                let power = self.powers[node];
                let wanted = self.requests[req as usize].service;
                if self.slot_service[s] != wanted {
                    // This server does not host the requested service: it
                    // still replies (its parent is waiting on it) but with
                    // an uncompetitive bid and zero selection weight.
                    let parent = self.plan.parent[s].expect("servers always have a parent");
                    self.send_from_slot(
                        now,
                        slot,
                        Endpoint::Slot(parent),
                        Msg::SchedReply {
                            req,
                            pred: f64::INFINITY,
                            server: self.plan.node[s],
                            weight: 0.0,
                        },
                        sched,
                    );
                    return;
                }
                let wapp = self.wapps[wanted as usize];
                let backlog = self.service_lanes.get(node).busy_until().max(now);
                let tie_break = self.rng.unit() * 0.01 * wapp / power;
                let pred = backlog.as_seconds() + wapp / power + tie_break;
                // The selection weight must be a *rate*: the inverse of
                // the relative time-to-completion (sojourn), not of the
                // absolute instant `pred` — the latter degenerates to a
                // uniform weighting as simulated time grows.
                let sojourn = pred - now.as_seconds();
                debug_assert!(sojourn.is_finite());
                let parent = self.plan.parent[s].expect("servers always have a parent");
                self.send_from_slot(
                    now,
                    slot,
                    Endpoint::Slot(parent),
                    Msg::SchedReply {
                        req,
                        pred,
                        server: self.plan.node[s],
                        weight: 1.0 / sojourn.max(1e-12),
                    },
                    sched,
                );
            }
            // Agent finished Wrep: forward its best reply up (or to the
            // client at the root).
            (Role::Agent, Msg::SchedReply { req, .. }) => {
                let (pred, server) = self.requests[req as usize].best[s];
                let weight = self.requests[req as usize].cum_weight[s];
                debug_assert!(server != u32::MAX, "aggregation without replies");
                let reply = Msg::SchedReply {
                    req,
                    pred,
                    server,
                    weight,
                };
                match self.plan.parent[s] {
                    Some(parent) => {
                        self.send_from_slot(now, slot, Endpoint::Slot(parent), reply, sched)
                    }
                    None => {
                        let client = self.requests[req as usize].client;
                        self.send_from_slot(now, slot, Endpoint::Client(client), reply, sched)
                    }
                }
            }
            // Server finished Wapp: reply to the client.
            (Role::Server, Msg::ServiceRequest { req }) => {
                let client = self.requests[req as usize].client;
                let node = self.plan.node[s] as usize;
                self.per_server_completions[node] += 1;
                self.send_from_slot(
                    now,
                    slot,
                    Endpoint::Client(client),
                    Msg::ServiceReply { req },
                    sched,
                );
            }
            (role, m) => unreachable!("{role:?} cannot finish computing {m:?}"),
        }
    }

    fn handle_client(&mut self, now: SimTime, client: u32, msg: Msg, sched: &mut Scheduler<Event>) {
        match msg {
            // Scheduling phase done: fire the service request at the
            // selected server.
            Msg::SchedReply { req, server, .. } => {
                {
                    let r = &mut self.requests[req as usize];
                    r.sched_done_at = Some(now);
                    let issued_at = r.issued_at;
                    self.scheduling_times
                        .push(now.since(issued_at).as_seconds());
                }
                let slot = self.node_to_slot[server as usize];
                debug_assert_ne!(slot, u32::MAX, "selected server exists in the plan");
                debug_assert_eq!(self.plan.role[slot as usize], Role::Server);
                self.send_from_client(
                    now,
                    Endpoint::Slot(slot),
                    Msg::ServiceRequest { req },
                    sched,
                );
            }
            // Completed request: record and loop.
            Msg::ServiceReply { req } => {
                let r = &mut self.requests[req as usize];
                debug_assert!(r.active);
                r.active = false;
                let issued_at = r.issued_at;
                let sched_done = r.sched_done_at.expect("service follows scheduling");
                debug_assert_eq!(r.client, client);
                let service = r.service as usize;
                self.free.push(req);
                self.completed += 1;
                self.completed_per_service[service] += 1;
                self.meter.record(now);
                self.response_times.push(now.since(issued_at).as_seconds());
                self.service_times.push(now.since(sched_done).as_seconds());
                if !self.open_loop {
                    sched.after(self.think_time, Event::ClientIssue { client });
                }
            }
            m => unreachable!("clients never receive {m:?}"),
        }
    }
}

impl World for Middleware {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::ClientIssue { client } => {
                let req = self.alloc_request(client, now);
                self.issued += 1;
                // Root is always slot 0.
                self.send_from_client(now, Endpoint::Slot(0), Msg::SchedRequest { req }, sched);
            }
            Event::Deliver(EndpointEvent { at, msg, edge_bw }) => match at {
                Endpoint::Slot(slot) => {
                    // All receives occupy the port (control timeline).
                    let occ = self.occupancy(self.recv_size(slot, &msg), edge_bw);
                    let node = self.plan.node[slot as usize] as usize;
                    let (_, end) = self.timelines.get_mut(node).reserve(now, occ);
                    sched.at(end, Event::Received(EndpointEvent { at, msg, edge_bw }));
                }
                Endpoint::Client(client) => self.handle_client(now, client, msg, sched),
            },
            Event::Received(EndpointEvent { at, msg, .. }) => match at {
                Endpoint::Slot(slot) => self.handle_received(now, slot, msg, sched),
                Endpoint::Client(_) => unreachable!("clients have no receive occupancy"),
            },
            Event::ComputeDone {
                slot,
                msg: MsgEvent(msg),
            } => self.handle_compute_done(now, slot, msg, sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_desim::Engine;
    use adept_hierarchy::builder::star;
    use adept_platform::generator::lyon_cluster;
    use adept_platform::NodeId;
    use adept_workload::Dgemm;

    fn build(n_nodes: u32, servers: u32, dgemm: u32) -> Engine<Middleware> {
        let platform = lyon_cluster(n_nodes as usize);
        let ids: Vec<NodeId> = (0..=servers).map(NodeId).collect();
        let plan = star(&ids);
        let svc = Dgemm::new(dgemm).service();
        let world = Middleware::new(&platform, &plan, &svc, SimConfig::ideal(), Seconds::ZERO);
        Engine::new(world)
    }

    #[test]
    fn single_request_completes() {
        let mut engine = build(3, 2, 100);
        let client = engine.world_mut().add_client();
        engine.schedule(SimTime::ZERO, Event::ClientIssue { client });
        // A closed-loop client reissues forever; run for a bounded window.
        engine.run_until(SimTime::from_seconds(1.0));
        let w = engine.world();
        assert!(w.completed >= 1, "at least one request must complete");
        assert_eq!(w.issued, w.completed + 1, "exactly one in flight");
    }

    #[test]
    fn response_time_matches_hand_computation_for_minimal_star() {
        // One client, one agent, one server, no jitter/overhead/latency.
        let mut engine = build(2, 1, 100);
        let client = engine.world_mut().add_client();
        engine.schedule(SimTime::ZERO, Event::ClientIssue { client });
        engine.run_until(SimTime::from_seconds(0.5));
        let w = engine.world();
        assert!(w.completed >= 1);
        // First request on idle timelines: all phases sequential.
        let b = 100.0; // Mb/s
        let wgt = 400.0; // MFlop/s
        let sched_time = 5.3e-3 / b // root recv from client
            + (0.17) / wgt // Wreq
            + 5.3e-3 / b // root send to child
            + 5.3e-5 / b // server recv
            + 6.4e-3 / wgt // Wpre
            + 6.4e-5 / b // server send
            + 5.4e-3 / b // root recv reply
            + (4.0e-3 + 5.4e-3) / wgt // Wrep(1)
            + 5.4e-3 / b; // root send reply to client
        let service_time = 5.3e-5 / b + 2.0 / wgt + 6.4e-5 / b;
        let expected = sched_time + service_time;
        let got = w.response_times.min().unwrap();
        assert!(
            (got - expected).abs() < 1e-6,
            "first response time {got} vs expected {expected}"
        );
    }

    #[test]
    fn servers_share_load_under_concurrency() {
        let mut engine = build(5, 4, 1000);
        for _ in 0..8 {
            let c = engine.world_mut().add_client();
            engine.schedule(SimTime::ZERO, Event::ClientIssue { client: c });
        }
        engine.run_until(SimTime::from_seconds(120.0));
        let w = engine.world();
        let active: Vec<u64> = w
            .per_server_completions
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        assert!(
            active.len() >= 3,
            "prediction-based selection must spread load, got {:?}",
            w.per_server_completions
        );
        let (min, max) = (*active.iter().min().unwrap(), *active.iter().max().unwrap());
        assert!(
            max - min <= max / 2 + 2,
            "load should be roughly even: {active:?}"
        );
    }

    #[test]
    fn conservation_completed_le_issued() {
        let mut engine = build(4, 3, 310);
        for _ in 0..6 {
            let c = engine.world_mut().add_client();
            engine.schedule(SimTime::ZERO, Event::ClientIssue { client: c });
        }
        engine.run_until(SimTime::from_seconds(30.0));
        let w = engine.world();
        assert!(w.completed <= w.issued);
        // Closed loop: in-flight requests = clients.
        assert_eq!(w.issued - w.completed, 6);
        assert_eq!(w.meter.count() as u64, w.completed);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let platform = lyon_cluster(4);
            let ids: Vec<NodeId> = (0..4).map(NodeId).collect();
            let plan = star(&ids);
            let svc = Dgemm::new(310).service();
            let world = Middleware::new(
                &platform,
                &plan,
                &svc,
                SimConfig::paper().with_seed(seed),
                Seconds::ZERO,
            );
            let mut engine = Engine::new(world);
            for _ in 0..5 {
                let c = engine.world_mut().add_client();
                engine.schedule(SimTime::ZERO, Event::ClientIssue { client: c });
            }
            engine.run_until(SimTime::from_seconds(20.0));
            (engine.world().completed, engine.dispatched())
        };
        assert_eq!(run(1), run(1));
        let (c1, _) = run(1);
        let (c2, _) = run(2);
        // Different jitter streams may or may not change counts; both runs
        // must at least complete work.
        assert!(c1 > 0 && c2 > 0);
    }

    #[test]
    fn utilization_of_bottleneck_server_approaches_one() {
        // DGEMM 1000 on a 1-server star: the server saturates.
        let mut engine = build(2, 1, 1000);
        for _ in 0..4 {
            let c = engine.world_mut().add_client();
            engine.schedule(SimTime::ZERO, Event::ClientIssue { client: c });
        }
        let horizon = SimTime::from_seconds(200.0);
        engine.run_until(horizon);
        let w = engine.world();
        let server_util = w.service_utilization(1, horizon);
        assert!(
            server_util > 0.95,
            "bottleneck server should be ~fully busy, got {server_util}"
        );
    }
}
