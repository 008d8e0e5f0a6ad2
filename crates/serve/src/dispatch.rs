//! The one serve-clock dispatch loop behind [`crate::serve`],
//! [`crate::engine::run`], [`crate::predict`] and [`crate::serve_fleet`].
//!
//! The loop scans four event candidates — next arrival, next health probe,
//! earliest hedge deadline, earliest dispatch — and plays the earliest;
//! ties go arrival ≤ probe ≤ hedge ≤ dispatch, then lowest `(shard,
//! endpoint)`, then lowest replica index. That fixed scan (no event heap)
//! is what keeps reruns, and the single engine against a one-shard fleet,
//! bit-identical.
//!
//! The fleet policies are one `Option` in the [`Plan`]. With it `None` the
//! loop *is* the single engine: every arrival lands on shard 0, no probe or
//! hedge is ever due, the token bucket stays empty, and `reply = done + 0
//! × net factor` is `done` bit for bit. Fault hooks fire in both modes.

use std::collections::{HashMap, HashSet, VecDeque};

use gnn_device::CostModel;
use gnn_obs::{self as obs, tracks, Value};

use crate::autoscale::{Autoscaler, ScaleAction};
use crate::batcher::{BatchPolicy, EndpointQueue, ServeError};
use crate::engine::BatchExecutor;
use crate::error::ServeConfigError;
use crate::fleet::FleetConfig;
use crate::health::{HealthState, HealthTransition};
use crate::metrics::{BatchRecord, FleetStats, Outcome, QueueStats, RequestRecord, ServeReport};
use crate::registry::{argmax, ModelRegistry};
use crate::router::Router;
use crate::workload::{ClosedLoop, Request};

/// What [`crate::ServeConfig`] and [`FleetConfig`] reduce to: the topology
/// both share, plus the fleet policies when there are any.
pub(crate) struct Plan<'a> {
    pub(crate) shards: usize,
    pub(crate) replicas_per_shard: usize,
    pub(crate) policy: BatchPolicy,
    pub(crate) queue_cap: usize,
    pub(crate) slo_target: f64,
    pub(crate) cost: &'a CostModel,
    /// Router, admission cap, retry budget, hedging, health probes,
    /// autoscaling and net delay are read from here. `None` switches them
    /// all off and reports `routing: "single"` with no fleet counters.
    pub(crate) fleet: Option<&'a FleetConfig>,
}

impl Plan<'_> {
    /// Every hard rule the plan breaks, in precedence order (the first is
    /// what `validate` refuses with).
    pub(crate) fn violations(&self) -> Vec<ServeConfigError> {
        use ServeConfigError::*;
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let p = &self.policy;
        let mut rules = vec![
            (self.shards == 0, NoShards),
            (self.replicas_per_shard == 0, NoReplicas),
            (p.max_batch == 0, ZeroMaxBatch),
            (!non_negative(p.max_delay), BadMaxDelay(p.max_delay)),
            (
                self.queue_cap < p.max_batch,
                QueueBelowBatch {
                    queue_cap: self.queue_cap,
                    max_batch: p.max_batch,
                },
            ),
        ];
        if let Some(f) = self.fleet {
            let h = &f.health;
            rules.extend([
                (f.admission_cap == 0, ZeroAdmissionCap),
                (
                    !non_negative(f.retry_budget),
                    BadRetryBudget(f.retry_budget),
                ),
                (
                    !positive(h.probe_interval),
                    BadProbeInterval(h.probe_interval),
                ),
                (h.fail_threshold == 0, ZeroFailThreshold),
                (h.readmit_threshold == 0, ZeroReadmitThreshold),
            ]);
            rules.extend(f.hedge_after.map(|h| (!positive(h), BadHedgeDelay(h))));
            rules.push((!non_negative(f.net_delay), BadNetDelay(f.net_delay)));
        }
        rules.push((!positive(self.slo_target), BadSloTarget(self.slo_target)));
        if let Some(a) = self.fleet.and_then(|f| f.autoscale.as_ref()) {
            rules.extend([
                (a.min_replicas == 0, ZeroMinReplicas),
                (
                    a.min_replicas > a.max_replicas,
                    AutoscaleBounds {
                        min: a.min_replicas,
                        max: a.max_replicas,
                    },
                ),
                (
                    a.queue_low >= a.queue_high,
                    AutoscaleWatermarks {
                        low: a.queue_low,
                        high: a.queue_high,
                    },
                ),
                (!non_negative(a.cooldown), BadCooldown(a.cooldown)),
            ]);
        }
        rules
            .into_iter()
            .filter_map(|(broken, err)| broken.then_some(err))
            .collect()
    }
}

/// One virtual device slot within a shard.
#[derive(Clone)]
struct Replica {
    free_at: f64,
    alive: bool,
}

/// One endpoint shard: its queues, replicas, and controller state.
struct Shard {
    queues: Vec<EndpointQueue>,
    replicas: Vec<Replica>,
    health: HealthState,
    scaler: Autoscaler,
    /// Requests currently queued across this shard's endpoints (the
    /// admission-control and least-loaded signal).
    outstanding: usize,
}

impl Replica {
    fn idle_from(free_at: f64) -> Self {
        Replica {
            free_at,
            alive: true,
        }
    }
}

impl Shard {
    /// Alive replicas with their slot indices, lowest index first.
    fn alive(&self) -> impl Iterator<Item = (usize, &Replica)> {
        self.replicas.iter().enumerate().filter(|(_, r)| r.alive)
    }

    /// Earliest time an alive replica can start work, `None` if all dead.
    fn free_at(&self, now: f64) -> Option<f64> {
        self.alive()
            .map(|(_, r)| r.free_at.max(now))
            .reduce(f64::min)
    }
}

fn arg(key: &str, v: impl Into<Value>) -> (String, Value) {
    (key.to_owned(), v.into())
}

/// Plays `incoming` (sorted by `(arrival, id)`; a closed loop mints the
/// rest mid-run) through the plan on the serve clock. Panics on an engine
/// bug: a request without a terminal outcome, or the retry bound broken.
pub(crate) fn simulate(
    plan: &Plan<'_>,
    registry: &ModelRegistry,
    incoming: Vec<Request>,
    closed: Option<ClosedLoop>,
    exec_batch: &mut BatchExecutor<'_>,
) -> ServeReport {
    let shards = (0..plan.shards)
        .map(|_| Shard {
            queues: (0..registry.len())
                .map(|_| EndpointQueue::new(plan.queue_cap))
                .collect(),
            replicas: vec![Replica::idle_from(0.0); plan.replicas_per_shard],
            health: HealthState::default(),
            scaler: Autoscaler::default(),
            outstanding: 0,
        })
        .collect();
    Sim {
        plan,
        registry,
        exec_batch,
        router: plan.fleet.map(|f| Router::new(f.routing, plan.shards)),
        space: registry.target_space(),
        closed,
        incoming: incoming.into(),
        shards,
        records: Vec::new(),
        batches: Vec::new(),
        notes: Vec::new(),
        stats: FleetStats {
            shards: plan.shards,
            retry_budget: plan.fleet.map_or(0.0, |f| f.retry_budget),
            ..FleetStats::default()
        },
        location: HashMap::new(),
        hedged: HashMap::new(),
        failover_ids: HashSet::new(),
        tokens: 0.0,
        replicas_lost: 0,
        now: 0.0,
        next_probe: plan
            .fleet
            .map_or(f64::INFINITY, |f| f.health.probe_interval),
    }
    .run()
}

struct Sim<'a, 'e> {
    plan: &'a Plan<'a>,
    registry: &'a ModelRegistry,
    exec_batch: &'a mut BatchExecutor<'e>,
    router: Option<Router>,
    space: Vec<(String, u32)>,
    closed: Option<ClosedLoop>,
    incoming: VecDeque<Request>,
    shards: Vec<Shard>,
    records: Vec<RequestRecord>,
    batches: Vec<BatchRecord>,
    notes: Vec<String>,
    stats: FleetStats,
    /// The shards holding a queued copy of each live request (at most one
    /// copy per shard, always in the request's endpoint queue).
    location: HashMap<u64, Vec<usize>>,
    /// Requests already offered their one hedge → the twin's shard, if a
    /// token afforded one.
    hedged: HashMap<u64, Option<usize>>,
    /// Requests whose eventual answer came via failover: ejection
    /// re-routes, plus ids served by their hedge twin's shard.
    failover_ids: HashSet<u64>,
    /// Retry/hedge token bucket: earns `retry_budget` per primary
    /// admission, pays one per extra enqueue.
    tokens: f64,
    replicas_lost: usize,
    now: f64,
    next_probe: f64,
}

impl Sim<'_, '_> {
    fn run(mut self) -> ServeReport {
        while !(self.incoming.is_empty() && self.shards.iter().all(|s| s.outstanding == 0)) {
            let t_arr = self.incoming.front().map_or(f64::INFINITY, |r| r.arrival);
            let t_probe = self.next_probe;
            let hedge = self.next_hedge();
            let t_hedge = hedge.as_ref().map_or(f64::INFINITY, |h| h.0);
            let disp = self.next_dispatch();
            let t_disp = disp.map_or(f64::INFINITY, |d| d.0);
            // An arrival at exactly a dispatch deadline joins the queue
            // first and may ride the dispatching batch.
            if t_arr <= t_probe && t_arr <= t_hedge && t_arr <= t_disp {
                self.arrive();
            } else if t_probe <= t_hedge && t_probe <= t_disp {
                self.probe();
            } else if t_hedge <= t_disp {
                let (_, shard, req) = hedge.expect("hedge candidate exists");
                self.hedge(t_hedge, shard, &req);
            } else {
                let (_, shard, endpoint) = disp.expect("dispatch candidate exists");
                self.dispatch(t_disp, shard, endpoint);
            }
        }
        self.finish()
    }

    /// Earliest hedge deadline over queued, un-hedged requests on
    /// non-ejected shards: `(due, shard, request)`.
    fn next_hedge(&self) -> Option<(f64, usize, Request)> {
        let after = self.plan.fleet?.hedge_after?;
        let mut best: Option<(f64, usize, &Request)> = None;
        for (si, sh) in self.shards.iter().enumerate() {
            if sh.health.is_ejected() {
                continue;
            }
            for p in sh.queues.iter().flat_map(|q| q.iter()) {
                let due = p.enqueue + after;
                if !self.hedged.contains_key(&p.req.id) && best.is_none_or(|b| due < b.0) {
                    best = Some((due, si, &p.req));
                }
            }
        }
        best.map(|(due, si, req)| (due, si, req.clone()))
    }

    /// Earliest `(start, shard, endpoint)` over non-ejected shards: the
    /// batch ready (full, or head past its delay deadline), an alive replica
    /// free, and the shard outside any blackout window.
    fn next_dispatch(&self) -> Option<(f64, usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (si, sh) in self.shards.iter().enumerate() {
            if sh.health.is_ejected() {
                continue;
            }
            let Some(free_at) = sh.free_at(self.now) else {
                continue; // all replicas dead: probes will eject it
            };
            for (ei, q) in sh.queues.iter().enumerate() {
                if let Some(ready) = q.ready_at(&self.plan.policy, self.now) {
                    let mut t = ready.max(free_at);
                    // A dark shard's start slides to the blackout's end,
                    // which may sit inside a later window.
                    while let Some(until) = gnn_faults::shard_down(si, t) {
                        t = until;
                    }
                    if best.is_none_or(|b| t < b.0) {
                        best = Some((t, si, ei));
                    }
                }
            }
        }
        best
    }

    fn has_room(&self, shard: usize) -> bool {
        self.plan
            .fleet
            .is_none_or(|f| self.shards[shard].outstanding < f.admission_cap)
    }

    /// Routes `req` at the front door, or — with `avoid` — to a second
    /// shard for a retry or hedge twin (which needs a router).
    fn route(&self, req: &Request, avoid: Option<usize>) -> Option<usize> {
        let Some(router) = &self.router else {
            return avoid.is_none().then_some(0);
        };
        let healthy: Vec<bool> = self.shards.iter().map(|s| !s.health.is_ejected()).collect();
        let load: Vec<usize> = self.shards.iter().map(|s| s.outstanding).collect();
        match avoid {
            None => router.route(req.endpoint, req.target, &healthy, &load),
            Some(not) => router.route_avoiding(req.endpoint, req.target, not, &healthy, &load),
        }
    }

    /// Terminal non-served outcome at `now`.
    fn terminal(&mut self, req: &Request, outcome: Outcome) {
        self.records.push(RequestRecord {
            id: req.id,
            endpoint: self.registry.get(req.endpoint).cell.path(),
            target: req.target,
            enqueue: req.arrival,
            dispatch: self.now,
            reply: self.now,
            batch: None,
            batch_size: 0,
            output: Vec::new(),
            class: 0,
            outcome,
        });
        self.notify_client(req.id, self.now);
    }

    /// A closed-loop client saw request `id` finish at `t`: mint its next
    /// request into the arrival stream, keeping `(arrival, id)` order.
    fn notify_client(&mut self, id: u64, t: f64) {
        let closed = self.closed.as_mut();
        if let Some(next) = closed.and_then(|cl| cl.on_done(id, t, &self.space)) {
            let key = (next.arrival, next.id);
            let pos = self.incoming.partition_point(|r| (r.arrival, r.id) <= key);
            self.incoming.insert(pos, next);
        }
    }

    fn shed(&mut self, req: &Request, shard: Option<usize>, reason: &str, error: ServeError) {
        self.stats.sheds += 1;
        let mut args = vec![arg("request", req.id)];
        args.extend(shard.map(|s| arg("shard", s)));
        args.push(arg("reason", reason));
        obs::instant(tracks::FLEET, "shed", self.now, args);
        self.terminal(req, Outcome::Shed(error));
    }

    /// Spends one token to enqueue a copy of `req` on a shard other than
    /// `from`, as a `retry` or `hedge` (`kind`). `None`, nothing spent,
    /// without a token, a shard with admission room, or queue space there.
    fn readmit(&mut self, kind: &str, req: &Request, from: usize) -> Option<usize> {
        if self.tokens < 1.0 {
            return None;
        }
        let to = self
            .route(req, Some(from))
            .filter(|&to| self.has_room(to))?;
        self.shards[to].queues[req.endpoint]
            .admit(req.clone(), self.now)
            .ok()?;
        self.shards[to].outstanding += 1;
        self.tokens -= 1.0;
        self.stats.dispatched += 1;
        obs::instant(
            tracks::FLEET,
            kind,
            self.now,
            vec![arg("request", req.id), arg("from", from), arg("to", to)],
        );
        Some(to)
    }

    fn arrive(&mut self) {
        let req = self.incoming.pop_front().expect("arrival candidate exists");
        self.now = self.now.max(req.arrival);
        self.stats.submitted += 1;
        let Some(si) = self.route(&req, None) else {
            return self.shed(&req, None, "unroutable", ServeError::Unroutable);
        };
        if !self.has_room(si) {
            let queue_depth = self.shards[si].outstanding;
            return self.shed(
                &req,
                Some(si),
                "admission",
                ServeError::Shed { queue_depth },
            );
        }
        let queue = &mut self.shards[si].queues[req.endpoint];
        match queue.admit(req.clone(), self.now) {
            Ok(()) => {
                // The traced depth is what admission looked at: the whole
                // shard behind a router, the endpoint's queue without one.
                let depth = match self.router {
                    Some(_) => self.shards[si].outstanding + 1,
                    None => queue.len(),
                };
                obs::counter(tracks::SERVE, "queue_depth", depth as f64, self.now);
                self.shards[si].outstanding += 1;
                self.tokens += self.stats.retry_budget;
                self.stats.dispatched += 1;
                self.location.insert(req.id, vec![si]);
            }
            Err(err) => {
                obs::instant(
                    tracks::SERVE,
                    "rejected",
                    self.now,
                    vec![
                        arg("endpoint", self.registry.get(req.endpoint).cell.path()),
                        arg("request", req.id),
                        arg("shard", si),
                        arg("error", err.to_string()),
                    ],
                );
                self.terminal(&req, Outcome::Rejected(err));
            }
        }
    }

    /// One health-check tick over every shard, then autoscaling at the
    /// same tick once health has settled.
    fn probe(&mut self) {
        let health = self.plan.fleet.expect("probes need a fleet").health;
        self.now = self.now.max(self.next_probe);
        self.next_probe += health.probe_interval;
        for si in 0..self.shards.len() {
            let dark = gnn_faults::shard_down(si, self.now).is_some();
            let ok = !dark && self.shards[si].alive().next().is_some();
            if let Some(t) = self.shards[si].health.observe(ok, &health) {
                let (name, count) = match t {
                    HealthTransition::Ejected => ("eject", &mut self.stats.ejections),
                    HealthTransition::Readmitted => ("readmit", &mut self.stats.readmissions),
                };
                *count += 1;
                obs::instant(tracks::FLEET, name, self.now, vec![arg("shard", si)]);
                if t == HealthTransition::Ejected {
                    self.drain(si);
                }
            }
            self.autoscale(si);
        }
    }

    /// Drains every request queued on the just-ejected shard `si`:
    /// failover with a retry token, typed shed without.
    fn drain(&mut self, si: usize) {
        for ei in 0..self.registry.len() {
            for p in self.shards[si].queues[ei].drain_all() {
                self.shards[si].outstanding -= 1;
                let id = p.req.id;
                if let Some(locs) = self.location.get_mut(&id) {
                    locs.retain(|&s| s != si);
                    if !locs.is_empty() {
                        continue; // a twin survives elsewhere
                    }
                    self.location.remove(&id);
                }
                match self.readmit("retry", &p.req, si) {
                    Some(to) => {
                        self.stats.retries += 1;
                        self.failover_ids.insert(id);
                        self.location.insert(id, vec![to]);
                    }
                    None => self.shed(
                        &p.req,
                        Some(si),
                        "ejection-drain",
                        ServeError::Shed { queue_depth: 0 },
                    ),
                }
            }
        }
    }

    fn autoscale(&mut self, si: usize) {
        let Some(policy) = self.plan.fleet.and_then(|f| f.autoscale.as_ref()) else {
            return;
        };
        let shard = &mut self.shards[si];
        if shard.health.is_ejected() {
            return;
        }
        let alive = shard.alive().count();
        let Some(action) = shard
            .scaler
            .decide(self.now, shard.outstanding, alive, policy)
        else {
            return;
        };
        let (name, replicas) = match action {
            ScaleAction::Up => {
                shard.replicas.push(Replica::idle_from(self.now));
                self.stats.scale_ups += 1;
                ("scale_up", alive + 1)
            }
            ScaleAction::Down => {
                // Retire the highest-index alive replica (deterministic;
                // batches settle at dispatch, so no work is abandoned).
                if let Some(r) = shard.replicas.iter_mut().rev().find(|r| r.alive) {
                    r.alive = false;
                }
                self.stats.scale_downs += 1;
                ("scale_down", alive - 1)
            }
        };
        obs::instant(
            tracks::FLEET,
            name,
            self.now,
            vec![arg("shard", si), arg("replicas", replicas)],
        );
    }

    /// The request queued on shard `si` has waited `hedge_after`: enqueue
    /// a twin on a second shard if a token affords it.
    fn hedge(&mut self, due: f64, si: usize, req: &Request) {
        self.now = self.now.max(due);
        // Hedge at most once per request, token or not — a request that
        // cannot afford its hedge now will not become cheaper.
        let twin = self.readmit("hedge", req, si);
        self.hedged.insert(req.id, twin);
        if let Some(to) = twin {
            self.stats.hedges += 1;
            self.location.entry(req.id).or_default().push(to);
        }
    }

    /// One dp-step per dispatch for the replica-failure hook; the victim
    /// indexes the shard-major alive list. The fleet's last replica refuses
    /// to die.
    fn maybe_lose_replica(&mut self) {
        let alive: Vec<(usize, usize)> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(s, sh)| sh.alive().map(move |(r, _)| (s, r)))
            .collect();
        let Some(victim) = gnn_faults::on_dp_step(alive.len(), self.now) else {
            return;
        };
        let now = self.now;
        if alive.len() > 1 {
            let (s, r) = alive[victim];
            self.shards[s].replicas[r].alive = false;
            self.replicas_lost += 1;
            self.notes.push(format!(
                "shard {s} replica {r} failed at {now:.4}s: {} fleet replica(s) remain",
                alive.len() - 1
            ));
        } else {
            self.notes.push(format!(
                "replica failure injected at {now:.4}s ignored: last fleet replica keeps serving"
            ));
        }
    }

    fn dispatch(&mut self, start: f64, si: usize, ei: usize) {
        self.now = self.now.max(start);
        self.maybe_lose_replica();
        // Earliest-free alive replica, lowest index on ties. If the victim
        // was this shard's last, leave the shard to the health checker.
        let Some((replica, _)) = self.shards[si]
            .alive()
            .min_by(|(_, a), (_, b)| a.free_at.partial_cmp(&b.free_at).expect("finite free_at"))
        else {
            return;
        };
        let start = self.now.max(self.shards[si].replicas[replica].free_at);
        let endpoint = self.registry.get(ei);
        let path = endpoint.cell.path();
        let batch = self.shards[si].queues[ei].take_batch(&self.plan.policy);
        self.shards[si].outstanding -= batch.len();
        // First dispatch wins: cancel every other queued copy of each
        // batched request (hedge twins, stale failover copies).
        for p in &batch {
            for s2 in self.location.remove(&p.req.id).unwrap_or_default() {
                if s2 != si && self.shards[s2].queues[ei].remove(p.req.id).is_some() {
                    self.shards[s2].outstanding -= 1;
                }
            }
        }
        let bid = self.batches.len() as u64;
        gnn_faults::set_cell(&path);
        let targets: Vec<u32> = batch.iter().map(|p| p.req.target).collect();
        let exec = (self.exec_batch)(endpoint, &targets, &mut self.notes);
        let done = start + exec.duration;
        let net_delay = self.plan.fleet.map_or(0.0, |f| f.net_delay);
        let reply = done + net_delay * gnn_faults::shard_net_factor(si, start);
        self.shards[si].replicas[replica].free_at = done;
        let flops = arg("flops", exec.flops);
        let bytes = arg("bytes", exec.bytes);
        let roofline = arg("roofline", exec.roofline(self.plan.cost));
        obs::complete(
            tracks::SERVE,
            "batch",
            start,
            exec.duration,
            vec![
                arg("endpoint", path.as_str()),
                arg("size", batch.len()),
                arg("replica", replica),
                arg("oom_splits", exec.oom_splits),
                arg("kernel_retries", exec.kernel_retries),
                flops.clone(),
                bytes.clone(),
                arg("ai", exec.intensity()),
                roofline.clone(),
                arg("shard", si),
            ],
        );
        for (pending, output) in batch.iter().zip(exec.outputs) {
            let id = pending.req.id;
            let arrival = pending.req.arrival;
            let ep_arg = arg("endpoint", path.as_str());
            let req_arg = arg("request", id);
            // The critical-path analyzer attributes latency from these
            // two slices; with no re-admission and no net delay (single
            // mode) they sum to the enclosing request span.
            obs::complete(
                tracks::SERVE,
                "queue_wait",
                pending.enqueue,
                start - pending.enqueue,
                vec![ep_arg.clone(), req_arg.clone()],
            );
            obs::complete(
                tracks::SERVE,
                "execute",
                start,
                exec.duration,
                vec![
                    ep_arg.clone(),
                    req_arg.clone(),
                    flops.clone(),
                    bytes.clone(),
                    roofline.clone(),
                ],
            );
            obs::complete(
                tracks::SERVE,
                "request",
                arrival,
                reply - arrival,
                vec![
                    ep_arg,
                    arg("target", pending.req.target),
                    arg("batch", bid),
                    arg("queued", start - pending.enqueue),
                    arg("service", exec.duration),
                    req_arg,
                    arg("shard", si),
                ],
            );
            if self.failover_ids.contains(&id) || self.hedged.get(&id) == Some(&Some(si)) {
                self.failover_ids.insert(id);
                self.stats.failover_latencies.push(reply - arrival);
            }
            self.records.push(RequestRecord {
                id,
                endpoint: path.clone(),
                target: pending.req.target,
                enqueue: arrival,
                dispatch: start,
                reply,
                batch: Some(bid),
                batch_size: batch.len(),
                class: argmax(&output),
                output,
                outcome: Outcome::Ok,
            });
            self.notify_client(id, reply);
        }
        self.batches.push(BatchRecord {
            id: bid,
            endpoint: path,
            shard: si,
            replica,
            start,
            duration: exec.duration,
            size: batch.len(),
            oom_splits: exec.oom_splits,
            kernel_retries: exec.kernel_retries,
            peak_memory: exec.peak_memory,
        });
    }

    fn finish(mut self) -> ServeReport {
        // Conservation, in single and fleet mode alike (it is why
        // `serve_metrics.csv` can print `dropped` as a literal 0), and the
        // token bucket's amplification bound: structural invariants.
        let stats = self.stats;
        let fleet = self.plan.fleet;
        assert_eq!(self.records.len(), stats.submitted, "requests dropped");
        assert!(
            stats.dispatched as f64 <= (1.0 + stats.retry_budget) * stats.submitted as f64 + 1e-9,
            "retry/hedge amplification exceeded budget: {} dispatched for {} submitted at budget {}",
            stats.dispatched,
            stats.submitted,
            stats.retry_budget
        );
        self.records.sort_by_key(|r| r.id);
        let makespan = self.records.iter().map(|r| r.reply).fold(0.0, f64::max);
        // CSV rows key on the endpoint path: aggregate across shards.
        let queues = (0..self.registry.len())
            .map(|ei| {
                let of_endpoint = || self.shards.iter().map(move |s| &s.queues[ei]);
                let depth_sum: f64 = of_endpoint().map(|q| q.depth_sum).sum();
                let admitted: u64 = of_endpoint().map(|q| q.admitted).sum();
                QueueStats {
                    endpoint: self.registry.get(ei).cell.path(),
                    max_depth: of_endpoint().map(|q| q.max_depth).max().unwrap_or(0),
                    mean_depth: if admitted == 0 {
                        0.0
                    } else {
                        depth_sum / admitted as f64
                    },
                }
            })
            .collect();
        ServeReport {
            policy: self.plan.policy,
            routing: fleet.map_or("single", |f| f.routing.label()).to_owned(),
            slo_target: self.plan.slo_target,
            fleet: fleet.map(|_| stats),
            requests: self.records,
            batches: self.batches,
            queues,
            makespan,
            replicas: self.plan.shards * self.plan.replicas_per_shard,
            replicas_lost: self.replicas_lost,
            restored_endpoints: self.registry.iter().filter(|e| e.restored).count(),
            notes: self.notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadError, WorkloadKind};
    use crate::{FleetWorkload, ServeConfig};
    use ServeConfigError::*;

    /// Breaks one knob of a valid config, and the error that rule reports.
    type Rule<C> = (fn(&mut C), ServeConfigError);

    /// Each rule broken alone is exactly its violation and `validate`'s
    /// error; the rules of each `together` set (by index; some rules pair
    /// off over one knob) broken at once are every error in row order.
    fn assert_rules<C: Clone>(
        base: &C,
        rules: &[Rule<C>],
        together: &[&[usize]],
        violations: fn(&C) -> Vec<ServeConfigError>,
        validate: fn(&C) -> Result<(), ServeConfigError>,
    ) {
        assert_eq!(violations(base), []);
        for (break_knob, err) in rules {
            let mut cfg = base.clone();
            break_knob(&mut cfg);
            assert_eq!(violations(&cfg), std::slice::from_ref(err));
            assert_eq!(validate(&cfg), Err(err.clone()));
        }
        for set in together {
            let mut cfg = base.clone();
            set.iter().for_each(|&i| rules[i].0(&mut cfg));
            let expect: Vec<_> = set.iter().map(|&i| rules[i].1.clone()).collect();
            assert_eq!(violations(&cfg), expect);
        }
    }

    #[test]
    fn every_hard_rule_is_one_violation_in_precedence_order() {
        let serve: &[Rule<ServeConfig>] = &[
            (|c| c.endpoints.clear(), NoEndpoints),
            (|c| c.requests = 0, Workload(WorkloadError::NoRequests)),
            (|c| c.rate = -1.0, Workload(WorkloadError::BadRate(-1.0))),
            (|c| c.replicas = 0, NoReplicas),
            (|c| c.policy.max_batch = 0, ZeroMaxBatch),
            (|c| c.policy.max_delay = -1.0, BadMaxDelay(-1.0)),
            (
                |c| c.queue_cap = 2,
                QueueBelowBatch {
                    queue_cap: 2,
                    max_batch: 8,
                },
            ),
            (|c| c.slo_target = 0.0, BadSloTarget(0.0)),
        ];
        assert_rules(
            &ServeConfig::default(),
            serve,
            &[&[0, 1, 2, 3, 4, 5, 7], &[0, 1, 2, 3, 5, 6, 7]],
            ServeConfig::violations,
            ServeConfig::validate,
        );

        fn autoscale(c: &mut FleetConfig) -> &mut crate::AutoscalePolicy {
            c.autoscale.as_mut().expect("the default fleet autoscales")
        }
        let fleet: &[Rule<FleetConfig>] = &[
            (|c| c.endpoints.clear(), NoEndpoints),
            (|c| c.shards = 0, NoShards),
            (|c| c.replicas_per_shard = 0, NoReplicas),
            (|c| c.policy.max_batch = 0, ZeroMaxBatch),
            (|c| c.policy.max_delay = -1.0, BadMaxDelay(-1.0)),
            (
                |c| c.queue_cap = 2,
                QueueBelowBatch {
                    queue_cap: 2,
                    max_batch: 8,
                },
            ),
            (|c| c.admission_cap = 0, ZeroAdmissionCap),
            (|c| c.retry_budget = -1.0, BadRetryBudget(-1.0)),
            (|c| c.health.probe_interval = 0.0, BadProbeInterval(0.0)),
            (|c| c.health.fail_threshold = 0, ZeroFailThreshold),
            (|c| c.health.readmit_threshold = 0, ZeroReadmitThreshold),
            (|c| c.hedge_after = Some(0.0), BadHedgeDelay(0.0)),
            (|c| c.net_delay = -1.0, BadNetDelay(-1.0)),
            (|c| c.slo_target = 0.0, BadSloTarget(0.0)),
            (|c| autoscale(c).min_replicas = 0, ZeroMinReplicas),
            (
                |c| autoscale(c).min_replicas = 5,
                AutoscaleBounds { min: 5, max: 4 },
            ),
            (
                |c| autoscale(c).queue_low = 24,
                AutoscaleWatermarks { low: 24, high: 24 },
            ),
            (|c| autoscale(c).cooldown = -1.0, BadCooldown(-1.0)),
            (|c| c.requests = 0, Workload(WorkloadError::NoRequests)),
            (|c| c.rate = 0.0, Workload(WorkloadError::BadRate(0.0))),
            (
                |c| {
                    c.workload = FleetWorkload::Open(WorkloadKind::Diurnal {
                        period: 0.0,
                        amplitude: 0.5,
                    })
                },
                Workload(WorkloadError::BadPeriod(0.0)),
            ),
        ];
        let all_but = |skip: [usize; 2]| -> Vec<usize> {
            (0..fleet.len()).filter(|i| !skip.contains(i)).collect()
        };
        assert_rules(
            &FleetConfig::default(),
            fleet,
            &[&all_but([5, 15]), &all_but([3, 14])],
            FleetConfig::violations,
            FleetConfig::validate,
        );

        fn closed(c: &mut FleetConfig) -> (&mut usize, &mut f64) {
            match &mut c.workload {
                FleetWorkload::Closed {
                    clients,
                    think_time,
                } => (clients, think_time),
                FleetWorkload::Open(_) => unreachable!("the closed-loop base"),
            }
        }
        let closed_loop: &[Rule<FleetConfig>] = &[
            (|c| c.requests = 0, Workload(WorkloadError::NoRequests)),
            (|c| *closed(c).0 = 0, Workload(WorkloadError::NoClients)),
            (
                |c| *closed(c).1 = -1.0,
                Workload(WorkloadError::BadThinkTime(-1.0)),
            ),
        ];
        assert_rules(
            &FleetConfig {
                workload: FleetWorkload::Closed {
                    clients: 4,
                    think_time: 0.01,
                },
                ..FleetConfig::default()
            },
            closed_loop,
            &[&[0, 1, 2]],
            FleetConfig::violations,
            FleetConfig::validate,
        );
    }
}
