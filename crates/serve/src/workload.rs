//! Seeded synthetic client workloads: open-loop, diurnal, flash-crowd, and
//! closed-loop generators.
//!
//! The pre-generated kinds are open-loop — arrival times are drawn up front
//! from a seeded RNG and never react to server backpressure, which is
//! exactly what makes overload scenarios reproducible: the same seed always
//! produces the same request stream, so a run (and its rejections, batch
//! boundaries, and latency percentiles) replays bit-identically. The
//! time-varying kinds ([`WorkloadKind::Diurnal`],
//! [`WorkloadKind::FlashCrowd`]) are sampled by thinning an
//! inhomogeneous Poisson process at its peak rate, which keeps every draw
//! on the same seeded stream. The closed-loop generator ([`ClosedLoop`]) is
//! reactive by definition — each simulated client keeps one request
//! outstanding and thinks before the next — so it is driven by the fleet
//! engine at reply time instead of pre-generated; its draws are made in
//! completion order, which the deterministic engine makes reproducible.
//!
//! Degenerate workloads (zero rate, zero requests, empty endpoint set,
//! malformed shape parameters) are rejected with a typed [`WorkloadError`]
//! at [`WorkloadSpec::new`] construction and again at [`generate`] — never
//! by silently producing an empty request vec.

use std::collections::HashMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shape of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Constant-rate open-loop Poisson arrivals (the original generator;
    /// its RNG stream is byte-compatible with earlier releases).
    OpenLoop,
    /// Diurnal open-loop arrivals: the instantaneous rate follows
    /// `rate * (1 + amplitude * sin(2π t / period))`, sampled by thinning
    /// at the peak rate.
    Diurnal {
        /// Period of the rate cycle in simulated seconds.
        period: f64,
        /// Relative swing around the mean rate, in `[0, 1)`.
        amplitude: f64,
    },
    /// Flash crowd: the base rate multiplies by `factor` over the window
    /// `[at, at + width)`, sampled by thinning at the crowd rate.
    FlashCrowd {
        /// Window start in simulated seconds.
        at: f64,
        /// Window width in simulated seconds.
        width: f64,
        /// Rate multiplier inside the window (≥ 1).
        factor: f64,
    },
}

/// Why a workload specification is degenerate.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The endpoint set is empty.
    NoEndpoints,
    /// The spec generates zero requests (zero duration).
    NoRequests,
    /// The arrival rate is zero, negative, or non-finite.
    BadRate(f64),
    /// An endpoint offers zero targets to draw from.
    EmptyEndpoint(String),
    /// A diurnal period is zero, negative, or non-finite.
    BadPeriod(f64),
    /// A diurnal amplitude is outside `[0, 1)`.
    BadAmplitude(f64),
    /// A flash-crowd start is negative or non-finite.
    BadCrowdStart(f64),
    /// A flash-crowd width is zero, negative, or non-finite.
    BadCrowdWidth(f64),
    /// A flash-crowd factor is below 1 or non-finite.
    BadCrowdFactor(f64),
    /// A closed-loop client count is zero.
    NoClients,
    /// A closed-loop think time is negative or non-finite.
    BadThinkTime(f64),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NoEndpoints => write!(f, "workload needs at least one endpoint"),
            WorkloadError::NoRequests => write!(f, "workload generates no requests"),
            WorkloadError::BadRate(rate) => write!(f, "arrival rate {rate} must be positive"),
            WorkloadError::EmptyEndpoint(path) => write!(f, "endpoint {path} has no targets"),
            WorkloadError::BadPeriod(period) => {
                write!(f, "diurnal period {period} must be positive")
            }
            WorkloadError::BadAmplitude(amplitude) => {
                write!(f, "diurnal amplitude {amplitude} must be in [0, 1)")
            }
            WorkloadError::BadCrowdStart(at) => {
                write!(f, "flash-crowd start {at} must be non-negative")
            }
            WorkloadError::BadCrowdWidth(width) => {
                write!(f, "flash-crowd width {width} must be positive")
            }
            WorkloadError::BadCrowdFactor(factor) => {
                write!(f, "flash-crowd factor {factor} must be at least 1")
            }
            WorkloadError::NoClients => write!(f, "closed loop needs at least one client"),
            WorkloadError::BadThinkTime(think) => {
                write!(f, "think time {think} must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Workload shape: how many requests arrive, how fast, from which seed,
/// following which arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// RNG seed for arrivals, endpoint choice, and target choice.
    pub seed: u64,
    /// Total requests to generate.
    pub requests: usize,
    /// Mean arrival rate in requests per simulated second (the exponential
    /// inter-arrival parameter; the base rate for time-varying kinds).
    pub rate: f64,
    /// The arrival process.
    pub kind: WorkloadKind,
}

impl WorkloadSpec {
    /// Constructs a validated spec — the blessed path: degenerate shapes
    /// are rejected here with a typed error instead of surfacing later as
    /// an empty request vec.
    ///
    /// # Errors
    ///
    /// Returns the [`WorkloadError`] naming the degenerate parameter.
    pub fn new(
        seed: u64,
        requests: usize,
        rate: f64,
        kind: WorkloadKind,
    ) -> Result<Self, WorkloadError> {
        let spec = WorkloadSpec {
            seed,
            requests,
            rate,
            kind,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// [`WorkloadSpec::new`] with the constant-rate open-loop kind.
    ///
    /// # Errors
    ///
    /// Returns the [`WorkloadError`] naming the degenerate parameter.
    pub fn open_loop(seed: u64, requests: usize, rate: f64) -> Result<Self, WorkloadError> {
        WorkloadSpec::new(seed, requests, rate, WorkloadKind::OpenLoop)
    }

    /// Every degenerate parameter of the spec, in precedence order.
    pub fn violations(&self) -> Vec<WorkloadError> {
        use WorkloadError::*;
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let mut rules = vec![
            (self.requests == 0, NoRequests),
            (!positive(self.rate), BadRate(self.rate)),
        ];
        match self.kind {
            WorkloadKind::OpenLoop => {}
            WorkloadKind::Diurnal { period, amplitude } => rules.extend([
                (!positive(period), BadPeriod(period)),
                (
                    !(amplitude.is_finite() && (0.0..1.0).contains(&amplitude)),
                    BadAmplitude(amplitude),
                ),
            ]),
            WorkloadKind::FlashCrowd { at, width, factor } => rules.extend([
                (!(at.is_finite() && at >= 0.0), BadCrowdStart(at)),
                (!positive(width), BadCrowdWidth(width)),
                (
                    !(factor.is_finite() && factor >= 1.0),
                    BadCrowdFactor(factor),
                ),
            ]),
        }
        rules
            .into_iter()
            .filter_map(|(broken, err)| broken.then_some(err))
            .collect()
    }

    /// Re-checks the spec (struct-literal construction can bypass
    /// [`WorkloadSpec::new`]; [`generate`] calls this again).
    ///
    /// # Errors
    ///
    /// Returns the first of [`WorkloadSpec::violations`].
    pub fn validate(&self) -> Result<(), WorkloadError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// The peak instantaneous arrival rate of the process (the thinning
    /// envelope for time-varying kinds).
    pub fn peak_rate(&self) -> f64 {
        match self.kind {
            WorkloadKind::OpenLoop => self.rate,
            WorkloadKind::Diurnal { amplitude, .. } => self.rate * (1.0 + amplitude),
            WorkloadKind::FlashCrowd { factor, .. } => self.rate * factor,
        }
    }

    /// The instantaneous arrival rate at simulated time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match self.kind {
            WorkloadKind::OpenLoop => self.rate,
            WorkloadKind::Diurnal { period, amplitude } => {
                self.rate * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t / period).sin())
            }
            WorkloadKind::FlashCrowd { at, width, factor } => {
                if t >= at && t < at + width {
                    self.rate * factor
                } else {
                    self.rate
                }
            }
        }
    }
}

/// One inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique, dense id (also the submission order).
    pub id: u64,
    /// Index into the registry's endpoint list.
    pub endpoint: usize,
    /// Target within the endpoint: a node index (table4) or graph index
    /// (table5).
    pub target: u32,
    /// Simulated arrival time in seconds.
    pub arrival: f64,
}

fn check_endpoints(endpoints: &[(String, u32)]) -> Result<(), WorkloadError> {
    if endpoints.is_empty() {
        return Err(WorkloadError::NoEndpoints);
    }
    for (path, targets) in endpoints {
        if *targets == 0 {
            return Err(WorkloadError::EmptyEndpoint(path.clone()));
        }
    }
    Ok(())
}

/// Generates the request stream for `endpoints` (`(cell path, target
/// count)` pairs, from [`crate::ModelRegistry::target_space`]).
///
/// Inter-arrival gaps are exponential via inverse-transform sampling
/// (`-ln(1 - u) / rate`), endpoints are chosen uniformly, targets uniformly
/// within each endpoint's range. Time-varying kinds thin candidate arrivals
/// drawn at the peak rate, keeping every decision on the same seeded
/// stream. Arrival times are strictly increasing, so `id` order is arrival
/// order. The [`WorkloadKind::OpenLoop`] draw sequence is unchanged from
/// earlier releases, so legacy seeds reproduce byte-identical streams.
///
/// # Errors
///
/// Returns a [`WorkloadError`] for a degenerate spec or endpoint set.
pub fn generate(
    spec: &WorkloadSpec,
    endpoints: &[(String, u32)],
) -> Result<Vec<Request>, WorkloadError> {
    spec.validate()?;
    check_endpoints(endpoints)?;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let peak = spec.peak_rate();
    let mut now = 0.0f64;
    let mut out = Vec::with_capacity(spec.requests);
    for id in 0..spec.requests as u64 {
        loop {
            let u: f64 = rng.gen_range(0.0..1.0);
            now += -(1.0 - u).ln() / peak;
            // Thinning: accept the candidate with probability
            // rate(t)/peak. The open-loop kind has rate(t) == peak, and
            // skips the acceptance draw entirely to keep its RNG stream
            // byte-compatible with the original generator.
            if matches!(spec.kind, WorkloadKind::OpenLoop) {
                break;
            }
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept < spec.rate_at(now) / peak {
                break;
            }
        }
        let endpoint = rng.gen_range(0..endpoints.len());
        let target = rng.gen_range(0..endpoints[endpoint].1);
        out.push(Request {
            id,
            endpoint,
            target,
            arrival: now,
        });
    }
    Ok(out)
}

/// The closed-loop generator: `clients` simulated users, each keeping
/// exactly one request outstanding and thinking an exponential
/// `think_time`-mean gap between its reply and its next request.
///
/// Unlike the open-loop kinds this cannot be pre-generated — the next
/// arrival depends on when the previous reply landed — so the fleet engine
/// drives it: [`ClosedLoop::initial`] seeds the first wave and
/// [`ClosedLoop::on_done`] mints the follow-up request when one terminates
/// (answered, rejected, or shed — a client re-issues after any terminal
/// outcome). Draws happen in completion order, which the deterministic
/// engine makes reproducible.
#[derive(Debug)]
pub struct ClosedLoop {
    rng: StdRng,
    think_time: f64,
    clients: usize,
    /// Total requests still allowed to be minted (budget).
    remaining: usize,
    next_id: u64,
    owner: HashMap<u64, usize>,
}

impl ClosedLoop {
    /// Every hard rule a closed loop of `clients` minting `requests`
    /// requests with mean gap `think_time` breaks, in precedence order.
    pub fn violations(requests: usize, clients: usize, think_time: f64) -> Vec<WorkloadError> {
        use WorkloadError::*;
        [
            (requests == 0, NoRequests),
            (clients == 0, NoClients),
            (
                !(think_time.is_finite() && think_time >= 0.0),
                BadThinkTime(think_time),
            ),
        ]
        .into_iter()
        .filter_map(|(broken, err)| broken.then_some(err))
        .collect()
    }

    /// Creates a validated closed-loop generator minting at most
    /// `requests` requests in total.
    ///
    /// # Errors
    ///
    /// Returns the first of [`ClosedLoop::violations`].
    pub fn new(
        seed: u64,
        requests: usize,
        clients: usize,
        think_time: f64,
    ) -> Result<Self, WorkloadError> {
        if let Some(err) = Self::violations(requests, clients, think_time)
            .into_iter()
            .next()
        {
            return Err(err);
        }
        Ok(ClosedLoop {
            rng: StdRng::seed_from_u64(seed),
            think_time,
            clients,
            remaining: requests,
            next_id: 0,
            owner: HashMap::new(),
        })
    }

    /// Requests already minted.
    pub fn minted(&self) -> u64 {
        self.next_id
    }

    fn mint(&mut self, client: usize, at: f64, endpoints: &[(String, u32)]) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let id = self.next_id;
        self.next_id += 1;
        let endpoint = self.rng.gen_range(0..endpoints.len());
        let target = self.rng.gen_range(0..endpoints[endpoint].1);
        self.owner.insert(id, client);
        Some(Request {
            id,
            endpoint,
            target,
            arrival: at,
        })
    }

    /// The first wave: one request per client, with exponential think-gap
    /// staggering from time zero (clients do not all arrive at once).
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] for a degenerate endpoint set.
    pub fn initial(&mut self, endpoints: &[(String, u32)]) -> Result<Vec<Request>, WorkloadError> {
        check_endpoints(endpoints)?;
        let mut out = Vec::new();
        for client in 0..self.clients {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            let at = if self.think_time > 0.0 {
                -(1.0 - u).ln() * self.think_time
            } else {
                0.0
            };
            match self.mint(client, at, endpoints) {
                Some(req) => out.push(req),
                None => break,
            }
        }
        Ok(out)
    }

    /// Reports request `id`'s terminal outcome at simulated time `now`;
    /// returns the owning client's next request (arriving after its think
    /// gap), or `None` when the budget is exhausted or `id` is unknown.
    pub fn on_done(&mut self, id: u64, now: f64, endpoints: &[(String, u32)]) -> Option<Request> {
        let client = self.owner.remove(&id)?;
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let gap = if self.think_time > 0.0 {
            -(1.0 - u).ln() * self.think_time
        } else {
            0.0
        };
        self.mint(client, now + gap, endpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Vec<(String, u32)> {
        vec![("a".into(), 100), ("b".into(), 7)]
    }

    fn open(seed: u64, requests: usize, rate: f64) -> WorkloadSpec {
        WorkloadSpec::open_loop(seed, requests, rate).unwrap()
    }

    #[test]
    fn same_seed_reproduces_bit_identically() {
        let spec = open(9, 200, 50.0);
        let a = generate(&spec, &space()).unwrap();
        let b = generate(&spec, &space()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn arrivals_increase_and_targets_stay_in_range() {
        let spec = open(3, 500, 200.0);
        let reqs = generate(&spec, &space()).unwrap();
        for w in reqs.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
        for r in &reqs {
            let cap = space()[r.endpoint].1;
            assert!(r.target < cap);
        }
        // Uniform endpoint choice actually uses both endpoints.
        assert!(reqs.iter().any(|r| r.endpoint == 0));
        assert!(reqs.iter().any(|r| r.endpoint == 1));
    }

    #[test]
    fn mean_gap_tracks_rate() {
        let spec = open(1, 4000, 100.0);
        let reqs = generate(&spec, &space()).unwrap();
        let makespan = reqs.last().unwrap().arrival;
        let mean_gap = makespan / reqs.len() as f64;
        assert!((mean_gap - 0.01).abs() < 0.002, "mean gap {mean_gap}");
    }

    #[test]
    fn degenerate_specs_are_typed_errors_at_construction() {
        assert_eq!(
            WorkloadSpec::open_loop(0, 0, 10.0).unwrap_err(),
            WorkloadError::NoRequests
        );
        assert_eq!(
            WorkloadSpec::open_loop(0, 5, 0.0).unwrap_err(),
            WorkloadError::BadRate(0.0)
        );
        assert!(matches!(
            WorkloadSpec::open_loop(0, 5, f64::NAN).unwrap_err(),
            WorkloadError::BadRate(rate) if rate.is_nan()
        ));
        assert_eq!(
            WorkloadSpec::new(
                0,
                5,
                10.0,
                WorkloadKind::Diurnal {
                    period: 0.0,
                    amplitude: 0.5
                }
            )
            .unwrap_err(),
            WorkloadError::BadPeriod(0.0)
        );
        assert_eq!(
            WorkloadSpec::new(
                0,
                5,
                10.0,
                WorkloadKind::FlashCrowd {
                    at: 0.1,
                    width: 0.0,
                    factor: 3.0
                }
            )
            .unwrap_err(),
            WorkloadError::BadCrowdWidth(0.0)
        );
    }

    #[test]
    fn zero_target_endpoint_is_a_typed_error() {
        let spec = open(0, 1, 1.0);
        assert_eq!(
            generate(&spec, &[("empty".into(), 0)]).unwrap_err(),
            WorkloadError::EmptyEndpoint("empty".into())
        );
        assert_eq!(
            generate(&spec, &[]).unwrap_err(),
            WorkloadError::NoEndpoints
        );
    }

    #[test]
    fn diurnal_and_flash_crowd_modulate_arrival_density() {
        let period = 1.0;
        let spec = WorkloadSpec::new(
            5,
            4000,
            1000.0,
            WorkloadKind::Diurnal {
                period,
                amplitude: 0.9,
            },
        )
        .unwrap();
        let reqs = generate(&spec, &space()).unwrap();
        assert_eq!(reqs.len(), 4000);
        for w in reqs.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
        // The first half-cycle (sin > 0) must be denser than the second.
        let rising = reqs
            .iter()
            .filter(|r| (r.arrival % period) < period / 2.0)
            .count();
        assert!(
            rising > reqs.len() * 55 / 100,
            "diurnal peak half-cycle holds only {rising}/{} arrivals",
            reqs.len()
        );

        let crowd = WorkloadSpec::new(
            5,
            2000,
            500.0,
            WorkloadKind::FlashCrowd {
                at: 0.5,
                width: 0.5,
                factor: 8.0,
            },
        )
        .unwrap();
        let reqs = generate(&crowd, &space()).unwrap();
        let inside = reqs
            .iter()
            .filter(|r| r.arrival >= 0.5 && r.arrival < 1.0)
            .count();
        let before = reqs.iter().filter(|r| r.arrival < 0.5).count();
        assert!(
            inside > before * 3,
            "flash crowd window holds {inside} vs {before} before it"
        );
    }

    #[test]
    fn time_varying_kinds_are_deterministic_too() {
        let spec = WorkloadSpec::new(
            11,
            300,
            200.0,
            WorkloadKind::FlashCrowd {
                at: 0.2,
                width: 0.3,
                factor: 4.0,
            },
        )
        .unwrap();
        let a = generate(&spec, &space()).unwrap();
        let b = generate(&spec, &space()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn closed_loop_keeps_one_request_outstanding_per_client() {
        let mut cl = ClosedLoop::new(3, 10, 4, 0.01).unwrap();
        let first = cl.initial(&space()).unwrap();
        assert_eq!(first.len(), 4, "one request per client");
        let ids: Vec<u64> = first.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // Completing a request mints its owner's next one, later in time.
        let next = cl.on_done(0, 0.5, &space()).unwrap();
        assert_eq!(next.id, 4);
        assert!(next.arrival >= 0.5);
        // Unknown ids (already completed) mint nothing.
        assert!(cl.on_done(0, 0.6, &space()).is_none());
        // The budget caps total minted requests.
        let mut done = vec![next];
        let mut t = 1.0;
        for id in ids.into_iter().skip(1) {
            if let Some(r) = cl.on_done(id, t, &space()) {
                done.push(r);
            }
            t += 0.1;
        }
        let mut all = first.len() as u64 + done.len() as u64;
        let mut frontier: Vec<u64> = done.iter().map(|r| r.id).collect();
        while let Some(id) = frontier.pop() {
            if let Some(r) = cl.on_done(id, t, &space()) {
                frontier.push(r.id);
                all += 1;
            }
            t += 0.1;
        }
        assert_eq!(all, 10, "budget of 10 requests is exhausted exactly");
        assert_eq!(cl.minted(), 10);
    }

    #[test]
    fn closed_loop_rejects_degenerate_shapes() {
        assert_eq!(
            ClosedLoop::new(0, 10, 0, 0.1).unwrap_err(),
            WorkloadError::NoClients
        );
        assert_eq!(
            ClosedLoop::new(0, 0, 2, 0.1).unwrap_err(),
            WorkloadError::NoRequests
        );
        assert_eq!(
            ClosedLoop::new(0, 10, 2, -1.0).unwrap_err(),
            WorkloadError::BadThinkTime(-1.0)
        );
    }
}
