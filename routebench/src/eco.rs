//! The ECO workloads: `eco_mixed` and `eco_fanout`.
//!
//! Sessions are served by one `RoutingService` behind a `NetServer` on
//! loopback TCP and driven by a closed-loop load generator of two client
//! threads, one connection each. Every request comes from a per-session
//! script seeded from the workload seed; the benchmark mirrors each
//! committed edit on its own copy of the circuit and constraint overrides,
//! so after the run it knows what every session must hold and checks it
//! against a from-scratch flow.

use crate::flow::{same_flow, traced_flow, Flow};
use crate::stats::{median, percentile, ratio, Tally};
use crate::trace::{Recorder, Span};
use crate::{Counts, Metrics, Opts};
use gsino_circuits::generator::{circuit_digest, generate_scaled, ScaleSpec};
use gsino_core::pipeline::{run_flow_with_artifacts, Approach, GsinoConfig};
use gsino_core::service::{
    NetClient, NetServer, PoolStats, RoutingService, ServiceConfig, ServiceRequest, ServiceResponse,
};
use gsino_core::session::{EcoEdit, EcoSession, EditClass};
use gsino_core::ErrorKind;
use gsino_grid::geom::{Point, Rect};
use gsino_grid::net::{Circuit, CircuitEdit, Net};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Client threads, one connection each.
const CONNECTIONS: usize = 2;
/// Front set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// First id of the nets topology edits add. Sparse on purpose: the
/// service's route sets are indexed by net id.
pub const RESERVED_ID_BASE: u32 = 1_000_000;
/// Nets whose sink 0 the budget-only edits target, per session.
const BUDGET_SUBSET: usize = 64;
/// Tightened constraints are drawn from `[VTH_LO, VTH_HI)` volts.
const VTH_LO: f64 = 0.10;
const VTH_HI: f64 = 0.14;
/// Share of budget-only edits that tighten rather than relax.
const TIGHTEN_SHARE: f64 = 0.7;
/// From-scratch flows run over each final design. Each must equal the
/// session and the others; the traced run measures its overhead against
/// the median pass.
const CHECK_PASSES: usize = 2;

/// The parameters one ECO workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name, also the prefix of the session names.
    pub name: &'static str,
    /// Sessions served.
    pub sessions: usize,
    /// Nets per session design.
    pub nets: usize,
    /// Congestion knob of the ladder generator.
    pub congestion: f64,
    /// Generator seed of session 0's design; session `i` uses this +
    /// `i × design_seed_step`. Designs are pinned: the workload seed drives
    /// the request scripts, so a held-out seed changes the traffic, not
    /// the design's cost.
    pub design_seed: u64,
    /// 0 gives every session the same design, so the sessions' latencies
    /// share one distribution and no percentile sits on a seam between
    /// two designs' costs.
    pub design_seed_step: u64,
    /// Every n-th request is a `Query` (`None`: no queries in the load).
    pub query_every: Option<u64>,
    /// Every n-th edit is a topology edit (`None`: budget-only).
    pub topology_every: Option<u64>,
    /// Requests in flight per session.
    pub in_flight: usize,
    /// Edits per second of `--seconds` the load sends, in total. The count
    /// is fixed, not the duration, so the final routed state and every
    /// quality metric depend only on the seed and `--seconds`.
    pub edits_per_second: f64,
    /// Fewest edits a run sends, so the p95 keeps ten samples beyond it.
    pub min_edits: usize,
}

/// Two sessions on one 1,000-net design, one request in flight each,
/// reads beside writes and a topology edit every tenth edit.
pub const MIXED: Shape = Shape {
    name: "eco_mixed",
    sessions: 2,
    nets: 1_000,
    congestion: 0.3,
    design_seed: 7001,
    design_seed_step: 0,
    query_every: Some(7),
    topology_every: Some(10),
    in_flight: 1,
    edits_per_second: 7.5,
    min_edits: 220,
};

/// 32 sessions of 60 nets, 16 per connection, two budget-only edits in
/// flight per session.
pub const FANOUT: Shape = Shape {
    name: "eco_fanout",
    sessions: 32,
    nets: 60,
    congestion: 0.6,
    design_seed: 9000,
    design_seed_step: 1,
    query_every: None,
    topology_every: None,
    in_flight: 2,
    edits_per_second: 700.0,
    min_edits: 640,
};

/// One request of a session's script.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Read the session's committed state.
    Query,
    /// Commit one edit.
    Edit(EcoEdit),
}

/// A session's endless, seeded request stream.
#[derive(Debug, Clone)]
pub struct Script {
    rng: StdRng,
    subset: Vec<u32>,
    die: Rect,
    query_every: Option<u64>,
    topology_every: Option<u64>,
    requests: u64,
    edits: u64,
    added: Option<u32>,
    next_id: u32,
}

impl Script {
    /// The script for one session's design. The budget edits' net subset
    /// is drawn from `design_seed`, so it is part of the pinned design;
    /// `seed` drives the request stream.
    pub fn new(circuit: &Circuit, shape: &Shape, design_seed: u64, seed: u64) -> Script {
        let mut pick = StdRng::seed_from_u64(design_seed);
        let mut pool: Vec<u32> = circuit
            .nets()
            .iter()
            .filter(|n| !n.sinks().is_empty())
            .map(Net::id)
            .collect();
        let take = BUDGET_SUBSET.min(pool.len());
        for i in 0..take {
            let j = pick.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(take);
        Script {
            rng: StdRng::seed_from_u64(seed),
            subset: pool,
            die: *circuit.die(),
            query_every: shape.query_every,
            topology_every: shape.topology_every,
            requests: 0,
            edits: 0,
            added: None,
            next_id: RESERVED_ID_BASE,
        }
    }

    fn topology(&mut self) -> EcoEdit {
        let edit = match self.added.take() {
            Some(net) => CircuitEdit::RemoveNet { net },
            None => {
                let (lo, hi) = (self.die.lo(), self.die.hi());
                let mut pin = || {
                    Point::new(
                        self.rng.gen_range(lo.x + 1.0..hi.x - 1.0),
                        self.rng.gen_range(lo.y + 1.0..hi.y - 1.0),
                    )
                };
                let net = Net::two_pin(self.next_id, pin(), pin());
                self.added = Some(self.next_id);
                self.next_id += 1;
                CircuitEdit::AddNet { net }
            }
        };
        EcoEdit::Circuit(edit)
    }

    fn budget(&mut self) -> EcoEdit {
        let net = self.subset[self.rng.gen_range(0..self.subset.len())];
        if self.rng.gen::<f64>() < TIGHTEN_SHARE {
            EcoEdit::TightenVth {
                net,
                sink: 0,
                vth: self.rng.gen_range(VTH_LO..VTH_HI),
            }
        } else {
            EcoEdit::RelaxVth { net, sink: 0 }
        }
    }
}

impl Iterator for Script {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.requests += 1;
        if self.query_every.is_some_and(|n| self.requests % n == 0) {
            return Some(Request::Query);
        }
        self.edits += 1;
        let edit = if self.topology_every.is_some_and(|n| self.edits % n == 0) {
            self.topology()
        } else {
            self.budget()
        };
        Some(Request::Edit(edit))
    }
}

/// The benchmark's own copy of what a session must hold: the circuit and
/// the constraint overrides after every committed edit.
#[derive(Debug, Clone)]
struct Mirror {
    circuit: Circuit,
    config: GsinoConfig,
}

impl Mirror {
    fn apply(&mut self, edit: &EcoEdit) -> Result<(), String> {
        let overrides = &mut self.config.vth_overrides;
        match edit {
            EcoEdit::Circuit(e) => self
                .circuit
                .apply_edit(e.clone())
                .map_err(|e| e.to_string())?,
            EcoEdit::TightenVth { net, sink, vth } => {
                overrides.retain(|(n, s, _)| !(n == net && s == sink));
                overrides.push((*net, *sink, *vth));
            }
            EcoEdit::RelaxVth { net, sink } => {
                overrides.retain(|(n, s, _)| !(n == net && s == sink));
            }
            other => return Err(format!("the scripts send no {other:?}")),
        }
        Ok(())
    }
}

/// One session: its design, script and the requests it committed.
struct Plan {
    name: String,
    circuit: Circuit,
    config: GsinoConfig,
    script: Script,
    quota: usize,
    sent_edits: usize,
    done: Vec<Request>,
    mirror: Mirror,
}

impl Plan {
    fn next_request(&mut self) -> Option<Request> {
        if self.sent_edits >= self.quota {
            return None;
        }
        // invariant: scripts are endless.
        let req = self.script.next().expect("scripts never end");
        if matches!(req, Request::Edit(_)) {
            self.sent_edits += 1;
        }
        Some(req)
    }
}

/// Builds the sessions' designs and scripts.
fn plans(shape: &Shape, seed: u64, seconds: f64) -> Result<Vec<Plan>, String> {
    let total = ((seconds * shape.edits_per_second).ceil() as usize).max(shape.min_edits);
    let quota = total.div_ceil(shape.sessions);
    let config = GsinoConfig {
        threads: 1,
        ..GsinoConfig::default()
    };
    (0..shape.sessions)
        .map(|i| {
            let design_seed = shape.design_seed + shape.design_seed_step * i as u64;
            let name = format!("{}-{i}", shape.name);
            let spec = ScaleSpec {
                seed: design_seed,
                ..ScaleSpec::rung(&name, shape.nets, shape.congestion, 0.0)
            };
            let circuit = generate_scaled(&spec)
                .map_err(|e| e.to_string())?
                .into_circuit();
            eprintln!(
                "{name}: design seed {design_seed} digest {:016x}",
                circuit_digest(&circuit)
            );
            let script_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let script = Script::new(&circuit, shape, design_seed, script_seed);
            Ok(Plan {
                mirror: Mirror {
                    circuit: circuit.clone(),
                    config: config.clone(),
                },
                name,
                circuit,
                config: config.clone(),
                script,
                quota,
                sent_edits: 0,
                done: Vec::new(),
            })
        })
        .collect()
}

/// The running front: service, TCP server and one client per connection.
struct Front {
    service: Arc<RoutingService>,
    server: NetServer,
    clients: Vec<NetClient>,
}

impl Front {
    fn stop(self) -> Arc<RoutingService> {
        drop(self.clients);
        self.server.shutdown();
        self.service
    }
}

/// Starts the front, connects, opens every session and waits for each
/// session's first `Query` (every build done).
fn setup(plans: &[Plan], tally: &mut Tally) -> Result<Front, String> {
    let service = Arc::new(RoutingService::new(ServiceConfig {
        max_sessions: plans.len(),
        pool_threads: 2,
        ..ServiceConfig::default()
    }));
    let server =
        NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).map_err(|e| e.to_string())?;
    let addr = server
        .local_addr()
        .ok_or_else(|| "the TCP front has no address".to_string())?;
    let results: Vec<Result<(NetClient, Tally), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = NetClient::connect_tcp(addr).map_err(|e| e.to_string())?;
                    let mut tally = Tally::default();
                    let mine = plans.iter().skip(c).step_by(CONNECTIONS);
                    for p in mine.clone() {
                        let opened = client.open(&p.name, p.circuit.clone(), p.config.clone());
                        tally.check(opened.is_ok(), || format!("open {}: {opened:?}", p.name));
                    }
                    for p in mine {
                        let snap = client.query(&p.name);
                        let ok = snap.as_ref().is_ok_and(|s| s.clean && s.stats.commits == 0);
                        tally.check(ok, || format!("first query of {}: {snap:?}", p.name));
                    }
                    Ok((client, tally))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up client thread panicked"))
            .collect()
    });
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for r in results {
        let (client, t) = r?;
        tally.merge(t);
        clients.push(client);
    }
    Ok(Front {
        service,
        server,
        clients,
    })
}

/// One completed edit request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct EditSample {
    ms: f64,
    class: EditClass,
    queue_ms: f64,
    commit_ms: f64,
    batch: usize,
}

/// What one connection's client thread observed.
struct ClientLog {
    edits: Vec<EditSample>,
    queries: Vec<f64>,
    tally: Tally,
    rejected: u64,
    rec: Recorder,
}

struct Pending {
    id: u64,
    plan: usize,
    req: Request,
    sent: Instant,
}

/// Drives one connection's sessions through their scripts: `in_flight`
/// requests per session, the next request of a session sent when its
/// oldest completes. `wait` returns in id order, so a response that
/// arrives behind an older one is timed when the older one is read.
fn drive(
    client: &mut NetClient,
    plans: &mut [&mut Plan],
    in_flight: usize,
    origin: Instant,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog {
        edits: Vec::new(),
        queries: Vec::new(),
        tally: Tally::default(),
        rejected: 0,
        rec: Recorder::new(origin),
    };
    let mut queue: VecDeque<Pending> = VecDeque::new();
    let send =
        |client: &mut NetClient, plan: &mut Plan, i: usize, queue: &mut VecDeque<Pending>| {
            let Some(req) = plan.next_request() else {
                return Ok(());
            };
            let wire = match &req {
                Request::Query => ServiceRequest::Query,
                Request::Edit(e) => ServiceRequest::Edit(vec![e.clone()]),
            };
            let sent = Instant::now();
            let id = client.send(&plan.name, wire, None)?;
            queue.push_back(Pending {
                id,
                plan: i,
                req,
                sent,
            });
            Ok::<(), gsino_core::CoreError>(())
        };
    for _ in 0..in_flight {
        for (i, plan) in plans.iter_mut().enumerate() {
            if let Err(e) = send(client, plan, i, &mut queue) {
                log.tally.check(false, || format!("send: {e}"));
            }
        }
    }
    while let Some(p) = queue.pop_front() {
        let outcome = client.wait(p.id);
        let done = Instant::now();
        let ms = (done - p.sent).as_secs_f64() * 1e3;
        let plan = &mut *plans[p.plan];
        let (start, end) = (log.rec.at(p.sent), log.rec.at(done));
        let span = |name| Span {
            name,
            start,
            end,
            parent: None,
            request: p.id,
        };
        match (&p.req, outcome) {
            (Request::Query, Ok(ServiceResponse::Snapshot(snap))) => {
                log.queries.push(ms);
                if traced {
                    log.rec.push(span("net.query"));
                }
                log.tally
                    .check(snap.clean, || format!("{}: query not clean", plan.name));
                plan.done.push(Request::Query);
            }
            (Request::Edit(edit), Ok(ServiceResponse::Committed(receipt))) => {
                log.edits.push(EditSample {
                    ms,
                    class: receipt.class,
                    queue_ms: receipt.queue_ms,
                    commit_ms: receipt.commit_ms,
                    batch: receipt.batch_requests,
                });
                if traced {
                    // The receipt's queue and commit times become child
                    // spans ending with the round trip, so the edit span's
                    // self time is the wire's share.
                    let parent = log.rec.push(span("net.edit"));
                    let commit_start = (end - receipt.commit_ms / 1e3).max(start);
                    let queue_start = (commit_start - receipt.queue_ms / 1e3).max(start);
                    for (name, start, end) in [
                        ("service.queue", queue_start, commit_start),
                        ("service.commit", commit_start, end),
                    ] {
                        log.rec.push(Span {
                            name,
                            start,
                            end,
                            parent: Some(parent),
                            request: p.id,
                        });
                    }
                }
                let mirrored = plan.mirror.apply(edit);
                log.tally.check(mirrored.is_ok(), || {
                    format!("{}: mirror {mirrored:?}", plan.name)
                });
                plan.done.push(p.req.clone());
            }
            (_, Err(e)) => {
                if e.kind() == ErrorKind::Overloaded {
                    log.rejected += 1;
                }
                log.tally.check(false, || format!("{}: {e}", plan.name));
            }
            (_, Ok(other)) => {
                log.tally
                    .check(false, || format!("{}: unexpected {other:?}", plan.name));
            }
        }
        if let Err(e) = send(client, plan, p.plan, &mut queue) {
            log.tally.check(false, || format!("send: {e}"));
        }
    }
    log
}

/// Sends one final `Query` per session, which must come back clean.
fn final_queries(client: &mut NetClient, plans: &[&mut Plan], log: &mut ClientLog, traced: bool) {
    for plan in plans {
        let sent = Instant::now();
        let snap = client.query(&plan.name);
        let done = Instant::now();
        log.queries.push((done - sent).as_secs_f64() * 1e3);
        if traced {
            log.rec.push(Span {
                name: "net.query",
                start: log.rec.at(sent),
                end: log.rec.at(done),
                parent: None,
                request: 0,
            });
        }
        let ok = snap.as_ref().is_ok_and(|s| s.clean);
        log.tally
            .check(ok, || format!("final query of {}: {snap:?}", plan.name));
    }
}

/// Per-layer figures the in-process twin replay measures.
#[derive(Default)]
struct Twin {
    budget_commit_ms: Vec<f64>,
    phase1_commit_ms: Vec<f64>,
    query_ms: Vec<f64>,
    counts: Counts,
    commits: u64,
    oracle_checks: u64,
    regions_resolved: u64,
    regions_reused: u64,
    warm_skips: u64,
    divergences: u64,
    degraded_replays: u64,
}

impl Twin {
    /// The session layer's figures.
    fn report(&self, metrics: &mut Metrics) {
        metrics.counts(&self.counts);
        metrics.set_p("session.budget_commit_ms", &self.budget_commit_ms, 50.0);
        metrics.set_p("session.phase1_commit_ms", &self.phase1_commit_ms, 50.0);
        metrics.set_p("session.query_ms", &self.query_ms, 50.0);
        let commits = self.commits as f64;
        let per_commit = |n: u64| ratio(n as f64, commits);
        metrics.set("session.commits", commits);
        metrics.set(
            "session.oracle_checks_per_commit",
            per_commit(self.oracle_checks),
        );
        metrics.set(
            "session.regions_resolved_per_commit",
            per_commit(self.regions_resolved),
        );
        metrics.set(
            "session.regions_reused_per_commit",
            per_commit(self.regions_reused),
        );
        metrics.set(
            "session.warm_skip_share",
            ratio(
                self.warm_skips as f64,
                (self.warm_skips + self.regions_resolved) as f64,
            ),
        );
        metrics.set("session.divergences", self.divergences as f64);
        metrics.set("session.degraded_replays", self.degraded_replays as f64);
        eprintln!(
            "  session.warm_skip_share = {} warm skips / {} budget-changed regions",
            self.warm_skips,
            self.warm_skips + self.regions_resolved
        );
    }
}

/// Replays the requests a session committed on an in-process session
/// built from the same design, timing each commit and violation scan.
/// Returns the twin for comparison with the served session.
fn replay_twin(plan: &Plan, twin: &mut Twin) -> Result<EcoSession, String> {
    let mut session = EcoSession::new(&plan.circuit, &plan.config).map_err(|e| e.to_string())?;
    twin.counts.add_build(&session);
    for req in &plan.done {
        match req {
            Request::Query => {
                let t = Instant::now();
                let report = session.violations();
                twin.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if !report.is_clean() {
                    return Err(format!("{}: twin query not clean", plan.name));
                }
            }
            Request::Edit(edit) => {
                let class = edit.class();
                let t = Instant::now();
                session.begin().map_err(|e| e.to_string())?;
                session.apply(edit.clone()).map_err(|e| e.to_string())?;
                session.commit().map_err(|e| e.to_string())?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                match class {
                    EditClass::Phase1 => {
                        twin.phase1_commit_ms.push(ms);
                        twin.counts.add_router(session.router_stats());
                    }
                    _ => twin.budget_commit_ms.push(ms),
                }
                twin.counts.add_refine(session.refine_stats());
            }
        }
    }
    // The final query every session answers.
    let t = Instant::now();
    let report = session.violations();
    twin.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
    if !report.is_clean() {
        return Err(format!("{}: twin's final state violates", plan.name));
    }
    let s = session.stats();
    twin.commits += s.commits;
    twin.oracle_checks += s.oracle_checks;
    twin.regions_resolved += s.regions_resolved;
    twin.regions_reused += s.regions_reused;
    twin.warm_skips += s.warm_skips;
    twin.divergences += s.divergences;
    twin.degraded_replays += s.degraded_replays;
    twin.counts.phase2_instances += s.regions_resolved;
    twin.counts.phase2_shields += session.sino_pre_refine().total_shields();
    Ok(session)
}

/// Where a served session's final state must equal `flow`.
fn check_session(name: &str, session: &EcoSession, flow: &Flow) -> Result<(), String> {
    let (outcome, internals) = flow;
    let fields = [
        ("routes", session.routes() == &outcome.routes),
        ("budgets", session.budgets() == &internals.budgets),
        ("sino", session.sino() == &internals.sino),
        ("violations", session.violations() == outcome.violations),
    ];
    match fields.iter().find(|(_, same)| !same) {
        Some((field, _)) => Err(format!("{name}: {field} differ from a from-scratch flow")),
        None => Ok(()),
    }
}

/// Sums of the final routed states' quality.
#[derive(Default)]
struct Quality {
    shields: u64,
    wirelength_um: f64,
    area_um2: f64,
    violating_nets: usize,
}

/// Runs one ECO workload.
pub fn run(
    shape: &Shape,
    opts: &Opts,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> Result<Recorder, String> {
    let mut plans = plans(shape, opts.seed, opts.seconds)?;
    let origin = Instant::now();

    // Set-up, repeated; the last front serves the load.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut front = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = front.take() {
            drop(Front::stop(old));
        }
        let t = Instant::now();
        front = Some(setup(&plans, tally)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    // invariant: SETUP_REPEATS > 0.
    let Front {
        service,
        server,
        mut clients,
    } = front.expect("set up at least once");
    let rss_after_setup = crate::peak_rss_mb();

    // Load: one client thread per connection.
    let pool_before = service.pool_stats();
    let load_start = Instant::now();
    let mut groups: Vec<Vec<&mut Plan>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (i, plan) in plans.iter_mut().enumerate() {
        groups[i % CONNECTIONS].push(plan);
    }
    let mut logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(groups.iter_mut())
            .map(|(client, group)| {
                s.spawn(move || drive(client, group, shape.in_flight, origin, opts.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let load_s = load_start.elapsed().as_secs_f64();
    let pool_after = service.pool_stats();
    for ((client, group), log) in clients.iter_mut().zip(&groups).zip(&mut logs) {
        final_queries(client, group, log, opts.trace);
    }
    drop(groups);
    let mut canceled_in_queue = 0;
    for plan in &plans {
        match service.handle(&plan.name).and_then(|h| h.stats()) {
            Ok(report) => canceled_in_queue += report.canceled_in_queue,
            Err(e) => tally.check(false, || format!("{}: stats {e}", plan.name)),
        }
    }
    drop(clients);
    server.shutdown();

    // Close every session in process and check it against a from-scratch
    // flow on the circuit and constraints the benchmark mirrored.
    let mut rec = Recorder::new(origin);
    let mut quality = Quality::default();
    let mut flow_totals = vec![0.0; CHECK_PASSES];
    let mut twin = Twin::default();
    for plan in &plans {
        let session = match service.close(&plan.name) {
            Ok(s) => s,
            Err(e) => {
                tally.check(false, || format!("close {}: {e}", plan.name));
                continue;
            }
        };
        let expect = &plan.mirror;
        tally.check(session.circuit() == &expect.circuit, || {
            format!("{}: circuit differs from the committed script", plan.name)
        });
        tally.check(
            session.config().vth_overrides == expect.config.vth_overrides,
            || {
                format!(
                    "{}: constraints differ from the committed script",
                    plan.name
                )
            },
        );
        let stats = session.stats();
        tally.check(
            stats.divergences == 0 && stats.degraded_replays == 0,
            || format!("{}: {stats:?}", plan.name),
        );
        let mut flow = None;
        for total in flow_totals.iter_mut() {
            let t = Instant::now();
            let again = run_flow_with_artifacts(&expect.circuit, &expect.config, Approach::Gsino)
                .map_err(|e| e.to_string())?;
            *total += t.elapsed().as_secs_f64();
            match &flow {
                None => flow = Some(again),
                Some(first) => tally.check(same_flow(first, &again).is_ok(), || {
                    format!("{}: a repeated flow differs", plan.name)
                }),
            }
        }
        // invariant: CHECK_PASSES > 0.
        let flow = flow.expect("at least one flow ran");
        let checked = check_session(&plan.name, &session, &flow);
        tally.check(checked.is_ok(), || format!("{checked:?}"));
        let outcome = &flow.0;
        tally.check(outcome.violations.is_clean(), || {
            format!("{}: final state violates", plan.name)
        });
        quality.shields += outcome.total_shields;
        quality.wirelength_um += outcome.wirelength.total_um;
        quality.area_um2 += outcome.area.area();
        quality.violating_nets += outcome.violations.violating_nets();
        if opts.trace {
            let traced = traced_flow(&expect.circuit, &expect.config, &mut rec, 0)?;
            let same = same_flow(&flow, &traced.flow);
            tally.check(same.is_ok(), || {
                format!("{}: traced flow {same:?}", plan.name)
            });
            drop(traced);
            let replica = replay_twin(plan, &mut twin);
            let same = replica.and_then(|r| check_session(&plan.name, &r, &flow));
            tally.check(same.is_ok(), || format!("twin: {same:?}"));
        }
    }
    drop(service);

    let edits_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.edits.iter().map(|e| e.ms))
        .collect();
    let queries_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.queries.iter().copied())
        .collect();
    for log in &logs {
        tally.merge(log.tally);
    }
    for (what, class) in [
        ("budget", EditClass::BudgetOnly),
        ("topology", EditClass::Phase1),
    ] {
        let ms: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.edits.iter().filter(|e| e.class == class).map(|e| e.ms))
            .collect();
        if !ms.is_empty() {
            eprintln!(
                "{}: {what} edits n={} median {:.3} ms",
                shape.name,
                ms.len(),
                median(&ms)
            );
        }
    }
    eprintln!(
        "{}: {} edits, {} queries in {load_s:.3} s; set-ups {setups:.3?} s",
        shape.name,
        edits_ms.len(),
        queries_ms.len()
    );

    if opts.trace {
        for log in logs.iter_mut() {
            rec.absorb(std::mem::replace(&mut log.rec, Recorder::new(origin)));
        }
        metrics.layer_flows(&rec, median(&flow_totals));
        twin.report(metrics);
        let receipts: Vec<EditSample> = logs.iter().flat_map(|l| l.edits.iter().copied()).collect();
        let rejected = logs.iter().map(|l| l.rejected).sum::<u64>();
        service_metrics(metrics, &receipts, &pool_before, &pool_after, load_s);
        metrics.set("service.rejected", rejected as f64);
        metrics.set("service.canceled_in_queue", canceled_in_queue as f64);
        let overhead: Vec<f64> = rec
            .self_times_of("net.edit")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        metrics.set_p("net.overhead_ms", &overhead, 50.0);
        metrics.set_p("net.overhead_p95_ms", &overhead, 95.0);
        if let (Some(q), Some(s)) = (
            percentile(&queries_ms, 50.0),
            percentile(&twin.query_ms, 50.0),
        ) {
            metrics.set("net.query_overhead_ms", q - s);
        }
        metrics.set("rss_after_setup_mb", rss_after_setup);
        metrics.set("violations.violating_nets", quality.violating_nets as f64);
        metrics.set("trace.edits_per_s", edits_ms.len() as f64 / load_s);
        metrics.set_p("trace.edit_p50_ms", &edits_ms, 50.0);
        metrics.set_p("trace.query_p50_ms", &queries_ms, 50.0);
        return Ok(rec);
    }

    // An ECO workload's flow is its load: the fixed edit count committed
    // through the service. The check flows are not timed into `flow_s`:
    // on these small designs they are mostly per-flow preparation, whose
    // speed follows the host's slow spells (README, noise floor).
    eprintln!(
        "{}: check flows {:.3} s a pass (median of {CHECK_PASSES})",
        shape.name,
        median(&flow_totals)
    );
    metrics.set("setup_s", median(&setups));
    metrics.set("flow_s", load_s);
    metrics.set("edits_per_s", edits_ms.len() as f64 / load_s);
    metrics.set_percentile("edit_p50_ms", &edits_ms, 50.0)?;
    metrics.set_percentile("edit_p95_ms", &edits_ms, 95.0)?;
    metrics.set_percentile("query_p50_ms", &queries_ms, 50.0)?;
    metrics.quality(quality.shields, quality.wirelength_um, quality.area_um2);
    Ok(rec)
}

/// The service layer's figures: receipts of every committed edit and the
/// scheduler gauges over the load phase.
fn service_metrics(
    metrics: &mut Metrics,
    receipts: &[EditSample],
    before: &PoolStats,
    after: &PoolStats,
    load_s: f64,
) {
    let queue: Vec<f64> = receipts.iter().map(|e| e.queue_ms).collect();
    let commit: Vec<f64> = receipts.iter().map(|e| e.commit_ms).collect();
    metrics.set_p("service.queue_ms", &queue, 50.0);
    metrics.set_p("service.queue_p95_ms", &queue, 95.0);
    metrics.set_p("service.commit_ms", &commit, 50.0);
    // A commit of `b` coalesced requests leaves `b` receipts.
    let commits: f64 = receipts.iter().map(|e| 1.0 / e.batch as f64).sum();
    metrics.set(
        "service.requests_per_commit",
        ratio(receipts.len() as f64, commits),
    );
    metrics.set("service.steals", (after.steals - before.steals) as f64);
    metrics.set("service.parks", (after.parks - before.parks) as f64);
    let busy = |p: &PoolStats| p.workers.iter().map(|w| w.busy_ms).sum::<f64>();
    metrics.set(
        "service.worker_busy_share",
        ratio(
            busy(after) - busy(before),
            after.pool_threads as f64 * load_s * 1e3,
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(seed: u64) -> Circuit {
        let spec = ScaleSpec {
            seed,
            ..ScaleSpec::rung("script-test", 200, 0.3, 0.0)
        };
        generate_scaled(&spec)
            .expect("ladder design")
            .into_circuit()
    }

    #[test]
    fn same_seed_same_script() {
        let circuit = design(11);
        let a: Vec<Request> = Script::new(&circuit, &MIXED, 11, 5).take(300).collect();
        let b: Vec<Request> = Script::new(&circuit, &MIXED, 11, 5).take(300).collect();
        assert_eq!(a, b);
        let c: Vec<Request> = Script::new(&circuit, &MIXED, 11, 6).take(300).collect();
        assert_ne!(a, c, "another seed gives another script");
    }

    #[test]
    fn mixed_script_has_the_documented_shape() {
        let circuit = design(12);
        let reqs: Vec<Request> = Script::new(&circuit, &MIXED, 12, 9).take(700).collect();
        let mut edits = 0;
        let mut added = None;
        for (i, req) in reqs.iter().enumerate() {
            if (i + 1) % 7 == 0 {
                assert_eq!(req, &Request::Query, "request {}", i + 1);
                continue;
            }
            let Request::Edit(edit) = req else {
                panic!("request {} should be an edit", i + 1)
            };
            edits += 1;
            match edit {
                EcoEdit::Circuit(CircuitEdit::AddNet { net }) => {
                    assert_eq!(edits % 10, 0);
                    assert!(net.id() >= RESERVED_ID_BASE && added.is_none());
                    added = Some(net.id());
                }
                EcoEdit::Circuit(CircuitEdit::RemoveNet { net }) => {
                    assert_eq!(edits % 10, 0);
                    assert_eq!(added.take(), Some(*net));
                }
                EcoEdit::TightenVth { sink, vth, .. } => {
                    assert_eq!(*sink, 0);
                    assert!((VTH_LO..VTH_HI).contains(vth));
                }
                EcoEdit::RelaxVth { sink, .. } => assert_eq!(*sink, 0),
                other => panic!("unexpected edit {other:?}"),
            }
        }
        assert_eq!(edits, 600);
    }

    #[test]
    fn fanout_script_is_budget_only_and_mirrors_cleanly() {
        let circuit = design(13);
        let mut mirror = Mirror {
            circuit: circuit.clone(),
            config: GsinoConfig::default(),
        };
        for req in Script::new(&circuit, &FANOUT, 13, 3).take(500) {
            let Request::Edit(edit) = req else {
                panic!("fan-out scripts send no queries")
            };
            assert_eq!(edit.class(), EditClass::BudgetOnly);
            mirror.apply(&edit).expect("budget edits mirror");
        }
        assert_eq!(mirror.circuit, circuit);
        assert!(mirror.config.vth_overrides.len() <= BUDGET_SUBSET);
    }
}
