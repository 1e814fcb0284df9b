//! **E8** — routing-service throughput: a multi-session mixed edit
//! workload against the [`RoutingService`] front.
//!
//! Three named sessions (generator circuits) are opened concurrently —
//! each builds its from-scratch flow as its first slice on the worker
//! pool — and then hammered by parallel clients submitting a
//! budget/topology edit mix. Commits are slow relative to submission, so
//! run queues back up and same-class coalescing kicks in naturally; a
//! quiesced burst phase additionally stages a K-request batch that must
//! commit as one replay. Reported: edits/sec, the batch-coalescing ratio
//! (edits committed per transactional replay), and the end-to-end
//! request latency distribution (p50/p99 ms).
//!
//! A second **many-sessions-few-cores** leg then runs 64 sessions on
//! pools of 2 and 4 workers — the regime the shared pool exists for —
//! reporting wall time, throughput, and the park counter.
//!
//! Every retired session is asserted bit-identical to a from-scratch
//! GSINO run on its final circuit+config, so the numbers only count for
//! correct replays. The summary goes to `BENCH_service.json` (override
//! with `GSINO_BENCH_SERVICE_OUT`); `bench_gate` prints its metrics
//! report-only.

use gsino_bench::report::{service_out_path, JsonDoc};
use gsino_bench::{banner, bench_experiment_config};
use gsino_circuits::generator::generate;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::pipeline::{run_flow_with_artifacts, Approach, GsinoConfig};
use gsino_core::service::{RoutingService, ServiceConfig, SessionHandle};
use gsino_core::session::{EcoEdit, EcoSession};
use gsino_core::ErrorKind;
use gsino_grid::geom::Point;
use gsino_grid::net::{CircuitEdit, Net};
use serde::{Map, Value};
use std::time::{Duration, Instant};

const SESSIONS: usize = 3;
const CLIENTS_PER_SESSION: usize = 4;
const REQUESTS_PER_CLIENT: usize = 12;
const BURST_REQUESTS: usize = 8;
const NETS_PER_SESSION: usize = 200;

/// The many-sessions-few-cores leg: far more sessions than pool workers,
/// exercising the pool's run queue and parking under real load.
const MANY_SESSIONS: usize = 64;
const MANY_NETS: usize = 40;
const MANY_REQUESTS: usize = 4;
const MANY_POOLS: [usize; 2] = [2, 4];

/// One client's measurements: end-to-end latency and the receipt for
/// every committed request.
struct ClientLog {
    latency_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    max_batch: usize,
    overload_retries: u64,
}

fn percentile(samples: &[f64], p: f64) -> f64 {
    // invariant: callers only pass non-empty sample sets.
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
    v[idx]
}

/// Submits edits until one commits, retrying typed backpressure
/// rejections (the documented client protocol for `Overloaded`).
fn edit_retrying(
    handle: &SessionHandle,
    edits: Vec<EcoEdit>,
    log: &mut ClientLog,
) -> gsino_core::service::EditReceipt {
    loop {
        let t = Instant::now();
        match handle.edit(edits.clone()) {
            Ok(receipt) => {
                log.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                log.commit_ms.push(receipt.commit_ms);
                log.max_batch = log.max_batch.max(receipt.batch_requests);
                return receipt;
            }
            Err(e) if e.kind() == ErrorKind::Overloaded => {
                assert!(e.is_retryable());
                log.overload_retries += 1;
                std::thread::yield_now();
            }
            Err(other) => panic!("unexpected service error: {other}"),
        }
    }
}

/// The mixed workload one client runs: mostly budget-class constraint
/// edits, every 6th request a topology edit (add a private net, remove it
/// on the following topology turn) — deliberately forcing class changes
/// so batches split on the compatibility key.
fn run_client(handle: SessionHandle, session_idx: usize, client_idx: usize) -> ClientLog {
    let mut log = ClientLog {
        latency_ms: Vec::new(),
        commit_ms: Vec::new(),
        max_batch: 0,
        overload_retries: 0,
    };
    // Ids private to this client so topology edits never collide.
    let base_id = 50_000 + (session_idx * 100 + client_idx) as u32 * 100;
    let mut added = false;
    for r in 0..REQUESTS_PER_CLIENT {
        let edits = if r % 6 == 5 {
            let edit = if added {
                CircuitEdit::RemoveNet { net: base_id }
            } else {
                CircuitEdit::AddNet {
                    net: Net::two_pin(
                        base_id,
                        Point::new(20.0 + client_idx as f64 * 7.0, 30.0 + r as f64 * 11.0),
                        Point::new(600.0 - r as f64 * 5.0, 610.0 - client_idx as f64 * 13.0),
                    ),
                }
            };
            added = !added;
            vec![EcoEdit::Circuit(edit)]
        } else {
            let net = ((client_idx * REQUESTS_PER_CLIENT + r) % NETS_PER_SESSION) as u32;
            vec![EcoEdit::TightenVth {
                net,
                sink: 0,
                vth: 0.10 + 0.0005 * (r as f64 + 10.0 * client_idx as f64),
            }]
        };
        edit_retrying(&handle, edits, &mut log);
    }
    log
}

/// The final session state must equal a from-scratch flow on its final
/// circuit and configuration.
fn assert_matches_scratch(name: &str, session: &EcoSession) {
    let (outcome, internals) =
        run_flow_with_artifacts(session.circuit(), session.config(), Approach::Gsino)
            .expect("from-scratch oracle");
    assert_eq!(session.routes(), &outcome.routes, "{name}: routes diverged");
    assert_eq!(
        session.budgets(),
        &internals.budgets,
        "{name}: budgets diverged"
    );
    assert_eq!(session.sino(), &internals.sino, "{name}: sino diverged");
}

/// Runs the many-sessions leg on a fixed pool size and returns its
/// metrics section. 64 sessions share `pool_threads` workers; each
/// session is driven by its own client thread, so runnable sessions
/// permanently outnumber workers and the pool's run queue and parking
/// both see traffic. Every retired session's stats are
/// checked, and a deterministic sample is held to the from-scratch
/// bit-identity bar (they are all twins of the same few flavors, so the
/// sample covers every distinct final state).
fn run_many_sessions(pool_threads: usize) -> Map {
    let service = RoutingService::new(ServiceConfig {
        max_sessions: MANY_SESSIONS,
        pool_threads,
        ..ServiceConfig::default()
    });
    let flow_config = GsinoConfig::builder()
        .threads(1)
        .build()
        .expect("valid config");

    let t_total = Instant::now();
    // Four circuit flavors, 16 twin sessions each: the from-scratch
    // sample below covers every flavor.
    let handles: Vec<SessionHandle> = (0..MANY_SESSIONS)
        .map(|i| {
            let mut spec = CircuitSpec::ibm01();
            spec.num_nets = MANY_NETS;
            let circuit = generate(&spec, 3000 + (i % 4) as u64).expect("generator circuit");
            service
                .open(&format!("m{i:02}"), circuit, flow_config.clone())
                .expect("open session")
        })
        .collect();
    for h in &handles {
        assert_eq!(h.query().expect("built").stats.commits, 0);
    }
    let open_s = t_total.elapsed().as_secs_f64();

    let t_load = Instant::now();
    let clients: Vec<_> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let handle = h.clone();
            std::thread::spawn(move || {
                for r in 0..MANY_REQUESTS {
                    let net = ((i % 4) * MANY_REQUESTS + r) as u32 % MANY_NETS as u32;
                    loop {
                        match handle.edit(vec![EcoEdit::TightenVth {
                            net,
                            sink: 0,
                            vth: 0.10 + 0.001 * r as f64,
                        }]) {
                            Ok(_) => break,
                            Err(e) if e.kind() == ErrorKind::Overloaded => {
                                std::thread::yield_now();
                            }
                            Err(other) => panic!("unexpected service error: {other}"),
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let load_s = t_load.elapsed().as_secs_f64();

    let pool = service.pool_stats();
    assert_eq!(pool.pool_threads, pool_threads);
    assert_eq!(
        pool.pinning_violations, 0,
        "a session ran on two workers concurrently"
    );

    let retired: Vec<(String, EcoSession)> = service
        .shutdown()
        .into_iter()
        .map(|(name, outcome)| (name.clone(), outcome.expect("graceful close")))
        .collect();
    assert_eq!(retired.len(), MANY_SESSIONS);
    for (i, (name, session)) in retired.iter().enumerate() {
        assert!(!session.in_transaction(), "{name} left a transaction open");
        assert_eq!(
            session.stats().edits_applied,
            MANY_REQUESTS as u64,
            "{name}: lost or duplicated edits"
        );
        if i % 16 == 0 {
            assert_matches_scratch(name, session);
        }
    }
    let total_s = t_total.elapsed().as_secs_f64();
    let edits = (MANY_SESSIONS * MANY_REQUESTS) as f64;

    println!(
        "== many sessions, {MANY_SESSIONS} sessions x {MANY_NETS} nets, pool {pool_threads} =="
    );
    println!("  concurrent opens          {open_s:>9.2} s (all sessions)");
    println!(
        "  load                      {:>9} edits in {load_s:.2} s ({:.1} edits/sec)",
        edits as u64,
        edits / load_s
    );
    println!(
        "  scheduler                 {:>9} parks, {} runnable at rest",
        pool.parks, pool.runnable_sessions
    );
    let busy: Vec<String> = pool
        .workers
        .iter()
        .map(|w| format!("{:.0}ms/{}t", w.busy_ms, w.tasks))
        .collect();
    println!("  per-worker busy           {}", busy.join(", "));
    println!("  every sampled session bit-identical to from-scratch: yes");

    let mut m = Map::new();
    m.insert("sessions", Value::U64(MANY_SESSIONS as u64));
    m.insert("pool_threads", Value::U64(pool_threads as u64));
    m.insert("open_s", Value::F64(open_s));
    m.insert("load_s", Value::F64(load_s));
    m.insert("total_s", Value::F64(total_s));
    m.insert("edits_per_sec", Value::F64(edits / load_s));
    m.insert("parks", Value::U64(pool.parks));
    m.insert(
        "worker_tasks",
        Value::Array(pool.workers.iter().map(|w| Value::U64(w.tasks)).collect()),
    );
    m
}

fn main() {
    let config = bench_experiment_config();
    eprintln!("{}", banner("service_throughput", &config));

    let service = RoutingService::new(ServiceConfig::default());
    let flow_config = GsinoConfig::builder()
        .threads(1)
        .build()
        .expect("valid config");

    // Open all sessions back to back: the builds run concurrently on the
    // session workers, so wall time is one build, not SESSIONS builds.
    let t_open = Instant::now();
    let handles: Vec<SessionHandle> = (0..SESSIONS)
        .map(|i| {
            let mut spec = CircuitSpec::ibm01();
            spec.num_nets = NETS_PER_SESSION;
            let circuit = generate(&spec, 2002 + i as u64).expect("generator circuit");
            service
                .open(&format!("s{i}"), circuit, flow_config.clone())
                .expect("open session")
        })
        .collect();
    // First query per session blocks until that session's build finishes.
    for h in &handles {
        assert_eq!(h.query().expect("built").stats.commits, 0);
    }
    let open_s = t_open.elapsed().as_secs_f64();

    // Mixed concurrent workload: CLIENTS_PER_SESSION threads per session.
    let t_load = Instant::now();
    let mut clients = Vec::new();
    for (si, h) in handles.iter().enumerate() {
        for ci in 0..CLIENTS_PER_SESSION {
            let handle = h.clone();
            clients.push(std::thread::spawn(move || run_client(handle, si, ci)));
        }
    }
    let logs: Vec<ClientLog> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let load_s = t_load.elapsed().as_secs_f64();

    // Deterministic burst: quiesce session 0, stage BURST_REQUESTS
    // compatible edits from parallel clients, resume — they must drain as
    // very few coalesced replays (one, once every client has enqueued).
    let burst_handle = &handles[0];
    let paused = burst_handle.quiesce().expect("quiesce");
    let burst_clients: Vec<_> = (0..BURST_REQUESTS)
        .map(|i| {
            let h = burst_handle.clone();
            std::thread::spawn(move || {
                h.edit(vec![EcoEdit::TightenVth {
                    net: (100 + i) as u32,
                    sink: 0,
                    vth: 0.12 + 0.001 * i as f64,
                }])
                .expect("burst edit")
            })
        })
        .collect();
    // Submission is a non-blocking try_send before the client parks on
    // its reply, so a generous settle window is enough for all
    // BURST_REQUESTS envelopes to be queued.
    std::thread::sleep(Duration::from_millis(300));
    paused.resume();
    let burst_receipts: Vec<_> = burst_clients
        .into_iter()
        .map(|c| c.join().unwrap())
        .collect();
    let burst_max_batch = burst_receipts
        .iter()
        .map(|r| r.batch_requests)
        .max()
        .unwrap_or(0);
    assert!(
        burst_max_batch >= 2,
        "quiesced burst must coalesce (saw max batch {burst_max_batch})"
    );

    // Retire every session and hold the numbers to the bit-identity bar.
    let retired: Vec<(String, EcoSession)> = service
        .shutdown()
        .into_iter()
        .map(|(name, outcome)| {
            let session = outcome.expect("graceful close");
            (name, session)
        })
        .collect();
    assert_eq!(retired.len(), SESSIONS);
    let mut commits = 0u64;
    let mut edits_applied = 0u64;
    for (name, session) in &retired {
        assert!(!session.in_transaction(), "{name} left a transaction open");
        let stats = session.stats();
        assert_eq!(stats.divergences, 0, "{name}: clean run must not diverge");
        commits += stats.commits;
        edits_applied += stats.edits_applied;
        assert_matches_scratch(name, session);
    }
    // Rejected requests never reach apply, so edits_applied counts exactly
    // the committed workload: the load-phase requests plus the burst.
    let expected_edits =
        (SESSIONS * CLIENTS_PER_SESSION * REQUESTS_PER_CLIENT + BURST_REQUESTS) as u64;
    assert_eq!(edits_applied, expected_edits, "lost or duplicated edits");
    let coalescing_ratio = edits_applied as f64 / commits as f64;

    let latency: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    let commit_times: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.commit_ms.iter().copied())
        .collect();
    let load_edits = (SESSIONS * CLIENTS_PER_SESSION * REQUESTS_PER_CLIENT) as f64;
    let edits_per_sec = load_edits / load_s;
    let max_batch = logs
        .iter()
        .map(|l| l.max_batch)
        .max()
        .unwrap_or(0)
        .max(burst_max_batch);
    let overload_retries: u64 = logs.iter().map(|l| l.overload_retries).sum();

    println!("== routing service, {SESSIONS} sessions x {NETS_PER_SESSION} nets ==");
    println!(
        "  concurrent opens          {:>9.2} s (all sessions)",
        open_s
    );
    println!(
        "  mixed load                {:>9} edits from {} clients in {:.2} s",
        load_edits as u64,
        SESSIONS * CLIENTS_PER_SESSION,
        load_s
    );
    println!("  throughput                {edits_per_sec:>9.1} edits/sec");
    println!(
        "  coalescing                {:>9.2} edits/commit ({} commits, max batch {})",
        coalescing_ratio, commits, max_batch
    );
    println!(
        "  request latency           p50 {:.1} ms, p99 {:.1} ms",
        percentile(&latency, 0.50),
        percentile(&latency, 0.99)
    );
    println!(
        "  shared commit time        p50 {:.1} ms, p99 {:.1} ms",
        percentile(&commit_times, 0.50),
        percentile(&commit_times, 0.99)
    );
    println!("  overload retries          {overload_retries:>9}");
    println!("  every session bit-identical to from-scratch: yes");

    let mut workload = Map::new();
    workload.insert("circuit", Value::Str("ibm01".into()));
    workload.insert("sessions", Value::U64(SESSIONS as u64));
    workload.insert("nets_per_session", Value::U64(NETS_PER_SESSION as u64));
    workload.insert(
        "clients_per_session",
        Value::U64(CLIENTS_PER_SESSION as u64),
    );
    workload.insert(
        "requests_per_client",
        Value::U64(REQUESTS_PER_CLIENT as u64),
    );
    workload.insert("burst_requests", Value::U64(BURST_REQUESTS as u64));
    let mut service_m = Map::new();
    service_m.insert("edits_per_sec", Value::F64(edits_per_sec));
    service_m.insert("coalescing_ratio", Value::F64(coalescing_ratio));
    service_m.insert("p50_ms", Value::F64(percentile(&latency, 0.50)));
    service_m.insert("p99_ms", Value::F64(percentile(&latency, 0.99)));
    service_m.insert("p50_commit_ms", Value::F64(percentile(&commit_times, 0.50)));
    service_m.insert("p99_commit_ms", Value::F64(percentile(&commit_times, 0.99)));
    service_m.insert("commits", Value::U64(commits));
    service_m.insert("edits_applied", Value::U64(edits_applied));
    service_m.insert("max_batch", Value::U64(max_batch as u64));
    service_m.insert("burst_max_batch", Value::U64(burst_max_batch as u64));
    service_m.insert("overload_retries", Value::U64(overload_retries));
    // Many-sessions-few-cores matrix: pool sizes pinned explicitly (not
    // auto) so the numbers are comparable across machines.
    let mut root = Map::new();
    root.insert("schema", Value::U64(1));
    root.insert("workload", Value::Object(workload));
    root.insert("service", Value::Object(service_m));
    for pool_threads in MANY_POOLS {
        root.insert(
            format!("many_sessions_pool{pool_threads}"),
            Value::Object(run_many_sessions(pool_threads)),
        );
    }
    let path = service_out_path();
    match serde_json::to_string_pretty(&JsonDoc(Value::Object(root))) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text + "\n") {
                eprintln!("could not write {path}: {e}");
            } else {
                println!("wrote {path}");
            }
        }
        Err(e) => eprintln!("could not serialize bench summary: {e}"),
    }
}
