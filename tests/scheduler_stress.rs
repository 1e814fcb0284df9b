//! Scheduler invariant stress: many sessions on few pool workers.
//!
//! The worker pool's conformance promises, checked at 64 sessions × 2
//! workers (the sessions-far-outnumber-workers regime the pool exists
//! for; `GSINO_POOL_THREADS` overrides the pool size so CI can sweep a
//! matrix):
//!
//! 1. **Bit-identity** — every retired session equals both its *twin*
//!    (the same circuit + edit sequence driven through a different
//!    session name, so the two interleave arbitrarily on the pool) and a
//!    from-scratch flow on its final configuration.
//! 2. **Pinning** — no session is ever observed on two workers at once
//!    ([`pinning_violations`](gsino::core::service::PoolStats) stays 0).
//! 3. **Clean drain** — after every session closes, no runnable work
//!    remains anywhere in the scheduler (the pool run queue is empty).

use gsino::core::pipeline::{run_flow_with_artifacts, Approach};
use gsino::grid::{Circuit, Net, Point, Rect};
use gsino::sino::nss::NssModel;
use gsino::{EcoEdit, EcoSession, GsinoConfig, RoutingService, ServiceConfig};

/// Pool size under test: `GSINO_POOL_THREADS` (the CI matrix knob),
/// defaulting to the issue's canonical 2-workers case.
fn pool_threads() -> usize {
    std::env::var("GSINO_POOL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

fn small_circuit(name: &str, n: u32, salt: u32) -> Circuit {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
    let nets: Vec<Net> = (0..n)
        .map(|i| {
            let k = i + salt;
            let x = 16.0 + (f64::from(k) * 37.0) % 600.0;
            let y = 16.0 + (f64::from(k) * 53.0) % 600.0;
            Net::two_pin(i, Point::new(x, y), Point::new(620.0 - x, 620.0 - y))
        })
        .collect();
    Circuit::new(name, die, nets).unwrap()
}

fn fast_config() -> GsinoConfig {
    GsinoConfig::builder()
        .nss_model(NssModel::from_coefficients(
            [0.9, -0.5, 0.4, -0.2, 0.05, -0.3],
            0.5,
        ))
        .threads(1)
        .build()
        .unwrap()
}

/// The per-session workload: deterministic in the session's *flavor*, so
/// twin sessions (same flavor, different name) replay identical edits.
fn edits_for(flavor: u32, step: u32) -> Vec<EcoEdit> {
    vec![EcoEdit::TightenVth {
        net: (flavor + step) % 6,
        sink: 0,
        vth: 0.10 + 0.004 * f64::from((flavor + 3 * step) % 7),
    }]
}

fn assert_matches_scratch(name: &str, session: &EcoSession) {
    let (outcome, internals) =
        run_flow_with_artifacts(session.circuit(), session.config(), Approach::Gsino).unwrap();
    assert_eq!(session.routes(), &outcome.routes, "{name}: routes diverged");
    assert_eq!(
        session.budgets(),
        &internals.budgets,
        "{name}: budgets diverged"
    );
    assert_eq!(session.sino(), &internals.sino, "{name}: sino diverged");
}

#[test]
fn sixty_four_sessions_on_a_tiny_pool_hold_every_invariant() {
    const SESSIONS: usize = 64;
    const FLAVORS: u32 = 32; // sessions i and i+32 are twins
    const STEPS: u32 = 2;

    let service = RoutingService::new(ServiceConfig {
        max_sessions: SESSIONS,
        pool_threads: pool_threads(),
        ..ServiceConfig::default()
    });
    assert!(
        service.config().pool_threads < SESSIONS,
        "the point of this test is pool threads < session count"
    );

    // Open everything up front: 64 builds funnel through the few workers.
    let names: Vec<String> = (0..SESSIONS).map(|i| format!("s{i:02}")).collect();
    for (i, name) in names.iter().enumerate() {
        let flavor = i as u32 % FLAVORS;
        service
            .open(name, small_circuit(name, 6, flavor), fast_config())
            .unwrap();
    }

    // Drive every session from its own client thread so submissions
    // interleave arbitrarily across the pool.
    let clients: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let handle = service.handle(name).unwrap();
            let flavor = i as u32 % FLAVORS;
            std::thread::spawn(move || {
                for step in 0..STEPS {
                    loop {
                        match handle.edit(edits_for(flavor, step)) {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => std::thread::yield_now(),
                            Err(other) => panic!("edit failed: {other:?}"),
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // Pinning held throughout the storm.
    let stats = service.pool_stats();
    assert_eq!(
        stats.pinning_violations, 0,
        "a session ran on two workers concurrently"
    );
    assert_eq!(stats.pool_threads, pool_threads());

    // Retire everything; every close must succeed with a drained queue.
    let mut retired: Vec<(usize, EcoSession)> = Vec::with_capacity(SESSIONS);
    for (i, name) in names.iter().enumerate() {
        let session = service.close(name).unwrap();
        assert!(!session.in_transaction(), "{name}: torn transaction");
        assert_eq!(
            session.stats().edits_applied,
            u64::from(STEPS),
            "{name}: lost or duplicated edits"
        );
        retired.push((i, session));
    }

    // Clean drain: with every session retired, nothing is runnable —
    // the pool run queue is empty. (Retirement is synchronous in
    // close(), so no settling wait is needed.)
    let stats = service.pool_stats();
    assert_eq!(stats.runnable_sessions, 0, "scheduler left runnable work");
    assert_eq!(stats.pinning_violations, 0);

    // Twin bit-identity: same flavor ⇒ byte-for-byte the same artifacts,
    // regardless of how the two sessions' slices interleaved.
    for f in 0..FLAVORS as usize {
        let (_, a) = &retired[f];
        let (_, b) = &retired[f + FLAVORS as usize];
        assert_eq!(a.routes(), b.routes(), "flavor {f}: twin routes differ");
        assert_eq!(a.budgets(), b.budgets(), "flavor {f}: twin budgets differ");
        assert_eq!(a.sino(), b.sino(), "flavor {f}: twin sino differs");
        assert_eq!(
            a.config().vth_overrides,
            b.config().vth_overrides,
            "flavor {f}: twin overrides differ"
        );
    }

    // From-scratch bit-identity on a deterministic sample (every 8th
    // session) — the full flow is expensive under the debug oracle, and
    // twin identity above already ties every session to a checked one
    // modulo flavor.
    for (i, session) in retired.iter().filter(|(i, _)| i % 8 == 0) {
        assert_matches_scratch(&names[*i], session);
    }

    // The drop joins the (now idle) pool; it must not hang.
    drop(service);
}
