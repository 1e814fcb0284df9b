//! Failure injection: malformed inputs must be rejected with typed errors,
//! never panics, and degenerate-but-legal inputs must work.
//!
//! The second half of this suite drives the ECO session's fault-tolerance
//! ladder: planned corruptions of the session's cached state must be
//! *detected* by the sampled oracle and *recovered* by an explicit
//! degraded replay whose result is bit-identical to a from-scratch run —
//! never a panic, never a silently wrong answer.

use gsino::core::budget::{budgets_with_constraints, Budgets, LengthModel};
use gsino::core::cancel::CancelToken;
use gsino::core::phase2::{prepare_instances, solve_prepared, RegionMode, RegionSino};
use gsino::core::pipeline::{
    run_flow_with_artifacts, run_gsino, Approach, GsinoConfig, MAX_THREADS,
};
use gsino::core::refine::{RefineConfig, RefineStats};
use gsino::core::service::{RoutingService, ServiceConfig};
use gsino::core::session::{EcoEdit, EcoSession, FaultKind, FaultPlan, OracleConfig};
use gsino::core::CoreError;
use gsino::grid::{
    Circuit, CircuitEdit, GridError, Net, Point, Rect, RegionGrid, RouteSet, SensitivityModel,
    Technology,
};
use gsino::lsk::{kth_for_le, LskError, NoiseTable};
use gsino::rlc::{Netlist, RlcError, Waveform};
use gsino::sino::{instance::SegmentSpec, SinoError, SinoInstance};
use std::time::{Duration, Instant};

#[test]
fn circuit_construction_rejects_bad_inputs() {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
    assert!(matches!(
        Circuit::new("x", die, vec![]),
        Err(GridError::EmptyCircuit)
    ));
    assert!(matches!(
        Circuit::new("x", die, vec![Net::new(0, vec![])]),
        Err(GridError::EmptyNet { .. })
    ));
    assert!(matches!(
        Circuit::new("x", die, vec![Net::new(0, vec![Point::new(500.0, 0.0)])]),
        Err(GridError::PinOutsideDie { .. })
    ));
}

#[test]
fn grid_rejects_unusable_tiles() {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
    let tech = Technology::itrs_100nm();
    for tile in [0.0, -4.0, f64::NAN, 1.0] {
        assert!(
            matches!(
                RegionGrid::from_die(die, &tech, tile),
                Err(GridError::BadTile { .. })
            ),
            "tile {tile} must be rejected"
        );
    }
}

#[test]
fn pipeline_rejects_bad_constraints() {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(256.0, 256.0)).unwrap();
    let circuit = Circuit::new(
        "x",
        die,
        vec![Net::two_pin(
            0,
            Point::new(10.0, 10.0),
            Point::new(200.0, 200.0),
        )],
    )
    .unwrap();
    for vth in [0.0, -0.1, 1.05, 2.0, f64::NAN] {
        let config = GsinoConfig {
            vth,
            ..GsinoConfig::default()
        };
        assert!(
            matches!(
                run_gsino(&circuit, &config),
                Err(CoreError::BadConfig { .. })
            ),
            "vth {vth} must be rejected"
        );
    }
    // Non-finite router weights would poison the routers' float
    // comparators; they must be rejected at the config boundary instead.
    for bad in [f64::NAN, f64::INFINITY] {
        let config = GsinoConfig {
            weights: gsino::core::Weights {
                alpha: bad,
                ..Default::default()
            },
            ..GsinoConfig::default()
        };
        assert!(
            matches!(
                run_gsino(&circuit, &config),
                Err(CoreError::BadConfig { .. })
            ),
            "weight {bad} must be rejected"
        );
    }
}

#[test]
fn sino_rejects_bad_budgets_and_matrices() {
    assert!(matches!(
        SinoInstance::new(vec![SegmentSpec { net: 0, kth: 0.0 }], vec![false]),
        Err(SinoError::BadBudget { .. })
    ));
    assert!(matches!(
        SinoInstance::new(vec![SegmentSpec { net: 0, kth: 1.0 }], vec![false; 3]),
        Err(SinoError::MalformedLayout { .. })
    ));
}

#[test]
fn rlc_rejects_nonphysical_elements() {
    let mut nl = Netlist::new(2);
    assert!(matches!(
        nl.resistor(1, 2, -10.0),
        Err(RlcError::BadElementValue { .. })
    ));
    assert!(matches!(
        nl.resistor(1, 5, 10.0),
        Err(RlcError::NodeOutOfRange { .. })
    ));
    let i = nl.inductor(1, 2, 1e-9).unwrap();
    let j = nl.inductor(2, 0, 1e-9).unwrap();
    assert!(matches!(
        nl.mutual(i, j, 2e-9),
        Err(RlcError::NonPassiveMutual { .. })
    ));
    nl.voltage_source(1, 0, Waveform::Dc(1.0)).unwrap();
}

#[test]
fn lsk_budgeting_rejects_out_of_range() {
    let table = NoiseTable::calibrated(&Technology::itrs_100nm());
    assert!(matches!(
        kth_for_le(&table, 0.15, 0.0),
        Err(LskError::BadDistance { .. })
    ));
    assert!(matches!(
        kth_for_le(&table, 5.0, 100.0),
        Err(LskError::BadConstraint { .. })
    ));
}

#[test]
fn degenerate_circuits_still_flow() {
    // Single net, single pin: nothing to route, nothing to violate.
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(256.0, 256.0)).unwrap();
    let circuit =
        Circuit::new("deg", die, vec![Net::new(0, vec![Point::new(10.0, 10.0)])]).unwrap();
    let outcome = run_gsino(&circuit, &GsinoConfig::default()).unwrap();
    assert!(outcome.violations.is_clean());
    assert_eq!(outcome.total_shields, 0);
    assert_eq!(outcome.wirelength.total_um, 0.0);

    // All pins in one region.
    let circuit = Circuit::new(
        "local",
        die,
        vec![Net::new(
            0,
            vec![
                Point::new(1.0, 1.0),
                Point::new(30.0, 20.0),
                Point::new(5.0, 40.0),
            ],
        )],
    )
    .unwrap();
    let outcome = run_gsino(&circuit, &GsinoConfig::default()).unwrap();
    assert!(outcome.violations.is_clean());
    assert!(outcome.wirelength.total_um > 0.0, "local nets report HPWL");
}

#[test]
fn errors_format_and_chain() {
    // Every error type implements Display + Error with sources.
    use std::error::Error;
    let e = CoreError::BadConfig {
        reason: "demo".into(),
    };
    assert!(e.to_string().contains("demo"));
    let e = CoreError::Lsk(LskError::BadConstraint { vth: 9.0 });
    assert!(e.source().is_some());
    let e = RlcError::Numeric(gsino::numeric::NumericError::EmptyInput { op: "x" });
    assert!(e.source().is_some());
}

// ---------------------------------------------------------------------------
// ECO session fault tolerance
// ---------------------------------------------------------------------------

use gsino::sino::NssModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn session_circuit(n: u32) -> Circuit {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
    let nets: Vec<Net> = (0..n)
        .map(|i| {
            let x = 16.0 + (i as f64 * 37.0) % 600.0;
            let y = 16.0 + (i as f64 * 53.0) % 600.0;
            Net::two_pin(i, Point::new(x, y), Point::new(620.0 - x, 620.0 - y))
        })
        .collect();
    Circuit::new("session", die, nets).unwrap()
}

fn session_config() -> GsinoConfig {
    GsinoConfig {
        // A fixed NSS model keeps the shield-rate fit out of the hot loop;
        // the session re-derives everything else from scratch regardless.
        nss_model: Some(NssModel::from_coefficients(
            [0.9, -0.5, 0.4, -0.2, 0.05, -0.3],
            0.5,
        )),
        threads: 1,
        ..GsinoConfig::default()
    }
}

/// The session's live artifacts must be bit-identical to a from-scratch
/// GSINO run on its current (edited) circuit and configuration.
fn assert_session_matches_scratch(session: &EcoSession) {
    let (outcome, internals) =
        run_flow_with_artifacts(session.circuit(), session.config(), Approach::Gsino).unwrap();
    assert_eq!(session.routes(), &outcome.routes, "routes diverged");
    assert_eq!(session.budgets(), &internals.budgets, "budgets diverged");
    assert_eq!(session.sino(), &internals.sino, "sino diverged");
    assert_eq!(
        session.violations(),
        outcome.violations,
        "violations diverged"
    );
}

#[test]
fn thread_counts_above_the_ceiling_are_rejected_before_any_stage() {
    // A wire `open` carries a whole `GsinoConfig`, so `threads` is remote
    // input. Validation runs before any stage starts a worker, so none of
    // these calls starts the threads the ceiling guards against.
    let with_threads = |threads| GsinoConfig {
        threads,
        ..session_config()
    };
    assert!(with_threads(MAX_THREADS).validate().is_ok());
    fn bad_config<T>(r: Result<T, CoreError>) -> bool {
        matches!(r, Err(CoreError::BadConfig { .. }))
    }
    assert!(bad_config(with_threads(MAX_THREADS + 1).validate()));
    assert!(bad_config(GsinoConfig::builder().threads(100_000).build()));
    let circuit = session_circuit(6);
    assert!(bad_config(run_gsino(&circuit, &with_threads(100_000))));
    assert!(bad_config(EcoSession::new(
        &circuit,
        &with_threads(100_000)
    )));
    let service = RoutingService::new(ServiceConfig::default());
    service
        .open("huge", circuit, with_threads(100_000))
        .unwrap();
    assert!(bad_config(service.close("huge")));
}

#[test]
fn session_phase1_commit_keeps_budget_moved_regions_warm() {
    // An insensitive design: every coupling bound is zero, so any budget
    // move in a region whose occupants stay is certified by
    // `gsino_sino::warm`. The far-away net sends the transaction to the
    // Phase I rung, and the tightened sink moves budgets there: the Phase
    // II stage must keep those regions warm, and the oracle, re-solving
    // every patched region, must agree.
    let config = GsinoConfig {
        sensitivity: SensitivityModel::new(0.0, 1),
        ..session_config()
    };
    let oracle = OracleConfig {
        patched_sample: 1.0,
        ..OracleConfig::default()
    };
    let mut session = EcoSession::with_oracle(&session_circuit(20), &config, oracle).unwrap();
    session.begin().unwrap();
    let far = Net::two_pin(99, Point::new(600.0, 20.0), Point::new(630.0, 90.0));
    session
        .apply(EcoEdit::Circuit(CircuitEdit::AddNet { net: far }))
        .unwrap();
    session
        .apply(EcoEdit::TightenVth {
            net: 3,
            sink: 0,
            vth: 0.10,
        })
        .unwrap();
    session.commit().unwrap();
    let stats = session.stats();
    assert_eq!(stats.phase1_replays, 1);
    assert!(stats.warm_skips > 0, "the Phase I rung kept no region warm");
    assert_eq!(stats.divergences, 0, "{:?}", session.last_divergence());
    assert_session_matches_scratch(&session);
    // Phase II from scratch on the session's routes: uniform budgets under
    // the overrides, then a fresh solve of every region.
    let (circuit, grid, routes) = (session.circuit(), session.grid(), session.routes());
    let config = session.config();
    let table = NoiseTable::calibrated(&config.tech);
    let vth_of = |n, s| config.vth_for(n, s);
    let budgets0 = budgets_with_constraints(
        circuit,
        grid,
        routes,
        &table,
        &vth_of,
        LengthModel::Manhattan,
    )
    .unwrap();
    let work = prepare_instances(grid, routes, &budgets0, &config.sensitivity, 1).unwrap();
    let sino0 =
        solve_prepared(work, config.solver, RegionMode::Sino, 1, config.sino_engine).unwrap();
    assert_eq!(session.budgets_pre_refine(), &budgets0);
    assert_eq!(session.sino_pre_refine(), &sino0);
}

/// Injects one planned corruption, then commits an ordinary edit: the
/// oracle must flag the divergence, quarantine the cached state, and
/// recover through an explicit degraded replay whose result is
/// bit-identical to a from-scratch run on the edited circuit.
fn fault_is_detected_and_recovered(kind: FaultKind) -> EcoSession {
    let circuit = session_circuit(16);
    let mut session =
        EcoSession::with_oracle(&circuit, &session_config(), OracleConfig::full()).unwrap();
    session.inject_fault(&FaultPlan::new(kind)).unwrap();

    session.begin().unwrap();
    session
        .apply(EcoEdit::TightenVth {
            net: 2,
            sink: 0,
            vth: 0.11,
        })
        .unwrap();
    session.commit().unwrap();

    let stats = *session.stats();
    assert!(
        stats.divergences >= 1,
        "{kind:?}: oracle missed the corruption"
    );
    assert!(
        stats.degraded_replays >= 1,
        "{kind:?}: divergence must recover via degraded replay"
    );
    assert!(
        session.last_divergence().is_some(),
        "{kind:?}: divergence reason must be recorded"
    );
    assert_session_matches_scratch(&session);
    session
}

#[test]
fn session_poisoned_keff_is_detected_and_recovered() {
    fault_is_detected_and_recovered(FaultKind::PoisonKeff);
}

#[test]
fn session_stale_route_is_detected_and_recovered() {
    fault_is_detected_and_recovered(FaultKind::StaleRoute);
}

#[test]
fn session_corrupt_budget_is_detected_and_recovered() {
    fault_is_detected_and_recovered(FaultKind::CorruptBudget);
}

#[test]
fn session_stale_lsk_is_detected_and_recovered() {
    let session = fault_is_detected_and_recovered(FaultKind::StaleLsk);
    let reason = session.last_divergence().unwrap();
    assert!(
        reason.contains("LSK index"),
        "caught by another check: {reason}"
    );
}

#[test]
fn session_fault_plan_rejects_stale_targets() {
    let circuit = session_circuit(8);
    let mut session = EcoSession::new(&circuit, &session_config()).unwrap();
    let plan = FaultPlan {
        net: Some(4040),
        ..FaultPlan::new(FaultKind::StaleRoute)
    };
    assert!(matches!(
        session.inject_fault(&plan),
        Err(CoreError::UnknownId { kind: "net", .. })
    ));
    // The rejected plan must not have touched anything.
    assert!(session.verify_now().unwrap());
    assert_eq!(session.stats().divergences, 0);
}

#[test]
fn session_verify_now_flags_and_heals_corruption() {
    let circuit = session_circuit(12);
    let mut session =
        EcoSession::with_oracle(&circuit, &session_config(), OracleConfig::full()).unwrap();
    assert!(session.verify_now().unwrap(), "fresh session must verify");

    session
        .inject_fault(&FaultPlan::new(FaultKind::PoisonKeff))
        .unwrap();
    assert!(
        !session.verify_now().unwrap(),
        "corrupted coupling must be flagged"
    );
    // verify_now degrades on divergence, so the very next check is clean.
    assert!(session.verify_now().unwrap(), "degraded replay must heal");
    assert_eq!(session.stats().degraded_replays, 1);
    assert_session_matches_scratch(&session);
}

#[test]
fn session_canceled_commit_restores_pre_edit_state_bitwise() {
    let circuit = session_circuit(12);
    let mut session = EcoSession::new(&circuit, &session_config()).unwrap();
    let routes_before = session.routes().clone();
    let budgets_before = session.budgets().clone();
    let sino_before = session.sino().clone();

    let new_net = Net::two_pin(77, Point::new(20.0, 600.0), Point::new(600.0, 30.0));
    session.begin().unwrap();
    session
        .apply(EcoEdit::Circuit(CircuitEdit::AddNet {
            net: new_net.clone(),
        }))
        .unwrap();
    let cancel = CancelToken::new();
    cancel.cancel();
    let err = session.commit_with(&cancel).unwrap_err();
    assert!(matches!(err, CoreError::Canceled { .. }), "got {err}");

    // Bitwise rollback: the aborted commit left no trace.
    assert!(!session.in_transaction());
    assert!(session.circuit().net(77).is_none());
    assert_eq!(session.routes(), &routes_before);
    assert_eq!(session.budgets(), &budgets_before);
    assert_eq!(session.sino(), &sino_before);
    assert_eq!(session.stats().divergences, 0);

    // The session stays usable: the same edit commits cleanly afterwards.
    session.begin().unwrap();
    session
        .apply(EcoEdit::Circuit(CircuitEdit::AddNet { net: new_net }))
        .unwrap();
    session.commit().unwrap();
    assert!(session.circuit().net(77).is_some());
    assert_session_matches_scratch(&session);
}

/// Everything a commit may change, for bitwise before/after comparisons.
fn committed_state(
    session: &EcoSession,
) -> (
    RouteSet,
    Budgets,
    RegionSino,
    Budgets,
    RegionSino,
    RefineStats,
) {
    (
        session.routes().clone(),
        session.budgets().clone(),
        session.sino().clone(),
        session.budgets_pre_refine().clone(),
        session.sino_pre_refine().clone(),
        *session.refine_stats(),
    )
}

/// Deadlines swept across a commit whose refinement is mostly pass 2 (120
/// spread nets, density floor 0, so pass 2 visits every shielded region):
/// at 1 and 2 refine threads, every commit either succeeds bit-identical
/// to one that never cancels, or is canceled with the committed state
/// bitwise untouched.
///
/// The sweep runs until one deadline has fired inside refine and one
/// commit has succeeded. A coarse pass tries budgets from 0 to 1.25× the
/// uncanceled commit until the first success. If no deadline has landed
/// in refine by then, the sweep bisects between the longest budget that
/// canceled before refine and the shortest that committed, starting each
/// probe from a fresh session. Refine is most of the commit, so bisection
/// lands in it within a few probes however the run's timing drifts;
/// `MAX_STEPS` bounds the sweep.
#[test]
fn session_deadline_inside_pass2_cancels_cleanly_or_commits_identically() {
    const MAX_STEPS: usize = 40;
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
    let nets: Vec<Net> = (0..120)
        .map(|i| {
            let x = 8.0 + (i as f64 * 37.0) % 620.0;
            let y = 8.0 + (i as f64 * 53.0) % 620.0;
            let dx = 40.0 + (i as f64 * 71.0) % 300.0;
            let dy = 40.0 + (i as f64 * 29.0) % 300.0;
            Net::two_pin(
                i,
                Point::new(x, y),
                Point::new((x + dx) % 630.0 + 4.0, (y + dy) % 630.0 + 4.0),
            )
        })
        .collect();
    let circuit = Circuit::new("pass2", die, nets).unwrap();
    let edit = EcoEdit::TightenVth {
        net: 7,
        sink: 0,
        vth: 0.12,
    };
    let config = |threads: usize| GsinoConfig {
        threads,
        sensitivity: SensitivityModel::new(0.5, 3),
        refine: RefineConfig {
            pass2_density_floor: 0.0,
            ..RefineConfig::default()
        },
        ..session_config()
    };
    let mut reference = EcoSession::new(&circuit, &config(1)).unwrap();
    reference.begin().unwrap();
    reference.apply(edit.clone()).unwrap();
    let t = Instant::now();
    reference.commit().unwrap();
    let full = t.elapsed();
    let expected = committed_state(&reference);
    assert!(expected.5.pass2_regions > 100, "{:?}", expected.5);

    for threads in [1, 2] {
        let mut session = EcoSession::new(&circuit, &config(threads)).unwrap();
        let (mut canceled, mut in_refine) = (0, 0);
        // Dense at the start, so a busier reference run still leaves some
        // budgets short of the commit.
        let coarse = [0, 1, 2, 4, 8, 12, 16, 20].map(|sixteenths: u32| full * sixteenths / 16);
        // The longest budget that canceled before refine, and the
        // shortest one that committed.
        let (mut lo, mut hi) = (Duration::ZERO, None::<Duration>);
        for step in 0..MAX_STEPS {
            if in_refine > 0 && hi.is_some() {
                break;
            }
            // `None` is no deadline at all: the coarse pass ran out
            // without a success.
            let budget = match hi {
                Some(hi) => Some((lo + hi) / 2),
                None => coarse.get(step).copied(),
            };
            let before = committed_state(&session);
            session.begin().unwrap();
            session.apply(edit.clone()).unwrap();
            let token = budget.map_or_else(CancelToken::never, CancelToken::with_deadline);
            let started = Instant::now();
            match session.commit_with(&token) {
                Ok(()) => {
                    let took = started.elapsed();
                    assert!(
                        committed_state(&session) == expected,
                        "threads {threads} step {step}: the commit diverged"
                    );
                    hi = Some(budget.unwrap_or(took));
                    // Later probes must start from the pre-edit state.
                    session = EcoSession::new(&circuit, &config(threads)).unwrap();
                }
                Err(CoreError::Canceled { phase }) => {
                    canceled += 1;
                    if phase == "phase3" {
                        in_refine += 1;
                    } else if let Some(budget) = budget {
                        lo = budget;
                    }
                    assert!(!session.in_transaction());
                    assert!(
                        committed_state(&session) == before,
                        "threads {threads} step {step}: a canceled commit leaked"
                    );
                }
                Err(e) => panic!("threads {threads} step {step}: {e}"),
            }
        }
        assert!(canceled > 0, "threads {threads}: no deadline fired");
        assert!(
            in_refine > 0,
            "threads {threads}: no deadline fired in refine"
        );
    }
}

/// The acceptance workload: 200 random edits across many transactions
/// with zero injected faults must end bit-identical to from-scratch with
/// zero degraded replays — the incremental replay path alone carries the
/// whole session.
#[test]
fn session_200_random_edits_zero_faults_is_bit_identical() {
    let circuit = session_circuit(12);
    let mut session = EcoSession::new(&circuit, &session_config()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x200_ED17);
    let mut next_id = 100u32;
    let mut edits = 0u64;

    while edits < 200 {
        session.begin().unwrap();
        let batch = rng.gen_range(1..=8u64).min(200 - edits);
        // Track ids live *within* the open transaction, so edits always
        // target nets that exist in the working copy.
        let mut live: Vec<u32> = session.circuit().nets().iter().map(|n| n.id()).collect();
        for _ in 0..batch {
            let roll = rng.gen_range(0..100u32);
            let edit = if roll < 60 {
                let net = live[rng.gen_range(0..live.len())];
                EcoEdit::TightenVth {
                    net,
                    sink: 0,
                    vth: 0.08 + 0.06 * rng.gen::<f64>(),
                }
            } else if roll < 75 {
                let net = live[rng.gen_range(0..live.len())];
                EcoEdit::RelaxVth { net, sink: 0 }
            } else if roll < 85 {
                let id = next_id;
                next_id += 1;
                live.push(id);
                let x = 16.0 + rng.gen::<f64>() * 590.0;
                let y = 16.0 + rng.gen::<f64>() * 590.0;
                EcoEdit::Circuit(CircuitEdit::AddNet {
                    net: Net::two_pin(id, Point::new(x, y), Point::new(620.0 - x, 620.0 - y)),
                })
            } else if roll < 92 && live.len() > 4 {
                let i = rng.gen_range(0..live.len());
                let net = live.swap_remove(i);
                EcoEdit::Circuit(CircuitEdit::RemoveNet { net })
            } else {
                let net = live[rng.gen_range(0..live.len())];
                let x = 16.0 + rng.gen::<f64>() * 590.0;
                let y = 16.0 + rng.gen::<f64>() * 590.0;
                EcoEdit::Circuit(CircuitEdit::RePin {
                    net,
                    pins: vec![Point::new(x, y), Point::new(620.0 - x, 620.0 - y)],
                })
            };
            session.apply(edit).unwrap();
            edits += 1;
        }
        session.commit().unwrap();
    }

    let stats = *session.stats();
    assert_eq!(stats.edits_applied, 200);
    assert_eq!(stats.divergences, 0, "{:?}", session.last_divergence());
    assert_eq!(stats.degraded_replays, 0);
    assert_session_matches_scratch(&session);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random edit sequences with interleaved cache corruption: the
    /// session must never panic, every injected fault must surface as an
    /// explicit degraded replay (no silent divergence), and the end state
    /// must be bit-identical to a from-scratch run on the edited inputs.
    #[test]
    fn session_random_edits_with_faults_never_diverge_silently(
        seed in 0u64..1_000_000,
        faults in prop::collection::vec(0..4usize, 1..3),
    ) {
        let kinds = [
            FaultKind::PoisonKeff,
            FaultKind::StaleRoute,
            FaultKind::CorruptBudget,
            FaultKind::StaleLsk,
        ];
        let circuit = session_circuit(10);
        let mut session =
            EcoSession::with_oracle(&circuit, &session_config(), OracleConfig::full()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);

        for &f in &faults {
            // An ordinary edit first, then corruption, then another edit
            // whose commit forces the oracle to look at the cached state.
            session.begin().unwrap();
            let net = rng.gen_range(0..10u32);
            let vth = 0.09 + 0.05 * rng.gen::<f64>();
            session.apply(EcoEdit::TightenVth { net, sink: 0, vth }).unwrap();
            session.commit().unwrap();

            session.inject_fault(&FaultPlan::new(kinds[f])).unwrap();

            session.begin().unwrap();
            let net = rng.gen_range(0..10u32);
            session.apply(EcoEdit::RelaxVth { net, sink: 0 }).unwrap();
            session.commit().unwrap();
        }

        let stats = *session.stats();
        prop_assert!(
            stats.degraded_replays >= faults.len() as u64,
            "every fault must surface as an explicit degraded replay \
             (injected {}, degraded {})",
            faults.len(),
            stats.degraded_replays
        );
        prop_assert!(session.last_divergence().is_some());

        let (outcome, internals) =
            run_flow_with_artifacts(session.circuit(), session.config(), Approach::Gsino).unwrap();
        prop_assert_eq!(session.routes(), &outcome.routes);
        prop_assert_eq!(session.budgets(), &internals.budgets);
        prop_assert_eq!(session.sino(), &internals.sino);
    }
}
