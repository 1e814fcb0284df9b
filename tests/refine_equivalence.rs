//! Equivalence properties of the incremental Phase III pass against the
//! seed pass kept in `gsino_core::refine::reference`.
//!
//! Two contracts are property-tested here, mirroring
//! `router_equivalence.rs` (Phase I) and `sino_equivalence.rs` (Phase II):
//!
//! 1. **The tracker contract** — `refine::tracker::LskTracker` stays
//!    bitwise-equal to a from-scratch `violations::check` (same severity
//!    ranking, same violating sinks, same LSK values and voltages) across
//!    random region-edit sequences: budget tightenings *and* loosenings,
//!    re-solves, on random regions.
//! 2. **The pass contract** — `refine::refine` produces bit-identical
//!    final `Budgets`, `RegionSino` and `RefineStats::outcome` to
//!    `refine::reference::refine` across random circuits, sensitivity
//!    rates, constraint pairs and refine configurations. The
//!    `#[ignore]`d pass-2-heavy legs hold it on generated rungs where
//!    pass 2 makes over a thousand visits, at 1 and 2 threads
//!    (`cargo test --release --test refine_equivalence -- --ignored`).

use gsino_circuits::generator::{generate_scaled, ScaleSpec};
use gsino_core::budget::{uniform_budgets, Budgets, LengthModel};
use gsino_core::cancel::CancelToken;
use gsino_core::phase2::{solve_regions, RegionMode, RegionSino};
use gsino_core::pipeline::{run_flow_with_artifacts, Approach, GsinoConfig};
use gsino_core::refine::tracker::LskTracker;
use gsino_core::refine::{self, RefineConfig, RefineStats};
use gsino_core::router::{route_all, ShieldTerm, Weights};
use gsino_core::violations::check;
use gsino_grid::geom::{Point, Rect};
use gsino_grid::net::{Circuit, Net};
use gsino_grid::route::RouteSet;
use gsino_grid::sensitivity::SensitivityModel;
use gsino_grid::tech::Technology;
use gsino_grid::RegionGrid;
use gsino_lsk::table::NoiseTable;
use gsino_sino::solver::{SinoSolver, SolverConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A dense single-row bus (every net couples hard) solved through Phase
/// II with budgets computed at `budget_vth` — loose budgets plus a strict
/// check voltage recreate the Manhattan-underestimate violations Phase
/// III repairs.
#[allow(clippy::type_complexity)]
fn bus_setup(
    n: u32,
    len: f64,
    rate: f64,
    budget_vth: f64,
    seed: u64,
) -> (
    Circuit,
    RegionGrid,
    RouteSet,
    NoiseTable,
    Budgets,
    RegionSino,
) {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(len.max(640.0), 640.0)).unwrap();
    let nets: Vec<Net> = (0..n)
        .map(|i| {
            Net::two_pin(
                i,
                Point::new(8.0, 320.0 + i as f64),
                Point::new(len - 8.0, 320.0 + i as f64),
            )
        })
        .collect();
    solved_setup(
        Circuit::new("bus", die, nets).unwrap(),
        rate,
        budget_vth,
        seed,
    )
}

/// `n` nets of 2 to 4 pins spread over one die: several sinks per net,
/// on routes that branch.
#[allow(clippy::type_complexity)]
fn multipin_setup(
    n: u32,
    rate: f64,
    seed: u64,
) -> (
    Circuit,
    RegionGrid,
    RouteSet,
    NoiseTable,
    Budgets,
    RegionSino,
) {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(1280.0, 1280.0)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let nets: Vec<Net> = (0..n)
        .map(|i| {
            let pins = (0..rng.gen_range(2..=4usize))
                .map(|_| Point::new(rng.gen_range(8.0..1272.0), rng.gen_range(8.0..1272.0)))
                .collect();
            Net::new(i, pins)
        })
        .collect();
    solved_setup(
        Circuit::new("multipin", die, nets).unwrap(),
        rate,
        0.30,
        seed,
    )
}

/// Routes `circuit`, budgets it at `budget_vth` and solves Phase II.
#[allow(clippy::type_complexity)]
fn solved_setup(
    circuit: Circuit,
    rate: f64,
    budget_vth: f64,
    seed: u64,
) -> (
    Circuit,
    RegionGrid,
    RouteSet,
    NoiseTable,
    Budgets,
    RegionSino,
) {
    let tech = Technology::itrs_100nm();
    let grid = RegionGrid::new(&circuit, &tech, 64.0).unwrap();
    let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
    let table = NoiseTable::calibrated(&tech);
    let budgets = uniform_budgets(
        &circuit,
        &grid,
        &routes,
        &table,
        budget_vth,
        LengthModel::Manhattan,
    )
    .unwrap();
    let sens = SensitivityModel::new(rate, seed);
    let sino = solve_regions(&grid, &routes, &budgets, &sens, RegionMode::Sino, 1).unwrap();
    (circuit, grid, routes, table, budgets, sino)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random budget-edit + re-solve sequences keep every `LskTracker`
    /// aggregate bitwise-equal to a from-scratch `check` — severity
    /// ranking, violating sinks, LSK values and voltages alike.
    #[test]
    fn tracker_matches_check_across_random_edits(
        n in 4u32..12,
        rate_pct in 20u32..=80,
        seed in 0u64..50,
        vth_m in 10u32..=30,
        ops in prop::collection::vec((0usize..64, 0usize..64, 30u32..160), 1..12),
    ) {
        let vth = vth_m as f64 / 100.0;
        let (circuit, grid, routes, table, _, mut sino) =
            bus_setup(n, 2560.0, rate_pct as f64 / 100.0, 0.30, seed);
        let mut tracker = LskTracker::new(&circuit, &grid, &routes, &sino, &table, vth);
        let keys = sino.keys();
        prop_assert!(!keys.is_empty());
        for (key_sel, seg_sel, factor_pct) in ops {
            let (r, dir) = keys[key_sel % keys.len()];
            {
                let sol = sino.solution_mut(r, dir).expect("key enumerated");
                if sol.nets.is_empty() {
                    continue;
                }
                let seg = seg_sel % sol.nets.len();
                // Tighten or loosen one budget, then re-solve the region —
                // exactly the kind of local perturbation Phase III applies.
                let new_kth = (sol.instance.segment(seg).kth * factor_pct as f64 / 100.0)
                    .max(1e-9);
                sol.instance.set_kth(seg, new_kth).expect("valid budget");
                sol.layout = SinoSolver.solve(&sol.instance).expect("solvable");
                sol.refresh_k();
                let k = sol.k.clone();
                tracker.region_updated(r, dir, &k, &table);
            }
            let report = check(&circuit, &grid, &routes, &sino, &table, vth);
            prop_assert_eq!(tracker.nets_by_severity(), report.nets_by_severity());
            prop_assert_eq!(tracker.sink_violations(), report.sinks.clone());
            prop_assert_eq!(tracker.is_clean(), report.is_clean());
            prop_assert_eq!(tracker.violating_nets(), report.violating_nets());
        }
    }

    /// A tracker filled through a kept index is bitwise the tracker built
    /// from scratch, for any couplings over the same routes and occupant
    /// lists: every term coupling, every sink's LSK and voltage, and the
    /// violating set.
    #[test]
    fn fill_over_kept_index_matches_new(
        n in 4u32..14,
        rate_pct in 20u32..=80,
        seed in 0u64..1_000,
        vth_m in 5u32..=30,
    ) {
        let vth = vth_m as f64 / 100.0;
        let (circuit, grid, routes, table, _, mut sino) =
            multipin_setup(n, rate_pct as f64 / 100.0, seed);
        let kept = Arc::clone(LskTracker::new(&circuit, &grid, &routes, &sino, &table, vth).index());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF111);
        for (r, dir) in sino.keys() {
            let sol = sino.solution_mut(r, dir).expect("key enumerated");
            for k in &mut sol.k {
                // Zero couplings, as a shield gives, in about one in four.
                *k = if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(0.0..3.0) };
            }
        }
        let filled = LskTracker::fill(kept, &sino, &table, vth);
        let built = LskTracker::new(&circuit, &grid, &routes, &sino, &table, vth);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(filled.couplings()), bits(built.couplings()));
        let sink_bits = |t: &LskTracker| {
            t.sink_values()
                .iter()
                .map(|(lsk, v)| (lsk.to_bits(), v.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert!(!filled.sink_values().is_empty());
        prop_assert_eq!(sink_bits(&filled), sink_bits(&built));
        prop_assert_eq!(filled.nets_by_severity(), built.nets_by_severity());
        prop_assert_eq!(filled.sink_violations(), built.sink_violations());
        prop_assert_eq!(
            filled.report(),
            check(&circuit, &grid, &routes, &sino, &table, vth)
        );
    }

    /// The incremental pass and the preserved seed pass agree bit for bit
    /// on every output across random workloads and configurations.
    #[test]
    fn refine_matches_reference(
        n in 6u32..14,
        rate_pct in 30u32..=70,
        seed in 0u64..50,
        vth_m in 12u32..=20,
        pass2_sel in 0u32..2,
    ) {
        let enable_pass2 = pass2_sel == 1;
        let vth = vth_m as f64 / 100.0;
        let (circuit, grid, routes, table, budgets0, sino0) =
            bus_setup(n, 3840.0, rate_pct as f64 / 100.0, 0.30, seed);
        let config = RefineConfig {
            enable_pass2,
            ..RefineConfig::default()
        };
        let (mut b_ref, mut s_ref) = (budgets0.clone(), sino0.clone());
        let stats_ref = refine::reference::refine(
            &circuit, &grid, &routes, &mut b_ref, &mut s_ref, &table, vth, &config,
        )
        .expect("reference refine");
        let (mut b_inc, mut s_inc) = (budgets0, sino0);
        let stats_inc = refine::refine(
            &circuit, &grid, &routes, &mut b_inc, &mut s_inc, &table, vth, SolverConfig, &config,
        )
        .expect("incremental refine");
        prop_assert_eq!(stats_ref.outcome(), stats_inc.outcome());
        prop_assert_eq!(b_ref, b_inc);
        prop_assert_eq!(s_ref, s_inc);
    }
}

/// One denser non-property check: a workload where both passes do real
/// work (violations fixed by pass 1, shields recovered by pass 2), with
/// the full output state compared.
#[test]
fn dense_refine_full_agreement() {
    let (circuit, grid, routes, table, budgets0, sino0) = bus_setup(14, 3840.0, 0.5, 0.30, 3);
    let before = check(&circuit, &grid, &routes, &sino0, &table, 0.15);
    assert!(before.violating_nets() > 0, "setup must violate at 0.15 V");
    let (mut b_ref, mut s_ref) = (budgets0.clone(), sino0.clone());
    let stats_ref = refine::reference::refine(
        &circuit,
        &grid,
        &routes,
        &mut b_ref,
        &mut s_ref,
        &table,
        0.15,
        &RefineConfig::default(),
    )
    .unwrap();
    let (mut b_inc, mut s_inc) = (budgets0, sino0);
    let stats_inc = refine::refine(
        &circuit,
        &grid,
        &routes,
        &mut b_inc,
        &mut s_inc,
        &table,
        0.15,
        SolverConfig,
        &RefineConfig::default(),
    )
    .unwrap();
    assert_eq!(stats_ref.outcome(), stats_inc.outcome());
    assert!(stats_inc.clean);
    assert!(stats_inc.pass1_nets > 0);
    assert_eq!(b_ref, b_inc);
    assert_eq!(s_ref, s_inc);
    assert!(check(&circuit, &grid, &routes, &s_inc, &table, 0.15).is_clean());
}

/// Pass-2-heavy leg: the pre-refine state of a generated rung (Phase I
/// and II as the pipeline runs them, refinement switched off), refined by
/// the seed pass and by the engine at 1 and 2 threads. Every output must
/// agree bitwise, and the engine's work counts must not depend on the
/// thread count.
fn pass2_heavy_leg(spec: &ScaleSpec) -> RefineStats {
    let workload = generate_scaled(spec).expect("rung generates");
    let circuit = workload.circuit();
    let defaults = GsinoConfig::default();
    let phases_1_and_2 = GsinoConfig {
        threads: 1,
        refine: RefineConfig {
            max_pass1_iters: 0,
            enable_pass2: false,
            ..RefineConfig::default()
        },
        ..GsinoConfig::default()
    };
    let (outcome, internals) = run_flow_with_artifacts(circuit, &phases_1_and_2, Approach::Gsino)
        .expect("phases I and II");
    let (grid, table, routes) = (&internals.grid, &internals.table, &outcome.routes);
    let (mut b_ref, mut s_ref) = (internals.budgets.clone(), internals.sino.clone());
    let stats_ref = refine::reference::refine(
        circuit,
        grid,
        routes,
        &mut b_ref,
        &mut s_ref,
        table,
        defaults.vth,
        &defaults.refine,
    )
    .expect("reference refine");
    let mut work = None;
    for threads in [1, 2] {
        let (mut b, mut s) = (internals.budgets.clone(), internals.sino.clone());
        let stats = refine::refine_cancel(
            circuit,
            grid,
            routes,
            &mut b,
            &mut s,
            table,
            defaults.vth,
            &defaults.refine,
            threads,
            &CancelToken::never(),
        )
        .expect("engine refine");
        assert_eq!(
            stats.outcome(),
            stats_ref.outcome(),
            "{} threads {threads}",
            spec.id
        );
        assert!(
            b == b_ref,
            "{} threads {threads}: budgets diverged",
            spec.id
        );
        assert!(
            s == s_ref,
            "{} threads {threads}: regions diverged",
            spec.id
        );
        assert_eq!(*work.get_or_insert(stats.work), stats.work, "{}", spec.id);
    }
    stats_ref
}

#[test]
#[ignore = "heavy: run in release via -- --ignored (CI scale-ladder job)"]
fn pass2_heavy_2000_nets_matches_reference() {
    let stats = pass2_heavy_leg(&ScaleSpec::rung("pass2_2k", 2_000, 1.0, 0.0));
    assert!(stats.pass2_regions > 2_000, "{stats:?}");
}

#[test]
#[ignore = "heavy: run in release via -- --ignored (CI scale-ladder job)"]
fn pass2_heavy_congested_1000_nets_matches_reference() {
    let stats = pass2_heavy_leg(&ScaleSpec::rung("pass2_1k_c13", 1_000, 1.3, 0.0));
    assert!(stats.pass1_nets > 0, "{stats:?}");
    assert!(stats.pass2_regions > 1_000, "{stats:?}");
}
