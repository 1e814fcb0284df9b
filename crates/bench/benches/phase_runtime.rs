//! **E3** — the paper's §5 runtime claim: "The majority of running time in
//! the current three-phase GSINO algorithm is consumed by the ID-based
//! global routing phase."
//!
//! Also measures the flat-array Phase I core against the seed HashMap
//! router, the incremental-connectivity ID router against the preserved
//! PR-1 BFS kernel, the incremental Phase II SINO engine against the
//! preserved `gsino_sino::reference` solver, and the incremental Phase III
//! refinement pass against the preserved `refine::reference` pass, on the
//! 500-net generator circuit: the route sets / region solutions / refined
//! budgets must be byte-identical and the new kernels are expected to be
//! ≥2× faster. The measurements are summarised to `BENCH_phase1.json`,
//! `BENCH_phase2.json` and `BENCH_phase3.json` (override with
//! `GSINO_BENCH_OUT` / `GSINO_BENCH_PHASE2_OUT` /
//! `GSINO_BENCH_PHASE3_OUT`) for the CI regression gate (`bench_gate`
//! binary vs the committed `baseline/BENCH_phase{1,2,3}.json`).

use gsino_bench::report::{phase1_out_path, phase2_out_path, phase3_out_path, JsonDoc};
use gsino_bench::{banner, bench_experiment_config};
use gsino_circuits::experiment::run_suite;
use gsino_circuits::generator::generate;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::budget::{uniform_budgets, Budgets, LengthModel};
use gsino_core::phase2::{
    prepare_instances, solve_prepared, RegionInstance, RegionMode, RegionSino, SinoEngine,
};
use gsino_core::pipeline::{run_gsino, GsinoConfig, RouterKind};
use gsino_core::refine::{self, RefineConfig, RefineStats};
use gsino_core::router::reference::{SeedAstarRouter, SeedIdRouter};
use gsino_core::router::{AstarRouter, IdRouter, ShieldTerm, Weights};
use gsino_core::violations::check;
use gsino_grid::region::RegionGrid;
use gsino_grid::sensitivity::SensitivityModel;
use gsino_grid::tech::Technology;
use gsino_lsk::table::NoiseTable;
use gsino_sino::solver::SolverConfig;
use serde::{Map, Value};
use std::time::Instant;

/// Median wall-clock seconds of `f` over `reps` runs.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Timings one kernel comparison leaves behind (milliseconds, medians).
struct KernelTimings {
    reference_ms: f64,
    new_ms: f64,
}

impl KernelTimings {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.new_ms
    }
}

/// The 500-net generator circuit both Phase I comparisons run on.
fn workload() -> (gsino_grid::net::Circuit, RegionGrid) {
    let mut spec = CircuitSpec::ibm01();
    spec.num_nets = 500;
    let circuit = generate(&spec, 2002).expect("generator circuit");
    let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).expect("grid");
    (circuit, grid)
}

/// Phase I flat-vs-seed comparison on the 500-net generator circuit.
fn phase1_speedup_report() -> KernelTimings {
    let (circuit, grid) = workload();
    let weights = Weights::default();
    let seed_router = SeedAstarRouter::new(&grid, weights, ShieldTerm::None);
    let flat_router = AstarRouter::new(&grid, weights, ShieldTerm::None);

    // Shared Steiner preprocessing, so the comparison isolates the
    // rebuilt search/assembly core.
    let conns = flat_router.prepare(&circuit);
    let mut scratch = flat_router.make_scratch();
    let seed_routes = seed_router
        .route_prepared(&circuit, &conns)
        .expect("seed routes");
    let (flat_routes, _) = flat_router
        .route_prepared(&circuit, &conns, &mut scratch)
        .expect("flat routes");
    assert_eq!(
        seed_routes, flat_routes,
        "flat Phase I must match the seed bit for bit"
    );

    let reps = 7;
    let t_seed = time_median(reps, || {
        seed_router
            .route_prepared(&circuit, &conns)
            .expect("routes");
    });
    let t_flat = time_median(reps, || {
        flat_router
            .route_prepared(&circuit, &conns, &mut scratch)
            .expect("routes");
    });
    let t_prepare = time_median(reps, || {
        flat_router.prepare(&circuit);
    });
    println!("== phase I core, 500-net generator circuit (medians of {reps}) ==");
    println!("  steiner prepare (shared)  {:>9.2} ms", t_prepare * 1e3);
    println!("  seed HashMap A*           {:>9.2} ms", t_seed * 1e3);
    println!(
        "  flat scratch A*           {:>9.2} ms   ({:.2}x vs seed)",
        t_flat * 1e3,
        t_seed / t_flat
    );
    println!(
        "  total wirelength identical: {} um",
        seed_routes.total_wirelength(&grid)
    );
    KernelTimings {
        reference_ms: t_seed * 1e3,
        new_ms: t_flat * 1e3,
    }
}

/// Connectivity behaviour counters of the incremental ID run, reported
/// into `BENCH_phase1.json` and gated by `bench_gate` (the workload is
/// deterministic, so the counts are exactly reproducible).
struct ConnectivityCounts {
    o1_hits: usize,
    repairs: usize,
    recomputes: usize,
}

/// ID-path Phase I: the incremental-connectivity kernel against the
/// preserved PR-1 BFS kernel, byte-identical route sets required. The
/// Steiner decomposition is shared (same methodology as the A* report) so
/// the numbers isolate the deletion kernel.
fn id_phase1_speedup_report() -> (KernelTimings, ConnectivityCounts) {
    let (circuit, grid) = workload();
    let weights = Weights::default();
    let reference = SeedIdRouter::new(&grid, weights, ShieldTerm::None);
    let incremental = IdRouter::new(&grid, weights, ShieldTerm::None);
    let conns = incremental.prepare(&circuit);
    let (ref_routes, ref_stats) = reference
        .route_prepared(&circuit, &conns)
        .expect("PR-1 ID routes");
    let (inc_routes, inc_stats) = incremental
        .route_prepared(&circuit, &conns)
        .expect("incremental ID routes");
    assert_eq!(
        ref_routes, inc_routes,
        "incremental ID Phase I must match the PR-1 kernel bit for bit"
    );
    assert_eq!(
        ref_stats.deletions, inc_stats.deletions,
        "deletion sequences must agree"
    );

    let reps = 5;
    let t_ref = time_median(reps, || {
        reference.route_prepared(&circuit, &conns).expect("routes");
    });
    let t_inc = time_median(reps, || {
        incremental
            .route_prepared(&circuit, &conns)
            .expect("routes");
    });
    println!("== ID-path phase I, 500-net generator circuit (medians of {reps}) ==");
    println!("  PR-1 BFS kernel           {:>9.2} ms", t_ref * 1e3);
    println!(
        "  incremental connectivity  {:>9.2} ms   ({:.2}x vs PR-1)",
        t_inc * 1e3,
        t_ref / t_inc
    );
    println!(
        "  connectivity: {} O(1) hits, {} path repairs, {} recomputes ({} deletions, {} kept)",
        inc_stats.connectivity_o1_hits,
        inc_stats.connectivity_repairs,
        inc_stats.connectivity_recomputes,
        inc_stats.deletions,
        inc_stats.kept
    );
    println!(
        "  total wirelength identical: {} um",
        ref_routes.total_wirelength(&grid)
    );
    (
        KernelTimings {
            reference_ms: t_ref * 1e3,
            new_ms: t_inc * 1e3,
        },
        ConnectivityCounts {
            o1_hits: inc_stats.connectivity_o1_hits,
            repairs: inc_stats.connectivity_repairs,
            recomputes: inc_stats.connectivity_recomputes,
        },
    )
}

/// Serializes one summary document and writes it to `path`, shared by all
/// phase summary writers.
fn write_summary_json(path: &str, root: Map) {
    match serde_json::to_string_pretty(&JsonDoc(Value::Object(root))) {
        Ok(text) => {
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("could not write {path}: {e}");
            } else {
                println!("wrote {path}");
            }
        }
        Err(e) => eprintln!("could not serialize bench summary: {e}"),
    }
}

/// Writes the machine-readable Phase I summary the CI gate consumes.
fn write_phase1_summary(astar: &KernelTimings, id: &KernelTimings, conn: &ConnectivityCounts) {
    let mut workload = Map::new();
    workload.insert("circuit", Value::Str("ibm01".into()));
    workload.insert("nets", Value::U64(500));
    let mut astar_m = Map::new();
    astar_m.insert("seed_ms", Value::F64(astar.reference_ms));
    astar_m.insert("flat_ms", Value::F64(astar.new_ms));
    astar_m.insert("speedup_vs_seed", Value::F64(astar.speedup()));
    let mut id_m = Map::new();
    id_m.insert("reference_ms", Value::F64(id.reference_ms));
    id_m.insert("incremental_ms", Value::F64(id.new_ms));
    id_m.insert("speedup_vs_pr1", Value::F64(id.speedup()));
    // Deterministic connectivity behaviour counts, gated as hard ceilings
    // by bench_gate (see COUNT_METRICS there): a change that quietly
    // reintroduces per-kill recomputes fails CI even if wall time hides it.
    id_m.insert("connectivity_o1_hits", Value::U64(conn.o1_hits as u64));
    id_m.insert("connectivity_repairs", Value::U64(conn.repairs as u64));
    id_m.insert(
        "connectivity_recomputes",
        Value::U64(conn.recomputes as u64),
    );
    let mut root = Map::new();
    root.insert("schema", Value::U64(1));
    root.insert("workload", Value::Object(workload));
    root.insert("astar", Value::Object(astar_m));
    root.insert("id", Value::Object(id_m));
    let path = phase1_out_path();
    write_summary_json(&path, root);
}

/// Phase II: the incremental `DeltaEval` SINO engine against the
/// preserved clone-and-reevaluate reference solver, on the per-region
/// instances of the routed 500-net circuit. The engine-independent
/// preprocessing (`prepare_instances`: grouping, budget resolution,
/// sensitivity matrices) is shared, so the numbers isolate the solving
/// engines — the same methodology as the Phase I kernel comparisons. Both
/// engines must produce bit-identical `RegionSino` states (layouts,
/// couplings, instances).
fn phase2_speedup_report() -> (KernelTimings, usize) {
    let (circuit, grid) = workload();
    let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
        .route(&circuit)
        .expect("routes");
    let table = NoiseTable::calibrated(&Technology::itrs_100nm());
    let budgets = uniform_budgets(
        &circuit,
        &grid,
        &routes,
        &table,
        0.15,
        LengthModel::Manhattan,
    )
    .expect("budgets");
    let sens = SensitivityModel::new(0.3, 1);
    let config = SolverConfig::default();
    let work =
        prepare_instances(&grid, &routes, &budgets, &sens, 1).expect("prepared region instances");
    let solve = |engine: SinoEngine| {
        solve_prepared(work.clone(), config, RegionMode::Sino, 1, engine).expect("region solve")
    };
    let reference = solve(SinoEngine::Reference);
    let incremental = solve(SinoEngine::Incremental);
    assert_eq!(
        reference, incremental,
        "incremental Phase II must match the reference solver bit for bit"
    );

    let reps = 5;
    let t_prepare = time_median(reps, || {
        prepare_instances(&grid, &routes, &budgets, &sens, 1).expect("prepared");
    });
    // `solve_prepared` consumes its work list; pre-clone one copy per rep
    // outside the timed section so the numbers keep isolating the solving
    // engines.
    let time_engine = |engine: SinoEngine| {
        let mut pool: Vec<Vec<RegionInstance>> = (0..reps).map(|_| work.clone()).collect();
        time_median(reps, move || {
            let work = pool.pop().expect("one prepared list per rep");
            solve_prepared(work, config, RegionMode::Sino, 1, engine).expect("region solve");
        })
    };
    let t_ref = time_engine(SinoEngine::Reference);
    let t_inc = time_engine(SinoEngine::Incremental);
    println!("== phase II SINO engine, 500-net generator circuit (medians of {reps}) ==");
    println!("  instance prepare (shared) {:>9.2} ms", t_prepare * 1e3);
    println!("  reference clone+rescan    {:>9.2} ms", t_ref * 1e3);
    println!(
        "  incremental DeltaEval     {:>9.2} ms   ({:.2}x vs reference)",
        t_inc * 1e3,
        t_ref / t_inc
    );
    println!(
        "  identical region solutions: {} instances, {} shields",
        incremental.len(),
        incremental.total_shields()
    );
    (
        KernelTimings {
            reference_ms: t_ref * 1e3,
            new_ms: t_inc * 1e3,
        },
        incremental.len(),
    )
}

/// Writes the machine-readable Phase II summary the CI gate consumes.
fn write_phase2_summary(sino: &KernelTimings, regions: usize) {
    let mut workload = Map::new();
    workload.insert("circuit", Value::Str("ibm01".into()));
    workload.insert("nets", Value::U64(500));
    workload.insert("regions", Value::U64(regions as u64));
    let mut sino_m = Map::new();
    sino_m.insert("reference_ms", Value::F64(sino.reference_ms));
    sino_m.insert("incremental_ms", Value::F64(sino.new_ms));
    sino_m.insert("speedup_vs_reference", Value::F64(sino.speedup()));
    let mut root = Map::new();
    root.insert("schema", Value::U64(1));
    root.insert("workload", Value::Object(workload));
    root.insert("sino", Value::Object(sino_m));
    let path = phase2_out_path();
    write_summary_json(&path, root);
}

/// Phase III: the incremental refinement pass (cached LSK tracker,
/// severity heap, persistent delta evaluators, transactional pass 2)
/// against the preserved seed pass (`refine::reference`), on the routed
/// 500-net circuit. Budgets are computed at a deliberately loose 0.40 V
/// and refined against a strict 0.10 V constraint — recreating, at scale
/// and in controlled form, the Manhattan-underestimate violations Phase
/// III exists to repair (a few dozen violating nets, like the refine unit
/// tests' loose-budget/strict-check setup). Both passes must produce
/// bit-identical final budgets, region solutions and stats; the timed
/// runs consume pre-cloned copies of the same inputs.
fn phase3_speedup_report() -> (KernelTimings, usize, RefineStats) {
    let (circuit, grid) = workload();
    let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
        .route(&circuit)
        .expect("routes");
    let table = NoiseTable::calibrated(&Technology::itrs_100nm());
    let budgets0 = uniform_budgets(
        &circuit,
        &grid,
        &routes,
        &table,
        0.40,
        LengthModel::Manhattan,
    )
    .expect("budgets");
    let sens = SensitivityModel::new(0.5, 3);
    let work = prepare_instances(&grid, &routes, &budgets0, &sens, 1).expect("prepared");
    let sino0 = solve_prepared(
        work,
        SolverConfig::default(),
        RegionMode::Sino,
        1,
        SinoEngine::Incremental,
    )
    .expect("region solve");
    let vth = 0.10;
    let initial_violations = check(&circuit, &grid, &routes, &sino0, &table, vth).violating_nets();
    assert!(
        initial_violations > 0,
        "phase III workload must start with violations"
    );
    let solver_cfg = SolverConfig::default();
    let refine_cfg = RefineConfig::default();

    // Correctness: both passes on identical inputs, bit-identical outputs.
    let (mut b_ref, mut s_ref) = (budgets0.clone(), sino0.clone());
    let stats_ref = refine::reference::refine(
        &circuit,
        &grid,
        &routes,
        &mut b_ref,
        &mut s_ref,
        &table,
        vth,
        solver_cfg,
        &refine_cfg,
    )
    .expect("reference refine");
    let (mut b_inc, mut s_inc) = (budgets0.clone(), sino0.clone());
    let stats_inc = refine::refine(
        &circuit,
        &grid,
        &routes,
        &mut b_inc,
        &mut s_inc,
        &table,
        vth,
        solver_cfg,
        &refine_cfg,
    )
    .expect("incremental refine");
    assert_eq!(
        stats_ref.outcome(),
        stats_inc.outcome(),
        "incremental Phase III stats must match the reference pass"
    );
    assert_eq!(
        b_ref, b_inc,
        "incremental Phase III budgets must match the reference pass bit for bit"
    );
    assert_eq!(
        s_ref, s_inc,
        "incremental Phase III region solutions must match the reference pass bit for bit"
    );

    let reps = 5;
    // Refinement mutates its inputs: pre-clone one (budgets, sino) pair
    // per rep outside the timed section.
    let mut pool_ref: Vec<(Budgets, RegionSino)> = (0..reps)
        .map(|_| (budgets0.clone(), sino0.clone()))
        .collect();
    let t_ref = time_median(reps, || {
        let (mut b, mut s) = pool_ref.pop().expect("one input pair per rep");
        refine::reference::refine(
            &circuit,
            &grid,
            &routes,
            &mut b,
            &mut s,
            &table,
            vth,
            solver_cfg,
            &refine_cfg,
        )
        .expect("reference refine");
    });
    let mut pool_inc: Vec<(Budgets, RegionSino)> = (0..reps)
        .map(|_| (budgets0.clone(), sino0.clone()))
        .collect();
    let t_inc = time_median(reps, || {
        let (mut b, mut s) = pool_inc.pop().expect("one input pair per rep");
        refine::refine(
            &circuit,
            &grid,
            &routes,
            &mut b,
            &mut s,
            &table,
            vth,
            solver_cfg,
            &refine_cfg,
        )
        .expect("incremental refine");
    });
    println!("== phase III refinement, 500-net generator circuit (medians of {reps}) ==");
    println!("  initial violating nets    {initial_violations:>9}");
    println!("  reference seed pass       {:>9.2} ms", t_ref * 1e3);
    println!(
        "  incremental tracker pass  {:>9.2} ms   ({:.2}x vs reference)",
        t_inc * 1e3,
        t_ref / t_inc
    );
    println!(
        "  identical outcomes: {} nets fixed, +{} / -{} shields, clean: {}",
        stats_inc.pass1_nets,
        stats_inc.pass1_shields_added,
        stats_inc.pass2_shields_removed,
        stats_inc.clean
    );
    (
        KernelTimings {
            reference_ms: t_ref * 1e3,
            new_ms: t_inc * 1e3,
        },
        initial_violations,
        stats_inc,
    )
}

/// Writes the machine-readable Phase III summary the CI gate consumes.
fn write_phase3_summary(timings: &KernelTimings, initial_violations: usize, stats: &RefineStats) {
    let mut workload = Map::new();
    workload.insert("circuit", Value::Str("ibm01".into()));
    workload.insert("nets", Value::U64(500));
    workload.insert("initial_violations", Value::U64(initial_violations as u64));
    workload.insert("pass1_nets", Value::U64(stats.pass1_nets as u64));
    workload.insert("pass2_regions", Value::U64(stats.pass2_regions as u64));
    let mut refine_m = Map::new();
    refine_m.insert("reference_ms", Value::F64(timings.reference_ms));
    refine_m.insert("incremental_ms", Value::F64(timings.new_ms));
    refine_m.insert("speedup_vs_reference", Value::F64(timings.speedup()));
    let mut root = Map::new();
    root.insert("schema", Value::U64(1));
    root.insert("workload", Value::Object(workload));
    root.insert("refine", Value::Object(refine_m));
    let path = phase3_out_path();
    write_summary_json(&path, root);
}

/// Per-phase timing split of the full flows, both router kinds.
fn router_kind_phase_split() {
    let spec = CircuitSpec::ibm01().scaled(0.06);
    let circuit = generate(&spec, 2002).expect("generator circuit");
    for (kind, label) in [
        (RouterKind::IterativeDeletion, "iterative deletion"),
        (RouterKind::SequentialAstar, "sequential A*"),
    ] {
        let config = GsinoConfig::builder()
            .router(kind)
            .build()
            .expect("valid config");
        match run_gsino(&circuit, &config) {
            Ok(outcome) => {
                let t = outcome.timings;
                println!(
                    "  {label:<20} route {:.2}s  budget {:.2}s  sino {:.2}s  refine {:.2}s  total {:.2}s  (wl {:.0} um)",
                    t.route_s, t.budget_s, t.sino_s, t.refine_s, t.total_s,
                    outcome.wirelength.total_um,
                );
            }
            Err(e) => println!("  {label}: failed: {e}"),
        }
    }
}

fn main() {
    let config = bench_experiment_config();
    eprintln!("{}", banner("phase_runtime", &config));
    let astar = phase1_speedup_report();
    let (id, conn) = id_phase1_speedup_report();
    write_phase1_summary(&astar, &id, &conn);
    let (sino, regions) = phase2_speedup_report();
    write_phase2_summary(&sino, regions);
    let (refine_timings, initial_violations, refine_stats) = phase3_speedup_report();
    write_phase3_summary(&refine_timings, initial_violations, &refine_stats);
    println!("== full-flow phase split by router kind ==");
    router_kind_phase_split();
    match run_suite(&config) {
        Ok(results) => {
            println!("{}", results.render_runtime_breakdown());
            println!(
                "paper reference (S5): routing dominates; our Phase III does more work \n\
                 per violation than the paper's, so its share is larger than the paper's"
            );
        }
        Err(e) => {
            eprintln!("phase_runtime failed: {e}");
            std::process::exit(1);
        }
    }
}
