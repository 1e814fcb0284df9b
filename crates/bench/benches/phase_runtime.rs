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
//!
//! Each kernel and its reference run interleaved in [`ROUNDS`] rounds,
//! alternating which of the two runs first, and each section's
//! `normalized` value is the median of the per-round ratios kernel /
//! reference. The two runs of a round are back to back, so a swing in the
//! machine's speed moves both sides of a ratio alike; that median is what
//! `bench_gate` gates.

use gsino_bench::report::{phase1_out_path, phase2_out_path, phase3_out_path, JsonDoc};
use gsino_bench::{banner, bench_experiment_config};
use gsino_circuits::experiment::run_suite;
use gsino_circuits::generator::generate;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::budget::{uniform_budgets, LengthModel};
use gsino_core::phase2::{
    prepare_instances, solve_prepared, RegionInstance, RegionMode, SinoEngine,
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

/// Rounds of each paired kernel/reference timing.
const ROUNDS: usize = 11;

/// Median of a non-empty sample.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Median wall-clock seconds of `f` over `reps` runs.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    median((0..reps).map(|_| secs(&mut f)).collect())
}

/// Wall-clock seconds of one call.
fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Timings one kernel comparison leaves behind.
struct KernelTimings {
    /// Median reference time, ms.
    reference_ms: f64,
    /// Median kernel time, ms.
    new_ms: f64,
    /// Median of the per-round ratios kernel / reference.
    normalized: f64,
}

impl KernelTimings {
    /// Times `reference` and `kernel` over [`ROUNDS`] rounds, one run of
    /// each per round, alternating which runs first. Each closure returns
    /// the seconds of its timed section, so set-up such as cloning inputs
    /// stays outside the clock.
    fn paired(mut reference: impl FnMut() -> f64, mut kernel: impl FnMut() -> f64) -> Self {
        let (mut refs, mut news, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            let (r, k) = if round % 2 == 0 {
                let r = reference();
                (r, kernel())
            } else {
                let k = kernel();
                (reference(), k)
            };
            refs.push(r);
            news.push(k);
            ratios.push(k / r);
        }
        KernelTimings {
            reference_ms: median(refs) * 1e3,
            new_ms: median(news) * 1e3,
            normalized: median(ratios),
        }
    }

    fn speedup(&self) -> f64 {
        1.0 / self.normalized
    }

    /// The section fields `bench_gate` reads: both medians, the gated
    /// ratio and its inverse.
    fn insert_into(&self, m: &mut Map, new_key: &str, ref_key: &str, speedup_key: &str) {
        m.insert(ref_key, Value::F64(self.reference_ms));
        m.insert(new_key, Value::F64(self.new_ms));
        m.insert("normalized", Value::F64(self.normalized));
        m.insert(speedup_key, Value::F64(self.speedup()));
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

    let timings = KernelTimings::paired(
        || {
            secs(|| {
                seed_router
                    .route_prepared(&circuit, &conns)
                    .expect("routes");
            })
        },
        || {
            secs(|| {
                flat_router
                    .route_prepared(&circuit, &conns, &mut scratch)
                    .expect("routes");
            })
        },
    );
    let t_prepare = time_median(ROUNDS, || {
        flat_router.prepare(&circuit);
    });
    println!("== phase I core, 500-net generator circuit ({ROUNDS} paired rounds) ==");
    println!("  steiner prepare (shared)  {:>9.2} ms", t_prepare * 1e3);
    println!(
        "  seed HashMap A*           {:>9.2} ms",
        timings.reference_ms
    );
    println!(
        "  flat scratch A*           {:>9.2} ms   ({:.2}x vs seed)",
        timings.new_ms,
        timings.speedup()
    );
    println!(
        "  total wirelength identical: {} um",
        seed_routes.total_wirelength(&grid)
    );
    timings
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

    let timings = KernelTimings::paired(
        || {
            secs(|| {
                reference.route_prepared(&circuit, &conns).expect("routes");
            })
        },
        || {
            secs(|| {
                incremental
                    .route_prepared(&circuit, &conns)
                    .expect("routes");
            })
        },
    );
    println!("== ID-path phase I, 500-net generator circuit ({ROUNDS} paired rounds) ==");
    println!(
        "  PR-1 BFS kernel           {:>9.2} ms",
        timings.reference_ms
    );
    println!(
        "  incremental connectivity  {:>9.2} ms   ({:.2}x vs PR-1)",
        timings.new_ms,
        timings.speedup()
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
        timings,
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
    astar.insert_into(&mut astar_m, "flat_ms", "seed_ms", "speedup_vs_seed");
    let mut id_m = Map::new();
    id.insert_into(
        &mut id_m,
        "incremental_ms",
        "reference_ms",
        "speedup_vs_pr1",
    );
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
    let work =
        prepare_instances(&grid, &routes, &budgets, &sens, 1).expect("prepared region instances");
    let solve = |engine: SinoEngine| {
        solve_prepared(work.clone(), SolverConfig, RegionMode::Sino, 1, engine)
            .expect("region solve")
    };
    let reference = solve(SinoEngine::Reference);
    let incremental = solve(SinoEngine::Incremental);
    assert_eq!(
        reference, incremental,
        "incremental Phase II must match the reference solver bit for bit"
    );

    let t_prepare = time_median(ROUNDS, || {
        prepare_instances(&grid, &routes, &budgets, &sens, 1).expect("prepared");
    });
    // `solve_prepared` consumes its work list; each run clones its copy
    // outside the timed section so the numbers keep isolating the solving
    // engines.
    let time_engine = |engine: SinoEngine| {
        let work: Vec<RegionInstance> = work.clone();
        secs(|| {
            solve_prepared(work, SolverConfig, RegionMode::Sino, 1, engine).expect("region solve");
        })
    };
    let timings = KernelTimings::paired(
        || time_engine(SinoEngine::Reference),
        || time_engine(SinoEngine::Incremental),
    );
    println!("== phase II SINO engine, 500-net generator circuit ({ROUNDS} paired rounds) ==");
    println!("  instance prepare (shared) {:>9.2} ms", t_prepare * 1e3);
    println!(
        "  reference clone+rescan    {:>9.2} ms",
        timings.reference_ms
    );
    println!(
        "  incremental DeltaEval     {:>9.2} ms   ({:.2}x vs reference)",
        timings.new_ms,
        timings.speedup()
    );
    println!(
        "  identical region solutions: {} instances, {} shields",
        incremental.len(),
        incremental.total_shields()
    );
    (timings, incremental.len())
}

/// Writes the machine-readable Phase II summary the CI gate consumes.
fn write_phase2_summary(sino: &KernelTimings, regions: usize) {
    let mut workload = Map::new();
    workload.insert("circuit", Value::Str("ibm01".into()));
    workload.insert("nets", Value::U64(500));
    workload.insert("regions", Value::U64(regions as u64));
    let mut sino_m = Map::new();
    sino.insert_into(
        &mut sino_m,
        "incremental_ms",
        "reference_ms",
        "speedup_vs_reference",
    );
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
        SolverConfig,
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
        SolverConfig,
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

    // Refinement mutates its inputs: each run clones its (budgets, sino)
    // pair outside the timed section.
    let timings = KernelTimings::paired(
        || {
            let (mut b, mut s) = (budgets0.clone(), sino0.clone());
            secs(|| {
                refine::reference::refine(
                    &circuit,
                    &grid,
                    &routes,
                    &mut b,
                    &mut s,
                    &table,
                    vth,
                    &refine_cfg,
                )
                .expect("reference refine");
            })
        },
        || {
            let (mut b, mut s) = (budgets0.clone(), sino0.clone());
            secs(|| {
                refine::refine(
                    &circuit,
                    &grid,
                    &routes,
                    &mut b,
                    &mut s,
                    &table,
                    vth,
                    SolverConfig,
                    &refine_cfg,
                )
                .expect("incremental refine");
            })
        },
    );
    println!("== phase III refinement, 500-net generator circuit ({ROUNDS} paired rounds) ==");
    println!("  initial violating nets    {initial_violations:>9}");
    println!(
        "  reference seed pass       {:>9.2} ms",
        timings.reference_ms
    );
    println!(
        "  incremental tracker pass  {:>9.2} ms   ({:.2}x vs reference)",
        timings.new_ms,
        timings.speedup()
    );
    println!(
        "  identical outcomes: {} nets fixed, +{} / -{} shields, clean: {}",
        stats_inc.pass1_nets,
        stats_inc.pass1_shields_added,
        stats_inc.pass2_shields_removed,
        stats_inc.clean
    );
    (timings, initial_violations, stats_inc)
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
    timings.insert_into(
        &mut refine_m,
        "incremental_ms",
        "reference_ms",
        "speedup_vs_reference",
    );
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
