//! Phase II: SINO within every routing region (paper §3, with the SINO
//! engine from [`gsino_sino`]).
//!
//! Every `(region, direction)` pair whose tracks host net segments becomes
//! an independent SINO instance — the paper's no-coupling-across-regions
//! assumption (§2.1) makes them independent — so they are drained from a
//! shared worklist by a deterministic pool of workers, each reusing one
//! [`DeltaEval`] scratch across all the regions it solves. Every region
//! runs the one greedy solver ([`SinoSolver`]), a pure function of its
//! instance, so the result is identical for every thread count and
//! worklist pop interleaving.

use crate::budget::Budgets;
use crate::worklist::map_worklist;
use crate::Result;
use gsino_grid::net::NetId;
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, RouteSet};
use gsino_grid::sensitivity::SensitivityModel;
use gsino_grid::usage::TrackUsage;
use gsino_sino::delta::DeltaEval;
use gsino_sino::instance::{SegmentSpec, SinoInstance};
use gsino_sino::keff::{coupling, evaluate};
use gsino_sino::layout::Layout;
use gsino_sino::solver::{SinoSolver, SolverConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// How the per-region problem is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionMode {
    /// Full SINO: ordering plus shields, constraints enforced.
    Sino,
    /// Net ordering only (the "NO" baseline): no shields, capacitive
    /// coupling minimized best-effort, inductive constraints ignored.
    OrderOnly,
}

/// Which SINO solver implementation Phase II drives.
///
/// Both engines produce **bit-identical** [`RegionSino`] states; the
/// reference engine exists as the baseline for the `phase_runtime` bench
/// and the equivalence tests, exactly like the Phase I
/// `reference::SeedIdRouter` contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SinoEngine {
    /// The incremental [`DeltaEval`]-based solvers (production path).
    #[default]
    Incremental,
    /// The preserved seed clone-and-reevaluate solvers
    /// ([`gsino_sino::reference`]).
    Reference,
}

/// The solved state of one `(region, direction)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSolution {
    /// Nets with a segment here, ascending; index = instance segment index.
    pub nets: Vec<NetId>,
    /// The SINO instance (budgets may be retightened by Phase III).
    pub instance: SinoInstance,
    /// The current track layout.
    pub layout: Layout,
    /// Per-segment achieved coupling `Kᵢ`.
    pub k: Vec<f64>,
}

impl RegionSolution {
    /// Index of a net within this region's segment list.
    pub fn index_of(&self, net: NetId) -> Option<usize> {
        self.nets.binary_search(&net).ok()
    }

    /// Re-evaluates `k` after a layout change.
    pub fn refresh_k(&mut self) {
        self.k = evaluate(&self.instance, &self.layout).k;
    }
}

/// All per-region solutions of a routing solution.
///
/// Each region's solution sits behind its own [`Arc`], so `clone` copies
/// one pointer per region and shares every solution; its cost, like
/// drop's, scales with the number of regions, not with their contents.
/// Writes are copy-on-write: [`RegionSino::solution_mut`] copies a region
/// first if another `RegionSino` still shares it, so a clone never sees
/// the other's writes. The ECO session relies on this to build a commit
/// beside the live snapshot while sharing every region the commit does
/// not change. A `RegionSino` nothing else shares never copies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionSino {
    solutions: HashMap<(RegionIdx, Dir), Arc<RegionSolution>>,
}

impl RegionSino {
    /// The solution at a region/direction, if any segments live there.
    pub fn solution(&self, region: RegionIdx, dir: Dir) -> Option<&RegionSolution> {
        self.solutions.get(&(region, dir)).map(Arc::as_ref)
    }

    /// Mutable access for Phase III. Copy-on-write: a solution shared
    /// with another `RegionSino` is copied before the first write.
    pub fn solution_mut(&mut self, region: RegionIdx, dir: Dir) -> Option<&mut RegionSolution> {
        self.solutions.get_mut(&(region, dir)).map(Arc::make_mut)
    }

    /// The shared handle to one region's solution, for installing it in
    /// another `RegionSino` without a copy ([`Self::insert_shared`]).
    pub(crate) fn shared(&self, region: RegionIdx, dir: Dir) -> Option<&Arc<RegionSolution>> {
        self.solutions.get(&(region, dir))
    }

    /// Installs (or replaces) one region's solution by handle, sharing it
    /// with whichever `RegionSino` it came from.
    pub(crate) fn insert_shared(&mut self, region: RegionIdx, dir: Dir, sol: Arc<RegionSolution>) {
        self.solutions.insert((region, dir), sol);
    }

    /// The achieved coupling of a net's segment, if present.
    pub fn k_of(&self, net: NetId, region: RegionIdx, dir: Dir) -> Option<f64> {
        let sol = self.solutions.get(&(region, dir))?;
        let idx = sol.index_of(net)?;
        Some(sol.k[idx])
    }

    /// Every `(region, dir)` key, sorted for deterministic iteration.
    pub fn keys(&self) -> Vec<(RegionIdx, Dir)> {
        let mut keys: Vec<_> = self.solutions.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Total shields over all regions (the shielding area, in tracks).
    pub fn total_shields(&self) -> u64 {
        self.solutions
            .values()
            .map(|s| s.layout.num_shields() as u64)
            .sum()
    }

    /// Writes every region's shield count into a usage snapshot.
    pub fn apply_shields(&self, usage: &mut TrackUsage) {
        for ((r, d), sol) in &self.solutions {
            // Shields occupy tracks, and per-region capacity is u32 — a
            // layout can never hold more.
            debug_assert!(sol.layout.num_shields() <= u32::MAX as usize);
            usage.set_shields(*r, *d, sol.layout.num_shields() as u32);
        }
    }

    /// Number of solved region/direction instances.
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// Whether no region hosts any segment.
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }
}

/// Groups routed nets by `(region, direction)`: every pair whose tracks
/// host at least one net segment, with its occupant list sorted ascending.
/// Sorted by key, so iteration is deterministic. The flow's Phase II
/// stage and the ECO session's runtime oracle both start from it.
pub fn assignments(grid: &RegionGrid, routes: &RouteSet) -> Vec<((RegionIdx, Dir), Vec<NetId>)> {
    let mut map: HashMap<(RegionIdx, Dir), Vec<NetId>> = HashMap::new();
    for route in routes.iter() {
        for r in route.regions() {
            for dir in [Dir::H, Dir::V] {
                if route.occupies(grid, r, dir) {
                    map.entry((r, dir)).or_default().push(route.net());
                }
            }
        }
    }
    let mut out: Vec<_> = map.into_iter().collect();
    for (_, nets) in &mut out {
        nets.sort_unstable();
        nets.dedup();
    }
    out.sort_unstable_by_key(|(key, _)| *key);
    out
}

/// Solves every region with the production (incremental) engine:
/// [`prepare_instances`] followed by [`solve_prepared`]. `threads = 0`
/// uses the available parallelism.
///
/// # Errors
///
/// Propagates SINO construction/solver errors (budgets are validated
/// upstream, so failures indicate internal bugs).
pub fn solve_regions(
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &Budgets,
    sensitivity: &SensitivityModel,
    mode: RegionMode,
    threads: usize,
) -> Result<RegionSino> {
    let work = prepare_instances(grid, routes, budgets, sensitivity, threads)?;
    solve_prepared(work, SolverConfig, mode, threads, SinoEngine::Incremental)
}

/// One prepared per-region SINO problem (the Phase II analogue of the
/// router's shared Steiner `prepare`).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionInstance {
    /// The `(region, direction)` this instance lives in.
    pub key: (RegionIdx, Dir),
    /// Nets with a segment here, ascending; index = instance segment index.
    pub nets: Vec<NetId>,
    /// The constructed SINO instance (budgets resolved).
    pub instance: SinoInstance,
}

/// Groups routed nets by `(region, direction)` and builds every region's
/// [`SinoInstance`] — the engine-independent Phase II preprocessing. The
/// result is sorted by key, so downstream solving is deterministic.
///
/// `threads = 0` uses the available parallelism: instance construction
/// (budget resolution plus the O(n²) sensitivity matrix per region) is
/// embarrassingly parallel, so the groups are drained from the same kind
/// of atomic worklist [`solve_prepared`] uses. Each instance is a pure
/// function of its group, and results are reassembled in group order, so
/// the output is identical for every thread count.
///
/// # Errors
///
/// Propagates SINO construction errors (budgets are validated upstream,
/// so failures indicate internal bugs).
pub fn prepare_instances(
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &Budgets,
    sensitivity: &SensitivityModel,
    threads: usize,
) -> Result<Vec<RegionInstance>> {
    let groups = assignments(grid, routes);
    map_worklist(
        groups,
        threads,
        || (),
        |group, _: &mut ()| build_instance(group.0, group.1, budgets, sensitivity),
    )
}

/// Builds one region's [`RegionInstance`] from its occupant list — the
/// loop body of [`prepare_instances`] and of the flow's Phase II stage,
/// which every ECO replay rung and the session's runtime oracle run.
///
/// # Errors
///
/// Propagates SINO construction errors.
pub fn build_instance(
    key: (RegionIdx, Dir),
    nets: Vec<NetId>,
    budgets: &Budgets,
    sensitivity: &SensitivityModel,
) -> Result<RegionInstance> {
    let (region, dir) = key;
    let specs: Vec<SegmentSpec> = nets
        .iter()
        .map(|&net| SegmentSpec {
            net,
            kth: budgets.kth(net, region, dir).unwrap_or(1e9),
        })
        .collect();
    let instance = SinoInstance::from_model(specs, sensitivity)?;
    Ok(RegionInstance {
        key,
        nets,
        instance,
    })
}

/// Solves one prepared region instance — the loop body of
/// [`solve_prepared`] and of the flow's Phase II stage. A solve is a pure
/// function of the instance, so every caller gets bit-identical results.
///
/// # Errors
///
/// Propagates SINO solver errors.
pub fn solve_instance(
    region_inst: RegionInstance,
    mode: RegionMode,
    engine: SinoEngine,
    scratch: &mut DeltaEval,
) -> Result<((RegionIdx, Dir), RegionSolution)> {
    let instance = &region_inst.instance;
    let layout = match (mode, engine) {
        (RegionMode::Sino, SinoEngine::Incremental) => SinoSolver.solve_with(instance, scratch)?,
        (RegionMode::Sino, SinoEngine::Reference) => gsino_sino::reference::solve(instance)?,
        (RegionMode::OrderOnly, SinoEngine::Incremental) => {
            gsino_sino::greedy::order_only_with(instance, scratch)
        }
        (RegionMode::OrderOnly, SinoEngine::Reference) => {
            gsino_sino::reference::order_only(instance)
        }
    };
    // The incremental solvers leave the scratch mirroring their layout, so
    // its cached couplings are a from-scratch pass's bits. The reference
    // engine takes `coupling`, the `k` component of `evaluate`, without
    // rescanning for violations the solver already enforced.
    let k = match engine {
        SinoEngine::Incremental => scratch.k_values(instance).to_vec(),
        SinoEngine::Reference => coupling(instance, &layout),
    };
    Ok((
        region_inst.key,
        RegionSolution {
            nets: region_inst.nets,
            instance: region_inst.instance,
            layout,
            k,
        },
    ))
}

/// Solves prepared region instances with the chosen engine, consuming the
/// work list; `threads = 0` uses the available parallelism.
///
/// The instances are drained from an atomic worklist: each worker owns one
/// [`DeltaEval`] scratch reused across every region it pops, and each
/// popped [`RegionInstance`] is **moved** into its [`RegionSolution`]
/// (nets and instance alike) — no per-region clone of the prepared
/// sensitivity matrix. Each solve is a pure function of its instance, and
/// the results are keyed by `(region, dir)`, so any pop interleaving
/// produces the same [`RegionSino`] — parallelism is observationally
/// free, and both [`SinoEngine`]s are bit-identical.
///
/// `_solver` is a placeholder: [`SolverConfig`] has nothing to configure,
/// and the parameter stays only for callers that still pass one.
///
/// # Errors
///
/// Propagates SINO solver errors (internal-invariant failures only).
pub fn solve_prepared(
    work: Vec<RegionInstance>,
    _solver: SolverConfig,
    mode: RegionMode,
    threads: usize,
    engine: SinoEngine,
) -> Result<RegionSino> {
    let solved = map_worklist(work, threads, DeltaEval::new, |item, scratch| {
        solve_instance(item, mode, engine, scratch)
    })?;
    Ok(RegionSino {
        solutions: solved
            .into_iter()
            .map(|(key, sol)| (key, Arc::new(sol)))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{uniform_budgets, LengthModel};
    use crate::router::{route_all, ShieldTerm, Weights};
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::{Circuit, Net};
    use gsino_grid::tech::Technology;
    use gsino_lsk::table::NoiseTable;

    fn bus_circuit(n: u32) -> (Circuit, RegionGrid, NoiseTable) {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
        let nets: Vec<Net> = (0..n)
            .map(|i| {
                Net::two_pin(
                    i,
                    Point::new(16.0, 16.0 + i as f64),
                    Point::new(620.0, 16.0 + i as f64),
                )
            })
            .collect();
        let circuit = Circuit::new("bus", die, nets).unwrap();
        let tech = Technology::itrs_100nm();
        let grid = RegionGrid::new(&circuit, &tech, 64.0).unwrap();
        let table = NoiseTable::calibrated(&tech);
        (circuit, grid, table)
    }

    fn solve(n: u32, rate: f64, mode: RegionMode) -> (Circuit, RegionGrid, RegionSino) {
        let (circuit, grid, table) = bus_circuit(n);
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(rate, 3);
        let sino = solve_regions(&grid, &routes, &budgets, &sens, mode, 1).unwrap();
        (circuit, grid, sino)
    }

    #[test]
    fn sino_mode_meets_all_region_budgets() {
        let (_, _, sino) = solve(8, 0.5, RegionMode::Sino);
        assert!(!sino.is_empty());
        for (r, d) in sino.keys() {
            let sol = sino.solution(r, d).unwrap();
            let eval = evaluate(&sol.instance, &sol.layout);
            assert!(eval.feasible, "region {r} {d:?} infeasible");
        }
    }

    #[test]
    fn order_only_mode_never_shields() {
        let (_, _, sino) = solve(8, 0.5, RegionMode::OrderOnly);
        assert_eq!(sino.total_shields(), 0);
    }

    #[test]
    fn sino_shields_grow_with_sensitivity() {
        let (_, _, low) = solve(10, 0.2, RegionMode::Sino);
        let (_, _, high) = solve(10, 0.8, RegionMode::Sino);
        assert!(
            high.total_shields() > low.total_shields(),
            "high {} <= low {}",
            high.total_shields(),
            low.total_shields()
        );
    }

    #[test]
    fn k_of_matches_solution_layout() {
        let (_, _, sino) = solve(6, 0.5, RegionMode::Sino);
        for (r, d) in sino.keys() {
            let sol = sino.solution(r, d).unwrap();
            for (i, &net) in sol.nets.iter().enumerate() {
                assert_eq!(sino.k_of(net, r, d), Some(sol.k[i]));
            }
            assert_eq!(sino.k_of(9999, r, d), None);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (circuit, grid, table) = bus_circuit(12);
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(0.5, 3);
        let serial = solve_regions(&grid, &routes, &budgets, &sens, RegionMode::Sino, 1).unwrap();
        let parallel = solve_regions(&grid, &routes, &budgets, &sens, RegionMode::Sino, 4).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_prepare_and_consuming_solve_match_serial() {
        // A spread-out circuit so the number of (region, dir) groups
        // exceeds the serial-fallback threshold and the parallel worklists
        // genuinely run.
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
        let nets: Vec<Net> = (0..24)
            .map(|i| {
                let x = 16.0 + (i as f64 * 37.0) % 600.0;
                let y = 16.0 + (i as f64 * 53.0) % 600.0;
                Net::two_pin(i, Point::new(x, y), Point::new(620.0 - x, 620.0 - y))
            })
            .collect();
        let circuit = Circuit::new("spread", die, nets).unwrap();
        let tech = Technology::itrs_100nm();
        let grid = RegionGrid::new(&circuit, &tech, 64.0).unwrap();
        let table = NoiseTable::calibrated(&tech);
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(0.5, 3);
        let serial = prepare_instances(&grid, &routes, &budgets, &sens, 1).unwrap();
        assert!(
            serial.len() >= 32,
            "need ≥32 groups to exercise the parallel path, got {}",
            serial.len()
        );
        let parallel = prepare_instances(&grid, &routes, &budgets, &sens, 4).unwrap();
        assert_eq!(serial, parallel, "parallel prepare must be bit-identical");
        let solved_serial = solve_prepared(
            serial,
            SolverConfig,
            RegionMode::Sino,
            1,
            SinoEngine::Incremental,
        )
        .unwrap();
        let solved_parallel = solve_prepared(
            parallel,
            SolverConfig,
            RegionMode::Sino,
            4,
            SinoEngine::Incremental,
        )
        .unwrap();
        assert_eq!(solved_serial, solved_parallel);
    }

    #[test]
    fn incremental_engine_matches_reference_engine() {
        let (circuit, grid, table) = bus_circuit(10);
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(0.5, 3);
        // Serial and through the parallel worklist: every combination must
        // be bit-identical to the preserved reference solver.
        for mode in [RegionMode::Sino, RegionMode::OrderOnly] {
            let work = prepare_instances(&grid, &routes, &budgets, &sens, 1).unwrap();
            let reference =
                solve_prepared(work, SolverConfig, mode, 1, SinoEngine::Reference).unwrap();
            for threads in [1, 4] {
                let work = prepare_instances(&grid, &routes, &budgets, &sens, threads).unwrap();
                let incremental =
                    solve_prepared(work, SolverConfig, mode, threads, SinoEngine::Incremental)
                        .unwrap();
                assert_eq!(reference, incremental, "mode {mode:?} threads {threads}");
            }
        }
    }

    #[test]
    fn empty_route_set_solves_to_empty_region_sino() {
        let (circuit, grid, table) = bus_circuit(4);
        let routes = RouteSet::default();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(0.5, 3);
        for engine in [SinoEngine::Incremental, SinoEngine::Reference] {
            let work = prepare_instances(&grid, &routes, &budgets, &sens, 0).unwrap();
            let sino = solve_prepared(work, SolverConfig, RegionMode::Sino, 0, engine).unwrap();
            assert!(sino.is_empty(), "{engine:?}");
            assert_eq!(sino.len(), 0);
            assert_eq!(sino.total_shields(), 0);
            assert!(sino.keys().is_empty());
        }
    }

    #[test]
    fn single_net_regions_need_no_shields_and_zero_coupling() {
        let (_, _, sino) = solve(1, 1.0, RegionMode::Sino);
        assert!(!sino.is_empty(), "one routed net must occupy regions");
        for (r, d) in sino.keys() {
            let sol = sino.solution(r, d).unwrap();
            assert_eq!(sol.nets.len(), 1, "region {r} {d:?}");
            assert_eq!(sol.layout.num_shields(), 0);
            assert_eq!(sol.layout.area(), 1);
            assert_eq!(sol.k, vec![0.0]);
            assert!(evaluate(&sol.instance, &sol.layout).feasible);
        }
    }

    #[test]
    fn solution_mut_on_a_clone_leaves_the_original_untouched() {
        let (_, _, original) = solve(10, 0.8, RegionMode::Sino);
        let (_, _, pristine) = solve(10, 0.8, RegionMode::Sino);
        let bits = |sino: &RegionSino| -> Vec<u64> {
            sino.keys()
                .into_iter()
                .flat_map(|(r, d)| sino.solution(r, d).unwrap().k.clone())
                .map(f64::to_bits)
                .collect()
        };
        let mut copy = original.clone();
        let keys = original.keys();
        for &(r, d) in &keys {
            assert!(Arc::ptr_eq(
                original.shared(r, d).unwrap(),
                copy.shared(r, d).unwrap()
            ));
        }
        let (r, d) = keys[0];
        let sol = copy.solution_mut(r, d).unwrap();
        sol.k[0] = sol.k[0] * 3.0 + 1.0;
        let reversed: Vec<usize> = (0..sol.nets.len()).rev().collect();
        sol.layout = Layout::from_order(&reversed);
        sol.instance.set_kth(0, 1e-6).unwrap();
        assert_eq!(original, pristine);
        assert_eq!(bits(&original), bits(&pristine));
        assert_ne!(copy, original);
        // Only the written region was copied; the rest stay shared.
        for &(kr, kd) in &keys {
            let shared = Arc::ptr_eq(
                original.shared(kr, kd).unwrap(),
                copy.shared(kr, kd).unwrap(),
            );
            assert_eq!(shared, (kr, kd) != (r, d), "region {kr} {kd:?}");
        }
        // A second write goes to the now-unshared copy in place.
        let before = Arc::as_ptr(copy.shared(r, d).unwrap());
        copy.solution_mut(r, d).unwrap().k[0] = 0.0;
        assert_eq!(Arc::as_ptr(copy.shared(r, d).unwrap()), before);
        assert_eq!(original, pristine);
    }

    #[test]
    fn apply_shields_updates_usage() {
        let (_, grid, sino) = solve(10, 0.8, RegionMode::Sino);
        let mut usage = TrackUsage::new(&grid);
        sino.apply_shields(&mut usage);
        assert_eq!(usage.total_shields(), sino.total_shields());
    }
}
