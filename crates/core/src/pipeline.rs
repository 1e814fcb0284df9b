//! End-to-end flows: GSINO and the shared plumbing for the baselines.
//!
//! The flow's stages live here and nowhere else, each a crate-private
//! function: Phase I routing (`route_stage`), §3.1 budgeting
//! (`budget_stage`), Phase II per-region SINO (`sino_stage`) and Phase III
//! refinement with its violation report (`refine_stage`). [`run_gsino`]
//! and the baselines run them from scratch; the baselines skip Phase III
//! and [`check`] instead. The ECO session ([`crate::session`]) runs them
//! on every rung, and its incremental rungs hand `sino_stage` the live
//! Phase II state to reuse by pointer, keep warm, or replace.

use crate::budget::{
    budgets_with_constraints, congestion_weighted_budgets, BudgetPolicy, Budgets, LengthModel,
};
use crate::cancel::CancelToken;
use crate::metrics::{wirelength_stats, WirelengthStats};
use crate::phase2::{
    assignments, build_instance, solve_instance, RegionMode, RegionSino, RegionSolution, SinoEngine,
};
use crate::refine::tracker::LskTracker;
use crate::refine::{refine_tracked, RefineConfig, RefineStats};
use crate::router::{AstarRouter, IdRouter, RouterStats, ShieldTerm, Weights};
use crate::violations::{check, ViolationReport};
use crate::worklist::map_worklist;
use crate::{CoreError, Result};
use gsino_grid::area::{AreaModel, RoutingArea};
use gsino_grid::net::{Circuit, NetId};
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, RouteSet};
use gsino_grid::sensitivity::SensitivityModel;
use gsino_grid::tech::Technology;
use gsino_grid::usage::TrackUsage;
use gsino_lsk::table::{calibrated_knots, NoiseTable};
use gsino_sino::delta::DeltaEval;
use gsino_sino::nss::NssModel;
use gsino_sino::solver::SolverConfig;
use gsino_sino::warm::budget_swap_preserves_solution;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Which global router drives Phase I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RouterKind {
    /// Iterative deletion (paper Fig. 1): order-independent, slower,
    /// usually better solutions.
    #[default]
    IterativeDeletion,
    /// Sequential congestion-aware A* — the "more efficient global router"
    /// of the paper's §5 future work; order-dependent.
    SequentialAstar,
}

/// The three routing approaches the paper evaluates (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// The paper's contribution: shield-aware routing + SINO + refinement.
    Gsino,
    /// ID routing + per-region net ordering, no shields.
    IdNo,
    /// ID routing + per-region SINO, no shield-aware routing, no refinement.
    Isino,
}

impl std::fmt::Display for Approach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Approach::Gsino => write!(f, "GSINO"),
            Approach::IdNo => write!(f, "ID+NO"),
            Approach::Isino => write!(f, "iSINO"),
        }
    }
}

/// Configuration shared by all flows.
///
/// Serialized configs omit-tolerantly deserialize: any field missing from
/// the wire form falls back to its [`GsinoConfig::default`] value
/// (container-level `#[serde(default)]`), so older clients interoperate
/// with servers that have grown new knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct GsinoConfig {
    /// Technology parameters (ITRS 0.10 µm by default).
    pub tech: Technology,
    /// Nominal routing-region tile size (µm).
    pub tile_um: f64,
    /// The crosstalk constraint for every sink (V); the paper uses 0.15 V.
    pub vth: f64,
    /// The net-to-net sensitivity model (rate 30% or 50% in the paper).
    pub sensitivity: SensitivityModel,
    /// Formula (2) weight constants.
    pub weights: Weights,
    /// A placeholder with nothing to configure: every region runs the one
    /// greedy SINO solver. Kept only for callers that still pass it to
    /// [`solve_prepared`](crate::phase2::solve_prepared) and
    /// [`refine`](crate::refine::refine); never on the wire.
    #[serde(skip)]
    pub solver: SolverConfig,
    /// Phase III bounds.
    pub refine: RefineConfig,
    /// Worker threads for Phase II's region solves and Phase III's pass-2
    /// region trials (0 = available parallelism). Phase I always routes on
    /// the calling thread. Every result is identical for every thread
    /// count. [`Self::validate`] rejects more than [`MAX_THREADS`], so a
    /// configuration read off the wire cannot start thousands of threads.
    pub threads: usize,
    /// Pre-fitted Formula (3) model; `None` fits one per GSINO run.
    pub nss_model: Option<NssModel>,
    /// Seed for the Formula (3) fit.
    pub nss_fit_seed: u64,
    /// Whether GSINO's router reserves shielding area through Formula (3)
    /// (paper §3.1). Disabling this is the `ablation_shield_term` bench —
    /// the flow degenerates to iSINO-style routing plus Phase III.
    pub shield_reservation: bool,
    /// How the LSK bound is split along paths (paper: uniform; the
    /// congestion-weighted variant is the §5 future-work extension).
    pub budget_policy: BudgetPolicy,
    /// Which global router drives Phase I.
    pub router: RouterKind,
    /// Which SINO solver implementation drives Phase II. Both engines are
    /// bit-identical; [`SinoEngine::Reference`] exists for ablations and
    /// the bench gate's normalization baseline.
    pub sino_engine: SinoEngine,
    /// Per-sink crosstalk-constraint overrides `(net, sink_index, vth)` —
    /// the paper's §3.1 non-uniform constraints. Overridden sinks budget
    /// against their own `vth`; everything else (violation checking, Phase
    /// III targets, the Formula (3) fit) keeps the global [`Self::vth`].
    /// ECO sessions use this to tighten a single sink's noise budget
    /// without re-routing. Only supported under
    /// [`BudgetPolicy::Uniform`].
    pub vth_overrides: Vec<(u32, u32, f64)>,
}

/// The most [`GsinoConfig::threads`] [`GsinoConfig::validate`] accepts;
/// the workspace's own configurations use at most 4.
pub const MAX_THREADS: usize = 64;

impl Default for GsinoConfig {
    fn default() -> Self {
        GsinoConfig {
            tech: Technology::itrs_100nm(),
            tile_um: 64.0,
            vth: 0.15,
            sensitivity: SensitivityModel::new(0.3, 1),
            weights: Weights::default(),
            solver: SolverConfig,
            refine: RefineConfig::default(),
            threads: 0,
            nss_model: None,
            nss_fit_seed: 7,
            shield_reservation: true,
            budget_policy: BudgetPolicy::Uniform,
            router: RouterKind::default(),
            sino_engine: SinoEngine::default(),
            vth_overrides: Vec::new(),
        }
    }
}

impl GsinoConfig {
    /// A builder starting from [`GsinoConfig::default`], validating on
    /// [`GsinoConfigBuilder::build`]. Struct-literal construction (with
    /// `..Default::default()`) stays available; the builder is the
    /// boundary-friendly form — callers set only what they mean, and an
    /// out-of-range value surfaces as a typed
    /// [`CoreError::BadConfig`] at build time instead of deep inside a
    /// flow.
    ///
    /// ```
    /// use gsino_core::pipeline::GsinoConfig;
    ///
    /// let config = GsinoConfig::builder()
    ///     .vth(0.18)
    ///     .threads(1)
    ///     .build()
    ///     .expect("valid config");
    /// assert_eq!(config.vth, 0.18);
    /// assert!(GsinoConfig::builder().vth(-1.0).build().is_err());
    /// ```
    pub fn builder() -> GsinoConfigBuilder {
        GsinoConfigBuilder {
            config: GsinoConfig::default(),
        }
    }

    /// Validates the configuration against physical ranges.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<()> {
        if !(self.vth > 0.0 && self.vth < self.tech.vdd) {
            return Err(CoreError::BadConfig {
                reason: format!("vth {} outside (0, Vdd)", self.vth),
            });
        }
        // The flow's noise table is built from the supply voltage, and
        // only some supply voltages give it usable knots.
        if calibrated_knots(&self.tech).is_none() {
            return Err(CoreError::BadConfig {
                reason: format!(
                    "Vdd {} outside the calibrated noise table's range (0.20 V, ~9.2e12 V)",
                    self.tech.vdd
                ),
            });
        }
        // Deserialization bypasses `SensitivityModel::new`'s range check.
        let rate = self.sensitivity.rate();
        if !(0.0..=1.0).contains(&rate) {
            return Err(CoreError::BadConfig {
                reason: format!("sensitivity rate {rate} outside [0, 1]"),
            });
        }
        if !(self.tile_um.is_finite() && self.tile_um > 0.0) {
            return Err(CoreError::BadConfig {
                reason: format!("tile size {}", self.tile_um),
            });
        }
        // The routers order nets by a float score built from these
        // weights; a NaN coefficient would panic their comparators.
        if ![self.weights.alpha, self.weights.beta, self.weights.gamma]
            .iter()
            .all(|w| w.is_finite())
        {
            return Err(CoreError::BadConfig {
                reason: "router weights must be finite".into(),
            });
        }
        if self.threads > MAX_THREADS {
            return Err(CoreError::BadConfig {
                reason: format!("threads {} above the ceiling {MAX_THREADS}", self.threads),
            });
        }
        for &(net, sink, vth) in &self.vth_overrides {
            if !(vth > 0.0 && vth < self.tech.vdd) {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "vth override {vth} for net {net} sink {sink} outside (0, Vdd)"
                    ),
                });
            }
        }
        if !self.vth_overrides.is_empty() && self.budget_policy == BudgetPolicy::CongestionWeighted
        {
            return Err(CoreError::BadConfig {
                reason: "vth overrides require the uniform budget policy".into(),
            });
        }
        Ok(())
    }

    /// The constraint a given sink budgets against: its override if one is
    /// configured (the last matching entry wins), the global [`Self::vth`]
    /// otherwise.
    pub fn vth_for(&self, net: u32, sink_index: usize) -> f64 {
        self.vth_overrides
            .iter()
            .rev()
            .find(|(n, s, _)| *n == net && *s as usize == sink_index)
            .map(|(_, _, v)| *v)
            .unwrap_or(self.vth)
    }
}

/// Builder for [`GsinoConfig`]: defaults from [`GsinoConfig::default`],
/// one setter per field except the placeholder [`GsinoConfig::solver`],
/// [`GsinoConfig::validate`] run on [`Self::build`]. See
/// [`GsinoConfig::builder`].
#[derive(Debug, Clone)]
pub struct GsinoConfigBuilder {
    config: GsinoConfig,
}

impl GsinoConfigBuilder {
    /// Technology parameters.
    pub fn tech(mut self, tech: Technology) -> Self {
        self.config.tech = tech;
        self
    }

    /// Nominal routing-region tile size (µm).
    pub fn tile_um(mut self, tile_um: f64) -> Self {
        self.config.tile_um = tile_um;
        self
    }

    /// The global crosstalk constraint (V).
    pub fn vth(mut self, vth: f64) -> Self {
        self.config.vth = vth;
        self
    }

    /// The net-to-net sensitivity model.
    pub fn sensitivity(mut self, sensitivity: SensitivityModel) -> Self {
        self.config.sensitivity = sensitivity;
        self
    }

    /// Formula (2) weight constants.
    pub fn weights(mut self, weights: Weights) -> Self {
        self.config.weights = weights;
        self
    }

    /// Phase III bounds.
    pub fn refine(mut self, refine: RefineConfig) -> Self {
        self.config.refine = refine;
        self
    }

    /// Worker threads for Phase II and Phase III (0 = available
    /// parallelism, at most [`MAX_THREADS`]; see [`GsinoConfig::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Pre-fitted Formula (3) model (skips the per-run fit).
    pub fn nss_model(mut self, model: NssModel) -> Self {
        self.config.nss_model = Some(model);
        self
    }

    /// Seed for the Formula (3) fit when no model is pre-fitted.
    pub fn nss_fit_seed(mut self, seed: u64) -> Self {
        self.config.nss_fit_seed = seed;
        self
    }

    /// Whether the GSINO router reserves shielding area (paper §3.1).
    pub fn shield_reservation(mut self, on: bool) -> Self {
        self.config.shield_reservation = on;
        self
    }

    /// How the LSK bound is split along paths.
    pub fn budget_policy(mut self, policy: BudgetPolicy) -> Self {
        self.config.budget_policy = policy;
        self
    }

    /// Which global router drives Phase I.
    pub fn router(mut self, router: RouterKind) -> Self {
        self.config.router = router;
        self
    }

    /// Which SINO solver implementation drives Phase II.
    pub fn sino_engine(mut self, engine: SinoEngine) -> Self {
        self.config.sino_engine = engine;
        self
    }

    /// Adds one per-sink constraint override `(net, sink_index, vth)` —
    /// may be called repeatedly; the last entry for a sink wins.
    pub fn vth_override(mut self, net: u32, sink: u32, vth: f64) -> Self {
        self.config.vth_overrides.push((net, sink, vth));
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] — the same checks as
    /// [`GsinoConfig::validate`].
    pub fn build(self) -> Result<GsinoConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Wall-clock seconds per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Global routing (Phase I's ID run, including budgeting inputs).
    pub route_s: f64,
    /// Crosstalk budgeting.
    pub budget_s: f64,
    /// Per-region SINO (Phase II).
    pub sino_s: f64,
    /// Local refinement (Phase III).
    pub refine_s: f64,
    /// End-to-end.
    pub total_s: f64,
}

/// Everything a flow produces.
#[derive(Debug, Clone)]
pub struct GsinoOutcome {
    /// Which approach produced this.
    pub approach: Approach,
    /// Per-net routing trees.
    pub routes: RouteSet,
    /// Final per-region track usage, shields included.
    pub usage: TrackUsage,
    /// The paper's routing-area metric.
    pub area: RoutingArea,
    /// The same metric with shields stripped (routing overflow only) —
    /// separates congestion-driven growth from shield-driven growth.
    pub area_nets_only: RoutingArea,
    /// Wire-length statistics.
    pub wirelength: WirelengthStats,
    /// Crosstalk violations at the configured constraint.
    pub violations: ViolationReport,
    /// Total shields (tracks).
    pub total_shields: u64,
    /// Router counters.
    pub router_stats: RouterStats,
    /// Per-phase timings.
    pub timings: PhaseTimings,
    /// Phase III counters (GSINO only).
    pub refine_stats: Option<RefineStats>,
}

/// Runs the full GSINO flow on a circuit.
///
/// # Errors
///
/// Configuration, routing and solver errors; see [`CoreError`].
pub fn run_gsino(circuit: &Circuit, config: &GsinoConfig) -> Result<GsinoOutcome> {
    run_flow(circuit, config, Approach::Gsino).map(|(o, _)| o)
}

/// Runs a flow and also returns its internal artifacts (grids, budgets,
/// region solutions) for deeper inspection by tests and examples.
///
/// # Errors
///
/// Same conditions as [`run_gsino`].
pub fn run_flow_with_artifacts(
    circuit: &Circuit,
    config: &GsinoConfig,
    approach: Approach,
) -> Result<(GsinoOutcome, FlowInternals)> {
    run_flow(circuit, config, approach)
}

/// Public view of the flow artifacts.
pub struct FlowInternals {
    /// The routing-region grid.
    pub grid: RegionGrid,
    /// The noise table used for budgeting and checking.
    pub table: NoiseTable,
    /// Final per-segment budgets (post Phase III re-budgeting).
    pub budgets: Budgets,
    /// Final per-region SINO solutions.
    pub sino: RegionSino,
}

pub(crate) fn run_flow(
    circuit: &Circuit,
    config: &GsinoConfig,
    approach: Approach,
) -> Result<(GsinoOutcome, FlowInternals)> {
    config.validate()?;
    let never = CancelToken::never();
    let t_start = Instant::now();
    let grid = RegionGrid::new(circuit, &config.tech, config.tile_um)?;
    let table = NoiseTable::calibrated(&config.tech);

    let t0 = Instant::now();
    let (routes, router_stats) = route_stage(circuit, config, approach, &grid, &table, &never)?;
    let route_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut budgets = budget_stage(circuit, config, approach, &grid, &routes, &table)?;
    let budget_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let regions = assignments(&grid, &routes);
    let (mut sino, _) = sino_stage(regions, &budgets, config, approach, None, &never)?;
    let sino_s = t0.elapsed().as_secs_f64();

    // Phase III (GSINO only).
    let t0 = Instant::now();
    let refined = if approach == Approach::Gsino {
        let mut tracker = LskTracker::new(circuit, &grid, &routes, &sino, &table, config.vth);
        Some(refine_stage(
            circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            config,
            &mut tracker,
            &never,
        )?)
    } else {
        None
    };
    let refine_s = t0.elapsed().as_secs_f64();
    let (refine_stats, violations) = match refined {
        Some((stats, report)) => (Some(stats), report),
        None => (
            None,
            check(circuit, &grid, &routes, &sino, &table, config.vth),
        ),
    };

    let mut usage = TrackUsage::from_routes(&grid, &routes);
    let area_nets_only = AreaModel.evaluate(&grid, &usage);
    sino.apply_shields(&mut usage);
    let area = AreaModel.evaluate(&grid, &usage);
    let wirelength = wirelength_stats(circuit, &grid, &routes);
    let total_shields = sino.total_shields();
    let outcome = GsinoOutcome {
        approach,
        routes,
        usage,
        area,
        area_nets_only,
        wirelength,
        violations,
        total_shields,
        router_stats,
        timings: PhaseTimings {
            route_s,
            budget_s,
            sino_s,
            refine_s,
            total_s: t_start.elapsed().as_secs_f64(),
        },
        refine_stats,
    };
    let internals = FlowInternals {
        grid,
        table,
        budgets,
        sino,
    };
    Ok((outcome, internals))
}

/// Phase I: routes every net with the configured router. GSINO reserves
/// shielding area through Formula (3), fitting the model when none is
/// configured (the fit depends on the netlist, so it is never cached);
/// the baselines, and GSINO without shield reservation, route with net
/// utilization only (paper §4). The token is polled before routing and,
/// by the ID router, once per deletion batch.
pub(crate) fn route_stage(
    circuit: &Circuit,
    config: &GsinoConfig,
    approach: Approach,
    grid: &RegionGrid,
    table: &NoiseTable,
    cancel: &CancelToken,
) -> Result<(RouteSet, RouterStats)> {
    let shield_term = if approach == Approach::Gsino && config.shield_reservation {
        let model = match &config.nss_model {
            Some(m) => m.clone(),
            None => NssModel::fit(
                reference_kth(circuit, table, config.vth),
                config.nss_fit_seed,
            )?,
        };
        ShieldTerm::Estimated {
            model,
            rate: config.sensitivity.rate(),
        }
    } else {
        ShieldTerm::None
    };
    match config.router {
        RouterKind::IterativeDeletion => {
            let router = IdRouter::new(grid, config.weights, shield_term);
            router.route_prepared_cancel(circuit, &router.prepare(circuit), cancel)
        }
        RouterKind::SequentialAstar => {
            // The A* loop polls no token.
            cancel.check("phase1")?;
            AstarRouter::new(grid, config.weights, shield_term).route(circuit)
        }
    }
}

/// Crosstalk budgeting (paper §3.1). GSINO budgets before knowing final
/// lengths (Manhattan); iSINO budgets after routing (path lengths); ID+NO
/// ignores budgets but needs positive `Kth` placeholders for its
/// instances. Under the uniform policy each sink budgets against
/// [`GsinoConfig::vth_for`], which is the global `vth` unless overridden.
pub(crate) fn budget_stage(
    circuit: &Circuit,
    config: &GsinoConfig,
    approach: Approach,
    grid: &RegionGrid,
    routes: &RouteSet,
    table: &NoiseTable,
) -> Result<Budgets> {
    let length_model = match approach {
        Approach::Isino => LengthModel::RoutedPath,
        _ => LengthModel::Manhattan,
    };
    match config.budget_policy {
        BudgetPolicy::Uniform => budgets_with_constraints(
            circuit,
            grid,
            routes,
            table,
            &|net, sink| config.vth_for(net, sink),
            length_model,
        ),
        BudgetPolicy::CongestionWeighted => congestion_weighted_budgets(
            circuit,
            grid,
            routes,
            &TrackUsage::from_routes(grid, routes),
            table,
            config.vth,
            length_model,
        ),
    }
}

/// The regions a [`sino_stage`] call solved or kept warm, rather than
/// sharing them by pointer: what the session's oracle samples after a
/// replay, so a warm region's certificate is re-checked by a solve too.
#[derive(Debug, Default)]
pub(crate) struct Patched {
    /// Their keys, in the order the caller listed them.
    pub keys: Vec<(RegionIdx, Dir)>,
    /// How many kept the previous layout under new budgets (warm skips);
    /// the rest were solved.
    pub warm: usize,
}

/// Phase II: one SINO solve (order-only for ID+NO) per listed region and
/// its ascending occupants, on the `threads` worklist. With `prev`, an
/// earlier Phase II state, a region whose occupants are unchanged reuses
/// `prev`'s solution: by pointer when its budget vector equals the one in
/// that solution's own instance, and warm (layout and couplings kept
/// under the new instance) when [`budget_swap_preserves_solution`]
/// certifies the budget swap in SINO mode. A solve is a pure function of
/// its instance, so either way the bits equal a fresh solve. Returns the
/// listed regions' solutions and what was patched.
pub(crate) fn sino_stage(
    regions: Vec<((RegionIdx, Dir), Vec<NetId>)>,
    budgets: &Budgets,
    config: &GsinoConfig,
    approach: Approach,
    prev: Option<&RegionSino>,
    cancel: &CancelToken,
) -> Result<(RegionSino, Patched)> {
    let mode = match approach {
        Approach::IdNo => RegionMode::OrderOnly,
        _ => RegionMode::Sino,
    };
    let mut sino = RegionSino::default();
    let mut work = Vec::new();
    for ((r, dir), nets) in regions {
        let old = prev
            .and_then(|p| p.shared(r, dir))
            .filter(|old| old.nets == nets);
        let unchanged = |old: &RegionSolution| {
            let segments = old.instance.segments();
            segments
                .iter()
                .all(|s| budgets.kth(s.net, r, dir) == Some(s.kth))
        };
        match old {
            Some(old) if unchanged(old) => sino.insert_shared(r, dir, Arc::clone(old)),
            _ => work.push(((r, dir), nets, old.cloned())),
        }
    }
    let solved = map_worklist(
        work,
        config.threads,
        DeltaEval::new,
        |(key, nets, old), scratch| {
            cancel.check("phase2")?;
            let inst = build_instance(key, nets, budgets, &config.sensitivity)?;
            if let Some(old) = old.filter(|_| mode == RegionMode::Sino) {
                let new_kth: Vec<f64> = inst.instance.segments().iter().map(|s| s.kth).collect();
                if budget_swap_preserves_solution(&old.instance, &new_kth) {
                    // Couplings depend on the layout, never on budgets.
                    let sol = RegionSolution {
                        nets: inst.nets,
                        instance: inst.instance,
                        layout: old.layout.clone(),
                        k: old.k.clone(),
                    };
                    return Ok((key, sol, true));
                }
            }
            let (key, sol) = solve_instance(inst, mode, config.sino_engine, scratch)?;
            Ok((key, sol, false))
        },
    )?;
    let mut patched = Patched::default();
    for ((r, dir), sol, warm) in solved {
        sino.insert_shared(r, dir, Arc::new(sol));
        patched.keys.push((r, dir));
        patched.warm += usize::from(warm);
    }
    Ok((sino, patched))
}

/// Phase III: refines `budgets` and `sino` in place from `tracker`, the
/// tracker of the input state at `config.vth` (see [`crate::refine`]).
/// Returns the refine counters and the refined state's violation report,
/// read from the refined tracker, which equals [`check`] of that state
/// bitwise (debug builds assert it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_stage(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    config: &GsinoConfig,
    tracker: &mut LskTracker,
    cancel: &CancelToken,
) -> Result<(RefineStats, ViolationReport)> {
    debug_assert_eq!(tracker.vth().to_bits(), config.vth.to_bits());
    let stats = refine_tracked(
        circuit,
        grid,
        routes,
        budgets,
        sino,
        table,
        &config.refine,
        config.threads,
        cancel,
        tracker,
    )?;
    let report = tracker.report();
    debug_assert_eq!(
        report,
        check(circuit, grid, routes, sino, table, config.vth),
        "the refined tracker's report diverged from check"
    );
    Ok((stats, report))
}

/// Representative segment budget for fitting Formula (3) before any route
/// exists: the LSK bound divided by the mean source→sink Manhattan length.
/// Exposed so experiment harnesses can pre-fit one model per circuit and
/// share it across flows.
pub fn reference_kth(circuit: &Circuit, table: &NoiseTable, vth: f64) -> f64 {
    let lsk_bound = table.lsk_for_voltage(vth);
    let mut sum = 0.0;
    let mut count = 0usize;
    for net in circuit.nets() {
        for sink in net.sinks() {
            sum += net.source().manhattan(*sink);
            count += 1;
        }
    }
    let mean_le = if count == 0 {
        1.0
    } else {
        (sum / count as f64).max(1.0)
    };
    (lsk_bound / mean_le).clamp(0.05, 10.0)
}

/// Configurations [`GsinoConfig::validate`] must refuse although their
/// `vth` lies inside (0, Vdd): supply voltages the calibrated noise table
/// cannot be built for, and sensitivity rates outside [0, 1], which only
/// deserialization can produce.
#[cfg(test)]
pub(crate) fn unusable_configs(base: &GsinoConfig) -> Vec<GsinoConfig> {
    let with_vdd = |vdd: f64| GsinoConfig {
        tech: Technology {
            vdd,
            ..base.tech.clone()
        },
        ..base.clone()
    };
    let with_rate = |rate: f64| GsinoConfig {
        sensitivity: serde_json::from_str(&format!(r#"{{"rate":{rate:?},"seed":1}}"#))
            .expect("a model the wire can carry"),
        ..base.clone()
    };
    vec![
        with_vdd(0.18),
        with_vdd(1e17),
        with_rate(5.0),
        with_rate(-1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::Net;

    fn small_circuit(n: u32) -> Circuit {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
        let nets: Vec<Net> = (0..n)
            .map(|i| {
                let x = 16.0 + (i as f64 * 37.0) % 600.0;
                let y = 16.0 + (i as f64 * 53.0) % 600.0;
                Net::two_pin(i, Point::new(x, y), Point::new(620.0 - x, 620.0 - y))
            })
            .collect();
        Circuit::new("small", die, nets).unwrap()
    }

    fn fast_config() -> GsinoConfig {
        GsinoConfig {
            nss_model: Some(NssModel::from_coefficients(
                [0.9, -0.5, 0.4, -0.2, 0.05, -0.3],
                0.5,
            )),
            threads: 1,
            ..GsinoConfig::default()
        }
    }

    #[test]
    fn gsino_flow_is_violation_free() {
        let circuit = small_circuit(30);
        let outcome = run_gsino(&circuit, &fast_config()).unwrap();
        assert_eq!(outcome.approach, Approach::Gsino);
        assert!(outcome.violations.is_clean());
        assert!(outcome.wirelength.mean_um > 0.0);
        assert!(outcome.area.area() > 0.0);
        assert!(outcome.refine_stats.is_some());
        assert!(outcome.timings.total_s > 0.0);
    }

    #[test]
    fn config_validation() {
        let mut config = fast_config();
        config.vth = 0.0;
        assert!(matches!(
            run_gsino(&small_circuit(2), &config),
            Err(CoreError::BadConfig { .. })
        ));
        let mut config = fast_config();
        config.vth = 2.0;
        assert!(run_gsino(&small_circuit(2), &config).is_err());
        let mut config = fast_config();
        config.tile_um = -1.0;
        assert!(run_gsino(&small_circuit(2), &config).is_err());
    }

    /// A supply voltage the noise table refuses, or a sensitivity rate
    /// outside [0, 1], is a typed error before any phase runs, never a
    /// panic inside one.
    #[test]
    fn unusable_supply_voltage_or_rate_is_bad_config() {
        for config in unusable_configs(&fast_config()) {
            let what = format!("vdd {} rate {}", config.tech.vdd, config.sensitivity.rate());
            assert!(config.vth < config.tech.vdd, "{what}");
            assert!(
                matches!(config.validate(), Err(CoreError::BadConfig { .. })),
                "{what}"
            );
            assert!(
                matches!(
                    run_gsino(&small_circuit(4), &config),
                    Err(CoreError::BadConfig { .. })
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn artifacts_expose_consistent_state() {
        let circuit = small_circuit(15);
        let (outcome, internals) =
            run_flow_with_artifacts(&circuit, &fast_config(), Approach::Gsino).unwrap();
        // Budgets cover at least every region/dir the SINO state knows.
        assert!(!internals.budgets.is_empty());
        assert_eq!(internals.sino.total_shields(), outcome.total_shields);
        assert_eq!(internals.grid.num_regions(), 100);
    }

    #[test]
    fn approach_display_names() {
        assert_eq!(Approach::Gsino.to_string(), "GSINO");
        assert_eq!(Approach::IdNo.to_string(), "ID+NO");
        assert_eq!(Approach::Isino.to_string(), "iSINO");
    }

    #[test]
    fn reference_kth_in_physical_range() {
        let circuit = small_circuit(10);
        let table = NoiseTable::calibrated(&Technology::itrs_100nm());
        let k = reference_kth(&circuit, &table, 0.15);
        assert!((0.05..=10.0).contains(&k));
    }
}
