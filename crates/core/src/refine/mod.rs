//! Phase III: iterative local refinement (paper Fig. 2), incremental
//! engine.
//!
//! Phase I budgets with the Manhattan source→sink estimate; detours make
//! real paths longer, under-estimating crosstalk, so a few nets can still
//! violate after Phase II. Pass 1 walks violating nets (worst first) and,
//! for each, tightens the budget of its segment in the *least congested*
//! region it crosses until one more shield goes in, re-running SINO there,
//! until the net is clean. Pass 2 then walks the *most congested* regions
//! and tries to buy a shield back: raise the budgets of the largest-slack
//! nets until SINO drops a shield, accepting only if no net starts
//! violating.
//!
//! # The incremental contract
//!
//! The seed pass (preserved verbatim in [`mod@reference`]) re-derived all of
//! its bookkeeping from scratch per edit. This module keeps Phase III's
//! cost proportional to what an edit actually touches:
//!
//! * **The tracker.** A [`tracker::LskTracker`] holds, per sink, the
//!   flat `(lⱼ, Kᵢʲ)` term list of paper Eq. (1) and the per-net worst
//!   violating voltage. It has two halves. The route-derived
//!   [`tracker::LskIndex`] holds the lengths `lⱼ` and a
//!   `(region, dir) → terms` reverse index; region paths and per-region
//!   lengths are fixed for the whole phase, so they are walked once. The
//!   tracker adds the couplings `Kᵢʲ` of one solution state. A region edit
//!   patches only the crossing nets' sums — O(crossing segments +
//!   dirty-sink terms) instead of full `check_net` route walks.
//!
//! * **The caller supplies the tracker.** [`refine_cancel`] and the
//!   batch flow build the tracker of their input state. The ECO session
//!   instead fills the index it keeps across budget commits and patches
//!   it for the regions a commit patched. Either way refine starts from a
//!   tracker bitwise equal to a fresh build, and on success the tracker
//!   mirrors the refined state, so its report is that state's [`check`]:
//!   the flow's Phase III stage returns it as the violation report.
//!
//! * **Pass 1 edits in place.** Its work queue is a
//!   [`tracker::SeverityQueue`] (lazy max-heap) instead of a full-map scan
//!   per pick. A budget tightening re-solves its region through
//!   [`SinoSolver::solve_with`] against one [`DeltaEval`] scratch for the
//!   whole pass. The scratch mirrors the layout the solve returns, so the
//!   couplings are read straight from it instead of a from-scratch
//!   re-evaluate.
//!
//! * **Pass 2 tries out of place.** A pass-2 *trial* raises one region's
//!   budgets in slack order until SINO drops a shield. It reads only that
//!   region's [`RegionSolution`], so its result (a `Trial`) is a pure
//!   function of it and is computed on a copy. Trials are then
//!   *committed* one by one, in the sweep's density order, against the
//!   tracker: a dropped shield is installed when every crossing net stays
//!   clean (`Recovered`), and otherwise the region is left as it was
//!   (`Rejected`). In pass 2 only a region's own recovery changes that
//!   region, which makes five savings exact:
//!
//!   1. **Sort once.** A visit edits only its own region, so the shield
//!      counts and densities of unvisited regions are fixed within a
//!      sweep. One stable descending sort of [`RegionSino::keys`], with
//!      the seed's `num_shields == 0` and density-floor filters, gives the
//!      order of the seed's per-pick `density > best` scan: ties fall to
//!      key order in both.
//!   2. **Slack order.** Slacks read `sol.k`, which no trial step changes
//!      before the first dropped shield. One sort by slack descending,
//!      then index ascending, gives the order of the seed's per-step scan
//!      over the not-yet-raised segments.
//!   3. **Cache.** Up to its first dropped shield a trial reads only its
//!      region's instance, couplings and layout. `NoCandidate` and
//!      `Rejected` leave the region bitwise as they found it, so a cached
//!      trial stays valid in every later sweep; only a `Recovered` commit
//!      invalidates it. A cached trial that dropped a shield is committed
//!      again against the current tracker, because other regions'
//!      recoveries may have made room for it.
//!   4. **Warm skip.** Every region satisfies `layout == solve(instance)`
//!      throughout refine: Phase II, pass-1 re-solves and pass-2 installs
//!      all store the output of the one solver, [`SinoSolver`]. So when
//!      [`budget_swap_preserves_solution`] certifies trial step *t*
//!      against step *t−1*'s instance, step *t* returns step *t−1*'s
//!      layout, which kept at least the base number of shields, and its
//!      solve is skipped. Debug builds solve anyway and assert that the
//!      layouts are equal.
//!   5. **Resume.** Consecutive solved steps of a trial differ in one
//!      raised budget. A trial's first solved step records the greedy
//!      placement's trace ([`SinoSolver::solve_traced`]); every later one
//!      calls [`SinoSolver::resolve_after_raise`], which replays by plain
//!      inserts the placements the raise cannot reach — all those before
//!      the raised segment's old position and, if it keeps that position,
//!      every later one up to the first that saw it overflow — and probes
//!      only the rest ([`gsino_sino::greedy`] gives the argument). A warm
//!      skip keeps the trace: its certificate proves that no read of the
//!      traced solve sees the raised budget. Debug builds solve cold and
//!      assert equality at every resumed step. [`RefineWork`] counts the
//!      placements the trial solves probed.
//!
//!   The trials a sweep still needs are computed from the sweep-start
//!   state, which by (1) is each region's state at its visit, on the
//!   [`GsinoConfig::threads`](crate::pipeline::GsinoConfig::threads)
//!   workers of the atomic worklist Phase II drains. Workers poll the
//!   [`CancelToken`] once per region. Results are keyed by region and
//!   committed in sweep order on the caller's thread, so outputs and
//!   [`RefineStats`] do not depend on the thread count.
//!
//! * **Why the result is identical.** Dirty sinks are re-summed over the
//!   cached terms in the exact order the seed pass's `sink_lsk` iterates,
//!   the queue reproduces the seed tie-break (highest voltage, then
//!   smallest net id — see [`tracker::SeverityQueue`]), the region
//!   re-solves are the same pure function of the instance, and pass 2
//!   visits, raises and commits in the seed's order. Final [`Budgets`],
//!   [`RegionSino`] and [`RefineStats::outcome`] are therefore
//!   **bit-identical** to [`reference::refine`] — property-tested in
//!   `tests/refine_equivalence.rs` and asserted in the `phase_runtime`
//!   bench.
//!
//! * **The debug oracle.** In `cfg(debug_assertions)` builds, the
//!   supplied tracker and every region edit (pass 1 install, pass 2
//!   commit) are checked by [`tracker::LskTracker::oracle_check`], which
//!   re-runs the full [`check`] and compares every severity and sink
//!   violation bitwise.

pub mod reference;
pub mod tracker;

use crate::budget::Budgets;
use crate::cancel::CancelToken;
use crate::phase2::{RegionSino, RegionSolution};
use crate::violations::check;
use crate::worklist::map_worklist;
use crate::Result;
use gsino_grid::net::Circuit;
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, RouteSet};
use gsino_lsk::table::NoiseTable;
use gsino_sino::delta::DeltaEval;
use gsino_sino::greedy::PlacementTrace;
use gsino_sino::instance::SinoInstance;
use gsino_sino::layout::Layout;
use gsino_sino::solver::{SinoSolver, SolverConfig};
use gsino_sino::warm::budget_swap_preserves_solution;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use tracker::{LskTracker, SeverityQueue};

/// Safety bounds for the refinement loops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefineConfig {
    /// Outer-loop bound of pass 1 (distinct net fixes).
    pub max_pass1_iters: usize,
    /// Inner-loop bound per net.
    pub max_inner_iters: usize,
    /// Whether to run the congestion-reduction pass 2.
    pub enable_pass2: bool,
    /// Full sweeps of pass 2.
    pub pass2_sweeps: usize,
    /// Pass 2 only visits regions at least this dense: shields in
    /// under-capacity regions cost no routing area, so recovering them
    /// buys nothing (the paper's pass 2 is congestion-driven).
    pub pass2_density_floor: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_pass1_iters: 50_000,
            max_inner_iters: 256,
            enable_pass2: true,
            pass2_sweeps: 2,
            pass2_density_floor: 0.75,
        }
    }
}

/// What refinement did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Nets processed by pass 1.
    pub pass1_nets: usize,
    /// Shields added by pass 1.
    pub pass1_shields_added: u64,
    /// Shields recovered by pass 2.
    pub pass2_shields_removed: u64,
    /// Regions visited by pass 2.
    pub pass2_regions: usize,
    /// Pass-2 visits that recovered a shield.
    pub pass2_recovered: usize,
    /// Pass-2 visits whose dropped shield made a crossing net violate.
    pub pass2_rejected: usize,
    /// Pass-2 visits where no budget raise dropped a shield.
    pub pass2_no_candidate: usize,
    /// Nets pass 1 could not fix within its iteration bounds.
    pub pass1_unfixed: usize,
    /// Whether pass 1 left the solution violation-free.
    pub clean: bool,
    /// The work the engine did to get there: engine-specific, so left out
    /// of [`RefineStats::outcome`].
    pub work: RefineWork,
}

impl RefineStats {
    /// These stats without the engine work counts — the part two engines
    /// that refine identically must agree on.
    pub fn outcome(&self) -> RefineStats {
        RefineStats {
            work: RefineWork::default(),
            ..*self
        }
    }
}

/// Pass-2 work counts. They repeat exactly for a given input and do not
/// depend on the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineWork {
    /// Trial steps that ran the SINO solver.
    pub trial_solves: u64,
    /// Trial steps skipped because the warm certificate proved the solve
    /// would return the previous step's layout.
    pub warm_skips: u64,
    /// Visits served by a trial computed in an earlier sweep.
    pub cached_visits: usize,
    /// Coupling blocks the trial solves recomputed
    /// ([`DeltaEval::block_recomputes`]).
    pub block_recomputes: u64,
    /// Greedy placements the trial solves probed gap by gap rather than
    /// replayed ([`PlacementTrace::placements_probed`]).
    pub trial_placements: u64,
}

/// How one pass-2 visit ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recovery {
    /// A shield came out and every crossing net stayed clean.
    Recovered,
    /// A shield came out but some net would violate; nothing changed.
    Rejected,
    /// No budget raise freed a shield; nothing changed.
    NoCandidate,
}

/// One pass-2 trial's result: a pure function of its region's
/// [`RegionSolution`], valid until that region recovers a shield.
#[derive(Debug, PartialEq)]
enum Trial {
    /// No budget raise dropped a shield.
    NoCandidate,
    /// Raising the budgets `raised` (`(segment, Kth)` pairs) dropped a
    /// shield: the solver's layout and its couplings.
    Drop {
        raised: Vec<(usize, f64)>,
        layout: Layout,
        k: Vec<f64>,
    },
}

/// Buffers one worker reuses across every trial it runs.
#[derive(Debug, Default)]
struct TrialScratch {
    /// The trial's copy of the region instance, budgets raised in place.
    instance: Option<SinoInstance>,
    /// `(slack, segment)` in raise order.
    order: Vec<(f64, usize)>,
    /// The candidate budget vector the warm certificate checks.
    kth: Vec<f64>,
    /// Solver scratch.
    eval: DeltaEval,
    /// The placement trace of the trial's last solved step.
    trace: PlacementTrace,
}

/// Runs both passes, mutating budgets and region solutions in place, with
/// pass-2 trials on the available parallelism (`threads = 0`, as
/// [`GsinoConfig::default`](crate::pipeline::GsinoConfig) resolves it).
///
/// Bit-identical to [`reference::refine`] (same final [`Budgets`],
/// [`RegionSino`] and [`RefineStats::outcome`]) — see the module docs for
/// the incremental contract.
///
/// `_solver` is a placeholder: [`SolverConfig`] has nothing to configure,
/// and the parameter stays only for callers that still pass one.
///
/// # Errors
///
/// Propagates SINO solver errors (internal-invariant failures only).
#[allow(clippy::too_many_arguments)]
pub fn refine(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    vth: f64,
    _solver: SolverConfig,
    config: &RefineConfig,
) -> Result<RefineStats> {
    refine_cancel(
        circuit,
        grid,
        routes,
        budgets,
        sino,
        table,
        vth,
        config,
        0,
        &CancelToken::never(),
    )
}

/// [`refine`] running pass-2 trials on `threads` workers (`0` = available
/// parallelism) and polling a [`CancelToken`] once per pass-1 net pick,
/// once per pass-2 trial and once per pass-2 commit. The result does not
/// depend on `threads`. Cancellation leaves `budgets`/`sino` in a
/// consistent but partially-refined state — transactional callers (the
/// ECO session, through the flow's Phase III stage) refine **clones**
/// and discard them on error, so nothing needs undoing here.
///
/// # Errors
///
/// [`CoreError::Canceled`](crate::CoreError) once the token
/// fires, plus the same solver errors as [`refine`].
#[allow(clippy::too_many_arguments)]
pub fn refine_cancel(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    vth: f64,
    config: &RefineConfig,
    threads: usize,
    cancel: &CancelToken,
) -> Result<RefineStats> {
    let mut tracker = LskTracker::new(circuit, grid, routes, sino, table, vth);
    refine_tracked(
        circuit,
        grid,
        routes,
        budgets,
        sino,
        table,
        config,
        threads,
        cancel,
        &mut tracker,
    )
}

/// The refine body: [`refine_cancel`] on a caller-supplied tracker of the
/// input state, judged at [`LskTracker::vth`]. On success the tracker
/// mirrors the refined state, so its [`LskTracker::report`] is that
/// state's [`check`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_tracked(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    config: &RefineConfig,
    threads: usize,
    cancel: &CancelToken,
    tracker: &mut LskTracker,
) -> Result<RefineStats> {
    let mut stats = RefineStats::default();
    debug_oracle(tracker, circuit, grid, routes, sino, table);
    pass1(
        circuit, grid, routes, budgets, sino, table, config, &mut stats, tracker, cancel,
    )?;
    stats.clean = tracker.is_clean();
    debug_assert_eq!(
        stats.clean,
        check(circuit, grid, routes, sino, table, tracker.vth()).is_clean(),
        "tracker cleanliness diverged from a full check"
    );
    if config.enable_pass2 && stats.clean {
        pass2(
            circuit, grid, routes, budgets, sino, table, config, &mut stats, tracker, threads,
            cancel,
        )?;
    }
    Ok(stats)
}

/// Track density of a solved region: nets plus shields over capacity.
fn density(grid: &RegionGrid, dir: Dir, sol: &RegionSolution) -> f64 {
    let cap = match dir {
        Dir::H => grid.hc(),
        Dir::V => grid.vc(),
    } as f64;
    (sol.nets.len() + sol.layout.num_shields()) as f64 / cap
}

/// Pass 1: eliminate crosstalk violations.
///
/// The violation report is maintained incrementally: re-solving one region
/// only changes the coupling of the nets crossing it, so only those nets'
/// cached sums are patched — this is what keeps Phase III cheap relative
/// to the ID routing phase (paper §5).
#[allow(clippy::too_many_arguments)]
fn pass1(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    config: &RefineConfig,
    stats: &mut RefineStats,
    tracker: &mut LskTracker,
    cancel: &CancelToken,
) -> Result<()> {
    let mut scratch = DeltaEval::new();
    let mut queue = SeverityQueue::new(&tracker.nets_by_severity());
    for _ in 0..config.max_pass1_iters {
        cancel.check("phase3")?;
        let net_id = match queue.pick() {
            Some(n) => n,
            None => return Ok(()),
        };
        stats.pass1_nets += 1;
        // invariant: the tracker only reports nets it scored from routes.
        let route = routes.get(net_id).expect("violating net is routed");
        // Nets whose queue entry the inner loop dirtied. The flush is
        // batched to one `queue.set` per net per outer iteration: `pick()`
        // only runs in the outer loop and the queue is last-write-wins
        // against the tracker, so deferring the writes is bit-identical
        // while pushing one lazy heap entry per net instead of one per
        // (region edit × crossing net).
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for _ in 0..config.max_inner_iters {
            if tracker.net_is_clean(net_id) {
                break;
            }
            // Candidate segments of this net, least congested region first
            // (paper: "the least congested routing region through which Ni
            // is routed"), skipping segments that already have K = 0.
            let mut candidates: Vec<(f64, RegionIdx, Dir)> = Vec::new();
            for r in route.regions() {
                for dir in [Dir::H, Dir::V] {
                    if !route.occupies(grid, r, dir) {
                        continue;
                    }
                    if let Some(sol) = sino.solution(r, dir) {
                        let k = sol.index_of(net_id).map(|i| sol.k[i]).unwrap_or(0.0);
                        if k > 1e-12 {
                            candidates.push((density(grid, dir, sol), r, dir));
                        }
                    }
                }
            }
            candidates.sort_by(|a, b| {
                // invariant: region densities are finite ratios of counts.
                a.0.partial_cmp(&b.0)
                    .expect("finite densities")
                    .then_with(|| a.1.cmp(&b.1))
            });
            let (_, r, dir) = match candidates.first() {
                Some(&c) => c,
                // No coupled segment left to shield; the net cannot be
                // improved further in this pass.
                None => break,
            };
            {
                // invariant: the candidate list above was enumerated from
                // this net's solved segments, so both lookups succeed.
                let sol = sino
                    .solution_mut(r, dir)
                    .expect("candidate came from a solution");
                let idx = sol.index_of(net_id).expect("net is in this region");
                // Tighten the segment budget so SINO must shield it harder
                // (Formula (3)'s inverse role in the paper — decide how
                // much Kth drops for one more shield). 0.7 trims K without
                // grossly over-shielding the region.
                let new_kth = (sol.k[idx] * 0.7).max(1e-9);
                sol.instance.set_kth(idx, new_kth)?;
                budgets.set(net_id, r, dir, new_kth);
                let before = sol.layout.num_shields();
                sol.layout = SinoSolver.solve_with(&sol.instance, &mut scratch)?;
                // The scratch mirrors the re-solved layout, so the
                // couplings come straight from its cache — no re-evaluate.
                sol.k.clear();
                sol.k.extend_from_slice(scratch.k_values(&sol.instance));
                stats.pass1_shields_added +=
                    (sol.layout.num_shields().saturating_sub(before)) as u64;
                tracker.region_updated(r, dir, &sol.k, table);
            }
            // Mirror the seed pass's affected-net recheck on the queue:
            // every crossing net is re-enqueued (or dropped) at its
            // tracked severity, via the batched flush below.
            // invariant: the picked key came from the solved-region scan.
            let affected = sino.solution(r, dir).expect("exists");
            touched.extend(affected.nets.iter().copied());
            debug_oracle(tracker, circuit, grid, routes, sino, table);
        }
        for &nid in &touched {
            queue.set(nid, tracker.net_worst(nid));
        }
        // The net may be unfixable within bounds (no coupled segments
        // left); drop it from the queue either way — if it is still dirty,
        // the tracker (and the final report) flags it honestly.
        if !tracker.net_is_clean(net_id) {
            stats.pass1_unfixed += 1;
        }
        queue.remove(net_id);
    }
    Ok(())
}

/// Pass 2: reduce routing congestion by recovering shields where slack
/// allows. Each sweep runs the trials it does not have cached on the
/// worklist, then commits every visit in density order (see the module
/// docs).
#[allow(clippy::too_many_arguments)]
fn pass2(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    config: &RefineConfig,
    stats: &mut RefineStats,
    tracker: &mut LskTracker,
    threads: usize,
    cancel: &CancelToken,
) -> Result<()> {
    // The key set never changes during refinement.
    let keys = sino.keys();
    let mut cache: HashMap<(RegionIdx, Dir), Trial> = HashMap::new();
    for _ in 0..config.pass2_sweeps {
        let order = sweep_order(grid, sino, &keys, config.pass2_density_floor);
        let missing: Vec<(RegionIdx, Dir)> = order
            .iter()
            .copied()
            .filter(|key| !cache.contains_key(key))
            .collect();
        stats.work.cached_visits += order.len() - missing.len();
        let swept: &RegionSino = sino;
        let trials = map_worklist(missing, threads, TrialScratch::default, |key, scratch| {
            cancel.check("phase3")?;
            // invariant: the sweep order lists solved keys only.
            let sol = swept.solution(key.0, key.1).expect("swept key is solved");
            let mut work = RefineWork::default();
            let trial = run_trial(sol, scratch, &mut work)?;
            Ok((key, trial, work))
        })?;
        for (key, trial, work) in trials {
            stats.work.trial_solves += work.trial_solves;
            stats.work.warm_skips += work.warm_skips;
            stats.work.block_recomputes += work.block_recomputes;
            stats.work.trial_placements += work.trial_placements;
            cache.insert(key, trial);
        }
        let mut improved = false;
        for key in order {
            cancel.check("phase3")?;
            stats.pass2_regions += 1;
            // invariant: every swept key got a trial above or in an
            // earlier sweep, and only a recovery evicts it.
            let trial = cache.get(&key).expect("swept key has a trial");
            let outcome = commit_trial(trial, key, budgets, sino, tracker, table, stats)?;
            debug_oracle(tracker, circuit, grid, routes, sino, table);
            if outcome == Recovery::Recovered {
                cache.remove(&key);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(())
}

/// The regions one pass-2 sweep visits, most congested first: every key
/// with shields to recover and density at or above `floor`, stably sorted
/// by density descending so ties keep key order.
fn sweep_order(
    grid: &RegionGrid,
    sino: &RegionSino,
    keys: &[(RegionIdx, Dir)],
    floor: f64,
) -> Vec<(RegionIdx, Dir)> {
    let mut order: Vec<(f64, (RegionIdx, Dir))> = keys
        .iter()
        .filter_map(|&(r, dir)| {
            // invariant: iterating `keys()` of the same solution set.
            let sol = sino.solution(r, dir).expect("key enumerated");
            if sol.layout.num_shields() == 0 {
                return None;
            }
            let d = density(grid, dir, sol);
            (d >= floor).then_some((d, (r, dir)))
        })
        .collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0));
    order.into_iter().map(|(_, key)| key).collect()
}

/// Fills `order` with the segments a trial raises, in raise order: those
/// with positive slack `Kth − K`, stably sorted by slack descending so
/// ties keep index order.
fn slack_order(sol: &RegionSolution, order: &mut Vec<(f64, usize)>) {
    order.clear();
    order.extend((0..sol.nets.len()).filter_map(|i| {
        let slack = sol.instance.segment(i).kth - sol.k[i];
        (slack > 1e-12).then_some((slack, i))
    }));
    order.sort_by(|a, b| b.0.total_cmp(&a.0));
}

/// Runs one pass-2 trial on a copy of `sol`: raises budgets in slack order
/// until the solver drops a shield. `sol.layout` is the solver's output for
/// `sol.instance`, so the chain of warm certificates starts there (module
/// docs, warm skip).
fn run_trial(sol: &RegionSolution, s: &mut TrialScratch, work: &mut RefineWork) -> Result<Trial> {
    slack_order(sol, &mut s.order);
    if s.order.is_empty() {
        return Ok(Trial::NoCandidate);
    }
    let base = sol.layout.num_shields();
    let inst = s.instance.get_or_insert_with(|| sol.instance.clone());
    inst.clone_from(&sol.instance);
    s.kth.clear();
    s.kth.extend(inst.segments().iter().map(|seg| seg.kth));
    // Whether `s.trace` is the trace of the previous step's instance: set
    // by the first solved step, and kept by a warm skip, whose certificate
    // also proves that every read of that solve, and so its trace, is
    // unchanged by the raise.
    let mut traced = false;
    #[cfg(debug_assertions)]
    let mut prev = sol.layout.clone();
    for (t, &(slack, i)) in s.order.iter().enumerate() {
        s.kth[i] = inst.segment(i).kth + slack;
        let certified = budget_swap_preserves_solution(inst, &s.kth);
        inst.set_kth(i, s.kth[i])?;
        if certified {
            work.warm_skips += 1;
            #[cfg(debug_assertions)]
            assert_eq!(
                SinoSolver.solve_with(inst, &mut s.eval)?,
                prev,
                "a warm-skipped trial step would have moved the layout"
            );
            continue;
        }
        work.trial_solves += 1;
        let recomputes = s.eval.block_recomputes();
        let placements = s.trace.placements_probed();
        let layout = if traced {
            SinoSolver.resolve_after_raise(inst, i, &mut s.trace, &mut s.eval)?
        } else {
            traced = true;
            SinoSolver.solve_traced(inst, &mut s.trace, &mut s.eval)?
        };
        // The scratch mirrors the returned layout, so its couplings are
        // the layout's.
        let dropped = (layout.num_shields() < base).then(|| s.eval.k_values(inst).to_vec());
        work.block_recomputes += s.eval.block_recomputes() - recomputes;
        work.trial_placements += s.trace.placements_probed() - placements;
        if let Some(k) = dropped {
            let raised = s.order[..=t].iter().map(|&(_, j)| (j, s.kth[j])).collect();
            return Ok(Trial::Drop { raised, layout, k });
        }
        #[cfg(debug_assertions)]
        {
            prev = layout;
        }
    }
    Ok(Trial::NoCandidate)
}

/// Commits one trial of `(r, dir)`: installs a dropped shield if every
/// crossing net stays clean, and otherwise leaves budgets, the region and
/// the tracker bitwise as they were.
fn commit_trial(
    trial: &Trial,
    (r, dir): (RegionIdx, Dir),
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    tracker: &mut LskTracker,
    table: &NoiseTable,
    stats: &mut RefineStats,
) -> Result<Recovery> {
    let Trial::Drop { raised, layout, k } = trial else {
        stats.pass2_no_candidate += 1;
        return Ok(Recovery::NoCandidate);
    };
    // invariant: trials are only run for solved keys.
    let sol = sino.solution(r, dir).expect("tried key is solved");
    tracker.region_updated(r, dir, k, table);
    if sol.nets.iter().any(|&nid| !tracker.net_is_clean(nid)) {
        // The tracker re-sums dirty sinks from its term arrays, so
        // re-patching the installed couplings restores it bitwise.
        tracker.region_updated(r, dir, &sol.k, table);
        stats.pass2_rejected += 1;
        return Ok(Recovery::Rejected);
    }
    // Only an accepted trial writes, so a rejected one never copies a
    // region this `RegionSino` shares (see `RegionSino::solution_mut`).
    let sol = sino.solution_mut(r, dir).expect("tried key is solved");
    for &(i, kth) in raised {
        sol.instance.set_kth(i, kth)?;
        budgets.set(sol.nets[i], r, dir, kth);
    }
    stats.pass2_shields_removed += (sol.layout.num_shields() - layout.num_shields()) as u64;
    sol.layout = layout.clone();
    sol.k.clone_from(k);
    stats.pass2_recovered += 1;
    Ok(Recovery::Recovered)
}

/// Debug-build oracle: the tracker must stay bit-identical to a full
/// [`check`] after every region edit.
#[cfg(debug_assertions)]
fn debug_oracle(
    tracker: &LskTracker,
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    sino: &RegionSino,
    table: &NoiseTable,
) {
    tracker.oracle_check(circuit, grid, routes, sino, table);
}

#[cfg(not(debug_assertions))]
#[inline]
fn debug_oracle(
    _tracker: &LskTracker,
    _circuit: &Circuit,
    _grid: &RegionGrid,
    _routes: &RouteSet,
    _sino: &RegionSino,
    _table: &NoiseTable,
) {
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{uniform_budgets, LengthModel};
    use crate::phase2::{solve_regions, RegionMode};
    use crate::router::{route_all, ShieldTerm, Weights};
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::{Circuit, Net};
    use gsino_grid::sensitivity::SensitivityModel;
    use gsino_grid::tech::Technology;

    type Solved = (
        Circuit,
        gsino_grid::RegionGrid,
        RouteSet,
        NoiseTable,
        Budgets,
        RegionSino,
    );

    /// Routes `nets` on `die`, budgets them at `budget_vth` and solves
    /// Phase II at sensitivity rate 0.5.
    fn solved(die: Rect, nets: Vec<Net>, budget_vth: f64) -> Solved {
        let circuit = Circuit::new("refine", die, nets).unwrap();
        let tech = Technology::itrs_100nm();
        let grid = gsino_grid::RegionGrid::new(&circuit, &tech, 64.0).unwrap();
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
        let sens = SensitivityModel::new(0.5, 3);
        let sino = solve_regions(&grid, &routes, &budgets, &sens, RegionMode::Sino, 1).unwrap();
        (circuit, grid, routes, table, budgets, sino)
    }

    /// A bus guaranteed to violate after Phase II when budgets are computed
    /// from a deliberately optimistic length estimate.
    fn violating_setup() -> Solved {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(3840.0, 640.0)).unwrap();
        let nets: Vec<Net> = (0..14)
            .map(|i| {
                Net::two_pin(
                    i,
                    Point::new(8.0, 320.0 + i as f64),
                    Point::new(3830.0, 320.0 + i as f64),
                )
            })
            .collect();
        // Budget with a loose vth (0.30) but check against a strict one
        // (0.15) — mimics the Manhattan-underestimate situation that makes
        // Phase III necessary, in a controlled way. A mid sensitivity rate
        // matters: at rate 1.0 capacitive freedom already isolates every
        // net (K = 0 everywhere) and nothing can violate.
        solved(die, nets, 0.30)
    }

    /// A spread of 120 two-pin nets, clean after Phase II at 0.15 V: with
    /// the density floor at 0, pass 2 runs over a hundred trials per sweep
    /// and some raises are warm-certified.
    fn pass2_setup() -> Solved {
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
        solved(die, nets, 0.15)
    }

    #[test]
    fn pass1_eliminates_all_violations() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        let before = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(before.violating_nets() > 0, "setup must violate at 0.15 V");
        let stats = refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.15,
            SolverConfig,
            &RefineConfig::default(),
        )
        .unwrap();
        assert!(stats.clean);
        assert!(stats.pass1_nets > 0);
        let after = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(
            after.is_clean(),
            "{} nets still violate",
            after.violating_nets()
        );
    }

    #[test]
    fn refine_on_clean_input_is_cheap() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        // Check against the same loose vth used for budgeting: no
        // violations exist, so pass 1 should do nothing.
        let stats = refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.30,
            SolverConfig,
            &RefineConfig {
                enable_pass2: false,
                ..RefineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stats.pass1_nets, 0);
        assert_eq!(stats.pass1_shields_added, 0);
        assert!(stats.clean);
    }

    #[test]
    fn pass2_never_reintroduces_violations() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        let stats = refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.15,
            SolverConfig,
            &RefineConfig {
                pass2_sweeps: 2,
                ..RefineConfig::default()
            },
        )
        .unwrap();
        assert!(stats.clean);
        let after = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(after.is_clean());
    }

    #[test]
    fn pass1_respects_iteration_bounds() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        let stats = refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.15,
            SolverConfig,
            &RefineConfig {
                max_pass1_iters: 1,
                max_inner_iters: 1,
                enable_pass2: false,
                pass2_sweeps: 0,
                ..RefineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stats.pass1_nets, 1);
    }

    /// The incremental engine and the preserved seed pass must agree on
    /// every output, bit for bit, across configurations.
    #[test]
    fn incremental_matches_reference_pass() {
        let (circuit, grid, routes, table, budgets0, sino0) = violating_setup();
        let configs = [
            RefineConfig::default(),
            RefineConfig {
                enable_pass2: false,
                ..RefineConfig::default()
            },
            RefineConfig {
                max_pass1_iters: 3,
                max_inner_iters: 2,
                ..RefineConfig::default()
            },
        ];
        for refine_cfg in configs {
            let (mut b_ref, mut s_ref) = (budgets0.clone(), sino0.clone());
            let (mut b_inc, mut s_inc) = (budgets0.clone(), sino0.clone());
            let stats_ref = reference::refine(
                &circuit,
                &grid,
                &routes,
                &mut b_ref,
                &mut s_ref,
                &table,
                0.15,
                &refine_cfg,
            )
            .unwrap();
            let stats_inc = refine(
                &circuit,
                &grid,
                &routes,
                &mut b_inc,
                &mut s_inc,
                &table,
                0.15,
                SolverConfig,
                &refine_cfg,
            )
            .unwrap();
            assert_eq!(
                stats_ref.outcome(),
                stats_inc.outcome(),
                "stats diverged ({refine_cfg:?})"
            );
            assert_eq!(b_ref, b_inc, "budgets diverged ({refine_cfg:?})");
            assert_eq!(s_ref, s_inc, "region solutions diverged ({refine_cfg:?})");
        }
    }

    /// The tracker refine hands back mirrors the refined state: its report
    /// is that state's `check`, on a setup pass 1 must repair and on a
    /// clean one where only pass 2 works.
    #[test]
    fn refined_tracker_report_equals_check() {
        let pass2_everywhere = RefineConfig {
            pass2_density_floor: 0.0,
            ..RefineConfig::default()
        };
        for (setup, violating) in [(violating_setup(), true), (pass2_setup(), false)] {
            let (circuit, grid, routes, table, mut budgets, mut sino) = setup;
            let mut tracker = LskTracker::new(&circuit, &grid, &routes, &sino, &table, 0.15);
            assert_eq!(tracker.is_clean(), !violating);
            let stats = refine_tracked(
                &circuit,
                &grid,
                &routes,
                &mut budgets,
                &mut sino,
                &table,
                &pass2_everywhere,
                1,
                &CancelToken::never(),
                &mut tracker,
            )
            .unwrap();
            assert!(stats.clean);
            assert!(stats.pass2_regions > 0);
            assert_eq!(stats.pass1_nets > 0, violating);
            assert_eq!(
                tracker.report(),
                check(&circuit, &grid, &routes, &sino, &table, 0.15)
            );
        }
    }

    /// The heap-backed queue picks exactly the net `nets_by_severity`
    /// ranks first (highest voltage, ties to the smallest net id) — the
    /// deterministic ordering both engines share.
    #[test]
    fn queue_pick_agrees_with_nets_by_severity() {
        let (circuit, grid, routes, table, _, sino) = violating_setup();
        let tracker = LskTracker::new(&circuit, &grid, &routes, &sino, &table, 0.15);
        let ranked = tracker.nets_by_severity();
        assert!(!ranked.is_empty(), "setup must violate");
        let mut queue = SeverityQueue::new(&ranked);
        for &(net, _) in &ranked {
            assert_eq!(queue.pick(), Some(net));
            queue.remove(net);
        }
        assert_eq!(queue.pick(), None);
        // Cross-check against the report the seed pass scans.
        let report = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert_eq!(ranked, report.nets_by_severity());
    }

    /// A rejected pass-2 commit must leave budgets, region solutions and
    /// the tracker bitwise-untouched, and a region a commit left alone
    /// must give the same trial again — what makes the trial cache exact.
    #[test]
    fn rejected_recovery_rolls_back_completely() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.15,
            SolverConfig,
            &RefineConfig::default(),
        )
        .unwrap();
        // The tightest constraint the refined solution still meets:
        // recovering any load-bearing shield there must violate and be
        // rejected.
        let worst = check(&circuit, &grid, &routes, &sino, &table, 0.0)
            .worst_net()
            .map(|(_, v)| v)
            .expect("some coupling remains");
        let vth = worst + 1e-6;
        let mut tracker = LskTracker::new(&circuit, &grid, &routes, &sino, &table, vth);
        assert!(tracker.is_clean(), "vth sits above the worst voltage");
        let mut scratch = TrialScratch::default();
        let mut work = RefineWork::default();
        let mut stats = RefineStats::default();
        let mut rejected = 0;
        for (r, dir) in sino.keys() {
            if sino.solution(r, dir).unwrap().layout.num_shields() == 0 {
                continue;
            }
            let budgets_before = budgets.clone();
            let sino_before = sino.clone();
            let severity_before = tracker.nets_by_severity();
            let sol = sino.solution(r, dir).unwrap();
            let trial = run_trial(sol, &mut scratch, &mut work).unwrap();
            let outcome = commit_trial(
                &trial,
                (r, dir),
                &mut budgets,
                &mut sino,
                &mut tracker,
                &table,
                &mut stats,
            )
            .unwrap();
            match outcome {
                Recovery::Rejected => {
                    rejected += 1;
                    assert_eq!(budgets, budgets_before, "budgets leaked at {r} {dir:?}");
                    assert_eq!(sino, sino_before, "solutions leaked at {r} {dir:?}");
                    assert_eq!(
                        tracker.nets_by_severity(),
                        severity_before,
                        "tracker leaked at {r} {dir:?}"
                    );
                    tracker.oracle_check(&circuit, &grid, &routes, &sino, &table);
                }
                Recovery::NoCandidate => {
                    assert_eq!(budgets, budgets_before);
                    assert_eq!(sino, sino_before);
                }
                Recovery::Recovered => continue,
            }
            let sol = sino.solution(r, dir).unwrap();
            let again = run_trial(sol, &mut scratch, &mut work).unwrap();
            assert_eq!(again, trial, "the trial of {r} {dir:?} went stale");
        }
        assert!(
            rejected > 0,
            "scenario produced no rejected recovery; tighten vth"
        );
        assert_eq!(stats.pass2_rejected, rejected);
    }

    /// One stable sort per sweep visits regions in the order of the seed
    /// pass's per-pick maximum scan, ties to key order included.
    #[test]
    fn sweep_order_matches_per_pick_scan() {
        let (_, grid, _, _, _, sino) = pass2_setup();
        let keys = sino.keys();
        for floor in [0.0, 0.5, 0.75] {
            let mut seed_order = Vec::new();
            let mut visited = std::collections::HashSet::new();
            loop {
                let mut best: Option<(f64, (RegionIdx, Dir))> = None;
                for &(r, dir) in &keys {
                    let sol = sino.solution(r, dir).unwrap();
                    if visited.contains(&(r, dir)) || sol.layout.num_shields() == 0 {
                        continue;
                    }
                    let d = density(&grid, dir, sol);
                    if d >= floor && best.is_none_or(|(b, _)| d > b) {
                        best = Some((d, (r, dir)));
                    }
                }
                let Some((_, key)) = best else { break };
                visited.insert(key);
                seed_order.push(key);
            }
            let order = sweep_order(&grid, &sino, &keys, floor);
            assert_eq!(order, seed_order, "floor {floor}");
            if floor == 0.0 {
                let densities: Vec<f64> = order
                    .iter()
                    .map(|&(r, dir)| density(&grid, dir, sino.solution(r, dir).unwrap()))
                    .collect();
                assert!(
                    densities.windows(2).any(|w| w[0] == w[1]),
                    "the setup must exercise the key-order tie-break"
                );
            }
        }
    }

    /// One sort by slack gives the seed's per-step scan over the segments
    /// not yet raised.
    #[test]
    fn slack_order_matches_per_step_scan() {
        let (_, _, _, _, _, sino) = pass2_setup();
        let mut order = Vec::new();
        let mut ties = 0;
        for (r, dir) in sino.keys() {
            let sol = sino.solution(r, dir).unwrap();
            let mut seed_order = Vec::new();
            loop {
                let mut pick: Option<(f64, usize)> = None;
                for i in 0..sol.nets.len() {
                    if seed_order.iter().any(|&(_, j)| j == i) {
                        continue;
                    }
                    let slack = sol.instance.segment(i).kth - sol.k[i];
                    if slack > 1e-12 && pick.is_none_or(|(s, _)| slack > s) {
                        pick = Some((slack, i));
                    }
                }
                let Some(p) = pick else { break };
                seed_order.push(p);
            }
            slack_order(sol, &mut order);
            assert_eq!(order, seed_order, "{r} {dir:?}");
            ties += order.windows(2).filter(|w| w[0].0 == w[1].0).count();
        }
        assert!(ties > 0, "the setup must exercise the index tie-break");
    }

    /// Every trial is the seed's: raise budgets in slack order and solve
    /// each step cold until a shield drops. The chain of warm certificates
    /// starts at the installed layout, so some trial skips its first step.
    #[test]
    fn trials_match_cold_raise_chains() {
        let (_, _, _, _, _, sino) = pass2_setup();
        let mut scratch = TrialScratch::default();
        let mut work = RefineWork::default();
        let mut order = Vec::new();
        let (mut drops, mut first_skipped) = (0, 0);
        for (r, dir) in sino.keys() {
            let sol = sino.solution(r, dir).unwrap();
            let trial = run_trial(sol, &mut scratch, &mut work).unwrap();
            slack_order(sol, &mut order);
            let mut inst = sol.instance.clone();
            let mut expect = Trial::NoCandidate;
            for (t, &(slack, i)) in order.iter().enumerate() {
                let kth = inst.segment(i).kth + slack;
                if t == 0 {
                    let mut first: Vec<f64> = inst.segments().iter().map(|s| s.kth).collect();
                    first[i] = kth;
                    first_skipped += usize::from(budget_swap_preserves_solution(&inst, &first));
                }
                inst.set_kth(i, kth).unwrap();
                let layout = SinoSolver.solve(&inst).unwrap();
                if layout.num_shields() < sol.layout.num_shields() {
                    let raised = order[..=t]
                        .iter()
                        .map(|&(_, j)| (j, inst.segment(j).kth))
                        .collect();
                    let k = gsino_sino::keff::evaluate(&inst, &layout).k;
                    expect = Trial::Drop { raised, layout, k };
                    drops += 1;
                    break;
                }
            }
            assert_eq!(trial, expect, "{r} {dir:?}");
        }
        assert!(drops > 0, "the setup must drop some shield");
        assert!(
            first_skipped > 0,
            "the setup must certify some first step against the installed layout"
        );
        assert!(work.warm_skips >= first_skipped as u64);
    }

    /// Pass-2 trials on any number of workers give the same outputs and
    /// the same stats, work counts included.
    #[test]
    fn thread_count_changes_nothing() {
        let (circuit, grid, routes, table, budgets0, sino0) = pass2_setup();
        let config = RefineConfig {
            pass2_density_floor: 0.0,
            ..RefineConfig::default()
        };
        let run = |threads: usize| {
            let (mut b, mut s) = (budgets0.clone(), sino0.clone());
            let stats = refine_cancel(
                &circuit,
                &grid,
                &routes,
                &mut b,
                &mut s,
                &table,
                0.15,
                &config,
                threads,
                &CancelToken::never(),
            )
            .unwrap();
            (stats, b, s)
        };
        let serial = run(1);
        assert!(
            serial.0.pass2_regions - serial.0.work.cached_visits >= 64,
            "too few trials to reach the parallel worklist"
        );
        for threads in [2, 4] {
            assert!(run(threads) == serial, "threads {threads}");
        }
    }
}
