//! The seed (pre-tracker) Phase III pass, preserved verbatim as the
//! correctness and performance baseline for the incremental engine.
//!
//! Every budget tweak here re-solves the touched region from scratch and
//! re-walks the full route of every crossing net per recheck
//! ([`check_net`] recomputes the region path, per-region lengths and
//! coupling lookups every time), pass 1 re-scans its whole severity map
//! per outer iteration, and pass 2 clones the entire [`RegionSolution`]
//! (including the O(n²) sensitivity matrix) per recovery attempt — the
//! from-scratch hot paths the incremental pass in [`super`] replaced with
//! the cached [`super::tracker::LskTracker`], the severity heap and
//! cached, out-of-place pass-2 trials. The incremental pass must stay
//! **bit-identical** to this module: same final [`Budgets`], same
//! [`crate::phase2::RegionSino`], same [`RefineStats::outcome`] (only the
//! engine work counts differ; this pass counts its trial solves). That
//! contract is enforced by the `refine_equivalence` property suite, the
//! debug-build full-`check` oracle inside the incremental pass, and the
//! `phase_runtime` bench.
//!
//! Nothing in this module is used by any production flow.
//!
//! [`RegionSolution`]: crate::phase2::RegionSolution

use super::{RefineConfig, RefineStats};
use crate::budget::Budgets;
use crate::phase2::RegionSino;
use crate::violations::{check, check_net};
use crate::Result;
use gsino_grid::net::Circuit;
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, RouteSet};
use gsino_lsk::table::NoiseTable;
use gsino_sino::solver::SinoSolver;
use std::collections::HashSet;

/// Runs both seed passes, mutating budgets and region solutions in place.
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
    config: &RefineConfig,
) -> Result<RefineStats> {
    let mut stats = RefineStats::default();
    pass1(
        circuit, grid, routes, budgets, sino, table, vth, config, &mut stats,
    )?;
    stats.clean = check(circuit, grid, routes, sino, table, vth).is_clean();
    if config.enable_pass2 && stats.clean {
        pass2(
            circuit, grid, routes, budgets, sino, table, vth, config, &mut stats,
        )?;
    }
    Ok(stats)
}

/// Pass 1: eliminate crosstalk violations.
///
/// The violation report is maintained incrementally: re-solving one region
/// only changes the coupling of the nets crossing it, so only those nets
/// are rechecked — this is what keeps Phase III cheap relative to the ID
/// routing phase (paper §5).
#[allow(clippy::too_many_arguments)]
fn pass1(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    vth: f64,
    config: &RefineConfig,
    stats: &mut RefineStats,
) -> Result<()> {
    let mut severity: std::collections::HashMap<gsino_grid::net::NetId, f64> =
        check(circuit, grid, routes, sino, table, vth)
            .nets_by_severity()
            .into_iter()
            .collect();
    for _ in 0..config.max_pass1_iters {
        let net_id = match severity.iter().max_by(|a, b| {
            // invariant: severity voltages come from the noise table and
            // are finite.
            a.1.partial_cmp(b.1)
                .expect("finite")
                .then_with(|| b.0.cmp(a.0))
        }) {
            Some((&n, _)) => n,
            None => return Ok(()),
        };
        stats.pass1_nets += 1;
        // invariant: the severity map was built by scoring routed nets.
        let net = circuit.net(net_id).expect("violating net exists");
        let route = routes.get(net_id).expect("violating net is routed");
        for _ in 0..config.max_inner_iters {
            if check_net(grid, route, sino, table, vth, net).is_empty() {
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
                            let cap = match dir {
                                Dir::H => grid.hc(),
                                Dir::V => grid.vc(),
                            } as f64;
                            let density = (sol.nets.len() + sol.layout.num_shields()) as f64 / cap;
                            candidates.push((density, r, dir));
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
            // invariant: the candidate list above was enumerated from
            // this net's solved segments, so both lookups succeed.
            let sol = sino
                .solution_mut(r, dir)
                .expect("candidate came from a solution");
            let idx = sol.index_of(net_id).expect("net is in this region");
            // Tighten the segment budget so SINO must shield it harder
            // (Formula (3)'s inverse role in the paper — decide how much
            // Kth drops for one more shield). 0.7 trims K without grossly
            // over-shielding the region.
            let new_kth = (sol.k[idx] * 0.7).max(1e-9);
            sol.instance.set_kth(idx, new_kth)?;
            budgets.set(net_id, r, dir, new_kth);
            let before = sol.layout.num_shields();
            sol.layout = SinoSolver.solve(&sol.instance)?;
            sol.refresh_k();
            stats.pass1_shields_added += (sol.layout.num_shields().saturating_sub(before)) as u64;
            // Recheck only the nets whose coupling this region re-solve
            // could have changed.
            let affected = sino
                .solution(r, dir)
                .map(|s| s.nets.clone())
                .unwrap_or_default();
            for nid in affected {
                // invariant: occupants of a solved region are routed nets.
                let other = circuit.net(nid).expect("net exists");
                let oroute = routes.get(nid).expect("routed");
                let viols = check_net(grid, oroute, sino, table, vth, other);
                match viols
                    .iter()
                    .map(|v| v.voltage)
                    .fold(None::<f64>, |m, v| Some(m.map_or(v, |x| x.max(v))))
                {
                    Some(worst) => {
                        severity.insert(nid, worst);
                    }
                    None => {
                        severity.remove(&nid);
                    }
                }
            }
        }
        // The net may be unfixable within bounds (no coupled segments
        // left); drop it from the queue either way — if it is still dirty,
        // the final `check` in `refine` reports it honestly.
        if check_net(grid, route, sino, table, vth, net).is_empty() {
            severity.remove(&net_id);
        } else {
            severity.remove(&net_id);
            stats.pass1_unfixed += 1;
        }
    }
    Ok(())
}

/// Pass 2: reduce routing congestion by recovering shields where slack
/// allows.
#[allow(clippy::too_many_arguments)]
fn pass2(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    vth: f64,
    config: &RefineConfig,
    stats: &mut RefineStats,
) -> Result<()> {
    for _ in 0..config.pass2_sweeps {
        let mut improved = false;
        let mut visited: HashSet<(RegionIdx, Dir)> = HashSet::new();
        loop {
            // Most congested unvisited region with shields to recover.
            let mut best: Option<(f64, RegionIdx, Dir)> = None;
            for (r, dir) in sino.keys() {
                if visited.contains(&(r, dir)) {
                    continue;
                }
                // invariant: iterating `keys()` of the same solution set.
                let sol = sino.solution(r, dir).expect("key enumerated");
                if sol.layout.num_shields() == 0 {
                    continue;
                }
                let cap = match dir {
                    Dir::H => grid.hc(),
                    Dir::V => grid.vc(),
                } as f64;
                let density = (sol.nets.len() + sol.layout.num_shields()) as f64 / cap;
                if density < config.pass2_density_floor {
                    continue;
                }
                if best.is_none_or(|(d, _, _)| density > d) {
                    best = Some((density, r, dir));
                }
            }
            let (_, r, dir) = match best {
                Some(b) => b,
                None => break,
            };
            visited.insert((r, dir));
            stats.pass2_regions += 1;
            if try_recover_shield(
                circuit, grid, routes, budgets, sino, table, vth, r, dir, stats,
            )? {
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(())
}

/// Attempts to remove one shield from `(r, dir)` by raising budgets of the
/// largest-slack nets; accepts only violation-free outcomes.
#[allow(clippy::too_many_arguments)]
fn try_recover_shield(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    vth: f64,
    r: RegionIdx,
    dir: Dir,
    stats: &mut RefineStats,
) -> Result<bool> {
    let (original, base_shields, nets) = {
        // invariant: the caller verified this key holds a solution.
        let sol = sino.solution(r, dir).expect("caller checked existence");
        (sol.clone(), sol.layout.num_shields(), sol.nets.clone())
    };
    let mut trial = original.instance.clone();
    let mut raised: Vec<usize> = Vec::new();
    for _ in 0..nets.len() {
        // Largest remaining positive slack under the current layout.
        let mut pick: Option<(f64, usize)> = None;
        for i in 0..nets.len() {
            if raised.contains(&i) {
                continue;
            }
            let slack = trial.segment(i).kth - original.k[i];
            if slack > 1e-12 && pick.is_none_or(|(s, _)| slack > s) {
                pick = Some((slack, i));
            }
        }
        let (slack, i) = match pick {
            Some(p) => p,
            None => break,
        };
        trial.set_kth(i, trial.segment(i).kth + slack)?;
        raised.push(i);
        let layout = SinoSolver.solve(&trial)?;
        stats.work.trial_solves += 1;
        if layout.num_shields() >= base_shields {
            continue;
        }
        // Tentatively install and verify globally.
        let removed = (base_shields - layout.num_shields()) as u64;
        {
            // invariant: the key held a solution at entry; nothing removed it.
            let sol = sino.solution_mut(r, dir).expect("exists");
            sol.instance = trial.clone();
            sol.layout = layout;
            sol.refresh_k();
        }
        let any_violation = nets.iter().any(|&nid| {
            // invariant: occupants of a solved region are routed nets.
            let net = circuit.net(nid).expect("net exists");
            let route = routes.get(nid).expect("routed");
            !check_net(grid, route, sino, table, vth, net).is_empty()
        });
        if any_violation {
            // invariant: same key as the tentative install above.
            let sol = sino.solution_mut(r, dir).expect("exists");
            *sol = original;
            stats.pass2_rejected += 1;
            return Ok(false);
        }
        for &i in &raised {
            budgets.set(nets[i], r, dir, trial.segment(i).kth);
        }
        stats.pass2_shields_removed += removed;
        stats.pass2_recovered += 1;
        return Ok(true);
    }
    stats.pass2_no_candidate += 1;
    Ok(false)
}
