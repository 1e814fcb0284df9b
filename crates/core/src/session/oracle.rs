//! The sampled runtime oracle: defense in depth for incremental replay.
//!
//! The session's invariant is that its cached replay state — routes,
//! pre-refine budgets, Phase II region solutions — is bit-identical to
//! what a from-scratch run on `(circuit, config)` would produce. The
//! oracle spot-checks that invariant two ways:
//!
//! * **Pre-flight audit** (every commit, before replaying): a sampled
//!   fraction of regions is re-derived from first principles — occupants
//!   recomputed from the routes, then the SINO instance rebuilt from the
//!   budgets and re-solved with the preserved **reference** engine — and
//!   a sampled fraction of nets has its budget entries recomputed through
//!   the noise table and its entries in the kept LSK index checked
//!   against its route: each term length as the route gives it, each
//!   sink's LSK through the index equal to
//!   [`sink_lsk`](crate::violations::sink_lsk) on `sino0`. Any mismatch is
//!   a divergence.
//! * **Patched check** (after replaying): a sampled fraction of the
//!   regions the replay just patched is re-solved with the reference
//!   engine and compared bitwise.
//!
//! Because every recompute goes through the code the flow itself runs —
//! the pipeline's Phase II stage from scratch, but with the *reference*
//! solver, and [`net_budget_entries`] — the oracle cross-checks the
//! incremental engines and the stage's reuse decisions against their
//! preserved twins at runtime: the equivalence discipline of the
//! engines' test suites, carried into production. Recompute failures (a
//! corrupted budget can make instance construction itself error) are
//! reported as divergences, not propagated as hard errors: the session's
//! job is to recover.

use super::{SessionState, SessionStats};
use crate::budget::{net_budget_entries, BudgetEntry, LengthModel};
use crate::cancel::CancelToken;
use crate::phase2::{assignments, RegionSolution, SinoEngine};
use crate::pipeline::{sino_stage, Approach, GsinoConfig};
use crate::refine::tracker::LskTracker;
use gsino_grid::net::NetId;
use gsino_grid::region::RegionIdx;
use gsino_grid::route::Dir;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// How aggressively the runtime oracle samples.
///
/// Under `debug_assertions` both fractions are forced to 1.0 — debug and
/// CI builds audit everything — mirroring how the incremental engines'
/// debug oracles work. Release builds pay only the configured fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleConfig {
    /// Fraction of replay-patched regions re-solved after each commit.
    pub patched_sample: f64,
    /// Fraction of regions/nets audited before each commit.
    pub audit_sample: f64,
    /// Seed for the deterministic sampling stream (mixed with the commit
    /// counter, so every commit samples a different deterministic subset).
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            patched_sample: 0.25,
            audit_sample: 0.10,
            seed: 0xEC0_5E55,
        }
    }
}

impl OracleConfig {
    /// A configuration that audits everything — what the fault-injection
    /// tests and the CI release leg run with.
    pub fn full() -> Self {
        OracleConfig {
            patched_sample: 1.0,
            audit_sample: 1.0,
            ..OracleConfig::default()
        }
    }

    pub(super) fn effective_patched(&self) -> f64 {
        if cfg!(debug_assertions) {
            1.0
        } else {
            self.patched_sample.clamp(0.0, 1.0)
        }
    }

    pub(super) fn effective_audit(&self) -> f64 {
        if cfg!(debug_assertions) {
            1.0
        } else {
            self.audit_sample.clamp(0.0, 1.0)
        }
    }
}

/// Audits the cached replay state against first principles. `tracker`
/// is the kept LSK index filled from `state.sino0`. Returns a
/// human-readable divergence description, or `None` if every sampled
/// check passed.
pub(super) fn audit(
    state: &SessionState,
    tracker: &LskTracker,
    sample: f64,
    rng: &mut StdRng,
    stats: &mut SessionStats,
) -> Option<String> {
    // Membership is cheap enough to check globally: the solved key set
    // must equal the occupied key set, and the occupant lists must match.
    // This is what catches a stale route even at low sampling rates.
    let expected = assignments(&state.grid, &state.routes);
    let solved_keys = state.sino0.keys();
    if expected.len() != solved_keys.len() {
        return Some(format!(
            "solved region count {} != occupied region count {}",
            solved_keys.len(),
            expected.len()
        ));
    }
    for ((r, dir), nets) in &expected {
        let Some(sol) = state.sino0.solution(*r, *dir) else {
            return Some(format!("occupied region {r} {dir:?} has no solution"));
        };
        if &sol.nets != nets {
            return Some(format!("occupant list diverged at region {r} {dir:?}"));
        }
    }

    // Sampled deep checks: rebuild + reference-solve each sampled region.
    let reference = reference_config(state);
    for (r, dir) in solved_keys {
        if !rng.gen_bool(sample) {
            continue;
        }
        stats.oracle_checks += 1;
        // invariant: `keys()` returned this key and nothing mutates the
        // solution set while the audit holds `&SessionState`.
        let sol = state.sino0.solution(r, dir).expect("key just enumerated");
        if let Some(reason) = check_solution(state, &reference, r, dir, sol) {
            return Some(reason);
        }
    }

    // Sampled budget recompute and LSK check per net. `tracker` fills the
    // kept index from `sino0`, and its sinks follow circuit net order.
    // The stored entries are grouped by net in one pass; only a sampled
    // net's list is sorted.
    let mut stored_by_net: HashMap<NetId, Vec<BudgetEntry>> =
        HashMap::with_capacity(state.circuit.nets().len());
    for (key, kth) in state.budgets0.iter() {
        stored_by_net.entry(key.0).or_default().push((*key, *kth));
    }
    let mut cursor = 0;
    for net in state.circuit.nets() {
        let start = cursor;
        cursor = tracker.skip_net(start, net.id());
        if !rng.gen_bool(sample) {
            continue;
        }
        stats.oracle_checks += 1;
        let stored: &[BudgetEntry] = match stored_by_net.get_mut(&net.id()) {
            Some(entries) => {
                entries.sort_unstable_by_key(|(key, _)| *key);
                entries
            }
            None => &[],
        };
        let recomputed = match state.routes.get(net.id()) {
            None => Vec::new(),
            Some(route) => {
                match net_budget_entries(
                    net,
                    &state.grid,
                    route,
                    &state.table,
                    &|n, s| state.config.vth_for(n, s),
                    LengthModel::Manhattan,
                ) {
                    Ok(v) => v,
                    Err(e) => {
                        return Some(format!("budget recompute failed for net {}: {e}", net.id()))
                    }
                }
            }
        };
        if stored != recomputed.as_slice() {
            return Some(format!("budget entries diverged for net {}", net.id()));
        }
        let route = state.routes.get(net.id());
        if !tracker.net_matches(start..cursor, &state.grid, route, &state.sino0, net) {
            return Some(format!("LSK index diverged for net {}", net.id()));
        }
    }
    None
}

/// Re-solves a sampled fraction of the regions a replay just patched and
/// compares bitwise. Returns a divergence description, or `None`.
pub(super) fn check_patched(
    state: &SessionState,
    patched: &[(RegionIdx, Dir)],
    sample: f64,
    rng: &mut StdRng,
    stats: &mut SessionStats,
) -> Option<String> {
    let reference = reference_config(state);
    for &(r, dir) in patched {
        if !rng.gen_bool(sample) {
            continue;
        }
        // A patched key may have been dropped entirely (its last occupant
        // was removed); nothing to check then.
        let Some(sol) = state.sino0.solution(r, dir) else {
            continue;
        };
        stats.oracle_checks += 1;
        if let Some(reason) = check_solution(state, &reference, r, dir, sol) {
            return Some(reason);
        }
    }
    None
}

/// The session's configuration with the preserved reference SINO engine.
fn reference_config(state: &SessionState) -> GsinoConfig {
    GsinoConfig {
        sino_engine: SinoEngine::Reference,
        ..state.config.clone()
    }
}

/// One region's deep check: the Phase II stage re-derives the region from
/// its occupants and the budgets, from scratch under `config`, the
/// session's configuration with the **reference** engine; instance,
/// layout and couplings must all match bitwise.
fn check_solution(
    state: &SessionState,
    config: &GsinoConfig,
    r: RegionIdx,
    dir: Dir,
    sol: &RegionSolution,
) -> Option<String> {
    let regions = vec![((r, dir), sol.nets.clone())];
    let never = CancelToken::never();
    let reference = match sino_stage(
        regions,
        &state.budgets0,
        config,
        Approach::Gsino,
        None,
        &never,
    ) {
        Ok((sino, _)) => sino,
        Err(e) => {
            return Some(format!(
                "reference re-solve failed at region {r} {dir:?}: {e}"
            ))
        }
    };
    // invariant: the stage returns a solution for every region it is given.
    let reference = reference.solution(r, dir).expect("the listed region");
    let part = if reference.instance != sol.instance {
        "instance"
    } else if reference.layout != sol.layout {
        "layout"
    } else if reference.k != sol.k {
        "couplings"
    } else {
        return None;
    };
    Some(format!("{part} diverged at region {r} {dir:?}"))
}
