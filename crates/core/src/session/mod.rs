//! Fault-tolerant ECO sessions: transactional edit replay over a routed
//! snapshot, with divergence self-checks and graceful degradation.
//!
//! An engineering change order (ECO) arrives after the expensive GSINO
//! flow has already converged: a net is added or re-pinned, a sink's
//! noise budget tightens, the router's cost weights are re-tuned. Instead
//! of re-running the three-phase flow from scratch, an [`EcoSession`]
//! holds the full routed snapshot — routes, pre-refine budgets, Phase II
//! region solutions, post-refine state — and replays each batch of typed
//! [`EcoEdit`]s through the narrowest phase slice that edit class
//! invalidates.
//!
//! # Transaction lifecycle
//!
//! ```text
//! begin() ──▶ apply(edit)* ──▶ commit()            (or rollback())
//!                 │                 │
//!                 │ id validation   │ pre-flight oracle audit
//!                 │ (UnknownId)     │ replay affected phases
//!                 │                 │ post-replay patched check
//!                 ▼                 ▼
//!             rejected edit     new snapshot, or bit-identical
//!             leaves the txn    pre-edit state on any error
//!             unchanged
//! ```
//!
//! Commits are transactional in the strongest sense: the replay builds a
//! complete candidate state **aside** and installs it only after every
//! phase driver and oracle check succeeds, so a canceled deadline
//! ([`CancelToken`]), a solver error, or a rejected edit leaves the
//! session bit-identical to its pre-edit state — the PR-4 rollback
//! discipline, applied at session scope.
//!
//! # Replay ladder
//!
//! * **Budget-only** ([`EcoEdit::TightenVth`] / [`EcoEdit::RelaxVth`]):
//!   routes stand; the edited nets' budget entries are recomputed through
//!   the noise table, and the regions their routes occupy are replayed.
//! * **Topology** ([`EcoEdit::Circuit`]): iterative deletion couples all
//!   nets through the shared demand field, so Phase I and budgeting re-run
//!   on the edited netlist, and every occupied region is replayed.
//! * **Full rebuild** ([`EcoEdit::Retile`] / [`EcoEdit::Reweight`]):
//!   everything is invalidated; the flow re-runs from scratch.
//!
//! Every rung, a degraded replay and opening a session run the
//! pipeline's stages ([`crate::pipeline`]), the code
//! [`crate::pipeline::run_gsino`] runs. Both incremental rungs replay
//! their regions through the Phase II stage with the live Phase II state,
//! which shares a region by pointer when its occupants and budgets are
//! unchanged, keeps its layout warm when only budgets moved and the
//! warm-start certificate ([`gsino_sino::warm`]) holds, and solves it
//! afresh otherwise. Phase III always re-runs, through the pipeline's
//! Phase III stage, on clones of the pre-refine state: refinement is
//! deterministic, so its output is bit-identical to a from-scratch run
//! whenever its inputs are — which is exactly the invariant the session
//! maintains.
//!
//! # What a commit keeps
//!
//! A commit copies only what it changes. The routes sit behind an
//! [`Arc`], and every Phase II region solution sits behind its own
//! (see [`RegionSino`]):
//!
//! * The **budget-only** rung hands the live routes to the candidate
//!   state as the same `Arc`. Its `sino0` is a clone that shares every
//!   region, overwritten with what the Phase II stage returned for the
//!   edited nets' regions.
//! * The **Phase I** rung routes afresh; the Phase II stage installs
//!   every region it reuses by pointer instead of copying it.
//! * **Phase III** refines a clone of `sino0` that shares every region;
//!   [`RegionSino::solution_mut`] copies a region the first time refine
//!   writes it.
//! * A **full rebuild** shares nothing.
//!
//! Budgets, the grid, the noise table, the circuit and the configuration
//! are still copied; they are small next to the routes and the region
//! solutions. Dropping a replaced state frees only what no newer state
//! shares.
//!
//! Two more things are kept so that a budget commit and a query walk no
//! route:
//!
//! * **The LSK index.** Refine judges each sink by its LSK, paper
//!   Eq. (1). The route-derived half of its tracker, an
//!   [`LskIndex`], is kept behind an `Arc`. The pre-flight audit fills
//!   it with the live `sino0`'s couplings, O(terms) and no route walk.
//!   The budget-only rung patches that tracker for each region the Phase
//!   II stage solved or kept warm and hands it to refine, and the
//!   candidate state keeps the same index. The Phase I rung, a full rebuild and a degraded replay
//!   build a new one.
//! * **The violation report.** After refine the refined tracker's report
//!   is stored, and [`EcoSession::violations`] returns it.
//!
//! This is exact. Nothing is ever written through a shared pointer:
//! `solution_mut` is `Arc::make_mut`, which copies first, and routes and
//! the index are written only by fault injection, through `Arc::make_mut`
//! as well. So every reader sees exactly the bits a deep copy would have
//! given it. The index is a pure function of four things: the circuit,
//! the grid, the routes and each region's occupant list. The budget-only
//! rung changes none of them, because a patched region keeps its old
//! occupants. So the fill over the kept index is bitwise the tracker a
//! fresh build gives, and patching it per patched region keeps it so
//! (the tracker contract of [`crate::refine::tracker`]). Refine keeps the
//! same contract on every edit, so the refined tracker's report is
//! bitwise the [`check`](crate::violations::check) of the committed
//! state; debug builds assert it after every refine. The build-aside commit keeps its meaning: the
//! candidate shares with the live state but cannot write into it, so a
//! canceled or failed commit still leaves the live snapshot, its index
//! and its report untouched. The deadline sweep in
//! `tests/failure_injection.rs` checks this bitwise. The batch flow never
//! shares a region, so its writes never copy, and it builds its tracker
//! once, as before.
//!
//! # Oracle sampling contract
//!
//! Incremental replay is fast but trusts its caches. Defense in depth
//! comes from the sampled runtime oracle ([`OracleConfig`]): before each
//! commit a sampled fraction of regions and nets is re-derived from first
//! principles and re-solved with the preserved **reference** engines;
//! after each replay a sampled fraction of the freshly patched regions is
//! re-checked the same way. Under `debug_assertions` both fractions are
//! forced to 1.0. A mismatch is a **divergence**: the session quarantines
//! the suspect cache, counts it in [`SessionStats`], records the reason
//! ([`EcoSession::last_divergence`]), and **gracefully degrades** by
//! re-running the flow from scratch — correctness recovered at the price
//! of one full replay, never a silent wrong answer.
//!
//! The audit also checks the kept LSK index: for each sampled net, every
//! term length must be what its route gives now, and each sink's LSK
//! through the index must equal [`crate::violations::sink_lsk`] on `sino0`
//! bitwise.
//!
//! [`FaultPlan`] exists to prove that ladder end to end: tests inject a
//! poisoned coupling, a stale route, a corrupted budget term or a stale
//! LSK index term, and the suite asserts the oracle detects it and the
//! degraded replay converges to the same bits as a from-scratch run.
//!
//! # Example
//!
//! ```
//! use gsino_core::pipeline::GsinoConfig;
//! use gsino_core::session::{EcoEdit, EcoSession};
//! use gsino_grid::{Circuit, Net, Point, Rect};
//! use gsino_sino::nss::NssModel;
//!
//! # fn main() -> Result<(), gsino_core::CoreError> {
//! let die = Rect::new(Point::new(0.0, 0.0), Point::new(512.0, 512.0))?;
//! let nets: Vec<Net> = (0..20)
//!     .map(|i| {
//!         let x = 16.0 + (i as f64 * 37.0) % 480.0;
//!         let y = 16.0 + (i as f64 * 53.0) % 480.0;
//!         Net::two_pin(i, Point::new(x, y), Point::new(500.0 - x, 500.0 - y))
//!     })
//!     .collect();
//! let circuit = Circuit::new("demo", die, nets)?;
//! let config = GsinoConfig {
//!     nss_model: Some(NssModel::from_coefficients(
//!         [0.9, -0.5, 0.4, -0.2, 0.05, -0.3],
//!         0.5,
//!     )),
//!     threads: 1,
//!     ..GsinoConfig::default()
//! };
//! let mut session = EcoSession::new(&circuit, &config)?;
//! session.begin()?;
//! session.apply(EcoEdit::TightenVth { net: 3, sink: 0, vth: 0.12 })?;
//! session.commit()?;
//! assert_eq!(session.stats().commits, 1);
//! assert!(session.violations().is_clean());
//! # Ok(())
//! # }
//! ```

mod edit;
mod fault;
mod oracle;

pub use edit::{EcoEdit, EditClass};
pub use fault::{FaultKind, FaultPlan};
pub use oracle::OracleConfig;

use crate::budget::{net_budget_entries, BudgetPolicy, Budgets, LengthModel};
use crate::cancel::CancelToken;
use crate::phase2::{assignments, RegionSino};
use crate::pipeline::{
    budget_stage, refine_stage, route_stage, sino_stage, Approach, GsinoConfig, Patched,
};
use crate::refine::tracker::{LskIndex, LskTracker};
use crate::refine::RefineStats;
use crate::router::RouterStats;
use crate::violations::ViolationReport;
use crate::{CoreError, Result};
use gsino_grid::net::Circuit;
use gsino_grid::region::RegionGrid;
use gsino_grid::route::RouteSet;
use gsino_lsk::table::NoiseTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Counters describing a session's lifetime (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Commit attempts (successful or not).
    pub commits: u64,
    /// Explicit [`EcoSession::rollback`] calls.
    pub rollbacks: u64,
    /// Edits accepted by [`EcoSession::apply`].
    pub edits_applied: u64,
    /// Commits replayed on the budget-only rung.
    pub budget_replays: u64,
    /// Commits replayed on the Phase I rung.
    pub phase1_replays: u64,
    /// Commits replayed as full rebuilds (Retile/Reweight).
    pub full_replays: u64,
    /// Phase II region instances re-solved by incremental replays.
    pub regions_resolved: u64,
    /// Phase II region instances reused bitwise by incremental replays.
    pub regions_reused: u64,
    /// Regions either incremental rung kept warm instead of re-solving:
    /// budgets moved, and the warm-start check ([`gsino_sino::warm`])
    /// proved the solver would return the old layout.
    pub warm_skips: u64,
    /// Individual oracle checks performed (audit + patched).
    pub oracle_checks: u64,
    /// Divergences the oracle detected.
    pub divergences: u64,
    /// From-scratch replays run to recover from divergences.
    pub degraded_replays: u64,
}

/// The complete routed snapshot a session holds. Private: the accessors
/// on [`EcoSession`] are the read surface, and every mutation goes
/// through the transactional commit path (or explicit fault injection).
struct SessionState {
    circuit: Circuit,
    config: GsinoConfig,
    grid: RegionGrid,
    table: NoiseTable,
    /// Shared with the candidate state by the budget-only rung, which
    /// never changes routes.
    routes: Arc<RouteSet>,
    router_stats: RouterStats,
    /// Phase I budgets, before Phase III retightening — the replay cache
    /// incremental budgeting patches.
    budgets0: Budgets,
    /// Phase II output, before Phase III — the replay cache incremental
    /// region solving patches.
    sino0: RegionSino,
    /// Post-refine budgets (what [`crate::pipeline::run_gsino`] reports).
    budgets: Budgets,
    /// Post-refine region solutions.
    sino: RegionSino,
    refine_stats: RefineStats,
    /// The route-derived half of the LSK tracker of `sino0`; shared with
    /// the candidate state by the budget-only rung.
    lsk_index: Arc<LskIndex>,
    /// The violation report of the post-refine state: `check` of `sino`.
    report: ViolationReport,
}

/// An open transaction: working copies of the circuit and configuration
/// with the pending edits already folded in, plus the replay class they
/// collectively demand.
struct Txn {
    circuit: Circuit,
    config: GsinoConfig,
    class: Option<EditClass>,
    budget_nets: BTreeSet<u32>,
}

/// A persistent, fault-tolerant ECO session over one routed circuit. See
/// the [module docs](self) for the lifecycle, replay ladder and oracle
/// contract.
pub struct EcoSession {
    state: SessionState,
    txn: Option<Txn>,
    oracle: OracleConfig,
    stats: SessionStats,
    last_divergence: Option<String>,
}

impl EcoSession {
    /// Routes the circuit from scratch (the full GSINO flow) and opens a
    /// session over the result.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for invalid configurations — including
    /// [`BudgetPolicy::CongestionWeighted`], whose budgets depend on
    /// global track usage and therefore have no per-net incremental form
    /// — plus any flow error.
    pub fn new(circuit: &Circuit, config: &GsinoConfig) -> Result<Self> {
        Self::with_oracle(circuit, config, OracleConfig::default())
    }

    /// [`Self::new`] with explicit oracle sampling rates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::new`].
    pub fn with_oracle(
        circuit: &Circuit,
        config: &GsinoConfig,
        oracle: OracleConfig,
    ) -> Result<Self> {
        if config.budget_policy == BudgetPolicy::CongestionWeighted {
            return Err(CoreError::BadConfig {
                reason: "ECO sessions require the uniform budget policy: congestion-weighted \
                         budgets couple every net through global track usage, so no edit has \
                         a bounded replay footprint"
                    .into(),
            });
        }
        let (state, _) =
            SessionState::build(circuit.clone(), config.clone(), None, &CancelToken::never())?;
        Ok(EcoSession {
            state,
            txn: None,
            oracle,
            stats: SessionStats::default(),
            last_divergence: None,
        })
    }

    /// Opens a transaction.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if one is already open.
    pub fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(CoreError::BadConfig {
                reason: "a transaction is already open".into(),
            });
        }
        self.txn = Some(Txn {
            circuit: self.state.circuit.clone(),
            config: self.state.config.clone(),
            class: None,
            budget_nets: BTreeSet::new(),
        });
        Ok(())
    }

    /// Validates an edit against the live snapshot (plus the edits already
    /// pending in this transaction) and stages it. A rejected edit leaves
    /// the transaction exactly as it was.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if no transaction is open;
    /// [`CoreError::UnknownId`] for stale net/sink ids;
    /// [`CoreError::BadConfig`] for out-of-range values.
    pub fn apply(&mut self, edit: EcoEdit) -> Result<()> {
        let txn = self.txn.as_mut().ok_or_else(|| CoreError::BadConfig {
            reason: "no open transaction (call begin() first)".into(),
        })?;
        let class = edit.apply_to(&mut txn.circuit, &mut txn.config)?;
        if class == EditClass::BudgetOnly {
            if let Some(net) = edit.budget_net() {
                txn.budget_nets.insert(net);
            }
        }
        txn.class = Some(txn.class.map_or(class, |c| c.max(class)));
        self.stats.edits_applied += 1;
        Ok(())
    }

    /// Discards the open transaction; the snapshot is untouched.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if no transaction is open.
    pub fn rollback(&mut self) -> Result<()> {
        if self.txn.take().is_none() {
            return Err(CoreError::BadConfig {
                reason: "no open transaction to roll back".into(),
            });
        }
        self.stats.rollbacks += 1;
        Ok(())
    }

    /// Replays the open transaction's edits and installs the new
    /// snapshot. See [`Self::commit_with`].
    ///
    /// # Errors
    ///
    /// See [`Self::commit_with`].
    pub fn commit(&mut self) -> Result<()> {
        self.commit_with(&CancelToken::never())
    }

    /// [`Self::commit`] under a deadline/cancellation token.
    ///
    /// On **any** error — cancellation, a solver failure — the pending
    /// edits are discarded and the session keeps a state bit-identical to
    /// a correct pre-edit snapshot: the candidate state is built aside
    /// and only installed on full success. (If the pre-flight oracle
    /// found a divergence first, "correct pre-edit snapshot" means the
    /// freshly rebuilt one, not the corrupted cache it replaced.)
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if no transaction is open;
    /// [`CoreError::Canceled`] once `cancel` fires; solver/routing errors
    /// from the replayed phases.
    pub fn commit_with(&mut self, cancel: &CancelToken) -> Result<()> {
        let txn = self.txn.take().ok_or_else(|| CoreError::BadConfig {
            reason: "no open transaction to commit".into(),
        })?;
        self.stats.commits += 1;
        let mut rng = StdRng::seed_from_u64(
            self.oracle
                .seed
                .wrapping_add(self.stats.commits.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );

        // Pre-flight audit: spot-check the caches the replay is about to
        // build on. Detecting a corruption *before* replaying makes
        // recovery deterministic — the degraded rebuild below restores a
        // clean pre-edit snapshot, and the replay proceeds on top of it.
        // The audit reads the kept index through a tracker of `sino0`,
        // which the budget-only rung then patches instead of filling again.
        let mut tracker = self.state.lsk_tracker();
        if let Some(reason) = oracle::audit(
            &self.state,
            &tracker,
            self.oracle.effective_audit(),
            &mut rng,
            &mut self.stats,
        ) {
            self.degrade(
                reason,
                self.state.circuit.clone(),
                self.state.config.clone(),
                cancel,
            )?;
            tracker = self.state.lsk_tracker();
        }

        let Some(class) = txn.class else {
            return Ok(()); // empty transaction: audited, nothing to replay
        };
        let (next, patched) = match class {
            EditClass::FullRebuild => {
                self.stats.full_replays += 1;
                SessionState::build(txn.circuit, txn.config, None, cancel)?
            }
            EditClass::Phase1 => {
                self.stats.phase1_replays += 1;
                SessionState::build(txn.circuit, txn.config, Some(&self.state), cancel)?
            }
            EditClass::BudgetOnly => {
                self.stats.budget_replays += 1;
                let nets = &txn.budget_nets;
                self.state
                    .replay_budgets(txn.circuit, txn.config, nets, tracker, cancel)?
            }
        };
        if class != EditClass::FullRebuild {
            self.stats.regions_resolved += (patched.keys.len() - patched.warm) as u64;
            self.stats.warm_skips += patched.warm as u64;
            self.stats.regions_reused += (next.sino0.len() - patched.keys.len()) as u64;
        }

        // Post-replay check: re-solve a sampled fraction of the patched
        // regions with the reference engine. A divergence here means the
        // incremental replay itself misbehaved; degrade by rebuilding the
        // edited snapshot from scratch — the commit still succeeds.
        if let Some(reason) = oracle::check_patched(
            &next,
            &patched.keys,
            self.oracle.effective_patched(),
            &mut rng,
            &mut self.stats,
        ) {
            return self.degrade(reason, next.circuit, next.config, cancel);
        }
        self.state = next;
        Ok(())
    }

    /// Runs a full (100%-sampled) audit of the cached snapshot right now.
    /// Returns `Ok(true)` if everything checked out; on divergence the
    /// session recovers by degraded replay and returns `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Flow errors from the recovery rebuild only.
    pub fn verify_now(&mut self) -> Result<bool> {
        let mut rng = StdRng::seed_from_u64(self.oracle.seed ^ 0x5EED);
        let tracker = self.state.lsk_tracker();
        if let Some(reason) = oracle::audit(&self.state, &tracker, 1.0, &mut rng, &mut self.stats) {
            self.degrade(
                reason,
                self.state.circuit.clone(),
                self.state.config.clone(),
                &CancelToken::never(),
            )?;
            return Ok(false);
        }
        Ok(true)
    }

    /// Corrupts one cached artifact according to `plan` — the
    /// fault-injection hook the failure-injection suite and the resilience
    /// benches drive. See [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownId`] for stale explicit targets;
    /// [`CoreError::BadConfig`] when there is nothing to corrupt.
    pub fn inject_fault(&mut self, plan: &FaultPlan) -> Result<()> {
        fault::inject(&mut self.state, plan)
    }

    /// Quarantine + graceful degradation: count the divergence, drop the
    /// suspect state, and rebuild `(circuit, config)` from scratch.
    fn degrade(
        &mut self,
        reason: String,
        circuit: Circuit,
        config: GsinoConfig,
        cancel: &CancelToken,
    ) -> Result<()> {
        self.stats.divergences += 1;
        self.last_divergence = Some(reason);
        let (rebuilt, _) = SessionState::build(circuit, config, None, cancel)?;
        self.stats.degraded_replays += 1;
        self.state = rebuilt;
        Ok(())
    }

    /// The routed circuit the session currently tracks.
    pub fn circuit(&self) -> &Circuit {
        &self.state.circuit
    }

    /// The configuration (including accumulated constraint overrides).
    pub fn config(&self) -> &GsinoConfig {
        &self.state.config
    }

    /// The routing-region grid.
    pub fn grid(&self) -> &RegionGrid {
        &self.state.grid
    }

    /// Per-net routing trees.
    pub fn routes(&self) -> &RouteSet {
        &self.state.routes
    }

    /// Post-refine per-segment budgets (what a from-scratch
    /// [`crate::pipeline::run_gsino`] would report).
    pub fn budgets(&self) -> &Budgets {
        &self.state.budgets
    }

    /// Post-refine region solutions.
    pub fn sino(&self) -> &RegionSino {
        &self.state.sino
    }

    /// Pre-refine (Phase I) budgets — the incremental replay cache.
    pub fn budgets_pre_refine(&self) -> &Budgets {
        &self.state.budgets0
    }

    /// Pre-refine (Phase II) region solutions — the incremental replay
    /// cache.
    pub fn sino_pre_refine(&self) -> &RegionSino {
        &self.state.sino0
    }

    /// Phase III counters from the most recent replay.
    pub fn refine_stats(&self) -> &RefineStats {
        &self.state.refine_stats
    }

    /// Phase I counters from the most recent routing replay.
    pub fn router_stats(&self) -> &RouterStats {
        &self.state.router_stats
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The most recent divergence the oracle detected, if any.
    pub fn last_divergence(&self) -> Option<&str> {
        self.last_divergence.as_deref()
    }

    /// Whether a transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The violation report of the current snapshot at the configured
    /// constraint: the report stored when the snapshot was committed,
    /// which equals [`check`](crate::violations::check) of the snapshot
    /// (see "What a commit keeps" in the [module docs](self)).
    pub fn violations(&self) -> ViolationReport {
        self.state.report.clone()
    }
}

impl SessionState {
    /// Runs the pipeline's stages on `(circuit, config)` and keeps the
    /// pre-refine caches: from scratch when `prev` is `None` (a new
    /// session, a full rebuild, a degraded replay), else as the Phase I
    /// rung over the live state `prev`, whose Phase II regions the stage
    /// reuses wherever their occupants are unchanged. Returns the state and
    /// what Phase II patched.
    fn build(
        circuit: Circuit,
        config: GsinoConfig,
        prev: Option<&SessionState>,
        cancel: &CancelToken,
    ) -> Result<(SessionState, Patched)> {
        config.validate()?;
        let (grid, table) = match prev {
            // invariant: the region grid depends only on the die, technology
            // and tile size, all unchanged on the Phase I rung, so the kept
            // grid equals RegionGrid::new on the edited circuit.
            Some(prev) => (prev.grid.clone(), prev.table.clone()),
            None => (
                RegionGrid::new(&circuit, &config.tech, config.tile_um)?,
                NoiseTable::calibrated(&config.tech),
            ),
        };
        let (routes, router_stats) =
            route_stage(&circuit, &config, Approach::Gsino, &grid, &table, cancel)?;
        let budgets0 = budget_stage(&circuit, &config, Approach::Gsino, &grid, &routes, &table)?;
        let regions = assignments(&grid, &routes);
        let (sino0, patched) = sino_stage(
            regions,
            &budgets0,
            &config,
            Approach::Gsino,
            prev.map(|p| &p.sino0),
            cancel,
        )?;
        let tracker = LskTracker::new(&circuit, &grid, &routes, &sino0, &table, config.vth);
        let next = SessionState::refined(
            circuit,
            config,
            grid,
            table,
            Arc::new(routes),
            router_stats,
            budgets0,
            sino0,
            tracker,
            cancel,
        )?;
        Ok((next, patched))
    }

    /// Budget-only rung: routes stand; the edited nets' new budget entries,
    /// and the Phase II stage's solutions of the regions their routes
    /// occupy, overwrite this state's (a budget edit cannot change which
    /// keys a route occupies). `tracker` is this state's `sino0`'s, patched
    /// per patched region into the tracker of the candidate `sino0`.
    fn replay_budgets(
        &self,
        circuit: Circuit,
        config: GsinoConfig,
        budget_nets: &BTreeSet<u32>,
        mut tracker: LskTracker,
        cancel: &CancelToken,
    ) -> Result<(SessionState, Patched)> {
        config.validate()?;
        let mut budgets0 = self.budgets0.clone();
        let mut keys = BTreeSet::new();
        let routed = |&n: &u32| Some((circuit.net(n)?, self.routes.get(n)?));
        let vth_of = |n, s| config.vth_for(n, s);
        for (net, route) in budget_nets.iter().filter_map(routed) {
            let entries = net_budget_entries(
                net,
                &self.grid,
                route,
                &self.table,
                &vth_of,
                LengthModel::Manhattan,
            )?;
            for ((n, r, d), kth) in entries {
                budgets0.set(n, r, d, kth);
                keys.insert((r, d));
            }
        }
        // invariant: the audit just checked that every occupied key has a
        // solution with the occupants the routes give.
        let regions = keys
            .into_iter()
            .filter_map(|(r, d)| Some(((r, d), self.sino0.solution(r, d)?.nets.clone())))
            .collect();
        let (solved, patched) = sino_stage(
            regions,
            &budgets0,
            &config,
            Approach::Gsino,
            Some(&self.sino0),
            cancel,
        )?;
        // The stage shared every other listed region with `self.sino0`. A
        // patched region keeps its occupants, so the kept index still
        // addresses its segments.
        let mut sino0 = self.sino0.clone();
        for &(r, d) in &patched.keys {
            if let Some(sol) = solved.shared(r, d) {
                tracker.region_updated(r, d, &sol.k, &self.table);
                sino0.insert_shared(r, d, Arc::clone(sol));
            }
        }
        let next = SessionState::refined(
            circuit,
            config,
            self.grid.clone(),
            self.table.clone(),
            Arc::clone(&self.routes),
            self.router_stats,
            budgets0,
            sino0,
            tracker,
            cancel,
        )?;
        Ok((next, patched))
    }

    /// The pipeline's Phase III stage on clones of the pre-refine caches,
    /// assembling the full snapshot. The `sino0` clone shares every
    /// region; refine copies only the regions it writes. `tracker` is the
    /// tracker of `sino0` at `config.vth`; the state keeps its index and
    /// the refined report.
    #[allow(clippy::too_many_arguments)]
    fn refined(
        circuit: Circuit,
        config: GsinoConfig,
        grid: RegionGrid,
        table: NoiseTable,
        routes: Arc<RouteSet>,
        router_stats: RouterStats,
        budgets0: Budgets,
        sino0: RegionSino,
        mut tracker: LskTracker,
        cancel: &CancelToken,
    ) -> Result<SessionState> {
        let mut budgets = budgets0.clone();
        let mut sino = sino0.clone();
        let (refine_stats, report) = refine_stage(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            &config,
            &mut tracker,
            cancel,
        )?;
        Ok(SessionState {
            circuit,
            config,
            grid,
            table,
            routes,
            router_stats,
            budgets0,
            sino0,
            budgets,
            sino,
            refine_stats,
            lsk_index: Arc::clone(tracker.index()),
            report,
        })
    }

    /// A tracker of `sino0` through the kept index: a fill, no route walk.
    fn lsk_tracker(&self) -> LskTracker {
        LskTracker::fill(
            Arc::clone(&self.lsk_index),
            &self.sino0,
            &self.table,
            self.config.vth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase2::{prepare_instances, solve_prepared, RegionMode};
    use crate::pipeline::{run_flow_with_artifacts, RouterKind};
    use crate::violations::check;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::{CircuitEdit, Net};
    use gsino_sino::nss::NssModel;

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

    fn assert_matches_scratch(session: &EcoSession) {
        let (outcome, internals) =
            run_flow_with_artifacts(session.circuit(), session.config(), Approach::Gsino).unwrap();
        assert_eq!(session.routes(), &outcome.routes, "routes diverged");
        assert_eq!(session.budgets(), &internals.budgets, "budgets diverged");
        assert_eq!(session.sino(), &internals.sino, "sino diverged");
    }

    #[test]
    fn session_seed_matches_from_scratch() {
        let circuit = small_circuit(20);
        let session = EcoSession::new(&circuit, &fast_config()).unwrap();
        assert_matches_scratch(&session);
        assert!(session.violations().is_clean());
    }

    #[test]
    fn budget_edit_commits_and_matches_scratch() {
        let circuit = small_circuit(20);
        let mut session = EcoSession::new(&circuit, &fast_config()).unwrap();
        session.begin().unwrap();
        session
            .apply(EcoEdit::TightenVth {
                net: 3,
                sink: 0,
                vth: 0.10,
            })
            .unwrap();
        session.commit().unwrap();
        assert_eq!(session.stats().budget_replays, 1);
        assert_eq!(session.stats().divergences, 0);
        assert_matches_scratch(&session);
    }

    #[test]
    fn warm_skip_fires_and_stays_bit_identical() {
        use gsino_grid::sensitivity::SensitivityModel;
        // An insensitive circuit: every segment's coupling upper bound is
        // zero, so any budget move on a region whose placement order is
        // undisturbed is certified by `gsino_sino::warm` and Phase II is
        // skipped for it. Debug builds force 100% oracle sampling, so each
        // skipped region is re-solved and compared bitwise by the oracle —
        // the certificate is machine-checked, not just trusted.
        let config = GsinoConfig {
            sensitivity: SensitivityModel::new(0.0, 1),
            ..fast_config()
        };
        let circuit = small_circuit(20);
        let mut session = EcoSession::with_oracle(
            &circuit,
            &config,
            OracleConfig {
                patched_sample: 1.0,
                ..OracleConfig::default()
            },
        )
        .unwrap();
        session.begin().unwrap();
        session
            .apply(EcoEdit::TightenVth {
                net: 3,
                sink: 0,
                vth: 0.10,
            })
            .unwrap();
        session.commit().unwrap();
        assert!(session.stats().warm_skips > 0, "no region was warm-skipped");
        assert_eq!(session.stats().divergences, 0);
        assert!(session.verify_now().unwrap());
        assert_matches_scratch(&session);
    }

    #[test]
    fn warm_skip_does_not_fire_when_budgets_bind() {
        // The default 30% sensitivity circuit: the tightened region's
        // budgets sit below the coupling upper bound, so the certificate
        // must be refused and the region genuinely re-solved.
        let circuit = small_circuit(20);
        let mut session = EcoSession::new(&circuit, &fast_config()).unwrap();
        session.begin().unwrap();
        session
            .apply(EcoEdit::TightenVth {
                net: 3,
                sink: 0,
                vth: 0.10,
            })
            .unwrap();
        session.commit().unwrap();
        assert_eq!(session.stats().divergences, 0);
        assert_matches_scratch(&session);
    }

    #[test]
    fn topology_edit_commits_and_matches_scratch() {
        let circuit = small_circuit(20);
        let astar = |threads| GsinoConfig {
            router: RouterKind::SequentialAstar,
            threads,
            ..fast_config()
        };
        for config in [fast_config(), astar(1), astar(2)] {
            let mut session = EcoSession::new(&circuit, &config).unwrap();
            session.begin().unwrap();
            session
                .apply(EcoEdit::Circuit(CircuitEdit::AddNet {
                    net: Net::two_pin(99, Point::new(20.0, 600.0), Point::new(600.0, 30.0)),
                }))
                .unwrap();
            session.commit().unwrap();
            assert_eq!(session.stats().phase1_replays, 1);
            assert!(session.circuit().net(99).is_some());
            assert_matches_scratch(&session);
        }
    }

    #[test]
    fn stale_ids_are_rejected_typed() {
        let circuit = small_circuit(8);
        let mut session = EcoSession::new(&circuit, &fast_config()).unwrap();
        session.begin().unwrap();
        assert!(matches!(
            session.apply(EcoEdit::TightenVth {
                net: 555,
                sink: 0,
                vth: 0.1
            }),
            Err(CoreError::UnknownId {
                kind: "net",
                id: 555
            })
        ));
        assert!(matches!(
            session.apply(EcoEdit::TightenVth {
                net: 2,
                sink: 7,
                vth: 0.1
            }),
            Err(CoreError::UnknownId {
                kind: "sink",
                id: 7
            })
        ));
        assert!(matches!(
            session.apply(EcoEdit::Circuit(CircuitEdit::RemoveNet { net: 555 })),
            Err(CoreError::UnknownId {
                kind: "net",
                id: 555
            })
        ));
        // The rejected edits left the transaction consistent.
        session
            .apply(EcoEdit::TightenVth {
                net: 2,
                sink: 0,
                vth: 0.1,
            })
            .unwrap();
        session.rollback().unwrap();
        assert_matches_scratch(&session);
    }

    #[test]
    fn transaction_discipline_is_enforced() {
        let circuit = small_circuit(6);
        let mut session = EcoSession::new(&circuit, &fast_config()).unwrap();
        assert!(session.commit().is_err());
        assert!(session.rollback().is_err());
        assert!(session
            .apply(EcoEdit::RelaxVth { net: 0, sink: 0 })
            .is_err());
        session.begin().unwrap();
        assert!(session.begin().is_err());
        session.rollback().unwrap();
        assert_eq!(session.stats().rollbacks, 1);
    }

    #[test]
    fn congestion_weighted_policy_is_rejected() {
        let circuit = small_circuit(6);
        let config = GsinoConfig {
            budget_policy: BudgetPolicy::CongestionWeighted,
            ..fast_config()
        };
        assert!(matches!(
            EcoSession::new(&circuit, &config),
            Err(CoreError::BadConfig { .. })
        ));
    }

    #[test]
    fn unusable_supply_voltage_or_rate_is_rejected() {
        let circuit = small_circuit(6);
        for config in crate::pipeline::unusable_configs(&fast_config()) {
            assert!(
                matches!(
                    EcoSession::new(&circuit, &config),
                    Err(CoreError::BadConfig { .. })
                ),
                "vdd {} rate {}",
                config.tech.vdd,
                config.sensitivity.rate()
            );
        }
    }

    /// Phase II from scratch on the session's circuit and config: the
    /// pipeline's routes and budgeting, then the public prepare-and-solve
    /// path every region.
    fn scratch_phase2(session: &EcoSession) -> (Budgets, RegionSino) {
        let (circuit, config) = (session.circuit(), session.config());
        let (outcome, internals) =
            run_flow_with_artifacts(circuit, config, Approach::Gsino).unwrap();
        let (grid, routes) = (&internals.grid, &outcome.routes);
        let budgets0 = budget_stage(
            circuit,
            config,
            Approach::Gsino,
            grid,
            routes,
            &internals.table,
        )
        .unwrap();
        let work = prepare_instances(grid, routes, &budgets0, &config.sensitivity, config.threads)
            .unwrap();
        let sino0 = solve_prepared(
            work,
            config.solver,
            RegionMode::Sino,
            config.threads,
            config.sino_engine,
        )
        .unwrap();
        (budgets0, sino0)
    }

    /// How many of `after`'s regions hold the very allocation `before`
    /// holds for the same key.
    fn pointer_shared(before: &RegionSino, after: &RegionSino) -> usize {
        after
            .keys()
            .into_iter()
            .filter(|&(r, d)| match (before.shared(r, d), after.shared(r, d)) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
            .count()
    }

    #[test]
    fn budget_commit_shares_routes_and_unpatched_regions() {
        let circuit = small_circuit(20);
        let mut session = EcoSession::new(&circuit, &fast_config()).unwrap();
        let routes_before = Arc::clone(&session.state.routes);
        let sino0_before = session.state.sino0.clone();
        let budgets0_before = session.state.budgets0.clone();
        let reused_before = session.stats().regions_reused;
        session.begin().unwrap();
        session
            .apply(EcoEdit::TightenVth {
                net: 3,
                sink: 0,
                vth: 0.10,
            })
            .unwrap();
        session.commit().unwrap();
        assert_eq!(session.stats().budget_replays, 1);
        assert!(
            Arc::ptr_eq(&routes_before, &session.state.routes),
            "a budget-only commit must hand the live routes on, not copy them"
        );
        // The patched regions are exactly those where net 3's budget moved.
        let after = &session.state.sino0;
        let mut patched = 0;
        for (r, d) in after.keys() {
            let moved = budgets0_before.kth(3, r, d) != session.state.budgets0.kth(3, r, d);
            let shared = Arc::ptr_eq(
                sino0_before.shared(r, d).unwrap(),
                after.shared(r, d).unwrap(),
            );
            assert_ne!(
                moved, shared,
                "region {r} {d:?}: moved {moved}, shared {shared}"
            );
            patched += usize::from(moved);
        }
        assert!(patched > 0, "the edit moved no budget");
        let reused = (session.stats().regions_reused - reused_before) as usize;
        assert_eq!(pointer_shared(&sino0_before, after), reused);
        assert_eq!(reused + patched, after.len());
        let (budgets0, sino0) = scratch_phase2(&session);
        assert_eq!(session.budgets_pre_refine(), &budgets0);
        assert_eq!(session.sino_pre_refine(), &sino0);
        assert_matches_scratch(&session);
    }

    #[test]
    fn topology_commit_shares_every_reused_region() {
        let circuit = small_circuit(20);
        let mut session = EcoSession::new(&circuit, &fast_config()).unwrap();
        let sino0_before = session.state.sino0.clone();
        let reused_before = session.stats().regions_reused;
        session.begin().unwrap();
        session
            .apply(EcoEdit::Circuit(CircuitEdit::AddNet {
                net: Net::two_pin(99, Point::new(20.0, 600.0), Point::new(600.0, 30.0)),
            }))
            .unwrap();
        session.commit().unwrap();
        assert_eq!(session.stats().phase1_replays, 1);
        let reused = (session.stats().regions_reused - reused_before) as usize;
        assert!(reused > 0, "the new net should leave some region untouched");
        assert_eq!(pointer_shared(&sino0_before, &session.state.sino0), reused);
        let (_, sino0) = scratch_phase2(&session);
        assert_eq!(session.sino_pre_refine(), &sino0);
        assert_matches_scratch(&session);
    }

    #[test]
    fn sparse_net_id_then_budget_edits_match_scratch() {
        let circuit = small_circuit(20);
        let mut session = EcoSession::new(&circuit, &fast_config()).unwrap();
        session.begin().unwrap();
        session
            .apply(EcoEdit::Circuit(CircuitEdit::AddNet {
                net: Net::two_pin(1_000_000, Point::new(20.0, 600.0), Point::new(600.0, 30.0)),
            }))
            .unwrap();
        session.commit().unwrap();
        for (net, vth) in [(1_000_000, 0.11), (4, 0.12), (1_000_000, 0.10)] {
            session.begin().unwrap();
            session
                .apply(EcoEdit::TightenVth { net, sink: 0, vth })
                .unwrap();
            session.commit().unwrap();
        }
        assert_eq!(session.stats().budget_replays, 3);
        assert_eq!(session.stats().divergences, 0);
        assert_eq!(session.routes().len(), session.circuit().num_nets());
        assert_eq!(session.routes().iter().last().unwrap().net(), 1_000_000);
        let (_, sino0) = scratch_phase2(&session);
        assert_eq!(session.sino_pre_refine(), &sino0);
        assert_matches_scratch(&session);
    }

    /// `violations()` must be `check` of the committed snapshot.
    fn assert_report_is_check(session: &EcoSession) {
        let s = &session.state;
        let report = check(
            &s.circuit,
            &s.grid,
            &s.routes,
            &s.sino,
            &s.table,
            s.config.vth,
        );
        assert_eq!(session.violations(), report);
    }

    fn commit(session: &mut EcoSession, edit: EcoEdit) {
        session.begin().unwrap();
        session.apply(edit).unwrap();
        session.commit().unwrap();
    }

    #[test]
    fn budget_commits_keep_the_lsk_index_and_others_replace_it() {
        use crate::router::Weights;
        use gsino_grid::sensitivity::SensitivityModel;
        // An insensitive design warm-skips every moved region (see
        // `warm_skip_fires_and_stays_bit_identical`).
        for sensitivity in [fast_config().sensitivity, SensitivityModel::new(0.0, 1)] {
            let config = GsinoConfig {
                sensitivity,
                ..fast_config()
            };
            let mut session = EcoSession::new(&small_circuit(20), &config).unwrap();
            assert_report_is_check(&session);
            let kept = Arc::clone(&session.state.lsk_index);
            let budget_edits = [
                EcoEdit::TightenVth {
                    net: 3,
                    sink: 0,
                    vth: 0.10,
                },
                EcoEdit::TightenVth {
                    net: 7,
                    sink: 0,
                    vth: 0.09,
                },
                EcoEdit::RelaxVth { net: 3, sink: 0 },
            ];
            for edit in budget_edits {
                commit(&mut session, edit);
                assert!(
                    Arc::ptr_eq(&kept, &session.state.lsk_index),
                    "a budget commit must keep the index"
                );
                assert_report_is_check(&session);
            }
            assert_eq!(session.stats().budget_replays, 3);
            if sensitivity.rate() == 0.0 {
                assert!(session.stats().warm_skips > 0, "no region was warm-skipped");
            }
            let others = [
                EcoEdit::Circuit(CircuitEdit::AddNet {
                    net: Net::two_pin(99, Point::new(20.0, 600.0), Point::new(600.0, 30.0)),
                }),
                EcoEdit::Reweight {
                    weights: Weights {
                        alpha: 3.0,
                        ..Weights::default()
                    },
                },
            ];
            for edit in others {
                let before = Arc::clone(&session.state.lsk_index);
                commit(&mut session, edit);
                assert!(
                    !Arc::ptr_eq(&before, &session.state.lsk_index),
                    "a routing commit must build a new index"
                );
                assert_report_is_check(&session);
            }
            assert_eq!(session.stats().phase1_replays, 1);
            assert_eq!(session.stats().full_replays, 1);
            assert_eq!(session.stats().divergences, 0);
            assert_matches_scratch(&session);
        }
    }

    #[test]
    fn every_session_config_runs_the_pipeline_stages() {
        // The Formula (3) fit (the default, and every routebench session's
        // path), no shield reservation, a per-sink override, and the A*
        // router on two threads. Each opens, then commits one topology and
        // one budget edit, and matches from-scratch runs after every step.
        let configs = [
            GsinoConfig {
                nss_model: None,
                ..fast_config()
            },
            GsinoConfig {
                shield_reservation: false,
                ..fast_config()
            },
            GsinoConfig {
                vth_overrides: vec![(5, 0, 0.12)],
                ..fast_config()
            },
            GsinoConfig {
                router: RouterKind::SequentialAstar,
                threads: 2,
                ..fast_config()
            },
        ];
        let matches_scratch = |session: &EcoSession| {
            assert_matches_scratch(session);
            let (budgets0, sino0) = scratch_phase2(session);
            assert_eq!(session.budgets_pre_refine(), &budgets0);
            assert_eq!(session.sino_pre_refine(), &sino0);
        };
        for config in configs {
            let mut session = EcoSession::new(&small_circuit(20), &config).unwrap();
            matches_scratch(&session);
            commit(
                &mut session,
                EcoEdit::Circuit(CircuitEdit::AddNet {
                    net: Net::two_pin(99, Point::new(20.0, 600.0), Point::new(600.0, 30.0)),
                }),
            );
            matches_scratch(&session);
            commit(
                &mut session,
                EcoEdit::TightenVth {
                    net: 3,
                    sink: 0,
                    vth: 0.10,
                },
            );
            matches_scratch(&session);
            let stats = session.stats();
            assert_eq!((stats.phase1_replays, stats.budget_replays), (1, 1));
            assert_eq!(stats.divergences, 0);
        }
    }

    #[test]
    fn report_survives_heal_and_canceled_commit() {
        let mut session = EcoSession::new(&small_circuit(16), &fast_config()).unwrap();
        session
            .inject_fault(&FaultPlan::new(FaultKind::PoisonKeff))
            .unwrap();
        assert!(
            !session.verify_now().unwrap(),
            "the poisoned coupling must be flagged"
        );
        assert_report_is_check(&session);
        let report = session.violations();
        session.begin().unwrap();
        session
            .apply(EcoEdit::TightenVth {
                net: 3,
                sink: 0,
                vth: 0.10,
            })
            .unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(session.commit_with(&cancel).is_err());
        assert_eq!(session.violations(), report);
        assert_report_is_check(&session);
    }

    #[test]
    fn verify_now_on_clean_state_is_true() {
        let circuit = small_circuit(10);
        let mut session = EcoSession::new(&circuit, &fast_config()).unwrap();
        assert!(session.verify_now().unwrap());
        assert_eq!(session.stats().divergences, 0);
        assert!(session.stats().oracle_checks > 0);
    }
}
