//! Fault injection for exercising the session's divergence defenses.
//!
//! A [`FaultPlan`] corrupts one piece of the session's cached replay state
//! — exactly the caches the sampled oracle audits — so tests and benches
//! can prove the detect → quarantine → degraded-replay ladder end to end.
//! Injection targets the *persisted* artifacts (routes, budgets, region
//! solutions, the kept LSK index), mirroring what a wild pointer or a
//! buggy incremental engine would clobber in production.

use super::SessionState;
use crate::{CoreError, Result};
use gsino_grid::route::{Dir, RouteTree};

/// Which cached artifact a [`FaultPlan`] corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrites one cached per-segment coupling `k` in a Phase II region
    /// solution — the "poisoned `k_eff`" scenario.
    PoisonKeff,
    /// Replaces one net's routing tree with a stale trivial stub, the
    /// Phase I analogue of a rotted bridge fact: the persisted route no
    /// longer matches what every downstream cache was derived from.
    StaleRoute,
    /// Corrupts one of a net's cached `Kth` budget entries — an LSK term
    /// that no longer matches the noise table.
    CorruptBudget,
    /// Corrupts one term length `lⱼ` of the LSK index the session keeps
    /// across budget commits: the first term of the victim net (by
    /// default, of the first indexed net).
    StaleLsk,
}

/// A single planned corruption of the session's cached state.
///
/// Targets are optional: `None` picks the first eligible victim in
/// deterministic (sorted) order, so tests stay reproducible without
/// hard-coding ids. Explicit targets are validated against the live
/// snapshot and rejected with [`CoreError::UnknownId`] when stale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// What to corrupt.
    pub kind: FaultKind,
    /// The victim net, for net-addressed kinds.
    pub net: Option<u32>,
    /// The victim `(region, dir)`, for region-addressed kinds.
    pub region: Option<(u32, Dir)>,
}

impl FaultPlan {
    /// A plan of the given kind with no explicit target.
    pub fn new(kind: FaultKind) -> Self {
        FaultPlan {
            kind,
            net: None,
            region: None,
        }
    }
}

/// Applies the corruption to the session's cached state.
pub(super) fn inject(state: &mut SessionState, plan: &FaultPlan) -> Result<()> {
    match plan.kind {
        FaultKind::PoisonKeff => {
            let (r, dir) = resolve_region(state, plan)?;
            let sol = state
                .sino0
                .solution_mut(r, dir)
                .ok_or(CoreError::UnknownId {
                    kind: "region",
                    id: r as u64,
                })?;
            match sol.k.first_mut() {
                Some(k) => *k = *k * 3.0 + 1.0,
                None => {
                    return Err(CoreError::UnknownId {
                        kind: "region",
                        id: r as u64,
                    })
                }
            }
        }
        FaultKind::StaleRoute => {
            let net = resolve_net(state, plan)?;
            let source = state
                .circuit
                .net(net)
                .ok_or(CoreError::UnknownId {
                    kind: "net",
                    id: net as u64,
                })?
                .source();
            let root = state.grid.region_of(source);
            std::sync::Arc::make_mut(&mut state.routes).replace(RouteTree::trivial(net, root));
        }
        FaultKind::CorruptBudget => {
            let net = resolve_net(state, plan)?;
            let entries = state.budgets0.net_entries(net);
            let ((n, r, d), v) = entries.first().ok_or(CoreError::UnknownId {
                kind: "net",
                id: net as u64,
            })?;
            state.budgets0.set(*n, *r, *d, v * 0.37 + 1e-3);
        }
        FaultKind::StaleLsk => {
            let victim = match plan.net {
                Some(_) => Some(resolve_net(state, plan)?),
                None => None,
            };
            let term = state
                .lsk_index
                .first_term(victim)
                .ok_or(CoreError::BadConfig {
                    reason: "no LSK term to corrupt".into(),
                })?;
            let len = std::sync::Arc::make_mut(&mut state.lsk_index).term_len_mut(term);
            *len = *len * 1.5 + 1.0;
        }
    }
    Ok(())
}

/// The explicit region target, validated, or the first solved region.
fn resolve_region(state: &SessionState, plan: &FaultPlan) -> Result<(u32, Dir)> {
    match plan.region {
        Some((r, dir)) => {
            if state.sino0.solution(r, dir).is_none() {
                return Err(CoreError::UnknownId {
                    kind: "region",
                    id: r as u64,
                });
            }
            Ok((r, dir))
        }
        None => state
            .sino0
            .keys()
            .first()
            .copied()
            .ok_or(CoreError::BadConfig {
                reason: "no solved regions to corrupt".into(),
            }),
    }
}

/// The explicit net target, validated, or the first routed net.
fn resolve_net(state: &SessionState, plan: &FaultPlan) -> Result<u32> {
    match plan.net {
        Some(net) => {
            if state.circuit.net(net).is_none() || state.routes.get(net).is_none() {
                return Err(CoreError::UnknownId {
                    kind: "net",
                    id: net as u64,
                });
            }
            Ok(net)
        }
        None => state
            .routes
            .iter()
            .map(|r| r.net())
            .min()
            .ok_or(CoreError::BadConfig {
                reason: "no routed nets to corrupt".into(),
            }),
    }
}
