//! GSINO — global routing with RLC crosstalk constraints (Ma & He, DAC
//! 2002).
//!
//! The extended global-routing problem **GSINO** decides a rectilinear
//! Steiner tree for every net *and* a simultaneous shield-insertion and
//! net-ordering (SINO) solution within every routing region, such that
//! every sink meets its RLC crosstalk constraint while wire length and
//! routing area stay small. This crate implements the paper's three-phase
//! heuristic and its two evaluation baselines:
//!
//! * [`router`] — the iterative-deletion (ID) global router (paper Fig. 1,
//!   after Cong–Preas), with the shield-aware weight of Formula (2);
//! * [`budget`] — Phase I: uniform crosstalk-budget partitioning through
//!   the LSK noise table;
//! * [`phase2`] — Phase II: per-region SINO under the partitioned budgets;
//! * [`violations`] — LSK/voltage bookkeeping per sink and the violation
//!   report (Table 1's metric);
//! * [`refine`] — Phase III: the two-pass local refinement (paper Fig. 2);
//! * [`baseline`] — ID+NO (net ordering only) and iSINO (post-routing
//!   SINO), the comparison points of Tables 1–3;
//! * [`analysis`] — per-sink noise profiles and histograms;
//! * [`pipeline`] — end-to-end flows with per-phase timings;
//! * [`metrics`] — wire-length, area and shield statistics;
//! * [`session`] — fault-tolerant transactional ECO sessions over a routed
//!   snapshot, with divergence self-checks and graceful degradation;
//! * [`service`] — the multi-session routing-service front: named
//!   sessions on a shared worker pool with one FIFO run queue, request
//!   batching, admission control and graceful shutdown;
//! * [`cancel`] — the deadline/cancellation token the phase drivers poll.
//!
//! # Example
//!
//! ```
//! use gsino_core::pipeline::{run_gsino, GsinoConfig};
//! use gsino_grid::{Circuit, Net, Point, Rect};
//!
//! # fn main() -> Result<(), gsino_core::CoreError> {
//! let die = Rect::new(Point::new(0.0, 0.0), Point::new(512.0, 512.0))?;
//! let nets: Vec<Net> = (0..40)
//!     .map(|i| {
//!         let x = 16.0 + (i as f64 * 37.0) % 480.0;
//!         let y = 16.0 + (i as f64 * 53.0) % 480.0;
//!         Net::two_pin(i, Point::new(x, y), Point::new(500.0 - x, 500.0 - y))
//!     })
//!     .collect();
//! let circuit = Circuit::new("demo", die, nets)?;
//! let outcome = run_gsino(&circuit, &GsinoConfig::default())?;
//! assert_eq!(outcome.violations.violating_nets(), 0);
//! # Ok(())
//! # }
//! ```
//!
//! # Architecture
//!
//! The pipeline-wide map — which phase this crate serves and the
//! incremental-engine contracts shared across the workspace — lives in
//! `ARCHITECTURE.md` at the repository root.

pub mod analysis;
pub mod baseline;
pub mod budget;
pub mod cancel;
pub mod metrics;
pub mod phase2;
pub mod pipeline;
pub mod refine;
pub mod router;
pub mod service;
pub mod session;
pub mod violations;
mod worklist;

pub use baseline::{run_id_no, run_isino};
pub use cancel::CancelToken;
pub use pipeline::{run_gsino, GsinoConfig, GsinoConfigBuilder, GsinoOutcome};
pub use router::Weights;
pub use service::{
    EditReceipt, LatencySummary, NetClient, NetServer, RoutingService, ServiceConfig,
    ServiceRequest, ServiceResponse, SessionHandle, SessionSnapshot, StatsReport,
};
pub use session::{EcoEdit, EcoSession, FaultKind, FaultPlan, OracleConfig, SessionStats};
pub use violations::ViolationReport;

use std::error::Error;
use std::fmt;

/// Errors produced by the GSINO flows.
///
/// Service clients should branch on [`CoreError::kind`] (stable,
/// `match`-friendly) rather than string-matching [`fmt::Display`] output;
/// [`CoreError::is_retryable`] names the subset a well-behaved client may
/// simply retry.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CoreError {
    /// Substrate (grid/net) errors.
    Grid(gsino_grid::GridError),
    /// SINO solver errors.
    Sino(gsino_sino::SinoError),
    /// LSK model errors.
    Lsk(gsino_lsk::LskError),
    /// The router could not connect a net's terminals (should not happen on
    /// well-formed corridors; indicates an internal bug).
    RoutingFailed {
        /// The offending net.
        net: u32,
    },
    /// Configuration errors (bad constraint, bad tile size, …).
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// An ECO edit or fault plan referenced an id absent from the live
    /// snapshot (stale net, out-of-range sink index, unknown region).
    UnknownId {
        /// What kind of id was looked up (`"net"`, `"sink"`, `"region"`).
        kind: &'static str,
        /// The offending id value.
        id: u64,
    },
    /// A phase driver observed a fired [`cancel::CancelToken`] and stopped
    /// cleanly; transactional callers restore their pre-edit state.
    Canceled {
        /// The phase that was interrupted.
        phase: &'static str,
    },
    /// Admission control: a [`service::RoutingService`] mailbox (or the
    /// service's session table) is at capacity; the request was rejected
    /// without being enqueued. Retry after backing off.
    Overloaded {
        /// The session whose mailbox was full, or the service name for
        /// session-table rejections.
        session: String,
        /// The capacity that was exhausted.
        capacity: usize,
    },
    /// The named session exists and cannot take this request right now
    /// (e.g. opening a session name that is already live). Retry once the
    /// holder releases the name.
    SessionBusy {
        /// The contended session name.
        session: String,
    },
    /// The named session is not (or no longer) served: it was closed,
    /// drained by shutdown, or never opened. Not retryable — the caller
    /// must re-open the session.
    SessionClosed {
        /// The session name.
        session: String,
    },
    /// A workload exceeded an index width or resource ceiling of the
    /// flat-array cores (u32 region/net/edge indices, CSR offsets). The
    /// request is deterministic — the same workload fails the same way —
    /// so this is not retryable; shrink the workload or raise the limit.
    TooLarge {
        /// What overflowed (`"regions"`, `"edges"`, `"connections"`, …).
        what: &'static str,
        /// The value that did not fit.
        value: u64,
        /// The maximum the index width admits.
        limit: u64,
    },
    /// An error received over the wire from a remote routing service,
    /// carried verbatim. When the remote kind string is one this build
    /// knows, [`CoreError::kind`] maps it back to the matching
    /// [`ErrorKind`]; unknown strings (a newer server) classify as
    /// [`ErrorKind::Remote`] and keep the transmitted retryability.
    Remote {
        /// The remote error's kind string (see [`ErrorKind::as_str`]).
        kind: String,
        /// The remote error's [`CoreError::is_retryable`] flag.
        retryable: bool,
        /// The remote error's display message.
        message: String,
    },
}

/// The stable, data-free classification of a [`CoreError`] — what service
/// clients branch on instead of string-matching display output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// [`CoreError::Grid`].
    Grid,
    /// [`CoreError::Sino`].
    Sino,
    /// [`CoreError::Lsk`].
    Lsk,
    /// [`CoreError::RoutingFailed`].
    RoutingFailed,
    /// [`CoreError::BadConfig`].
    BadConfig,
    /// [`CoreError::UnknownId`].
    UnknownId,
    /// [`CoreError::Canceled`].
    Canceled,
    /// [`CoreError::Overloaded`].
    Overloaded,
    /// [`CoreError::SessionBusy`].
    SessionBusy,
    /// [`CoreError::SessionClosed`].
    SessionClosed,
    /// [`CoreError::TooLarge`].
    TooLarge,
    /// [`CoreError::Remote`] whose kind string no known kind claims — an
    /// error forwarded by a remote peer speaking a newer vocabulary.
    Remote,
}

impl ErrorKind {
    /// The stable wire string for this kind — the `err.kind` field of the
    /// wire protocol (`PROTOCOL.md`). The strings are snake_case, never
    /// reused, and never change meaning; see [`CoreError::kind`] for the
    /// full table.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Grid => "grid",
            ErrorKind::Sino => "sino",
            ErrorKind::Lsk => "lsk",
            ErrorKind::RoutingFailed => "routing_failed",
            ErrorKind::BadConfig => "bad_config",
            ErrorKind::UnknownId => "unknown_id",
            ErrorKind::Canceled => "canceled",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::SessionBusy => "session_busy",
            ErrorKind::SessionClosed => "session_closed",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Remote => "remote",
        }
    }

    /// Parses a wire kind string back to its kind. Unknown strings (from a
    /// peer speaking a newer protocol revision) map to
    /// [`ErrorKind::Remote`] rather than failing, so old clients degrade
    /// gracefully.
    pub fn parse(s: &str) -> ErrorKind {
        match s {
            "grid" => ErrorKind::Grid,
            "sino" => ErrorKind::Sino,
            "lsk" => ErrorKind::Lsk,
            "routing_failed" => ErrorKind::RoutingFailed,
            "bad_config" => ErrorKind::BadConfig,
            "unknown_id" => ErrorKind::UnknownId,
            "canceled" => ErrorKind::Canceled,
            "overloaded" => ErrorKind::Overloaded,
            "session_busy" => ErrorKind::SessionBusy,
            "session_closed" => ErrorKind::SessionClosed,
            "too_large" => ErrorKind::TooLarge,
            _ => ErrorKind::Remote,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl CoreError {
    /// This error's stable classification.
    ///
    /// The mapping is one variant → one kind and is part of the public
    /// API contract: clients can `match` on it across versions without
    /// caring about the payload fields. The kind strings below are the
    /// wire protocol's `err.kind` vocabulary (`PROTOCOL.md`) and are
    /// pinned by a unit test — they never change meaning or casing:
    ///
    /// | Kind | Wire string | Retryable |
    /// |------|-------------|-----------|
    /// | [`ErrorKind::Grid`] | `grid` | no |
    /// | [`ErrorKind::Sino`] | `sino` | no |
    /// | [`ErrorKind::Lsk`] | `lsk` | no |
    /// | [`ErrorKind::RoutingFailed`] | `routing_failed` | no |
    /// | [`ErrorKind::BadConfig`] | `bad_config` | no |
    /// | [`ErrorKind::UnknownId`] | `unknown_id` | no |
    /// | [`ErrorKind::Canceled`] | `canceled` | yes |
    /// | [`ErrorKind::Overloaded`] | `overloaded` | yes |
    /// | [`ErrorKind::SessionBusy`] | `session_busy` | yes |
    /// | [`ErrorKind::SessionClosed`] | `session_closed` | no |
    /// | [`ErrorKind::TooLarge`] | `too_large` | no |
    /// | [`ErrorKind::Remote`] | `remote` | carried flag |
    ///
    /// A [`CoreError::Remote`] whose carried kind string is in the table
    /// classifies as that kind (`Remote` is the unknown-string fallback),
    /// and its retryability is the transmitted flag, not the table column.
    pub fn kind(&self) -> ErrorKind {
        match self {
            CoreError::Grid(_) => ErrorKind::Grid,
            CoreError::Sino(_) => ErrorKind::Sino,
            CoreError::Lsk(_) => ErrorKind::Lsk,
            CoreError::RoutingFailed { .. } => ErrorKind::RoutingFailed,
            CoreError::BadConfig { .. } => ErrorKind::BadConfig,
            CoreError::UnknownId { .. } => ErrorKind::UnknownId,
            CoreError::Canceled { .. } => ErrorKind::Canceled,
            CoreError::Overloaded { .. } => ErrorKind::Overloaded,
            CoreError::SessionBusy { .. } => ErrorKind::SessionBusy,
            CoreError::SessionClosed { .. } => ErrorKind::SessionClosed,
            CoreError::TooLarge { .. } => ErrorKind::TooLarge,
            CoreError::Remote { kind, .. } => ErrorKind::parse(kind),
        }
    }

    /// Whether a client may retry the failed request unchanged and expect
    /// it to eventually succeed.
    ///
    /// The retryable set is exactly:
    ///
    /// * [`ErrorKind::Overloaded`] — transient backpressure; the mailbox
    ///   drains as the session catches up,
    /// * [`ErrorKind::SessionBusy`] — transient name contention,
    /// * [`ErrorKind::Canceled`] — a deadline fired; the session rolled
    ///   back to its pre-batch state, so the same request can be resubmitted
    ///   with a larger budget.
    ///
    /// Everything else is deterministic — the same request fails the same
    /// way — or indicates lost state ([`ErrorKind::SessionClosed`]) that a
    /// retry cannot recover.
    ///
    /// [`CoreError::Remote`] errors report the flag the remote service
    /// transmitted, so retryability survives a wire hop even for kinds
    /// this build does not know.
    pub fn is_retryable(&self) -> bool {
        if let CoreError::Remote { retryable, .. } = self {
            return *retryable;
        }
        matches!(
            self.kind(),
            ErrorKind::Overloaded | ErrorKind::SessionBusy | ErrorKind::Canceled
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Grid(e) => write!(f, "grid error: {e}"),
            CoreError::Sino(e) => write!(f, "sino error: {e}"),
            CoreError::Lsk(e) => write!(f, "lsk error: {e}"),
            CoreError::RoutingFailed { net } => write!(f, "failed to route net {net}"),
            CoreError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
            CoreError::UnknownId { kind, id } => {
                write!(f, "unknown {kind} id {id} in edit against live snapshot")
            }
            CoreError::Canceled { phase } => {
                write!(f, "canceled during {phase} (deadline or explicit cancel)")
            }
            CoreError::Overloaded { session, capacity } => {
                write!(
                    f,
                    "session `{session}` overloaded: mailbox at capacity {capacity}"
                )
            }
            CoreError::SessionBusy { session } => {
                write!(f, "session `{session}` is busy (name already in use)")
            }
            CoreError::SessionClosed { session } => {
                write!(f, "session `{session}` is closed or was never opened")
            }
            CoreError::TooLarge { what, value, limit } => {
                write!(f, "{what} count {value} exceeds the index limit {limit}")
            }
            CoreError::Remote { kind, message, .. } => {
                write!(f, "remote error [{kind}]: {message}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Grid(e) => Some(e),
            CoreError::Sino(e) => Some(e),
            CoreError::Lsk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gsino_grid::GridError> for CoreError {
    fn from(e: gsino_grid::GridError) -> Self {
        // Overflow of the shared u32 index space classifies uniformly as
        // `TooLarge` no matter which layer detected it.
        match e {
            gsino_grid::GridError::TooLarge { what, value, limit } => {
                CoreError::TooLarge { what, value, limit }
            }
            other => CoreError::Grid(other),
        }
    }
}

impl From<gsino_sino::SinoError> for CoreError {
    fn from(e: gsino_sino::SinoError) -> Self {
        CoreError::Sino(e)
    }
}

impl From<gsino_lsk::LskError> for CoreError {
    fn from(e: gsino_lsk::LskError) -> Self {
        CoreError::Lsk(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;

/// Checked narrowing into the `u32` index space of the flat-array cores.
///
/// Regions, nets, connections, corridor edges and CSR slots are all
/// indexed with `u32`; this is the boundary check that turns a workload
/// too large for that into a typed [`CoreError::TooLarge`] instead of a
/// silent wrap. It runs once per batch at construction/entry points — hot
/// loops keep plain casts guarded by `debug_assert!`s.
pub fn checked_index_u32(what: &'static str, value: usize) -> Result<u32> {
    u32::try_from(value).map_err(|_| CoreError::TooLarge {
        what,
        value: value as u64,
        limit: u32::MAX as u64,
    })
}

#[cfg(test)]
mod error_kind_tests {
    use super::*;

    /// Every kind string is pinned: changing one is a wire-protocol break
    /// and must fail here first. Mirrors the table on [`CoreError::kind`]
    /// and `PROTOCOL.md`.
    #[test]
    fn kind_strings_are_stable() {
        let pinned = [
            (ErrorKind::Grid, "grid"),
            (ErrorKind::Sino, "sino"),
            (ErrorKind::Lsk, "lsk"),
            (ErrorKind::RoutingFailed, "routing_failed"),
            (ErrorKind::BadConfig, "bad_config"),
            (ErrorKind::UnknownId, "unknown_id"),
            (ErrorKind::Canceled, "canceled"),
            (ErrorKind::Overloaded, "overloaded"),
            (ErrorKind::SessionBusy, "session_busy"),
            (ErrorKind::SessionClosed, "session_closed"),
            (ErrorKind::TooLarge, "too_large"),
            (ErrorKind::Remote, "remote"),
        ];
        for (kind, s) in pinned {
            assert_eq!(kind.as_str(), s, "{kind:?}");
            assert_eq!(ErrorKind::parse(s), kind, "{s}");
            assert_eq!(kind.to_string(), s);
        }
        assert_eq!(ErrorKind::parse("a_future_kind"), ErrorKind::Remote);
    }

    #[test]
    fn too_large_is_typed_and_not_retryable() {
        let from_grid: CoreError = gsino_grid::GridError::TooLarge {
            what: "regions",
            value: 1 << 40,
            limit: u32::MAX as u64,
        }
        .into();
        assert_eq!(from_grid.kind(), ErrorKind::TooLarge);
        assert!(!from_grid.is_retryable());
        let direct = CoreError::TooLarge {
            what: "edges",
            value: 5_000_000_000,
            limit: u32::MAX as u64,
        };
        assert_eq!(direct.kind(), ErrorKind::TooLarge);
        assert!(!direct.is_retryable());
        assert_eq!(
            direct.to_string(),
            "edges count 5000000000 exceeds the index limit 4294967295"
        );
    }

    #[test]
    fn remote_errors_carry_kind_and_retryability() {
        let known = CoreError::Remote {
            kind: "overloaded".into(),
            retryable: true,
            message: "mailbox full".into(),
        };
        assert_eq!(known.kind(), ErrorKind::Overloaded);
        assert!(known.is_retryable());

        // The transmitted flag wins over the local table.
        let pinned_flag = CoreError::Remote {
            kind: "overloaded".into(),
            retryable: false,
            message: "server says stop".into(),
        };
        assert_eq!(pinned_flag.kind(), ErrorKind::Overloaded);
        assert!(!pinned_flag.is_retryable());

        let unknown = CoreError::Remote {
            kind: "quota_exceeded".into(),
            retryable: true,
            message: "from the future".into(),
        };
        assert_eq!(unknown.kind(), ErrorKind::Remote);
        assert!(unknown.is_retryable());
        assert_eq!(
            unknown.to_string(),
            "remote error [quota_exceeded]: from the future"
        );
    }
}
