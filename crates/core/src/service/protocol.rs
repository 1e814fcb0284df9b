//! The typed request/response vocabulary of the routing service, plus the
//! internal envelope that carries a request through its session's queue.

use crate::pipeline::GsinoConfig;
use crate::session::{EcoEdit, EditClass, SessionStats};
use crate::Result;
use gsino_grid::net::Circuit;
use serde::{Deserialize, Serialize};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

/// One request against a [`RoutingService`](super::RoutingService)
/// session — the service's entire public verb set.
///
/// [`ServiceRequest::Open`] and [`ServiceRequest::Close`] are
/// service-level (they create or retire the session itself) and are
/// routed by [`RoutingService::submit`](super::RoutingService::submit);
/// the rest travel through the session's bounded queue and execute in
/// FIFO order on whichever pool worker serves the session.
#[derive(Debug, Clone)]
pub enum ServiceRequest {
    /// Route `circuit` from scratch under `config` and serve the result as
    /// a named session. The flow runs **as the session's first slice on
    /// the worker pool**, so opening returns immediately and concurrent
    /// opens build in parallel (up to the pool size); requests submitted
    /// before the build finishes simply wait in the session's queue. If
    /// the build fails, every queued and subsequent request is
    /// answered with the build error (or [`CoreError::SessionClosed`]),
    /// and closing the session surfaces it.
    ///
    /// [`CoreError::SessionClosed`]: crate::CoreError::SessionClosed
    Open {
        /// The circuit to route.
        circuit: Box<Circuit>,
        /// The flow configuration.
        config: Box<GsinoConfig>,
    },
    /// Commit a batch of ECO edits as **one transaction** (the whole
    /// request succeeds or leaves the session bitwise unchanged). The
    /// worker may additionally coalesce several queued `Edit` requests of
    /// the same [`EditClass`] into a single transactional replay — see
    /// [`EditReceipt`] for the observable batching evidence.
    Edit(Vec<EcoEdit>),
    /// Read a cheap summary of the session's current committed state.
    Query,
    /// Read the session's service-level health counters: current queue
    /// depth, lifetime [`SessionStats`], and latency summaries over the
    /// recent commit window. Cheaper than [`ServiceRequest::Query`] (no
    /// violation scan); meant for monitoring loops.
    Stats,
    /// Run a full (100%-sampled) oracle audit of the session's caches,
    /// recovering by degraded replay if anything diverged.
    Verify,
    /// Drain nothing further: reply with final stats and retire the
    /// session. The underlying [`EcoSession`](crate::session::EcoSession)
    /// is returned by [`RoutingService::close`](super::RoutingService::close).
    Close,
}

/// The success payload paired with each [`ServiceRequest`] variant.
#[derive(Debug, Clone)]
pub enum ServiceResponse {
    /// [`ServiceRequest::Open`] accepted; the named session is building.
    Opened {
        /// The session name.
        session: String,
    },
    /// [`ServiceRequest::Edit`] committed.
    Committed(EditReceipt),
    /// [`ServiceRequest::Query`] result.
    Snapshot(SessionSnapshot),
    /// [`ServiceRequest::Stats`] result.
    Stats(StatsReport),
    /// [`ServiceRequest::Verify`] result.
    Verified {
        /// `true` if every sampled artifact matched the reference engines;
        /// `false` if a divergence was detected (and already recovered by
        /// degraded replay).
        clean: bool,
    },
    /// [`ServiceRequest::Close`] honoured; the session has retired.
    Closed {
        /// The session name.
        session: String,
        /// Final lifetime counters.
        stats: SessionStats,
    },
}

/// Proof of one committed [`ServiceRequest::Edit`]: what was replayed,
/// with whom it shared the transaction, and how long it waited.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EditReceipt {
    /// Edits carried by *this* request.
    pub edits: usize,
    /// Requests coalesced into the committed transaction (≥ 1; `> 1`
    /// means this commit was shared — see [`Self::coalesced`]).
    pub batch_requests: usize,
    /// Total edits across the committed transaction.
    pub batch_edits: usize,
    /// The replay rung the transaction ran at (every coalesced request
    /// shares it by construction — only same-class requests batch).
    pub class: EditClass,
    /// Milliseconds this request waited in the mailbox before its batch
    /// was dequeued.
    pub queue_ms: f64,
    /// Milliseconds the shared transactional replay took (begin → commit
    /// installed).
    pub commit_ms: f64,
}

impl EditReceipt {
    /// Whether this request's commit was shared with at least one other
    /// request — the observable evidence of request batching.
    pub fn coalesced(&self) -> bool {
        self.batch_requests > 1
    }
}

/// A cheap read-only summary of a session's committed state — the
/// [`ServiceRequest::Query`] payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session name.
    pub session: String,
    /// Nets in the tracked circuit.
    pub nets: usize,
    /// Whether the committed state meets every sink's constraint.
    pub clean: bool,
    /// Nets with at least one violating sink.
    pub violating_nets: usize,
    /// Lifetime counters at snapshot time.
    pub stats: SessionStats,
    /// The most recent divergence the session's oracle detected, if any.
    pub last_divergence: Option<String>,
}

/// The service-level health counters of one live session — the
/// [`ServiceRequest::Stats`] payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// The session name.
    pub session: String,
    /// Envelopes waiting in the mailbox at report time (excludes the
    /// `Stats` request itself, already dequeued).
    pub queue_depth: usize,
    /// Lifetime session counters.
    pub stats: SessionStats,
    /// Mailbox wait latency over the recent commit window.
    pub queue_ms: LatencySummary,
    /// Transactional replay latency over the recent commit window.
    pub commit_ms: LatencySummary,
    /// Requests answered [`CoreError::Canceled`](crate::CoreError::Canceled)
    /// while still queued (deadline fired before dispatch). Each such
    /// request also contributes one sample to [`Self::queue_ms`], so the
    /// wait of everything leaving the queue is accounted exactly once:
    /// `queue_ms.count == committed batch members + canceled_in_queue`.
    /// Absent on the wire from pre-pool servers (defaults to 0).
    #[serde(default)]
    pub canceled_in_queue: u64,
    /// Scheduler-wide pool gauges (shared by every session; repeated in
    /// each report for the monitoring loop's convenience). Absent on the
    /// wire from pre-pool servers (defaults to an empty pool).
    #[serde(default)]
    pub pool: PoolStats,
}

/// Point-in-time gauges of the shared worker pool — the scheduler-wide
/// half of a [`StatsReport`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PoolStats {
    /// Workers in the fixed pool.
    pub pool_threads: usize,
    /// Always 0. The pool has one shared FIFO run queue and no
    /// per-worker deques to steal from; the field stays so existing
    /// clients and reports that read it keep parsing.
    pub steals: u64,
    /// Lifetime count of idle waits: each time a pool worker found the
    /// run queue empty and waited for a session to become runnable (a
    /// quiet pool has every worker waiting and burns ~zero CPU until the
    /// next submission).
    pub parks: u64,
    /// Sessions currently in the pool run queue, excluding the one
    /// serving this request.
    pub runnable_sessions: usize,
    /// Detected violations of the session-pinning invariant (a session
    /// observed on two workers at once). Always 0; a non-zero value is a
    /// scheduler bug, surfaced here so stress tests and operators can
    /// assert on it.
    pub pinning_violations: u64,
    /// Milliseconds since the pool was spawned.
    pub uptime_ms: f64,
    /// Per-worker utilization gauges, indexed by worker id.
    pub workers: Vec<WorkerGauge>,
}

/// One pool worker's utilization gauges.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkerGauge {
    /// Session slices this worker has executed.
    pub tasks: u64,
    /// Milliseconds spent executing slices (vs. waiting for work).
    pub busy_ms: f64,
}

/// An order-statistics summary of a latency sample window.
///
/// [`Self::count`] is the **cumulative** number of samples ever observed;
/// the percentiles describe the most recent window (the worker keeps the
/// last 256 samples). An empty window reports zeros.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Cumulative samples observed over the session's lifetime.
    pub count: u64,
    /// Mean over the recent window (ms).
    pub mean_ms: f64,
    /// Median over the recent window (ms).
    pub p50_ms: f64,
    /// 95th percentile over the recent window (ms).
    pub p95_ms: f64,
    /// Maximum over the recent window (ms).
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes a sample window; `count` is supplied by the caller
    /// because the window may have dropped old samples.
    pub(crate) fn from_window(count: u64, window: &[f64]) -> Self {
        if window.is_empty() {
            return LatencySummary {
                count,
                ..LatencySummary::default()
            };
        }
        let mut sorted = window.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = |q: f64| -> f64 {
            let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        LatencySummary {
            count,
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: rank(0.50),
            p95_ms: rank(0.95),
            max_ms: *sorted.last().expect("non-empty window"),
        }
    }
}

/// Where a worker sends a request's outcome. A dropped receiver is fine
/// in either form; the send error is ignored.
#[derive(Debug, Clone)]
pub(crate) enum ReplyTo {
    /// An in-process caller blocked on its own one-shot channel
    /// ([`SessionHandle::submit`](super::SessionHandle::submit)).
    Local(Sender<Result<ServiceResponse>>),
    /// A connection writer multiplexing many in-flight requests: the
    /// outcome is tagged with the request's correlation id so pipelined
    /// requests may resolve out of submission order (batch members all
    /// complete at their shared commit).
    Tagged {
        /// The client-chosen correlation id, echoed verbatim.
        id: u64,
        /// The connection's shared outcome channel.
        tx: Sender<(u64, Result<ServiceResponse>)>,
    },
}

impl ReplyTo {
    /// Delivers one outcome, consuming the reply slot.
    pub(crate) fn send(self, outcome: Result<ServiceResponse>) {
        match self {
            ReplyTo::Local(tx) => {
                let _ = tx.send(outcome);
            }
            ReplyTo::Tagged { id, tx } => {
                let _ = tx.send((id, outcome));
            }
        }
    }
}

/// What actually travels through a session mailbox: a request plus its
/// reply channel and deadline bookkeeping, or the test/bench quiesce
/// control message.
pub(crate) enum Envelope {
    /// A client request awaiting a reply.
    Request {
        /// The request (never [`ServiceRequest::Open`] — handles reject it
        /// before sending).
        req: ServiceRequest,
        /// Where the worker sends the outcome.
        reply: ReplyTo,
        /// Absolute deadline measured from submission. Expired requests
        /// are answered [`CoreError::Canceled`](crate::CoreError::Canceled)
        /// at dequeue without joining any batch; live ones thread the
        /// batch's minimum deadline into the replay's
        /// [`CancelToken`](crate::cancel::CancelToken).
        deadline: Option<Instant>,
        /// When the client submitted (for queue-latency accounting).
        submitted: Instant,
    },
    /// Pause the worker: acknowledge on `ack` (proving everything queued
    /// earlier has been processed), then block until `resume` yields or
    /// disconnects. Lets tests and benches stage a burst of requests that
    /// is *guaranteed* to be dequeued as one coalescing drain.
    Quiesce {
        /// Acknowledged once the worker dequeues this envelope.
        ack: Sender<()>,
        /// The worker resumes when this yields a value or disconnects.
        resume: Receiver<()>,
    },
}
