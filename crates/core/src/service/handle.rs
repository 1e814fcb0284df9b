//! The client facade: a cloneable, thread-safe handle to one live
//! session's run queue.

use super::protocol::{Envelope, ReplyTo, ServiceRequest, ServiceResponse};
use super::scheduler::{PoolShared, SessionCell};
use super::{EditReceipt, SessionSnapshot, StatsReport};
use crate::session::EcoEdit;
use crate::{CoreError, Result};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A client handle to one live session of a
/// [`RoutingService`](super::RoutingService).
///
/// Handles are cheap to clone and every clone targets the same bounded
/// run queue, so any number of client threads can submit concurrently;
/// the scheduler pins the session to one pool worker at a time, which
/// serializes their requests in FIFO order. Submission **never blocks on
/// a full queue** — admission control answers [`CoreError::Overloaded`]
/// immediately and the client decides whether to back off and retry
/// ([`CoreError::is_retryable`]).
///
/// A handle outliving its session is safe: every method reports
/// [`CoreError::SessionClosed`] once the session has retired.
#[derive(Clone)]
pub struct SessionHandle {
    cell: Arc<SessionCell>,
    pool: Arc<PoolShared>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("session", &self.cell.name)
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    pub(crate) fn new(cell: Arc<SessionCell>, pool: Arc<PoolShared>) -> Self {
        SessionHandle { cell, pool }
    }

    /// The session name this handle targets.
    pub fn name(&self) -> &str {
        &self.cell.name
    }

    /// Submits one request and blocks until the session replies.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Overloaded`] — the run queue is full (retryable);
    /// * [`CoreError::SessionClosed`] — the session has retired;
    /// * [`CoreError::BadConfig`] — [`ServiceRequest::Open`] was passed (a
    ///   handle is bound to an already-open session; open through
    ///   [`RoutingService::open`](super::RoutingService::open));
    /// * whatever the request itself produces.
    pub fn submit(&self, req: ServiceRequest) -> Result<ServiceResponse> {
        self.call(req, None)
    }

    /// [`Self::submit`] with an absolute deadline. The deadline covers the
    /// whole round trip **from submission**: a request still queued when
    /// it passes is answered [`CoreError::Canceled`] without touching the
    /// session, and an [`ServiceRequest::Edit`] batch replays under a
    /// [`CancelToken`](crate::cancel::CancelToken) that fires at the
    /// batch's earliest member deadline.
    ///
    /// # Errors
    ///
    /// [`CoreError::Canceled`] once the deadline fires; otherwise as
    /// [`Self::submit`].
    pub fn submit_by(&self, req: ServiceRequest, deadline: Instant) -> Result<ServiceResponse> {
        self.call(req, Some(deadline))
    }

    /// Commits `edits` as one transaction; convenience over
    /// [`Self::submit`] that unwraps the receipt.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn edit(&self, edits: Vec<EcoEdit>) -> Result<EditReceipt> {
        match self.submit(ServiceRequest::Edit(edits))? {
            ServiceResponse::Committed(receipt) => Ok(receipt),
            other => Err(protocol_mismatch("Committed", &other)),
        }
    }

    /// [`Self::edit`] under a deadline `budget` measured from now.
    ///
    /// # Errors
    ///
    /// [`CoreError::Canceled`] once the budget elapses (the session keeps
    /// its pre-batch state, bit for bit); otherwise as [`Self::submit`].
    pub fn edit_within(&self, edits: Vec<EcoEdit>, budget: Duration) -> Result<EditReceipt> {
        match self.submit_by(ServiceRequest::Edit(edits), Instant::now() + budget)? {
            ServiceResponse::Committed(receipt) => Ok(receipt),
            other => Err(protocol_mismatch("Committed", &other)),
        }
    }

    /// Reads a summary of the session's committed state.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn query(&self) -> Result<SessionSnapshot> {
        match self.submit(ServiceRequest::Query)? {
            ServiceResponse::Snapshot(snap) => Ok(snap),
            other => Err(protocol_mismatch("Snapshot", &other)),
        }
    }

    /// Runs a full oracle audit; `Ok(true)` means everything matched the
    /// reference engines, `Ok(false)` means a divergence was detected and
    /// already recovered by degraded replay.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`], plus flow errors from a recovery rebuild.
    pub fn verify(&self) -> Result<bool> {
        match self.submit(ServiceRequest::Verify)? {
            ServiceResponse::Verified { clean } => Ok(clean),
            other => Err(protocol_mismatch("Verified", &other)),
        }
    }

    /// Reads the session's service-level health counters (queue depth,
    /// lifetime stats, recent latency summaries, pool gauges).
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn stats(&self) -> Result<StatsReport> {
        match self.submit(ServiceRequest::Stats)? {
            ServiceResponse::Stats(report) => Ok(report),
            other => Err(protocol_mismatch("Stats", &other)),
        }
    }

    /// Pauses the session until the returned guard is dropped (or
    /// [`QuiesceGuard::resume`]d). The call blocks until the session
    /// acknowledges — i.e. until everything submitted before it has been
    /// processed — so requests staged *while quiesced* are guaranteed to
    /// be dequeued together in one coalescing drain. A test/bench
    /// affordance for making batching deterministic; production clients
    /// never need it.
    ///
    /// The **pool worker serving the session blocks** for the quiesce's
    /// duration, so a held guard occupies one of the pool's
    /// [`pool_threads`](super::ServiceConfig::pool_threads) — on a
    /// one-worker pool it pauses the whole service.
    ///
    /// # Errors
    ///
    /// [`CoreError::Overloaded`] / [`CoreError::SessionClosed`] as
    /// [`Self::submit`].
    pub fn quiesce(&self) -> Result<QuiesceGuard> {
        let (ack_tx, ack_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel();
        self.cell.push(
            &self.pool,
            Envelope::Quiesce {
                ack: ack_tx,
                resume: resume_rx,
            },
        )?;
        ack_rx.recv().map_err(|_| CoreError::SessionClosed {
            session: self.cell.name.clone(),
        })?;
        Ok(QuiesceGuard {
            resume: Some(resume_tx),
        })
    }

    /// Submits one request and blocks on its one-shot reply channel.
    fn call(&self, req: ServiceRequest, deadline: Option<Instant>) -> Result<ServiceResponse> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.submit_to(req, deadline, ReplyTo::Local(reply_tx))?;
        reply_rx.recv().map_err(|_| CoreError::SessionClosed {
            session: self.cell.name.clone(),
        })?
    }

    /// Admission control for one request whose outcome resolves on
    /// `reply`: a per-call one-shot for [`Self::submit`], or the network
    /// front's correlation-id-tagged channel, which lets one connection
    /// writer multiplex many in-flight requests. A bounded push into the
    /// session's queue ([`CoreError::Overloaded`] when full,
    /// [`CoreError::SessionClosed`] when retired) that makes an idle
    /// session runnable; the error, if any, is returned here and never
    /// sent on `reply`.
    pub(crate) fn submit_to(
        &self,
        req: ServiceRequest,
        deadline: Option<Instant>,
        reply: ReplyTo,
    ) -> Result<()> {
        if matches!(req, ServiceRequest::Open { .. }) {
            return Err(CoreError::BadConfig {
                reason: "ServiceRequest::Open is service-level: a handle is bound to an \
                         already-open session (use RoutingService::open / submit)"
                    .into(),
            });
        }
        self.cell.push(
            &self.pool,
            Envelope::Request {
                req,
                reply,
                deadline,
                submitted: Instant::now(),
            },
        )
    }
}

/// Keeps a session paused; dropping it (or calling [`Self::resume`])
/// lets the serving worker drain everything staged meanwhile as one
/// batch. See [`SessionHandle::quiesce`].
#[derive(Debug)]
pub struct QuiesceGuard {
    resume: Option<Sender<()>>,
}

impl QuiesceGuard {
    /// Resumes the session (equivalent to dropping the guard, but reads
    /// better at call sites).
    pub fn resume(self) {}
}

impl Drop for QuiesceGuard {
    fn drop(&mut self) {
        if let Some(tx) = self.resume.take() {
            let _ = tx.send(());
        }
    }
}

/// The worker answered a request with the wrong response variant — an
/// internal protocol bug, surfaced as a typed error rather than a panic.
fn protocol_mismatch(expected: &str, got: &ServiceResponse) -> CoreError {
    debug_assert!(false, "protocol mismatch: expected {expected}, got {got:?}");
    CoreError::BadConfig {
        reason: format!("internal protocol mismatch: expected {expected}, got {got:?}"),
    }
}
