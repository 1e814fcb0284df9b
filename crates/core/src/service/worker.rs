//! The session task: the slice of session-serving logic a pool worker
//! executes when it claims a runnable [`SessionCell`]. Drains the
//! session's queue in FIFO order, coalescing compatible edit requests
//! into shared transactional replays.

use super::protocol::{
    Envelope, LatencySummary, ReplyTo, ServiceRequest, ServiceResponse, StatsReport,
};
use super::scheduler::{PoolShared, SessionCell, QUANTUM};
use super::{EditReceipt, SessionSnapshot};
use crate::cancel::CancelToken;
use crate::pipeline::GsinoConfig;
use crate::session::{EcoEdit, EcoSession, EditClass};
use crate::{CoreError, Result};
use gsino_grid::net::Circuit;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

/// A session body as the scheduler sees it: a spec awaiting its
/// from-scratch build, a live session, or a retired slot.
pub(crate) enum Body {
    /// Opened but not yet built; the first slice that claims the cell
    /// runs the expensive from-scratch flow.
    Unbuilt {
        circuit: Box<Circuit>,
        config: Box<GsinoConfig>,
    },
    /// Built and serving.
    Live(Box<LiveBody>),
    /// Retired (closed, build failed, or drained at shutdown).
    Retired,
}

/// The state a live session accumulates across slices (owned by whichever
/// worker currently has the cell pinned).
pub(crate) struct LiveBody {
    session: EcoSession,
    /// Queue-wait latency window: one sample per committed batch member
    /// plus one per request canceled in-queue (so operators see the wait
    /// of everything that *left* the queue with a definite outcome).
    queue_ring: SampleRing,
    /// Shared-commit latency window: one sample per transactional replay.
    commit_ring: SampleRing,
    /// Requests answered [`CoreError::Canceled`] while still queued
    /// (their deadline fired before dispatch). They never touch the
    /// session; this counter plus the queue-wait sample is their only
    /// trace.
    canceled_in_queue: u64,
}

/// A bounded window of latency samples with a cumulative count — the
/// source of one [`LatencySummary`].
struct SampleRing {
    window: Vec<f64>,
    next: usize,
    count: u64,
}

/// Recent-window size of the session's latency rings (documented on
/// [`LatencySummary`]).
const RING_CAPACITY: usize = 256;

impl SampleRing {
    fn new() -> Self {
        SampleRing {
            window: Vec::with_capacity(RING_CAPACITY),
            next: 0,
            count: 0,
        }
    }

    fn push(&mut self, sample: f64) {
        self.count += 1;
        if self.window.len() < RING_CAPACITY {
            self.window.push(sample);
        } else {
            self.window[self.next] = sample;
            self.next = (self.next + 1) % RING_CAPACITY;
        }
    }

    fn summary(&self) -> LatencySummary {
        LatencySummary::from_window(self.count, &self.window)
    }
}

/// A popped request's reply slot. Dropping it unanswered, as a slice
/// that panics does while it unwinds, answers
/// [`CoreError::SessionClosed`], so no caller, local or on the wire,
/// waits for a reply that never comes.
struct Owed<'a> {
    reply: Option<ReplyTo>,
    session: &'a str,
}

impl Owed<'_> {
    fn send(mut self, outcome: Result<ServiceResponse>) {
        if let Some(reply) = self.reply.take() {
            reply.send(outcome);
        }
    }
}

impl Drop for Owed<'_> {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            reply.send(Err(CoreError::SessionClosed {
                session: self.session.to_string(),
            }));
        }
    }
}

/// An envelope taken off a session's queue, its reply [`Owed`].
enum Job<'a> {
    Quiesce {
        ack: Sender<()>,
        resume: Receiver<()>,
    },
    Request {
        req: ServiceRequest,
        reply: Owed<'a>,
        deadline: Option<Instant>,
        submitted: Instant,
    },
}

/// Pops the session's next envelope (pinned worker only).
fn next_job(cell: &SessionCell) -> Option<Job<'_>> {
    Some(match cell.pop()? {
        Envelope::Quiesce { ack, resume } => Job::Quiesce { ack, resume },
        Envelope::Request {
            req,
            reply,
            deadline,
            submitted,
        } => Job::Request {
            req,
            reply: Owed {
                reply: Some(reply),
                session: &cell.name,
            },
            deadline,
            submitted,
        },
    })
}

/// Executes one slice: builds the session if this is the cell's first
/// claim, then serves up to [`QUANTUM`] envelopes from its queue, until
/// the queue is empty or the session retires. Whether the cell runs
/// again is the scheduler's call, made from the queue length alone.
///
/// Invariant: the slice never leaves an open transaction behind — every
/// edit batch ends in `commit_with` (which consumes the transaction on
/// success *and* failure) or an explicit rollback — so
/// `in_transaction()` is `false` at every envelope boundary and a
/// session can migrate between workers at any slice boundary.
pub(crate) fn run_slice(cell: &SessionCell, pool: &PoolShared) {
    let mut body = cell
        .body
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Body::Unbuilt { .. } = &*body {
        let Body::Unbuilt { circuit, config } = std::mem::replace(&mut *body, Body::Retired) else {
            unreachable!("matched Unbuilt above");
        };
        match EcoSession::new(&circuit, &config) {
            Ok(session) => {
                *body = Body::Live(Box::new(LiveBody {
                    session,
                    queue_ring: SampleRing::new(),
                    commit_ring: SampleRing::new(),
                    canceled_in_queue: 0,
                }));
            }
            Err(e) => {
                // Everything already queued is answered with the build
                // error; later submitters observe SessionClosed (the
                // retired latch), and close() surfaces the error.
                cell.retire(Err(e.clone()), &e);
                return;
            }
        }
    }
    let mut processed = 0usize;
    // An envelope pulled out of a coalescing drain because it was
    // incompatible with the batch; served next so FIFO order holds.
    let mut carry: Option<Job<'_>> = None;
    loop {
        // Re-borrowed each iteration so the Close arm below can take the
        // whole body out of the cell.
        let live = match &mut *body {
            Body::Live(live) => live,
            // Defensive: a retired cell's queue is empty and no push
            // can queue it again, so no slice should reach this.
            Body::Retired => return,
            Body::Unbuilt { .. } => unreachable!("built above"),
        };
        let job = match carry.take() {
            Some(job) => job,
            None => {
                if processed >= QUANTUM {
                    return;
                }
                match next_job(cell) {
                    Some(job) => job,
                    None => return,
                }
            }
        };
        processed += 1;
        match job {
            Job::Quiesce { ack, resume } => {
                // The worker (not just the session) blocks here by
                // design: quiesce is a test/bench affordance for staging
                // deterministic bursts, documented as capable of
                // starving a small pool while held.
                let _ = ack.send(());
                let _ = resume.recv();
            }
            Job::Request {
                req,
                reply,
                deadline,
                submitted,
            } => {
                if expired(deadline) {
                    cancel_in_queue(live, reply, submitted);
                    continue;
                }
                match req {
                    ServiceRequest::Edit(edits) => {
                        let first = Member {
                            edits,
                            reply,
                            deadline,
                            submitted,
                        };
                        let (next, drained) = serve_edits(cell, live, first);
                        carry = next;
                        processed += drained;
                        debug_assert!(!live.session.in_transaction());
                    }
                    ServiceRequest::Query => {
                        reply.send(Ok(ServiceResponse::Snapshot(snapshot(
                            &cell.name,
                            &live.session,
                        ))));
                    }
                    ServiceRequest::Stats => {
                        reply.send(Ok(ServiceResponse::Stats(StatsReport {
                            session: cell.name.clone(),
                            queue_depth: cell.depth(),
                            stats: *live.session.stats(),
                            queue_ms: live.queue_ring.summary(),
                            commit_ms: live.commit_ring.summary(),
                            canceled_in_queue: live.canceled_in_queue,
                            pool: pool.stats(),
                        })));
                    }
                    ServiceRequest::Verify => {
                        let outcome = live
                            .session
                            .verify_now()
                            .map(|clean| ServiceResponse::Verified { clean });
                        reply.send(outcome);
                    }
                    ServiceRequest::Close => {
                        reply.send(Ok(ServiceResponse::Closed {
                            session: cell.name.clone(),
                            stats: *live.session.stats(),
                        }));
                        let Body::Live(live) = std::mem::replace(&mut *body, Body::Retired) else {
                            unreachable!("live above");
                        };
                        cell.retire(
                            Ok(live.session),
                            &CoreError::SessionClosed {
                                session: cell.name.clone(),
                            },
                        );
                        return;
                    }
                    ServiceRequest::Open { .. } => {
                        // Handles reject Open before sending; answer typed
                        // anyway rather than trusting the client side.
                        reply.send(Err(CoreError::BadConfig {
                            reason: "ServiceRequest::Open submitted to a live session".into(),
                        }));
                    }
                }
            }
        }
    }
}

/// One coalesced member of an edit batch.
struct Member<'a> {
    edits: Vec<EcoEdit>,
    reply: Owed<'a>,
    deadline: Option<Instant>,
    submitted: Instant,
}

/// Answers a request whose deadline fired while it was still queued, and
/// accounts for it consistently: the canceled-in-queue counter ticks and
/// the queue-wait window records how long it sat — the queue-depth gauge
/// needs no adjustment because it *is* the run-queue length.
fn cancel_in_queue(live: &mut LiveBody, reply: Owed<'_>, submitted: Instant) {
    live.canceled_in_queue += 1;
    live.queue_ring
        .push(submitted.elapsed().as_secs_f64() * 1e3);
    reply.send(Err(CoreError::Canceled { phase: "queue" }));
}

/// Serves one edit request, first greedily draining queued same-class
/// edit requests into the batch. Returns the first incompatible envelope
/// hit during the drain (served next by the slice loop) and the number of
/// extra envelopes drained (counted against the quantum).
fn serve_edits<'a>(
    cell: &'a SessionCell,
    live: &mut LiveBody,
    first: Member<'a>,
) -> (Option<Job<'a>>, usize) {
    let class = request_class(&first.edits);
    let mut batch = vec![first];
    let mut carry = None;
    let mut drained = 0usize;
    while let Some(job) = next_job(cell) {
        drained += 1;
        match job {
            Job::Request {
                req: ServiceRequest::Edit(edits),
                reply,
                deadline,
                submitted,
            } => {
                if expired(deadline) {
                    cancel_in_queue(live, reply, submitted);
                    continue;
                }
                if request_class(&edits) == class {
                    batch.push(Member {
                        edits,
                        reply,
                        deadline,
                        submitted,
                    });
                } else {
                    carry = Some(Job::Request {
                        req: ServiceRequest::Edit(edits),
                        reply,
                        deadline,
                        submitted,
                    });
                    break;
                }
            }
            other => {
                carry = Some(other);
                break;
            }
        }
    }
    #[cfg(test)]
    fault::fire(&cell.name);
    execute_batch(live, class, batch);
    (carry, drained)
}

/// Replays one coalesced batch as a single transaction, with per-request
/// atomicity: a request whose edit is rejected at apply time is answered
/// with that error and **dropped from the batch** (the transaction is
/// rolled back and the surviving requests re-applied in their original
/// FIFO order), while commit-time failures — a fired deadline, a solver
/// error — fail every surviving member together, the session keeping its
/// pre-batch state bit for bit (the [`EcoSession`] commit guarantee).
///
/// Re-apply order matters: edits are not generally commutative (two
/// overrides of the same sink last-write-wins), so survivors always
/// replay in submission order, which also makes the outcome independent
/// of *where* in the batch a rejected request sat.
fn execute_batch(live: &mut LiveBody, class: EditClass, batch: Vec<Member<'_>>) {
    let session = &mut live.session;
    let dequeued = Instant::now();
    let mut rejected: Vec<Option<CoreError>> = batch.iter().map(|_| None).collect();

    'retry: loop {
        session
            .begin()
            .expect("worker keeps no open transaction between requests");
        let mut any_live = false;
        for (i, member) in batch.iter().enumerate() {
            if rejected[i].is_some() {
                continue;
            }
            for edit in &member.edits {
                if let Err(err) = session.apply(edit.clone()) {
                    rejected[i] = Some(err);
                    session.rollback().expect("transaction is open");
                    continue 'retry;
                }
            }
            any_live = true;
        }
        if !any_live {
            // Every member was rejected; nothing to commit.
            session.rollback().expect("transaction is open");
        }
        break;
    }

    let live_idx: Vec<usize> = (0..batch.len())
        .filter(|&i| rejected[i].is_none())
        .collect();
    let mut committed: Result<()> = Ok(());
    let mut commit_ms = 0.0;
    if !live_idx.is_empty() {
        // The batch replays under the earliest member deadline: one shared
        // commit cannot honour two deadlines separately, and the guarantee
        // on failure (pre-batch bits) holds for everyone.
        let token = match live_idx.iter().filter_map(|&i| batch[i].deadline).min() {
            Some(deadline) => CancelToken::with_deadline_at(deadline),
            None => CancelToken::never(),
        };
        let t0 = Instant::now();
        committed = session.commit_with(&token);
        commit_ms = t0.elapsed().as_secs_f64() * 1e3;
        if committed.is_ok() {
            live.commit_ring.push(commit_ms);
        }
    }
    debug_assert!(!live.session.in_transaction());

    let batch_requests = live_idx.len();
    let batch_edits: usize = live_idx.iter().map(|&i| batch[i].edits.len()).sum();
    for (i, member) in batch.into_iter().enumerate() {
        let outcome = match rejected[i].take() {
            Some(err) => Err(err),
            None => match &committed {
                Ok(()) => {
                    let queue_ms = dequeued.duration_since(member.submitted).as_secs_f64() * 1e3;
                    live.queue_ring.push(queue_ms);
                    Ok(ServiceResponse::Committed(EditReceipt {
                        edits: member.edits.len(),
                        batch_requests,
                        batch_edits,
                        class,
                        queue_ms,
                        commit_ms,
                    }))
                }
                Err(e) => Err(e.clone()),
            },
        };
        member.reply.send(outcome);
    }
}

/// The replay rung a whole request demands: the max over its edits (an
/// empty request is budget-class — it commits an audited no-op). This is
/// the batching compatibility key.
fn request_class(edits: &[EcoEdit]) -> EditClass {
    edits
        .iter()
        .map(EcoEdit::class)
        .max()
        .unwrap_or(EditClass::BudgetOnly)
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn snapshot(name: &str, session: &EcoSession) -> SessionSnapshot {
    let report = session.violations();
    SessionSnapshot {
        session: name.to_string(),
        nets: session.circuit().nets().len(),
        clean: report.is_clean(),
        violating_nets: report.violating_nets(),
        stats: *session.stats(),
        last_divergence: session.last_divergence().map(str::to_string),
    }
}

/// Test-only fault injection: a panic in a named session's next edit
/// batch, with its members and any carried envelope in flight.
#[cfg(test)]
pub(crate) mod fault {
    use std::sync::{Mutex, PoisonError};

    static ARMED: Mutex<Vec<String>> = Mutex::new(Vec::new());

    /// Arms one panic for `session`.
    pub(crate) fn arm(session: &str) {
        ARMED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(session.to_string());
    }

    /// Panics once if `session` is armed.
    pub(super) fn fire(session: &str) {
        let mut armed = ARMED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = armed.iter().position(|s| s == session) {
            armed.swap_remove(i);
            drop(armed);
            panic!("injected fault in session {session}");
        }
    }
}
