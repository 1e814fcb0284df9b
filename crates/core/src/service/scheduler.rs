//! The shared worker pool and its FIFO run queue.
//!
//! PR 7's execution model gave every session a dedicated OS thread; this
//! module replaces it with a **fixed pool** of workers that thousands of
//! mostly-idle sessions share. The unit of scheduling is a *session
//! slice*: one worker claims a runnable [`SessionCell`], drains up to
//! [`QUANTUM`] envelopes from its run queue through the unchanged
//! session-task logic in [`super::worker`], and either parks the session
//! (queue empty) or requeues it (quantum expired / new work arrived).
//!
//! # Topology
//!
//! ```text
//!   handles ──push──▶ per-session run queue (bounded, FIFO)
//!                     │ notify: Idle → Scheduled
//!                     ▼
//!   pool run queue (FIFO) ◀──new, yielded and dirtied sessions (back)
//!                     │ pop front
//!                     ▼
//!   workers 0..pool_threads   (park on a condvar when idle)
//! ```
//!
//! # Invariants
//!
//! * **Session pinning** — a session's envelopes execute on at most one
//!   worker at a time. The [`SessionCell`] state machine (`Idle` /
//!   `Scheduled` / `Running` / `Notified`) guarantees a cell is never in
//!   two run queues and never claimed twice: work arriving while the
//!   session runs only flips `Running → Notified`, and the finishing
//!   worker requeues exactly once. A redundant `running_guard` counter
//!   cross-checks the property at runtime ([`PoolStats::pinning_violations`]).
//! * **FIFO per session** — only the pinned worker pops the session's
//!   run queue, so requests execute in submission order exactly as the
//!   dedicated threads did, and same-[`EditClass`](crate::session::EditClass)
//!   coalescing drains see the identical envelope sequence. Outputs are
//!   therefore bit-identical to the thread-per-session baseline at any
//!   pool size.
//! * **Quiet pool burns ~zero CPU** — a worker that finds no task parks
//!   on a condvar keyed by a wake epoch (the epoch is read *before*
//!   scanning the queue, so a push between scan and park always bumps
//!   it and the park returns immediately: no lost wakeups).
//! * **Fairness** — every requeued session, whether its quantum expired
//!   or work arrived while it ran, goes to the back of the one run queue
//!   and waits behind every session already queued, so a hot session
//!   cannot starve the cold ones.

use super::protocol::{Envelope, PoolStats, ReplyTo, WorkerGauge};
use super::worker::{self, Body, SliceOutcome};
use crate::session::EcoSession;
use crate::{CoreError, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Envelopes a worker serves from one session before requeueing it —
/// the fairness quantum. Coalesced batch members count toward it, so a
/// burst-heavy session cannot monopolize a worker for more than one
/// quantum's worth of drained envelopes per claim.
pub(crate) const QUANTUM: usize = 16;

/// Session scheduling states (the pinning state machine).
mod state {
    /// Not queued, not running; the next notify schedules it.
    pub const IDLE: u8 = 0;
    /// In the pool run queue, awaiting a claim.
    pub const SCHEDULED: u8 = 1;
    /// A worker is executing its slice.
    pub const RUNNING: u8 = 2;
    /// Running, and work arrived meanwhile — requeue on completion.
    pub const NOTIFIED: u8 = 3;
}

/// The run queue plus the retirement latch, guarded together so an
/// enqueue can never slip past the retirement drain.
struct QueueState {
    q: VecDeque<Envelope>,
    retired: bool,
}

/// One session's scheduling identity: its bounded run queue, the pinning
/// state machine, the (scheduler-opaque) session body, and the
/// completion slot its retirement fills.
pub(crate) struct SessionCell {
    pub(crate) name: String,
    pub(crate) capacity: usize,
    queue: Mutex<QueueState>,
    state: AtomicU8,
    /// Redundant runtime cross-check of the pinning invariant; see
    /// [`PoolStats::pinning_violations`].
    running_guard: AtomicU32,
    /// The session itself (unbuilt spec → live session → retired). Only
    /// the pinned worker locks it, so the lock is uncontended; it exists
    /// to make the hand-off between workers across slices sound.
    pub(crate) body: Mutex<Body>,
    done: Mutex<Option<Result<EcoSession>>>,
    done_cv: Condvar,
}

impl SessionCell {
    pub(crate) fn new(name: String, capacity: usize, body: Body) -> Arc<Self> {
        Arc::new(SessionCell {
            name,
            capacity,
            queue: Mutex::new(QueueState {
                q: VecDeque::new(),
                retired: false,
            }),
            state: AtomicU8::new(state::IDLE),
            running_guard: AtomicU32::new(0),
            body: Mutex::new(body),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
        })
    }

    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admission-controlled enqueue: a full run queue answers
    /// [`CoreError::Overloaded`], a retired session
    /// [`CoreError::SessionClosed`]. The caller must follow a successful
    /// push with [`PoolShared::notify`] to make the work visible.
    pub(crate) fn push(&self, env: Envelope) -> Result<()> {
        let mut qs = self.lock_queue();
        if qs.retired {
            return Err(CoreError::SessionClosed {
                session: self.name.clone(),
            });
        }
        if qs.q.len() >= self.capacity {
            return Err(CoreError::Overloaded {
                session: self.name.clone(),
                capacity: self.capacity,
            });
        }
        qs.q.push_back(env);
        Ok(())
    }

    /// Enqueues a close **behind** everything pending, bypassing the
    /// capacity bound (close must never be bounced by a momentarily full
    /// queue). No-op on an already-retired session. Returns whether the
    /// envelope was enqueued.
    pub(crate) fn push_close(&self, env: Envelope) -> bool {
        let mut qs = self.lock_queue();
        if qs.retired {
            return false;
        }
        qs.q.push_back(env);
        true
    }

    /// Pops the next envelope in FIFO order (pinned worker only).
    pub(crate) fn pop(&self) -> Option<Envelope> {
        self.lock_queue().q.pop_front()
    }

    /// Envelopes currently queued. Exact by construction — the gauge
    /// *is* the queue length, so enqueue/dequeue/cancel paths can never
    /// disagree with it.
    pub(crate) fn depth(&self) -> usize {
        self.lock_queue().q.len()
    }

    /// Whether the session has retired (served its close, failed its
    /// build, or been drained by service shutdown).
    pub(crate) fn retired(&self) -> bool {
        self.lock_queue().retired
    }

    /// Retires the cell: latches `retired` so no further envelope is
    /// admitted, answers everything still queued with `answer` (the
    /// build error for a failed open, [`CoreError::SessionClosed`]
    /// otherwise), and fills the completion slot (waking
    /// [`Self::wait_done`]). Called by the pinned worker.
    pub(crate) fn retire(&self, outcome: Result<EcoSession>, answer: &CoreError) {
        let drained: Vec<Envelope> = {
            let mut qs = self.lock_queue();
            qs.retired = true;
            qs.q.drain(..).collect()
        };
        for env in drained {
            if let Envelope::Request { reply, .. } = env {
                reply.send(Err(answer.clone()));
            }
            // A queued Quiesce's ack sender drops, unblocking its caller
            // with the documented SessionClosed.
        }
        let mut slot = self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(outcome);
        self.done_cv.notify_all();
    }

    /// Blocks until the session retires and takes the retired session
    /// (or its build error). Panics if called twice — the service
    /// removes the cell from its table before retiring, so exactly one
    /// caller can reach this.
    pub(crate) fn wait_done(&self) -> Result<EcoSession> {
        let mut slot = self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .done_cv
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// State shared by every pool worker, the handles, and the service.
pub(crate) struct PoolShared {
    pub(crate) pool_threads: usize,
    /// Runnable sessions, claimed from the front.
    run_queue: Mutex<VecDeque<Arc<SessionCell>>>,
    /// Wake epoch: bumped on every push, waited on by idle workers.
    park_lot: Mutex<u64>,
    park_cv: Condvar,
    shutdown: AtomicBool,
    started: Instant,
    // Monotone gauges.
    parks: AtomicU64,
    pinning_violations: AtomicU64,
    worker_tasks: Vec<AtomicU64>,
    worker_busy_ns: Vec<AtomicU64>,
}

impl PoolShared {
    /// Makes freshly pushed envelopes visible to the pool: schedules the
    /// cell if it is idle, or marks a running slice dirty so its worker
    /// requeues it. Safe to call redundantly.
    pub(crate) fn notify(&self, cell: &Arc<SessionCell>) {
        loop {
            match cell.state.load(Ordering::Acquire) {
                state::IDLE => {
                    if cell
                        .state
                        .compare_exchange(
                            state::IDLE,
                            state::SCHEDULED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        self.enqueue(Arc::clone(cell));
                        return;
                    }
                }
                state::RUNNING => {
                    if cell
                        .state
                        .compare_exchange(
                            state::RUNNING,
                            state::NOTIFIED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued (SCHEDULED) or already marked dirty
                // (NOTIFIED): the work will be seen.
                _ => return,
            }
        }
    }

    fn lock_run_queue(&self) -> MutexGuard<'_, VecDeque<Arc<SessionCell>>> {
        self.run_queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pushes a session to the back of the run queue and wakes the
    /// parked workers.
    fn enqueue(&self, cell: Arc<SessionCell>) {
        self.lock_run_queue().push_back(cell);
        self.wake();
    }

    fn wake(&self) {
        let mut epoch = self
            .park_lot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *epoch = epoch.wrapping_add(1);
        self.park_cv.notify_all();
    }

    fn epoch(&self) -> u64 {
        *self
            .park_lot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Parks until the wake epoch moves past `seen` (or shutdown). A
    /// push between the caller's queue scan and this wait bumped the
    /// epoch already, so the wait returns immediately — no lost wakeup.
    fn park(&self, seen: u64) {
        let mut epoch = self
            .park_lot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if *epoch != seen || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        while *epoch == seen && !self.shutdown.load(Ordering::Acquire) {
            epoch = self
                .park_cv
                .wait(epoch)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A point-in-time snapshot of the pool gauges.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            pool_threads: self.pool_threads,
            steals: 0,
            parks: self.parks.load(Ordering::Relaxed),
            runnable_sessions: self.lock_run_queue().len(),
            pinning_violations: self.pinning_violations.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_secs_f64() * 1e3,
            workers: (0..self.pool_threads)
                .map(|w| WorkerGauge {
                    tasks: self.worker_tasks[w].load(Ordering::Relaxed),
                    busy_ms: self.worker_busy_ns[w].load(Ordering::Relaxed) as f64 / 1e6,
                })
                .collect(),
        }
    }
}

/// The fixed worker pool: spawned with the service, joined on drop.
pub(crate) struct Pool {
    pub(crate) shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `pool_threads` workers (clamped to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a worker thread — the pool is
    /// the service's entire execution substrate, so a service that
    /// cannot spawn it cannot serve anything.
    pub(crate) fn new(pool_threads: usize) -> Pool {
        let n = pool_threads.max(1);
        let shared = Arc::new(PoolShared {
            pool_threads: n,
            run_queue: Mutex::new(VecDeque::new()),
            park_lot: Mutex::new(0),
            park_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            parks: AtomicU64::new(0),
            pinning_violations: AtomicU64::new(0),
            worker_tasks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            worker_busy_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        });
        let threads = (0..n)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gsino-pool-{w}"))
                    .spawn(move || worker_main(&shared, w))
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        Pool { shared, threads }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One pool worker's main loop: claim → run slice → requeue/park, until
/// shutdown *and* no runnable work remains (shutdown drains the run
/// queue clean rather than abandoning scheduled sessions).
fn worker_main(shared: &Arc<PoolShared>, worker: usize) {
    loop {
        // Epoch before the scan: any push after this point bumps it,
        // so the park below cannot sleep through it.
        let seen = shared.epoch();
        // Bound before the match so the queue lock is released before
        // the slice runs (the slice may requeue into this same queue).
        let claimed = shared.lock_run_queue().pop_front();
        match claimed {
            Some(cell) => run_cell(shared, worker, cell),
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                shared.park(seen);
            }
        }
    }
}

/// Executes one claimed session slice and settles the cell's state:
/// requeue on yield/dirty, idle on drained, nothing further on retired.
fn run_cell(shared: &Arc<PoolShared>, worker: usize, cell: Arc<SessionCell>) {
    cell.state.store(state::RUNNING, Ordering::Release);
    if cell.running_guard.fetch_add(1, Ordering::SeqCst) != 0 {
        shared.pinning_violations.fetch_add(1, Ordering::Relaxed);
    }
    let t0 = Instant::now();
    let outcome = worker::run_slice(&cell, shared);
    shared.worker_busy_ns[worker].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    shared.worker_tasks[worker].fetch_add(1, Ordering::Relaxed);
    cell.running_guard.fetch_sub(1, Ordering::SeqCst);
    match outcome {
        SliceOutcome::Yield => {
            // Quantum expired with work left: back of the run queue,
            // behind every other waiting session.
            cell.state.store(state::SCHEDULED, Ordering::Release);
            shared.enqueue(cell);
        }
        SliceOutcome::Retired => {
            // No requeue ever: push() rejects on the retired latch, so
            // notify() can no longer schedule this cell.
            cell.state.store(state::IDLE, Ordering::Release);
        }
        SliceOutcome::Drained => loop {
            match cell.state.compare_exchange(
                state::RUNNING,
                state::IDLE,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(_) => {
                    // NOTIFIED: work arrived during the slice. The drain
                    // may already have consumed it — requeue only if the
                    // queue is really non-empty.
                    cell.state.store(state::RUNNING, Ordering::Release);
                    if cell.depth() > 0 {
                        cell.state.store(state::SCHEDULED, Ordering::Release);
                        shared.enqueue(cell);
                        break;
                    }
                }
            }
        },
    }
}

/// Builds the close envelope the service-level retire path enqueues
/// (its reply goes to a throwaway channel — the completion slot, not the
/// response, carries the retired session).
pub(crate) fn close_envelope() -> Envelope {
    let (reply_tx, _reply_rx) = std::sync::mpsc::channel();
    Envelope::Request {
        req: super::protocol::ServiceRequest::Close,
        reply: ReplyTo::Local(reply_tx),
        deadline: None,
        submitted: Instant::now(),
    }
}
