//! The shared worker pool and its FIFO run queue.
//!
//! Every session is a [`SessionCell`] that a fixed pool of workers
//! serves in *slices*: one worker claims a runnable cell, drains up to
//! [`QUANTUM`] envelopes from its queue through the session-task logic in
//! [`super::worker`], and then either puts it back on the run queue (work
//! left) or lets it go idle (queue empty).
//!
//! # Topology
//!
//! ```text
//!   handles ──push──▶ per-session queue (bounded, FIFO)
//!                     │ first push to an idle cell queues it
//!                     ▼
//!   pool run queue (FIFO) ◀──new sessions, and served ones with work left (back)
//!                     │ pop front
//!                     ▼
//!   workers 0..pool_threads   (wait on a condvar when idle)
//! ```
//!
//! # Invariants
//!
//! * **Session pinning** — a session's envelopes execute on at most one
//!   worker at a time. Each cell's queue lock also guards a `scheduled`
//!   flag, set while the cell is on the run queue or being served. Only
//!   the push that finds the flag clear queues the cell, so a cell is
//!   never queued twice and never claimed twice; the worker that ends a
//!   slice either re-queues it (queue non-empty) or clears the flag. A
//!   redundant `running_guard` counter cross-checks the property at
//!   runtime ([`PoolStats::pinning_violations`]).
//! * **FIFO per session** — only the pinned worker pops the session's
//!   queue, so requests execute in submission order, and
//!   same-[`EditClass`](crate::session::EditClass) coalescing drains see
//!   the same envelope sequence at any pool size. Outputs are therefore
//!   bit-identical for every pool size.
//! * **No lost wakeups** — an idle worker checks the run queue and the
//!   shutdown flag under the run-queue lock and waits on a condvar
//!   paired with it; each queued cell wakes one waiter and shutdown
//!   wakes them all. A quiet pool burns ~zero CPU.
//! * **Fairness** — a session that ends a slice with work left, whether
//!   its quantum ran out or work arrived while it ran, goes to the back
//!   of the one run queue, behind every session already queued, so a hot
//!   session cannot starve the cold ones.

use super::protocol::{Envelope, PoolStats, ReplyTo, WorkerGauge};
use super::worker::{self, Body};
use crate::session::EcoSession;
use crate::{CoreError, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Envelopes a worker serves from one session before requeueing it —
/// the fairness quantum. Coalesced batch members count toward it, so a
/// burst-heavy session cannot monopolize a worker for more than one
/// quantum's worth of drained envelopes per claim.
pub(crate) const QUANTUM: usize = 16;

/// A session's queue plus its scheduling flag and retirement latch,
/// guarded together so an enqueue can never slip past the retirement
/// drain or past the check that ends a slice.
struct QueueState {
    q: VecDeque<Envelope>,
    /// On the pool run queue or being served by a worker.
    scheduled: bool,
    retired: bool,
}

/// One session's scheduling identity: its bounded queue, the
/// (scheduler-opaque) session body, and the completion slot its
/// retirement fills.
pub(crate) struct SessionCell {
    pub(crate) name: String,
    pub(crate) capacity: usize,
    queue: Mutex<QueueState>,
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
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admission-controlled enqueue: a full queue answers
    /// [`CoreError::Overloaded`], a retired session
    /// [`CoreError::SessionClosed`]. Queues an idle cell on the pool.
    pub(crate) fn push(self: &Arc<Self>, pool: &PoolShared, env: Envelope) -> Result<()> {
        self.admit(pool, env, self.capacity)
    }

    /// Enqueues a close **behind** everything pending, bypassing the
    /// capacity bound (close must never be bounced by a momentarily full
    /// queue). No-op on an already-retired session. Its reply goes to a
    /// throwaway channel: the completion slot, not the response, carries
    /// the retired session.
    pub(crate) fn push_close(self: &Arc<Self>, pool: &PoolShared) {
        let (reply_tx, _reply_rx) = std::sync::mpsc::channel();
        let close = Envelope::Request {
            req: super::protocol::ServiceRequest::Close,
            reply: ReplyTo::Local(reply_tx),
            deadline: None,
            submitted: Instant::now(),
        };
        // A retired cell answers SessionClosed: there is nothing to close.
        let _ = self.admit(pool, close, usize::MAX);
    }

    /// Appends `env` if the session is live and fewer than `bound`
    /// envelopes wait, then puts the cell on the run queue if it was
    /// idle — the only way, apart from [`PoolShared::open`], that a cell
    /// becomes runnable.
    fn admit(self: &Arc<Self>, pool: &PoolShared, env: Envelope, bound: usize) -> Result<()> {
        let mut qs = self.lock_queue();
        if qs.retired {
            return Err(CoreError::SessionClosed {
                session: self.name.clone(),
            });
        }
        if qs.q.len() >= bound {
            return Err(CoreError::Overloaded {
                session: self.name.clone(),
                capacity: self.capacity,
            });
        }
        qs.q.push_back(env);
        let idle = !std::mem::replace(&mut qs.scheduled, true);
        drop(qs);
        if idle {
            pool.enqueue(Arc::clone(self));
        }
        Ok(())
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
    /// [`Self::wait_done`]). Called by the pinned worker. The queue is
    /// left empty, so the slice's end never re-queues a retired cell.
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
        let mut slot = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(outcome);
        self.done_cv.notify_all();
    }

    /// Blocks until the session retires and takes the retired session
    /// (or its build error). Panics if called twice — the service
    /// removes the cell from its table before retiring, so exactly one
    /// caller can reach this.
    pub(crate) fn wait_done(&self) -> Result<EcoSession> {
        let mut slot = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .done_cv
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The runnable sessions, claimed from the front, plus the shutdown
/// flag idle workers check before waiting.
struct RunQueue {
    cells: VecDeque<Arc<SessionCell>>,
    shutdown: bool,
}

/// State shared by every pool worker, the handles, and the service.
pub(crate) struct PoolShared {
    pub(crate) pool_threads: usize,
    run_queue: Mutex<RunQueue>,
    /// Signalled once per queued cell, and for every worker at shutdown.
    runnable: Condvar,
    started: Instant,
    // Monotone gauges.
    parks: AtomicU64,
    pinning_violations: AtomicU64,
    worker_tasks: Vec<AtomicU64>,
    worker_busy_ns: Vec<AtomicU64>,
}

impl PoolShared {
    fn new(pool_threads: usize) -> Self {
        PoolShared {
            pool_threads,
            run_queue: Mutex::new(RunQueue {
                cells: VecDeque::new(),
                shutdown: false,
            }),
            runnable: Condvar::new(),
            started: Instant::now(),
            parks: AtomicU64::new(0),
            pinning_violations: AtomicU64::new(0),
            worker_tasks: (0..pool_threads).map(|_| AtomicU64::new(0)).collect(),
            worker_busy_ns: (0..pool_threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A new session cell, already on the run queue: its from-scratch
    /// build is the session's first slice, so it starts scheduled.
    pub(crate) fn open(&self, name: String, capacity: usize, body: Body) -> Arc<SessionCell> {
        let cell = Arc::new(SessionCell {
            name,
            capacity,
            queue: Mutex::new(QueueState {
                q: VecDeque::new(),
                scheduled: true,
                retired: false,
            }),
            running_guard: AtomicU32::new(0),
            body: Mutex::new(body),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
        });
        self.enqueue(Arc::clone(&cell));
        cell
    }

    fn lock_run_queue(&self) -> MutexGuard<'_, RunQueue> {
        self.run_queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes a scheduled cell to the back of the run queue and wakes
    /// one idle worker.
    fn enqueue(&self, cell: Arc<SessionCell>) {
        self.lock_run_queue().cells.push_back(cell);
        self.runnable.notify_one();
    }

    /// Claims the session at the front of the run queue, waiting while
    /// it is empty; `None` once shutdown is flagged and nothing is
    /// runnable (shutdown drains the run queue rather than abandoning
    /// scheduled sessions).
    fn claim(&self) -> Option<Arc<SessionCell>> {
        let mut rq = self.lock_run_queue();
        loop {
            if let Some(cell) = rq.cells.pop_front() {
                return Some(cell);
            }
            if rq.shutdown {
                return None;
            }
            self.parks.fetch_add(1, Ordering::Relaxed);
            rq = self
                .runnable
                .wait(rq)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Ends a served slice: the cell goes to the back of the run queue
    /// if envelopes are left, and goes idle otherwise (a retired cell's
    /// queue is always empty).
    fn end_slice(&self, cell: Arc<SessionCell>) {
        let requeue = {
            let mut qs = cell.lock_queue();
            qs.scheduled = !qs.q.is_empty();
            qs.scheduled
        };
        if requeue {
            self.enqueue(cell);
        }
    }

    /// A point-in-time snapshot of the pool gauges.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            pool_threads: self.pool_threads,
            steals: 0,
            parks: self.parks.load(Ordering::Relaxed),
            runnable_sessions: self.lock_run_queue().cells.len(),
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
        let shared = Arc::new(PoolShared::new(pool_threads.max(1)));
        let threads = (0..shared.pool_threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gsino-pool-{w}"))
                    .spawn(move || {
                        while let Some(cell) = shared.claim() {
                            run_cell(&shared, w, cell);
                        }
                    })
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        Pool { shared, threads }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock_run_queue().shutdown = true;
        self.shared.runnable.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Executes one claimed session slice on `worker`, then ends it.
fn run_cell(shared: &PoolShared, worker: usize, cell: Arc<SessionCell>) {
    if cell.running_guard.fetch_add(1, Ordering::SeqCst) != 0 {
        shared.pinning_violations.fetch_add(1, Ordering::Relaxed);
    }
    let t0 = Instant::now();
    worker::run_slice(&cell, shared);
    shared.worker_busy_ns[worker].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    shared.worker_tasks[worker].fetch_add(1, Ordering::Relaxed);
    cell.running_guard.fetch_sub(1, Ordering::SeqCst);
    shared.end_slice(cell);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceRequest;

    fn query() -> Envelope {
        let (reply_tx, _reply_rx) = std::sync::mpsc::channel();
        Envelope::Request {
            req: ServiceRequest::Query,
            reply: ReplyTo::Local(reply_tx),
            deadline: None,
            submitted: Instant::now(),
        }
    }

    /// The scheduling invariant, step by step on a pool with no workers:
    /// the test claims and ends slices by hand, so every run-queue length
    /// below is exact rather than a race outcome.
    #[test]
    fn a_cell_is_queued_once_and_only_by_a_push_or_its_open() {
        let pool = PoolShared::new(1);
        let runnable = |pool: &PoolShared| pool.stats().runnable_sessions;
        let cell = pool.open("s".into(), 8, Body::Retired);
        assert_eq!(runnable(&pool), 1, "open queues the new cell");
        cell.push(&pool, query()).unwrap();
        assert_eq!(runnable(&pool), 1, "a push to a queued cell adds nothing");

        let claimed = pool.claim().expect("the opened cell");
        assert!(Arc::ptr_eq(&claimed, &cell));
        cell.push(&pool, query()).unwrap();
        assert_eq!(runnable(&pool), 0, "a push while claimed queues nothing");

        pool.end_slice(Arc::clone(&claimed));
        assert_eq!(runnable(&pool), 1, "work left: re-queued once");
        let claimed = pool.claim().unwrap();
        while cell.pop().is_some() {}
        pool.end_slice(claimed);
        assert_eq!(runnable(&pool), 0, "drained: idle");
        assert!(!cell.lock_queue().scheduled);

        cell.push(&pool, query()).unwrap();
        assert_eq!(runnable(&pool), 1, "the next push queues it again");
        let claimed = pool.claim().unwrap();
        cell.retire(
            Err(CoreError::Canceled { phase: "test" }),
            &CoreError::SessionClosed {
                session: "s".into(),
            },
        );
        pool.end_slice(claimed);
        assert!(matches!(
            cell.push(&pool, query()),
            Err(CoreError::SessionClosed { .. })
        ));
        cell.push_close(&pool);
        assert_eq!(runnable(&pool), 0, "a retired cell is never re-queued");
        assert_eq!(cell.depth(), 0);
    }
}
