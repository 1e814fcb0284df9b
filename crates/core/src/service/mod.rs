//! The routing service: many named ECO sessions behind one concurrent
//! front, with request batching, admission control and graceful shutdown.
//!
//! An [`EcoSession`] is a single-owner object — exactly one caller may
//! drive its begin/apply/commit cycle at a time. A [`RoutingService`]
//! turns a fleet of them into a server: each named session owns a
//! bounded **run queue** scheduled onto a fixed **worker pool** (see
//! [`ServiceConfig::pool_threads`]), any number of client threads hold
//! cloneable [`SessionHandle`]s, and the typed
//! [`ServiceRequest`]/[`ServiceResponse`] vocabulary is the entire wire
//! surface.
//!
//! # Execution model
//!
//! ```text
//!  clients                run queues (bounded)        worker pool
//!  ───────                ────────────────────        ───────────
//!  handle.edit(…) ──push──▶ [req|req|req]──┐    ┌──▶ worker 0
//!  handle.query() ─┐                       ├─sched─▶ worker 1
//!                  └─ Full? ─▶ Err(Overloaded)  └──▶ …  (wait when idle)
//! ```
//!
//! Sessions own no threads: a fixed pool of
//! [`ServiceConfig::pool_threads`] workers executes *session slices* —
//! one worker claims a runnable session, drains a bounded quantum of its
//! queue, and re-queues it if work is left. A push to an idle session
//! queues it on one FIFO run queue of runnable sessions; idle workers
//! wait on a condvar, so thousands of mostly-idle sessions stay cheap
//! and a quiet service burns ~zero CPU. [`StatsReport::pool`] exposes
//! the live gauges.
//!
//! * **FIFO per session** — a *session-pinning* rule guarantees at most
//!   one worker executes a given session's envelopes at a time, and only
//!   that worker pops its queue, so requests execute in submission order
//!   and never race — outputs are **bit-identical to the former
//!   thread-per-session model at any pool size**.
//! * **Admission control** — submission is a bounded push: a full run
//!   queue answers [`CoreError::Overloaded`] immediately (retryable)
//!   instead of blocking the client; the session table itself is bounded
//!   by [`ServiceConfig::max_sessions`].
//! * **Request batching** — the serving worker greedily drains queued
//!   [`ServiceRequest::Edit`] requests of the same [`EditClass`](crate::session::EditClass) into one
//!   transactional begin/apply*/commit, so a burst of compatible edits
//!   pays one replay instead of many. Each [`EditReceipt`] records the
//!   batch it rode in ([`EditReceipt::coalesced`]). Rejected members are
//!   dropped individually (per-request atomicity); commit failures fail
//!   the whole batch with the session bit-identical to its last commit.
//! * **Deadlines** — [`SessionHandle::submit_by`] threads an absolute
//!   deadline from submission through queueing into the replay's
//!   [`CancelToken`](crate::cancel::CancelToken); an expired request is
//!   answered [`CoreError::Canceled`] without touching the session (and
//!   counted in [`StatsReport::canceled_in_queue`]).
//! * **Graceful shutdown** — [`RoutingService::close`] /
//!   [`RoutingService::shutdown`] enqueue a close behind everything
//!   already queued, wait for the scheduler to serve it, and hand back
//!   the retired [`EcoSession`] — whose state is always bit-identical to
//!   its last successful commit, because a slice never leaves a
//!   transaction open between requests.
//!
//! # Example
//!
//! ```
//! use gsino_core::pipeline::GsinoConfig;
//! use gsino_core::service::{RoutingService, ServiceConfig};
//! use gsino_core::session::EcoEdit;
//! use gsino_grid::{Circuit, Net, Point, Rect};
//! use gsino_sino::nss::NssModel;
//!
//! # fn main() -> Result<(), gsino_core::CoreError> {
//! let die = Rect::new(Point::new(0.0, 0.0), Point::new(512.0, 512.0))?;
//! let nets: Vec<Net> = (0..16)
//!     .map(|i| {
//!         let x = 16.0 + (i as f64 * 37.0) % 480.0;
//!         let y = 16.0 + (i as f64 * 53.0) % 480.0;
//!         Net::two_pin(i, Point::new(x, y), Point::new(500.0 - x, 500.0 - y))
//!     })
//!     .collect();
//! let circuit = Circuit::new("demo", die, nets)?;
//! let config = GsinoConfig::builder()
//!     .nss_model(NssModel::from_coefficients(
//!         [0.9, -0.5, 0.4, -0.2, 0.05, -0.3],
//!         0.5,
//!     ))
//!     .threads(1)
//!     .build()?;
//!
//! let service = RoutingService::new(ServiceConfig::default());
//! let handle = service.open("demo", circuit, config)?;
//! let receipt = handle.edit(vec![EcoEdit::TightenVth { net: 3, sink: 0, vth: 0.12 }])?;
//! assert_eq!(receipt.batch_edits, 1);
//! assert!(handle.query()?.clean);
//! let session = service.close("demo")?;
//! assert_eq!(session.stats().commits, 1);
//! # Ok(())
//! # }
//! ```

mod handle;
pub mod net;
mod protocol;
mod scheduler;
mod worker;

pub use handle::{QuiesceGuard, SessionHandle};
pub use net::{NetClient, NetServer};
pub use protocol::{
    EditReceipt, LatencySummary, PoolStats, ServiceRequest, ServiceResponse, SessionSnapshot,
    StatsReport, WorkerGauge,
};

use crate::pipeline::GsinoConfig;
use crate::session::EcoSession;
use crate::{CoreError, Result};
use gsino_grid::net::Circuit;
use scheduler::{Pool, SessionCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use worker::Body;

/// Capacity limits for a [`RoutingService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Bounded depth of each session run queue; submission to a full
    /// queue is rejected with [`CoreError::Overloaded`]. Clamped to at
    /// least 1.
    pub mailbox_capacity: usize,
    /// Maximum live sessions; opening beyond it is rejected with
    /// [`CoreError::Overloaded`].
    pub max_sessions: usize,
    /// Workers in the shared execution pool. `0` (the default) means
    /// *auto*: the machine's available parallelism. Sessions far
    /// outnumbering workers is the intended regime — idle sessions cost
    /// no thread, and outputs are bit-identical at any pool size.
    pub pool_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            mailbox_capacity: 64,
            max_sessions: 16,
            pool_threads: 0,
        }
    }
}

/// A multi-session ECO server front. See the [module docs](self) for the
/// execution model; [`Self::open`] / [`Self::close`] / [`Self::shutdown`]
/// manage sessions, [`Self::submit`] is the uniform typed entry point.
///
/// The service is `Sync`: clients may share it by reference (or behind an
/// `Arc`) and open/close/submit concurrently — the session table is the
/// only shared state and is never held across a blocking operation.
///
/// Dropping the service closes every remaining session gracefully
/// (enqueue-behind-pending close, wait for the scheduler to serve it),
/// discarding the retired sessions, then joins the worker pool. Hold no
/// [`QuiesceGuard`] across the drop, or the shutdown waits on it.
pub struct RoutingService {
    config: ServiceConfig,
    pool: Pool,
    sessions: Mutex<BTreeMap<String, Arc<SessionCell>>>,
}

impl RoutingService {
    /// An empty service with the given capacity limits. Spawns the worker
    /// pool immediately (the threads wait until sessions arrive).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a pool worker thread — the pool
    /// is the service's entire execution substrate.
    pub fn new(config: ServiceConfig) -> Self {
        let pool_threads = if config.pool_threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.pool_threads
        };
        RoutingService {
            config: ServiceConfig {
                mailbox_capacity: config.mailbox_capacity.max(1),
                pool_threads,
                ..config
            },
            pool: Pool::new(pool_threads),
            sessions: Mutex::new(BTreeMap::new()),
        }
    }

    /// The capacity limits this service enforces, with
    /// [`ServiceConfig::pool_threads`] resolved to the actual pool size.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The names of the currently live sessions, sorted.
    pub fn sessions(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// A point-in-time snapshot of the scheduler gauges (parks, runnable
    /// sessions, per-worker utilization) — the same data every
    /// [`StatsReport::pool`] carries, readable without a live session.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.shared.stats()
    }

    /// Opens a named session and schedules its from-scratch build as the
    /// session's first slice on the worker pool. Returns immediately —
    /// concurrent opens build in parallel (up to the pool size) and
    /// requests submitted meanwhile simply wait in the run queue (a
    /// failed build answers them all with the build error).
    ///
    /// # Errors
    ///
    /// * [`CoreError::SessionBusy`] — the name is already live
    ///   (retryable once the holder closes it);
    /// * [`CoreError::Overloaded`] — the session table is full.
    pub fn open(&self, name: &str, circuit: Circuit, config: GsinoConfig) -> Result<SessionHandle> {
        let cell = {
            let mut sessions = self.lock();
            // Reap retired sessions (handle-level Close, build failure) so
            // their names become available again without an explicit
            // close().
            sessions.retain(|_, cell| !cell.retired());
            if sessions.contains_key(name) {
                return Err(CoreError::SessionBusy {
                    session: name.to_string(),
                });
            }
            if sessions.len() >= self.config.max_sessions {
                return Err(CoreError::Overloaded {
                    session: name.to_string(),
                    capacity: self.config.max_sessions,
                });
            }
            // The build is the session's first slice: the new cell goes
            // straight onto the run queue.
            let cell = self.pool.shared.open(
                name.to_string(),
                self.config.mailbox_capacity,
                Body::Unbuilt {
                    circuit: Box::new(circuit),
                    config: Box::new(config),
                },
            );
            sessions.insert(name.to_string(), Arc::clone(&cell));
            cell
        };
        Ok(SessionHandle::new(cell, Arc::clone(&self.pool.shared)))
    }

    /// A new handle to an already-open session.
    ///
    /// # Errors
    ///
    /// [`CoreError::SessionClosed`] if `name` is not live.
    pub fn handle(&self, name: &str) -> Result<SessionHandle> {
        let sessions = self.lock();
        let cell = sessions.get(name).ok_or_else(|| CoreError::SessionClosed {
            session: name.to_string(),
        })?;
        Ok(SessionHandle::new(
            Arc::clone(cell),
            Arc::clone(&self.pool.shared),
        ))
    }

    /// The uniform typed entry point: routes [`ServiceRequest::Open`] and
    /// [`ServiceRequest::Close`] to session management (the retired
    /// session of a `Close` is discarded — use [`Self::close`] to keep
    /// it) and everything else through the named session's run queue.
    ///
    /// # Errors
    ///
    /// As [`Self::open`], [`Self::close`] and [`SessionHandle::submit`].
    pub fn submit(&self, session: &str, req: ServiceRequest) -> Result<ServiceResponse> {
        match req {
            ServiceRequest::Open { circuit, config } => {
                self.open(session, *circuit, *config)?;
                Ok(ServiceResponse::Opened {
                    session: session.to_string(),
                })
            }
            ServiceRequest::Close => {
                let retired = self.close(session)?;
                Ok(ServiceResponse::Closed {
                    session: session.to_string(),
                    stats: *retired.stats(),
                })
            }
            other => self.handle(session)?.submit(other),
        }
    }

    /// Gracefully closes a session: a close request is enqueued *behind*
    /// everything already in the run queue (bypassing the capacity bound
    /// — close is never bounced), the session retires after the scheduler
    /// serves it, and the underlying [`EcoSession`] is handed back —
    /// bit-identical to its last successful commit.
    ///
    /// # Errors
    ///
    /// [`CoreError::SessionClosed`] if `name` is not live; the build
    /// error if the session's from-scratch flow had failed.
    pub fn close(&self, name: &str) -> Result<EcoSession> {
        let cell = self
            .lock()
            .remove(name)
            .ok_or_else(|| CoreError::SessionClosed {
                session: name.to_string(),
            })?;
        self.retire_cell(&cell)
    }

    /// Closes every live session (each drains its queue first) and
    /// returns the retired sessions by name. Consumes the service; the
    /// subsequent drop joins the (now idle) worker pool.
    pub fn shutdown(self) -> Vec<(String, Result<EcoSession>)> {
        let cells: Vec<(String, Arc<SessionCell>)> =
            std::mem::take(&mut *self.lock()).into_iter().collect();
        cells
            .into_iter()
            .map(|(name, cell)| {
                let retired = self.retire_cell(&cell);
                (name, retired)
            })
            .collect()
    }

    /// Enqueues a close behind pending work, waits for the scheduler to
    /// retire the session, and returns it. If the session already retired
    /// (handle-level Close, build failure), the completion slot is
    /// already filled and this returns immediately.
    fn retire_cell(&self, cell: &Arc<SessionCell>) -> Result<EcoSession> {
        cell.push_close(&self.pool.shared);
        cell.wait_done()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<SessionCell>>> {
        self.sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Drop for RoutingService {
    fn drop(&mut self) {
        let cells = std::mem::take(&mut *self.lock());
        for cell in cells.values() {
            let _ = self.retire_cell(cell);
        }
        // The Pool field drops after this body: it flags shutdown and
        // joins the workers, which exit once no runnable work remains —
        // i.e. the pool run queue drains clean.
    }
}

#[cfg(test)]
mod tests {
    use super::protocol::{Envelope, ReplyTo};
    use super::*;
    use crate::session::EcoEdit;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::Net;
    use gsino_sino::nss::NssModel;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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

    #[test]
    fn open_edit_query_close_round_trip() {
        let service = RoutingService::new(ServiceConfig::default());
        let handle = service.open("s", small_circuit(12), fast_config()).unwrap();
        let receipt = handle
            .edit(vec![EcoEdit::TightenVth {
                net: 2,
                sink: 0,
                vth: 0.11,
            }])
            .unwrap();
        assert_eq!(receipt.edits, 1);
        assert_eq!(receipt.batch_requests, 1);
        assert!(!receipt.coalesced());
        let snap = handle.query().unwrap();
        assert_eq!(snap.session, "s");
        assert_eq!(snap.nets, 12);
        assert_eq!(snap.stats.commits, 1);
        assert!(handle.verify().unwrap());
        let session = service.close("s").unwrap();
        assert_eq!(session.stats().commits, 1);
        assert!(!session.in_transaction());
    }

    #[test]
    fn typed_submit_covers_every_verb() {
        let service = RoutingService::new(ServiceConfig::default());
        let opened = service
            .submit(
                "t",
                ServiceRequest::Open {
                    circuit: Box::new(small_circuit(10)),
                    config: Box::new(fast_config()),
                },
            )
            .unwrap();
        assert!(matches!(opened, ServiceResponse::Opened { .. }));
        let committed = service
            .submit(
                "t",
                ServiceRequest::Edit(vec![EcoEdit::RelaxVth { net: 1, sink: 0 }]),
            )
            .unwrap();
        assert!(matches!(committed, ServiceResponse::Committed(_)));
        assert!(matches!(
            service.submit("t", ServiceRequest::Query).unwrap(),
            ServiceResponse::Snapshot(_)
        ));
        assert!(matches!(
            service.submit("t", ServiceRequest::Verify).unwrap(),
            ServiceResponse::Verified { clean: true }
        ));
        let closed = service.submit("t", ServiceRequest::Close).unwrap();
        match closed {
            ServiceResponse::Closed { session, stats } => {
                assert_eq!(session, "t");
                assert_eq!(stats.commits, 1);
            }
            other => panic!("expected Closed, got {other:?}"),
        }
        // The name is free again after close.
        assert!(matches!(
            service.handle("t"),
            Err(CoreError::SessionClosed { .. })
        ));
    }

    #[test]
    fn duplicate_name_is_busy_and_table_is_bounded() {
        let service = RoutingService::new(ServiceConfig {
            max_sessions: 1,
            ..ServiceConfig::default()
        });
        let _h = service.open("a", small_circuit(6), fast_config()).unwrap();
        let busy = service.open("a", small_circuit(6), fast_config());
        assert!(matches!(busy, Err(CoreError::SessionBusy { .. })));
        assert!(busy.err().unwrap().is_retryable());
        let full = service.open("b", small_circuit(6), fast_config());
        match full {
            Err(CoreError::Overloaded { capacity, .. }) => assert_eq!(capacity, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        drop(service); // graceful drop retires the session and joins the pool
    }

    /// Stages a request directly in the session's run queue (no blocking
    /// wait on the reply), returning the reply receiver. Tests use this
    /// while the session is quiesced to make coalescing fully
    /// deterministic — the envelopes are enqueued synchronously by the
    /// test thread itself.
    fn stage(
        service: &RoutingService,
        name: &str,
        edits: Vec<EcoEdit>,
        deadline: Option<Instant>,
    ) -> mpsc::Receiver<Result<ServiceResponse>> {
        let cell = Arc::clone(service.lock().get(name).unwrap());
        let (reply_tx, reply_rx) = mpsc::channel();
        cell.push(
            &service.pool.shared,
            Envelope::Request {
                req: ServiceRequest::Edit(edits),
                reply: ReplyTo::Local(reply_tx),
                deadline,
                submitted: Instant::now(),
            },
        )
        .unwrap();
        reply_rx
    }

    fn stage_edit(
        service: &RoutingService,
        name: &str,
        edits: Vec<EcoEdit>,
    ) -> mpsc::Receiver<Result<ServiceResponse>> {
        stage(service, name, edits, None)
    }

    #[test]
    fn quiesced_burst_coalesces_into_one_commit() {
        let service = RoutingService::new(ServiceConfig::default());
        let handle = service.open("q", small_circuit(12), fast_config()).unwrap();
        // quiesce() returns only after the session acknowledged, so the
        // run queue is empty and everything staged below is dequeued in
        // one coalescing drain on resume.
        let paused = handle.quiesce().unwrap();
        let replies: Vec<_> = (0..3)
            .map(|i| {
                stage_edit(
                    &service,
                    "q",
                    vec![EcoEdit::TightenVth {
                        net: i,
                        sink: 0,
                        vth: 0.10 + 0.01 * f64::from(i),
                    }],
                )
            })
            .collect();
        paused.resume();
        for reply in replies {
            match reply.recv().unwrap().unwrap() {
                ServiceResponse::Committed(receipt) => {
                    assert_eq!(receipt.edits, 1);
                    assert_eq!(receipt.batch_requests, 3);
                    assert_eq!(receipt.batch_edits, 3);
                    assert!(receipt.coalesced());
                }
                other => panic!("expected Committed, got {other:?}"),
            }
        }
        let session = service.close("q").unwrap();
        // One shared transactional replay for the whole burst.
        assert_eq!(session.stats().commits, 1);
        assert_eq!(session.stats().edits_applied, 3);
    }

    #[test]
    fn mixed_class_burst_splits_on_the_compatibility_key() {
        let service = RoutingService::new(ServiceConfig::default());
        let handle = service
            .open("mix", small_circuit(12), fast_config())
            .unwrap();
        let paused = handle.quiesce().unwrap();
        // Two budget-class edits, then a Phase1-class edit, then another
        // budget-class edit: FIFO coalescing must commit [0,1], [2], [3].
        let replies = vec![
            stage_edit(
                &service,
                "mix",
                vec![EcoEdit::TightenVth {
                    net: 0,
                    sink: 0,
                    vth: 0.10,
                }],
            ),
            stage_edit(
                &service,
                "mix",
                vec![EcoEdit::TightenVth {
                    net: 1,
                    sink: 0,
                    vth: 0.11,
                }],
            ),
            stage_edit(
                &service,
                "mix",
                vec![EcoEdit::Circuit(gsino_grid::net::CircuitEdit::AddNet {
                    net: Net::two_pin(99, Point::new(20.0, 600.0), Point::new(600.0, 30.0)),
                })],
            ),
            stage_edit(
                &service,
                "mix",
                vec![EcoEdit::TightenVth {
                    net: 2,
                    sink: 0,
                    vth: 0.12,
                }],
            ),
        ];
        paused.resume();
        let receipts: Vec<EditReceipt> = replies
            .into_iter()
            .map(|r| match r.recv().unwrap().unwrap() {
                ServiceResponse::Committed(receipt) => receipt,
                other => panic!("expected Committed, got {other:?}"),
            })
            .collect();
        assert_eq!(receipts[0].batch_requests, 2);
        assert_eq!(receipts[1].batch_requests, 2);
        assert_eq!(receipts[0].class, crate::session::EditClass::BudgetOnly);
        assert_eq!(receipts[2].batch_requests, 1);
        assert_eq!(receipts[2].class, crate::session::EditClass::Phase1);
        assert_eq!(receipts[3].batch_requests, 1);
        let session = service.close("mix").unwrap();
        assert_eq!(session.stats().commits, 3);
        assert_eq!(session.stats().budget_replays, 2);
        assert_eq!(session.stats().phase1_replays, 1);
    }

    #[test]
    fn rejected_member_drops_out_but_batch_commits() {
        let service = RoutingService::new(ServiceConfig::default());
        let handle = service
            .open("rej", small_circuit(12), fast_config())
            .unwrap();
        let paused = handle.quiesce().unwrap();
        let good1 = stage_edit(
            &service,
            "rej",
            vec![EcoEdit::TightenVth {
                net: 0,
                sink: 0,
                vth: 0.10,
            }],
        );
        let bad = stage_edit(
            &service,
            "rej",
            vec![EcoEdit::TightenVth {
                net: 555, // stale id: rejected at apply time
                sink: 0,
                vth: 0.10,
            }],
        );
        let good2 = stage_edit(
            &service,
            "rej",
            vec![EcoEdit::TightenVth {
                net: 1,
                sink: 0,
                vth: 0.11,
            }],
        );
        paused.resume();
        match good1.recv().unwrap().unwrap() {
            ServiceResponse::Committed(r) => assert_eq!(r.batch_requests, 2),
            other => panic!("expected Committed, got {other:?}"),
        }
        assert!(matches!(
            bad.recv().unwrap(),
            Err(CoreError::UnknownId { kind: "net", .. })
        ));
        match good2.recv().unwrap().unwrap() {
            ServiceResponse::Committed(r) => assert_eq!(r.batch_edits, 2),
            other => panic!("expected Committed, got {other:?}"),
        }
        let session = service.close("rej").unwrap();
        assert_eq!(session.stats().commits, 1);
        assert_eq!(session.config().vth_overrides.len(), 2);
    }

    #[test]
    fn stats_report_queue_depth_and_latency_windows() {
        let service = RoutingService::new(ServiceConfig::default());
        let handle = service
            .open("st", small_circuit(10), fast_config())
            .unwrap();
        // Before any edits: empty latency windows, empty queue.
        let report = handle.stats().unwrap();
        assert_eq!(report.session, "st");
        assert_eq!(report.queue_depth, 0);
        assert_eq!(report.queue_ms.count, 0);
        assert_eq!(report.commit_ms.count, 0);
        assert_eq!(report.commit_ms, crate::service::LatencySummary::default());
        assert_eq!(report.canceled_in_queue, 0);
        assert_eq!(report.pool.pool_threads, service.config().pool_threads);
        assert_eq!(report.pool.workers.len(), report.pool.pool_threads);
        assert_eq!(report.pool.pinning_violations, 0);

        // Stage a burst while quiesced: Stats dequeued behind it must see
        // the staged envelopes pass through (depth drains back to 0), and
        // the commit windows fill.
        let paused = handle.quiesce().unwrap();
        let r1 = stage_edit(
            &service,
            "st",
            vec![EcoEdit::TightenVth {
                net: 0,
                sink: 0,
                vth: 0.10,
            }],
        );
        let r2 = stage_edit(
            &service,
            "st",
            vec![EcoEdit::TightenVth {
                net: 1,
                sink: 0,
                vth: 0.11,
            }],
        );
        paused.resume();
        assert!(r1.recv().unwrap().is_ok());
        assert!(r2.recv().unwrap().is_ok());
        let report = handle.stats().unwrap();
        assert_eq!(report.queue_depth, 0);
        assert_eq!(report.stats.commits, 1); // one coalesced replay
        assert_eq!(report.queue_ms.count, 2); // one sample per member
        assert_eq!(report.commit_ms.count, 1); // one shared commit
        assert!(report.commit_ms.max_ms >= report.commit_ms.p50_ms);
        assert!(report.queue_ms.mean_ms >= 0.0);
        drop(service);
    }

    #[test]
    fn canceled_in_queue_is_accounted_in_counter_and_window() {
        let service = RoutingService::new(ServiceConfig::default());
        let handle = service.open("cq", small_circuit(8), fast_config()).unwrap();
        let paused = handle.quiesce().unwrap();
        // One already-expired request, one live one, staged behind the
        // quiesce so both are dequeued in the same drain.
        let dead = stage(
            &service,
            "cq",
            vec![EcoEdit::TightenVth {
                net: 0,
                sink: 0,
                vth: 0.10,
            }],
            Some(Instant::now()),
        );
        let live = stage_edit(
            &service,
            "cq",
            vec![EcoEdit::TightenVth {
                net: 1,
                sink: 0,
                vth: 0.11,
            }],
        );
        paused.resume();
        assert!(matches!(
            dead.recv().unwrap(),
            Err(CoreError::Canceled { .. })
        ));
        assert!(live.recv().unwrap().is_ok());
        let report = handle.stats().unwrap();
        // The gauge is the queue length itself, so nothing lingers.
        assert_eq!(report.queue_depth, 0);
        assert_eq!(report.canceled_in_queue, 1);
        // Exactly one committed member + one cancel left the queue:
        // the wait window holds one sample for each, no more, no less.
        assert_eq!(report.queue_ms.count, 2);
        assert_eq!(report.commit_ms.count, 1);
        assert_eq!(report.stats.commits, 1);
        let session = service.close("cq").unwrap();
        // The expired request never touched the session.
        assert_eq!(session.stats().edits_applied, 1);
    }

    #[test]
    fn admission_control_rejects_when_mailbox_full() {
        let service = RoutingService::new(ServiceConfig {
            mailbox_capacity: 1,
            ..ServiceConfig::default()
        });
        let handle = service.open("m", small_circuit(8), fast_config()).unwrap();
        let paused = handle.quiesce().unwrap();
        // The single slot is filled deterministically; the public API's
        // next submission must bounce with the typed rejection.
        let staged = stage_edit(&service, "m", vec![]);
        let err = handle.query().err().unwrap();
        match &err {
            CoreError::Overloaded { session, capacity } => {
                assert_eq!(session, "m");
                assert_eq!(*capacity, 1);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(err.is_retryable());
        paused.resume();
        assert!(staged.recv().unwrap().is_ok());
        drop(service);
    }

    #[test]
    fn expired_deadline_is_canceled_in_queue() {
        let service = RoutingService::new(ServiceConfig::default());
        let handle = service.open("dl", small_circuit(8), fast_config()).unwrap();
        let paused = handle.quiesce().unwrap();
        let h2 = handle.clone();
        let client = std::thread::spawn(move || {
            h2.edit_within(
                vec![EcoEdit::TightenVth {
                    net: 0,
                    sink: 0,
                    vth: 0.10,
                }],
                Duration::ZERO, // already expired when dequeued
            )
        });
        paused.resume(); // the client blocks on its reply until the drain
        let outcome = client.join().unwrap();
        assert!(matches!(outcome, Err(CoreError::Canceled { .. })));
        let session = service.close("dl").unwrap();
        // The expired request never touched the session.
        assert_eq!(session.stats().commits, 0);
        assert_eq!(session.stats().edits_applied, 0);
    }

    #[test]
    fn handle_outlives_session_with_typed_error() {
        let service = RoutingService::new(ServiceConfig::default());
        let handle = service.open("x", small_circuit(8), fast_config()).unwrap();
        assert!(handle.query().is_ok());
        let _ = service.close("x").unwrap();
        let err = handle.query().err().unwrap();
        assert!(matches!(err, CoreError::SessionClosed { .. }));
        assert!(!err.is_retryable());
    }

    #[test]
    fn build_failure_surfaces_on_requests_and_close() {
        let service = RoutingService::new(ServiceConfig::default());
        let bad = GsinoConfig {
            vth: -1.0, // rejected by validate() inside the build slice
            ..fast_config()
        };
        let handle = service.open("bad", small_circuit(6), bad).unwrap();
        let err = handle.query().err().unwrap();
        assert!(matches!(
            err,
            CoreError::BadConfig { .. } | CoreError::SessionClosed { .. }
        ));
        let closed = service.close("bad");
        assert!(matches!(closed, Err(CoreError::BadConfig { .. })));
    }

    /// A configuration the noise table or the sensitivity model cannot
    /// use fails the session's build with `BadConfig`, which `close`
    /// reports, instead of panicking a pool worker and leaving `close`
    /// waiting forever. The reply is awaited with a timeout, so a hang
    /// fails the test.
    #[test]
    fn unusable_supply_voltage_or_rate_is_answered_at_close() {
        let service = Arc::new(RoutingService::new(ServiceConfig::default()));
        for (i, config) in crate::pipeline::unusable_configs(&fast_config())
            .into_iter()
            .enumerate()
        {
            let name = format!("bad{i}");
            service.open(&name, small_circuit(6), config).unwrap();
            let (tx, rx) = mpsc::channel();
            let svc = Arc::clone(&service);
            let closer = std::thread::spawn(move || {
                let _ = tx.send(svc.close(&name).map(|_| ()));
            });
            let closed = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("close of bad{i} did not answer"));
            closer
                .join()
                .expect("the closing thread ends once it answered");
            assert!(
                matches!(closed, Err(CoreError::BadConfig { .. })),
                "bad{i}: {closed:?}"
            );
        }
    }

    #[test]
    fn explicit_pool_sizes_stay_bit_identical() {
        // The same edit sequence against pool sizes 1 and 4 must retire
        // byte-for-byte identical sessions — the scheduler's core
        // conformance promise, checked here on a small instance (the
        // 64-session stress test covers the big one).
        let run = |pool_threads: usize| {
            let service = RoutingService::new(ServiceConfig {
                pool_threads,
                ..ServiceConfig::default()
            });
            let handle = service.open("p", small_circuit(10), fast_config()).unwrap();
            for i in 0..4 {
                handle
                    .edit(vec![EcoEdit::TightenVth {
                        net: i,
                        sink: 0,
                        vth: 0.10 + 0.005 * f64::from(i),
                    }])
                    .unwrap();
            }
            let report = handle.stats().unwrap();
            assert_eq!(report.pool.pool_threads, pool_threads);
            assert_eq!(report.pool.pinning_violations, 0);
            let session = service.close("p").unwrap();
            assert_eq!(session.stats().commits, 4);
            session
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.routes(), four.routes());
        assert_eq!(one.budgets(), four.budgets());
        assert_eq!(one.sino(), four.sino());
        assert_eq!(one.config().vth_overrides, four.config().vth_overrides);
        assert_eq!(one.stats().edits_applied, four.stats().edits_applied);
    }
}
