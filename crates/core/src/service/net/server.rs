//! The network front: an accept loop serving framed wire-protocol
//! connections over a [`RoutingService`].
//!
//! # Thread model
//!
//! One **accept thread** owns the listener. Each accepted connection gets
//! a **reader thread** (decodes frames, dispatches requests) and a
//! **writer thread** (serializes outcomes back, in completion order).
//! The reader never writes and the writer never reads, so a slow client
//! draining responses cannot stall request intake, and pipelined requests
//! resolve out of order through their correlation ids — exactly what the
//! scheduler's batch coalescing produces naturally (every member of a
//! coalesced batch completes at its shared commit).
//!
//! The session layer is untouched underneath: a dispatched request is a
//! [`ReplyTo::Tagged`](super::super::protocol::ReplyTo) envelope pushed
//! into the same bounded per-session run queue in-process callers use —
//! executed by the shared worker pool, with the same admission control (a
//! full queue answers `overloaded` on the wire), the same batching, and
//! the same worker-never-holds-a-transaction invariant.
//!
//! # Connection lifecycle
//!
//! accept → server sends the [`Hello`] frame → client sends request
//! frames, server sends response frames (any interleaving) → either end
//! closes. A clean client close (EOF at a frame boundary) drains: every
//! in-flight request still gets its response frame before the server
//! closes its end. Frame errors are answered with one final uncorrelated
//! (`id: 0`) error frame, then the connection drops. Closing a
//! connection never closes sessions — they are named, service-owned, and
//! survive for the next connection (or in-process handles).
//!
//! [`NetServer::shutdown`] stops accepting, half-closes every live
//! connection's read side (clients see the drain described above), joins
//! every thread, and leaves the [`RoutingService`] itself running.

use super::super::protocol::ReplyTo;
use super::super::{RoutingService, ServiceRequest, ServiceResponse};
use super::frame::{read_frame, write_frame, FrameError, MAX_FRAME};
use super::stream::Stream;
use super::wire::{
    Hello, RequestEnvelope, ResponseEnvelope, WireError, PROTOCOL_NAME, PROTOCOL_VERSION,
};
use crate::{CoreError, Result};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a server listens — also how shutdown unblocks its own accept
/// call (a throwaway self-connection).
enum Endpoint {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// State shared by the accept thread, every connection thread, and the
/// shutdown path.
struct Shared {
    service: Arc<RoutingService>,
    stop: AtomicBool,
    /// Live connections by id, for shutdown's read-side half-close.
    /// Readers remove their own entry on exit.
    conns: Mutex<HashMap<u64, Stream>>,
    /// Reader-thread handles (each reader joins its own writer). The
    /// accept loop joins and drops finished ones as it registers each
    /// new connection, so this holds the live readers plus any that
    /// exited since the last accept.
    readers: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
}

/// A listening wire-protocol server over a shared [`RoutingService`].
///
/// Dropping the server shuts it down gracefully (identical to
/// [`NetServer::shutdown`]). The service outlives the server: sessions
/// opened over the wire stay live for later connections or in-process
/// [`SessionHandle`](super::super::SessionHandle)s.
pub struct NetServer {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds a TCP listener and starts serving. Bind to port 0 to let the
    /// OS pick (see [`NetServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when the bind or thread spawn fails.
    pub fn bind_tcp(addr: impl ToSocketAddrs, service: Arc<RoutingService>) -> Result<NetServer> {
        let listener = TcpListener::bind(addr).map_err(|e| CoreError::BadConfig {
            reason: format!("tcp bind failed: {e}"),
        })?;
        let local = listener.local_addr().map_err(|e| CoreError::BadConfig {
            reason: format!("tcp bind failed: {e}"),
        })?;
        Self::start(Endpoint::Tcp(local), service, move |shared| {
            for conn in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn.and_then(Stream::tcp) {
                    serve_connection(&shared, stream);
                }
            }
        })
    }

    /// Binds a unix-domain listener at `path` and starts serving. The
    /// socket file must not exist; it is removed on shutdown.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when the bind or thread spawn fails.
    #[cfg(unix)]
    pub fn bind_unix(path: impl AsRef<Path>, service: Arc<RoutingService>) -> Result<NetServer> {
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path).map_err(|e| CoreError::BadConfig {
            reason: format!("unix bind failed at {}: {e}", path.display()),
        })?;
        Self::start(Endpoint::Unix(path), service, move |shared| {
            for conn in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(sock) = conn {
                    serve_connection(&shared, Stream::Unix(sock));
                }
            }
        })
    }

    fn start(
        endpoint: Endpoint,
        service: Arc<RoutingService>,
        accept_loop: impl FnOnce(Arc<Shared>) + Send + 'static,
    ) -> Result<NetServer> {
        let shared = Arc::new(Shared {
            service,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(1),
        });
        let for_accept = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("gsino-net-accept".into())
            .spawn(move || accept_loop(for_accept))
            .map_err(|e| CoreError::BadConfig {
                reason: format!("failed to spawn accept thread: {e}"),
            })?;
        Ok(NetServer {
            shared,
            endpoint,
            accept: Some(accept),
        })
    }

    /// The bound TCP address (`None` for a unix-socket server) — how
    /// tests bound to port 0 learn their port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self.endpoint {
            Endpoint::Tcp(addr) => Some(addr),
            #[cfg(unix)]
            Endpoint::Unix(_) => None,
        }
    }

    /// Graceful shutdown: stop accepting, half-close every live
    /// connection's read side (in-flight requests still get their
    /// response frames — the writer drains before the socket closes),
    /// join every connection thread, and return. The underlying
    /// [`RoutingService`] keeps running with every session intact.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway self-connection; the
        // loop re-checks the stop flag before serving it.
        match &self.endpoint {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        let _ = accept.join();
        // Half-close read sides: readers observe EOF, writers drain what
        // is still in flight, then the sockets close.
        {
            let conns = self
                .shared
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for conn in conns.values() {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
        let readers = std::mem::take(
            &mut *self
                .shared
                .readers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for r in readers {
            let _ = r.join();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Registers a fresh connection and spawns its reader thread (which owns
/// the writer thread). Spawn failure silently drops the connection — the
/// client sees a close before the hello, which is unambiguous.
fn serve_connection(shared: &Arc<Shared>, stream: Stream) {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let Ok(registered) = stream.try_clone() else {
        return;
    };
    shared
        .conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(conn_id, registered);
    let for_reader = Arc::clone(shared);
    let reader = std::thread::Builder::new()
        .name(format!("gsino-net-conn-{conn_id}"))
        .spawn(move || {
            connection_main(&for_reader, conn_id, stream);
            for_reader
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&conn_id);
        });
    match reader {
        Ok(handle) => {
            let mut readers = shared
                .readers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Join the readers that have exited, so a long-lived server
            // does not keep every closed connection's thread stack mapped.
            let (finished, live) = std::mem::take(&mut *readers)
                .into_iter()
                .partition::<Vec<_>, _>(JoinHandle::is_finished);
            *readers = live;
            readers.push(handle);
            drop(readers);
            for r in finished {
                let _ = r.join();
            }
        }
        Err(_) => {
            shared
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&conn_id);
        }
    }
}

/// The reader side of one connection: hello, then decode/dispatch until
/// EOF or a fatal frame error. Owns and finally joins the writer.
fn connection_main(shared: &Arc<Shared>, conn_id: u64, mut stream: Stream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = mpsc::channel::<(u64, Result<ServiceResponse>)>();
    let writer = std::thread::Builder::new()
        .name(format!("gsino-net-conn-{conn_id}-writer"))
        .spawn(move || writer_main(write_half, out_rx));
    let Ok(writer) = writer else {
        return;
    };

    loop {
        match read_frame(&mut stream, MAX_FRAME) {
            Ok(None) => break, // clean EOF: drain and close
            Ok(Some(body)) => {
                if !dispatch_frame(shared, &body, &out_tx) {
                    break;
                }
            }
            Err(fatal) => {
                // One final uncorrelated error frame, then drop the
                // connection — the stream position is unknown.
                let _ = out_tx.send((0, Err(frame_error_to_core(&fatal))));
                break;
            }
        }
    }
    // Dropping our sender lets the writer exit once every in-flight
    // request (workers hold tagged clones) has resolved.
    drop(out_tx);
    let _ = writer.join();
}

/// Decodes and dispatches one request frame. Returns `false` when the
/// connection must close (undecodable frame or version mismatch).
fn dispatch_frame(
    shared: &Arc<Shared>,
    body: &[u8],
    out_tx: &Sender<(u64, Result<ServiceResponse>)>,
) -> bool {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(e) => {
            let fatal = FrameError::Malformed(format!("frame body is not UTF-8: {e}"));
            let _ = out_tx.send((0, Err(frame_error_to_core(&fatal))));
            return false;
        }
    };
    let envelope: RequestEnvelope = match serde_json::from_str(text) {
        Ok(env) => env,
        Err(e) => {
            let fatal = FrameError::Malformed(e.to_string());
            let _ = out_tx.send((0, Err(frame_error_to_core(&fatal))));
            return false;
        }
    };
    if envelope.v != PROTOCOL_VERSION {
        let _ = out_tx.send((
            envelope.id,
            Err(CoreError::Remote {
                kind: "protocol".into(),
                retryable: false,
                message: format!(
                    "unsupported protocol version {} (server speaks {PROTOCOL_VERSION})",
                    envelope.v
                ),
            }),
        ));
        return false;
    }
    let RequestEnvelope {
        id,
        session,
        deadline_ms,
        req,
        ..
    } = envelope;
    // The deadline clock starts when the server decodes the envelope —
    // client and server wall clocks never meet on the wire.
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    match req {
        // Service-level verbs run inline on the reader (open returns
        // immediately — the flow builds as the session's first slice on
        // the worker pool; close drains that session's run queue first,
        // serializing this connection's intake behind it by design).
        ServiceRequest::Open { circuit, config } => {
            let outcome = shared
                .service
                .open(&session, *circuit, *config)
                .map(|_| ServiceResponse::Opened { session });
            let _ = out_tx.send((id, outcome));
        }
        ServiceRequest::Close => {
            let outcome = shared
                .service
                .close(&session)
                .map(|retired| ServiceResponse::Closed {
                    session,
                    stats: *retired.stats(),
                });
            let _ = out_tx.send((id, outcome));
        }
        // Session-queue verbs dispatch as tagged envelopes: the serving
        // pool worker resolves them onto this connection's outcome
        // channel, so the reader is free immediately and responses may
        // complete out of submission order.
        other => {
            let submitted = shared.service.handle(&session).and_then(|h| {
                let reply = ReplyTo::Tagged {
                    id,
                    tx: out_tx.clone(),
                };
                h.submit_to(other, deadline, reply)
            });
            if let Err(e) = submitted {
                let _ = out_tx.send((id, Err(e)));
            }
        }
    }
    true
}

/// The writer side of one connection: hello first, then outcomes in
/// completion order until every sender is gone (or the peer stops
/// reading). Closes the socket on exit.
fn writer_main(mut stream: Stream, out_rx: mpsc::Receiver<(u64, Result<ServiceResponse>)>) {
    let hello = Hello {
        proto: PROTOCOL_NAME.to_string(),
        version: PROTOCOL_VERSION,
        max_frame: MAX_FRAME as u64,
    };
    if send_json(&mut stream, &hello).is_err() {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    while let Ok((id, outcome)) = out_rx.recv() {
        let envelope = ResponseEnvelope {
            v: PROTOCOL_VERSION,
            id,
            outcome: outcome.map_err(|e| WireError::from(&e)),
        };
        if send_json(&mut stream, &envelope).is_err() {
            break; // peer gone; stop serializing into the void
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn send_json<T: serde::Serialize>(stream: &mut Stream, value: &T) -> Result<(), FrameError> {
    let body = serde_json::to_string(value)
        .map_err(|e| FrameError::Malformed(format!("serialization failed: {e}")))?;
    write_frame(stream, body.as_bytes(), MAX_FRAME)
}

/// Wraps a connection-fatal frame error in the wire error form (carried
/// as [`CoreError::Remote`] so the original frame kind string survives
/// the trip through the outcome channel).
fn frame_error_to_core(e: &FrameError) -> CoreError {
    CoreError::Remote {
        kind: e.kind_str().to_string(),
        retryable: false,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::io::Read;

    fn counts(server: &NetServer) -> (usize, usize) {
        let readers = server.shared.readers.lock().unwrap();
        let conns = server.shared.conns.lock().unwrap();
        (readers.len(), conns.len())
    }

    fn all_readers_done(server: &NetServer) -> bool {
        server.shared.conns.lock().unwrap().is_empty()
            && server
                .shared
                .readers
                .lock()
                .unwrap()
                .iter()
                .all(JoinHandle::is_finished)
    }

    #[test]
    fn finished_connection_threads_are_joined() {
        let service = Arc::new(RoutingService::new(ServiceConfig::default()));
        let server = NetServer::bind_tcp("127.0.0.1:0", service).unwrap();
        let addr = server.local_addr().unwrap();
        for cycle in 0..50 {
            let mut sock = TcpStream::connect(addr).unwrap();
            // The hello means this connection was accepted, and the accept
            // loop registers connections one at a time, so every earlier
            // reader handle has been pushed (and reaped, if finished).
            assert!(read_frame(&mut sock, MAX_FRAME).unwrap().is_some());
            let (readers, live) = counts(&server);
            assert!(
                readers <= live + 1,
                "cycle {cycle}: {readers} reader handles for {live} live connections"
            );
            sock.shutdown(Shutdown::Write).unwrap();
            let mut rest = Vec::new();
            sock.read_to_end(&mut rest).unwrap();
            // Let this connection's reader exit before the next accept,
            // so at most one handle is between exit and the next reap.
            let start = Instant::now();
            while !all_readers_done(&server) {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "reader never exited"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        server.shutdown();
    }
}
