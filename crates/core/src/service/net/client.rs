//! A blocking client for the wire protocol.
//!
//! [`NetClient`] speaks to one [`NetServer`](super::NetServer) over one
//! connection. Calls are synchronous ([`NetClient::call`]) or pipelined
//! ([`NetClient::send`] several requests, then [`NetClient::wait`] each
//! id) — responses arriving out of order are buffered by correlation id,
//! so a pipelined burst that the server coalesces into one commit
//! resolves every waiter correctly regardless of completion order.
//!
//! Remote failures come back as typed [`CoreError`] values:
//! service-level errors as [`CoreError::Remote`] carrying the wire kind
//! string (so [`CoreError::kind`] and [`CoreError::is_retryable`] behave
//! exactly as they would in-process), and transport/frame failures with
//! the connection-fatal kinds of `PROTOCOL.md` §6.

use super::super::{EditReceipt, ServiceRequest, ServiceResponse, SessionSnapshot, StatsReport};
use super::frame::{read_frame, write_frame, FrameError};
use super::stream::Stream;
use super::wire::{Hello, RequestEnvelope, ResponseEnvelope, PROTOCOL_NAME, PROTOCOL_VERSION};
use crate::pipeline::GsinoConfig;
use crate::session::{EcoEdit, SessionStats};
use crate::{CoreError, Result};
use gsino_grid::net::Circuit;
use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;

/// A blocking wire-protocol client over one connection.
///
/// Not thread-safe by design (one stream, sequential frames); clients
/// wanting concurrency open more connections — sessions are named
/// service-side, so any connection may address any session.
pub struct NetClient {
    stream: Stream,
    hello: Hello,
    next_id: u64,
    /// Responses that arrived while waiting for a different id.
    pending: HashMap<u64, Result<ServiceResponse>>,
    /// An uncorrelated (`id: 0`) fatal error frame poisons the
    /// connection: every subsequent wait reports it.
    fatal: Option<CoreError>,
}

impl NetClient {
    /// Connects over TCP and performs the hello handshake.
    ///
    /// # Errors
    ///
    /// Connection-fatal wire errors (`io`, `frame_*`, `protocol`) as
    /// [`CoreError::Remote`].
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<NetClient> {
        let stream = TcpStream::connect(addr)
            .and_then(Stream::tcp)
            .map_err(io_to_core)?;
        Self::handshake(stream)
    }

    /// Connects over a unix-domain socket and performs the handshake.
    ///
    /// # Errors
    ///
    /// As [`NetClient::connect_tcp`].
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<NetClient> {
        let stream = UnixStream::connect(path).map_err(io_to_core)?;
        Self::handshake(Stream::Unix(stream))
    }

    fn handshake(mut stream: Stream) -> Result<NetClient> {
        // Bound the hello read conservatively; the negotiated maximum
        // applies only after the hello arrives.
        let body = read_frame(&mut stream, 64 * 1024)
            .map_err(frame_to_core)?
            .ok_or_else(|| protocol_error("connection closed before the hello frame"))?;
        let text = std::str::from_utf8(&body)
            .map_err(|e| protocol_error(format!("hello frame is not UTF-8: {e}")))?;
        let hello: Hello = serde_json::from_str(text)
            .map_err(|e| protocol_error(format!("malformed hello frame: {e}")))?;
        if hello.proto != PROTOCOL_NAME {
            return Err(protocol_error(format!(
                "peer speaks `{}`, expected `{PROTOCOL_NAME}`",
                hello.proto
            )));
        }
        if hello.version != PROTOCOL_VERSION {
            return Err(protocol_error(format!(
                "peer speaks version {}, this client speaks {PROTOCOL_VERSION}",
                hello.version
            )));
        }
        Ok(NetClient {
            stream,
            hello,
            next_id: 1,
            pending: HashMap::new(),
            fatal: None,
        })
    }

    /// The server's hello (protocol name, version, frame ceiling).
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// Sends one request without waiting, returning its correlation id
    /// for a later [`NetClient::wait`] — the pipelining primitive.
    ///
    /// # Errors
    ///
    /// Connection-fatal wire errors.
    pub fn send(
        &mut self,
        session: &str,
        req: ServiceRequest,
        deadline_ms: Option<u64>,
    ) -> Result<u64> {
        if let Some(fatal) = &self.fatal {
            return Err(fatal.clone());
        }
        let id = self.next_id;
        self.next_id += 1;
        let envelope = RequestEnvelope {
            v: PROTOCOL_VERSION,
            id,
            session: session.to_string(),
            deadline_ms,
            req,
        };
        let body = serde_json::to_string(&envelope)
            .map_err(|e| protocol_error(format!("request serialization failed: {e}")))?;
        write_frame(
            &mut self.stream,
            body.as_bytes(),
            self.hello.max_frame as usize,
        )
        .map_err(frame_to_core)?;
        Ok(id)
    }

    /// Blocks until the response for `id` arrives (buffering any other
    /// responses read meanwhile) and returns its outcome.
    ///
    /// # Errors
    ///
    /// The request's own typed error, or a connection-fatal wire error.
    pub fn wait(&mut self, id: u64) -> Result<ServiceResponse> {
        loop {
            if let Some(outcome) = self.pending.remove(&id) {
                return outcome;
            }
            if let Some(fatal) = &self.fatal {
                return Err(fatal.clone());
            }
            let body = read_frame(&mut self.stream, self.hello.max_frame as usize)
                .map_err(frame_to_core)?
                .ok_or_else(|| protocol_error("connection closed with the response outstanding"))?;
            let text = std::str::from_utf8(&body)
                .map_err(|e| protocol_error(format!("response frame is not UTF-8: {e}")))?;
            let envelope: ResponseEnvelope = serde_json::from_str(text)
                .map_err(|e| protocol_error(format!("malformed response frame: {e}")))?;
            let outcome = envelope.outcome.map_err(CoreError::from);
            if envelope.id == 0 {
                // Uncorrelated fatal: the server is about to drop us.
                self.fatal = Some(match outcome {
                    Err(e) => e,
                    Ok(_) => protocol_error("uncorrelated non-error response (id 0)"),
                });
                continue;
            }
            self.pending.insert(envelope.id, outcome);
        }
    }

    /// [`NetClient::send`] + [`NetClient::wait`]: one synchronous
    /// round trip.
    ///
    /// # Errors
    ///
    /// As [`NetClient::wait`].
    pub fn call(&mut self, session: &str, req: ServiceRequest) -> Result<ServiceResponse> {
        let id = self.send(session, req, None)?;
        self.wait(id)
    }

    /// [`NetClient::call`] with a round-trip deadline in milliseconds
    /// (measured server-side from decode; see `PROTOCOL.md` §7).
    ///
    /// # Errors
    ///
    /// `canceled` once the deadline fires; otherwise as
    /// [`NetClient::wait`].
    pub fn call_within(
        &mut self,
        session: &str,
        req: ServiceRequest,
        deadline_ms: u64,
    ) -> Result<ServiceResponse> {
        let id = self.send(session, req, Some(deadline_ms))?;
        self.wait(id)
    }

    // ---- typed conveniences, mirroring SessionHandle ----

    /// Opens a named session (the flow builds on the server's worker
    /// thread; this returns as soon as the session is registered).
    ///
    /// # Errors
    ///
    /// `session_busy` / `overloaded` / config errors, as
    /// [`RoutingService::open`](super::super::RoutingService::open).
    pub fn open(&mut self, session: &str, circuit: Circuit, config: GsinoConfig) -> Result<()> {
        match self.call(
            session,
            ServiceRequest::Open {
                circuit: Box::new(circuit),
                config: Box::new(config),
            },
        )? {
            ServiceResponse::Opened { .. } => Ok(()),
            other => Err(unexpected("opened", &other)),
        }
    }

    /// Commits a batch of edits as one transaction.
    ///
    /// # Errors
    ///
    /// As [`SessionHandle::edit`](super::super::SessionHandle::edit),
    /// over the wire.
    pub fn edit(&mut self, session: &str, edits: Vec<EcoEdit>) -> Result<EditReceipt> {
        match self.call(session, ServiceRequest::Edit(edits))? {
            ServiceResponse::Committed(receipt) => Ok(receipt),
            other => Err(unexpected("committed", &other)),
        }
    }

    /// Reads a summary of the session's committed state.
    ///
    /// # Errors
    ///
    /// As [`NetClient::wait`].
    pub fn query(&mut self, session: &str) -> Result<SessionSnapshot> {
        match self.call(session, ServiceRequest::Query)? {
            ServiceResponse::Snapshot(snapshot) => Ok(snapshot),
            other => Err(unexpected("snapshot", &other)),
        }
    }

    /// Reads the session's service-level health counters.
    ///
    /// # Errors
    ///
    /// As [`NetClient::wait`].
    pub fn stats(&mut self, session: &str) -> Result<StatsReport> {
        match self.call(session, ServiceRequest::Stats)? {
            ServiceResponse::Stats(report) => Ok(report),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Runs a full oracle audit; `Ok(true)` means everything matched.
    ///
    /// # Errors
    ///
    /// As [`NetClient::wait`].
    pub fn verify(&mut self, session: &str) -> Result<bool> {
        match self.call(session, ServiceRequest::Verify)? {
            ServiceResponse::Verified { clean } => Ok(clean),
            other => Err(unexpected("verified", &other)),
        }
    }

    /// Closes a session (drains its mailbox first), returning its final
    /// lifetime counters. The retired session object itself stays
    /// server-side.
    ///
    /// # Errors
    ///
    /// As [`NetClient::wait`].
    pub fn close(&mut self, session: &str) -> Result<SessionStats> {
        match self.call(session, ServiceRequest::Close)? {
            ServiceResponse::Closed { stats, .. } => Ok(stats),
            other => Err(unexpected("closed", &other)),
        }
    }
}

fn frame_to_core(e: FrameError) -> CoreError {
    CoreError::Remote {
        kind: e.kind_str().to_string(),
        retryable: false,
        message: e.to_string(),
    }
}

fn io_to_core(e: std::io::Error) -> CoreError {
    CoreError::Remote {
        kind: "io".to_string(),
        retryable: false,
        message: format!("transport error: {e}"),
    }
}

fn protocol_error(message: impl Into<String>) -> CoreError {
    CoreError::Remote {
        kind: "protocol".to_string(),
        retryable: false,
        message: message.into(),
    }
}

/// The server answered with the wrong response variant — a server-side
/// protocol bug surfaced as a typed error.
fn unexpected(expected: &str, got: &ServiceResponse) -> CoreError {
    protocol_error(format!(
        "protocol mismatch: expected `{expected}`, got {got:?}"
    ))
}
