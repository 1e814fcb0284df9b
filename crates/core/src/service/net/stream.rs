//! A byte stream that is either a TCP socket or (on unix) a unix-domain
//! socket — the one transport abstraction the server and client share.
//! The protocol is transport-agnostic above this point: frames, envelopes
//! and semantics are identical on both.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;

/// One connected byte stream.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Wraps a TCP connection with Nagle's algorithm disabled. Every frame
    /// leaves in one write, so holding a small segment back until the
    /// peer's ACK arrives only waits out the peer's delayed-ACK timer
    /// (~40 ms per round trip on Linux). Every TCP stream the server
    /// accepts or the client opens goes through here.
    pub(crate) fn tcp(sock: TcpStream) -> io::Result<Stream> {
        sock.set_nodelay(true)?;
        Ok(Stream::Tcp(sock))
    }

    /// An independently owned handle to the same connection (reader and
    /// writer threads each hold one).
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Shuts down one or both directions (see [`TcpStream::shutdown`]).
    pub(crate) fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}
