//! TCP/Unix socket plumbing shared by coordinator and worker: one
//! [`Endpoint`] type both sides parse the same way, listener/stream enums
//! so the rest of the crate is transport-agnostic, and [`LineStream`], the
//! one newline framing both sides speak through. `std::net` and
//! `std::os::unix::net` only — no async runtime.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::protocol::MAX_LINE_BYTES;
use crate::OrchestrateError;

/// Bytes one `read` call asks the socket for.
const READ_CHUNK: usize = 16 * 1024;

/// A listen/connect address: a TCP socket address (`host:port`) or a
/// Unix socket path (anything containing a `/`). Tests and the CI smoke
/// use Unix paths — no port collisions; multi-machine runs use TCP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `host:port`, resolved by `std::net`.
    Tcp(String),
    /// Filesystem path of a Unix domain socket.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an address string: a `/` anywhere means a Unix socket
    /// path, otherwise it must look like `host:port`.
    pub fn parse(addr: &str) -> Result<Endpoint, OrchestrateError> {
        if addr.is_empty() {
            return Err(OrchestrateError::Addr("empty address".into()));
        }
        if addr.contains('/') {
            return Ok(Endpoint::Unix(PathBuf::from(addr)));
        }
        if addr
            .rsplit_once(':')
            .is_none_or(|(host, port)| host.is_empty() || port.parse::<u16>().is_err())
        {
            return Err(OrchestrateError::Addr(format!(
                "{addr:?} is neither host:port nor a /path to a unix socket"
            )));
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "{a}"),
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
        }
    }
}

/// A nonblocking listener over either transport. Owns (and on drop
/// removes) the socket file in the Unix case.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix listener plus the path to unlink on drop.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds nonblocking. An existing Unix socket file at the path is
    /// replaced (a stale socket from a dead coordinator would otherwise
    /// wedge every restart).
    pub fn bind(ep: &Endpoint) -> Result<Listener, OrchestrateError> {
        match ep {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)
                    .map_err(|e| OrchestrateError::Addr(format!("bind {addr}: {e}")))?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)
                    .map_err(|e| OrchestrateError::Addr(format!("bind {}: {e}", path.display())))?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
        }
    }

    /// Accepts one pending connection, or `None` when nothing is
    /// waiting. Accepted streams start nonblocking.
    pub fn accept(&self) -> Result<Option<Stream>, OrchestrateError> {
        let stream = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Stream::Tcp(s),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e.into()),
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Stream::Unix(s),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e.into()),
            },
        };
        stream.set_nonblocking(true)?;
        Ok(Some(stream))
    }

    /// The bound address, with TCP's OS-assigned port resolved — what a
    /// coordinator prints for workers to connect to.
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map_or_else(|_| "<unknown>".into(), |a| a.to_string()),
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected stream over either transport.
pub enum Stream {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix stream.
    Unix(UnixStream),
}

impl Stream {
    /// Toggles nonblocking mode (both directions).
    pub fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nb),
            Stream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Bounds blocking reads so a dead peer surfaces as an error instead
    /// of a hang.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A [`Stream`] framed into newline-terminated protocol lines. Output is
/// queued and written as the socket takes it; input is buffered until a
/// line completes. A line still without its newline past
/// [`MAX_LINE_BYTES`] is a protocol error, raised at most one read chunk
/// past the bound, so a peer cannot make either side buffer without
/// limit. Whether a call blocks is the stream's mode: the coordinator
/// polls nonblocking streams, a worker blocks except while it computes.
pub struct LineStream {
    stream: Stream,
    inbuf: Vec<u8>,
    /// Length of the `inbuf` prefix already searched for a newline.
    scanned: usize,
    outbuf: Vec<u8>,
}

impl LineStream {
    /// Frames `stream`.
    pub fn new(stream: Stream) -> LineStream {
        LineStream {
            stream,
            inbuf: Vec::new(),
            scanned: 0,
            outbuf: Vec::new(),
        }
    }

    /// The framed stream, for its mode and read timeout.
    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// Queues `text` (whole lines) for [`write_queued`](Self::write_queued).
    pub fn queue(&mut self, text: &str) {
        self.outbuf.extend_from_slice(text.as_bytes());
    }

    /// Writes queued output until none is left or a nonblocking socket is
    /// full; returns whether anything was written.
    pub fn write_queued(&mut self) -> std::io::Result<bool> {
        let mut wrote = false;
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer closed the connection",
                    ))
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                    wrote = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(wrote)
    }

    /// The next line, newline stripped, invalid UTF-8 replaced: a buffered
    /// one, else read until one completes. `Ok(None)` when the socket has
    /// nothing more for now (a nonblocking stream is drained, or a
    /// blocking one's read timeout passed). End of stream is
    /// [`OrchestrateError::Failed`]; an overlong line is
    /// [`OrchestrateError::Protocol`].
    pub fn read_line(&mut self) -> Result<Option<String>, OrchestrateError> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if let Some(nl) = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + nl;
                let line = String::from_utf8_lossy(&self.inbuf[..end]).into_owned();
                self.inbuf.drain(..=end);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.inbuf.len();
            if self.inbuf.len() > MAX_LINE_BYTES {
                return Err(OrchestrateError::Protocol {
                    line: "<oversized>".into(),
                    reason: "line exceeds maximum length".into(),
                });
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(OrchestrateError::Failed(
                        "peer closed the connection".into(),
                    ))
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Connects (blocking), retrying until `retry_for` elapses — workers
/// routinely start before the coordinator has bound its socket.
pub fn connect(ep: &Endpoint, retry_for: Duration) -> Result<Stream, OrchestrateError> {
    let deadline = Instant::now() + retry_for;
    loop {
        let attempt = match ep {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        };
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => {
                return Err(OrchestrateError::Addr(format!("connect {ep}: {e}")));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_distinguishes_transports() {
        assert_eq!(
            Endpoint::parse("/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("./rel/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("./rel/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7001").unwrap(),
            Endpoint::Tcp("127.0.0.1:7001".into())
        );
        assert!(Endpoint::parse("").is_err());
        assert!(Endpoint::parse("no-port-here").is_err());
        assert!(Endpoint::parse("host:notaport").is_err());
    }

    #[test]
    fn unix_listener_replaces_stale_socket_and_unlinks_on_drop() {
        let path = std::env::temp_dir().join(format!("snd_orch_net_{}.sock", std::process::id()));
        let ep = Endpoint::Unix(path.clone());
        let first = Listener::bind(&ep).unwrap();
        drop(first);
        assert!(!path.exists(), "socket file unlinked on drop");
        // A stale file (simulated dead coordinator) does not wedge bind.
        std::fs::write(&path, b"stale").unwrap();
        let second = Listener::bind(&ep).unwrap();
        assert!(second.accept().unwrap().is_none(), "nonblocking accept");
        drop(second);
    }
}
