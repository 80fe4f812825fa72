//! Reusable client plumbing for both server protocols: a line-oriented
//! `capsule-serve/1` connection, the framed pipelined `capsule-serve/2`
//! ([`crate::frame`]), one-shot request helpers, a keep-alive
//! [`ConnectionPool`], and the health probe the fleet coordinator polls
//! backends with.
//!
//! Everything that talks *to* a capsule-serve endpoint — `capsule-client`,
//! the closed-loop `capsule-loadgen`, the `capsule-fleet` coordinator,
//! the e2e tests and the open-loop replayer of the benchmark under
//! `capsbench/` — goes through [`Connection`], so timeout handling and
//! error classification live in exactly one place.
//!
//! The v2 half of the API is the `submit`/`collect` pair: `submit`
//! writes a request frame and returns its id without waiting, `collect`
//! returns the next completion (any id). [`Connection::request`] remains
//! the synchronous one-round-trip shape on both protocols.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use capsule_core::output::Json;

use crate::frame;

/// Why a request over a [`Connection`] failed.
///
/// The variants matter to the fleet's retry policy: every one of them is
/// a *transport* fault of the endpoint (retryable on another backend),
/// as opposed to a structured `ok:false` response, which is a statement
/// about the job itself.
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect (or address resolution) failed.
    Connect(std::io::Error),
    /// Writing the request failed.
    Send(std::io::Error),
    /// Reading the response failed (includes read timeouts).
    Recv(std::io::Error),
    /// The endpoint closed the connection without responding.
    Closed,
    /// The response was not valid JSON.
    BadJson(String),
    /// The endpoint broke the `capsule-serve/2` framing contract
    /// (bad preamble, misframed response).
    Proto(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect: {e}"),
            ClientError::Send(e) => write!(f, "send: {e}"),
            ClientError::Recv(e) => write!(f, "recv: {e}"),
            ClientError::Closed => f.write_str("connection closed before a response arrived"),
            ClientError::BadJson(e) => write!(f, "unparseable response: {e}"),
            ClientError::Proto(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Which wire protocol a [`Connection`] speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// `capsule-serve/1`: newline-delimited JSON, one request per
    /// round-trip.
    #[default]
    V1,
    /// `capsule-serve/2`: length-prefixed binary frames, pipelined.
    V2,
}

impl Proto {
    /// Parses the `--proto` flag / `CAPSULE_*_PROTO` value.
    pub fn parse(s: &str) -> Option<Proto> {
        match s {
            "v1" => Some(Proto::V1),
            "v2" => Some(Proto::V2),
            _ => None,
        }
    }

    /// The flag spelling (`"v1"` / `"v2"`).
    pub fn name(self) -> &'static str {
        match self {
            Proto::V1 => "v1",
            Proto::V2 => "v2",
        }
    }
}

impl std::fmt::Display for Proto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Proto {
    type Err = String;

    fn from_str(s: &str) -> Result<Proto, String> {
        Proto::parse(s).ok_or_else(|| format!("unknown protocol {s:?} (expected v1 or v2)"))
    }
}

/// One connection to a capsule-serve endpoint, speaking either wire
/// protocol.
///
/// On v2, [`Connection::submit`] and [`Connection::collect`] expose
/// pipelining: many requests may be in flight and completions arrive in
/// whatever order the workers finish. On v1 the same API degrades
/// gracefully to in-order request/response (the server processes a v1
/// connection serially), so callers can be written once against
/// submit/collect and benchmarked over both protocols.
#[derive(Debug)]
pub struct Connection {
    proto: Proto,
    pub(crate) writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Ids submitted but not yet returned to the caller, oldest first.
    submitted: VecDeque<u64>,
    /// v2 completions read off the wire while waiting for a different
    /// id, in arrival order.
    arrived: VecDeque<(u64, Json)>,
}

impl Connection {
    /// Connects to `addr` (a `HOST:PORT` string) speaking v1.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when resolution or the TCP connect fails.
    pub fn connect(addr: &str) -> Result<Connection, ClientError> {
        Connection::connect_with(addr, Proto::V1)
    }

    /// Connects to `addr` speaking `proto`. A v2 connection exchanges
    /// preambles before returning, so a success means the endpoint
    /// really speaks v2.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] on connect failure, [`ClientError::Proto`]
    /// when the endpoint answers with a bad preamble.
    pub fn connect_with(addr: &str, proto: Proto) -> Result<Connection, ClientError> {
        Connection::from_stream(TcpStream::connect(addr).map_err(ClientError::Connect)?, proto)
    }

    /// Connects to `addr` giving up after `timeout`, so probing a dead
    /// backend cannot hang the caller. Speaks v1.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] on resolution failure or timeout.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> Result<Connection, ClientError> {
        Connection::connect_timeout_with(addr, timeout, Proto::V1)
    }

    /// [`Connection::connect_timeout`] with an explicit protocol.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] on resolution failure or timeout,
    /// [`ClientError::Proto`] on a bad v2 preamble.
    pub fn connect_timeout_with(
        addr: &str,
        timeout: Duration,
        proto: Proto,
    ) -> Result<Connection, ClientError> {
        let resolved = resolve(addr)?;
        let stream =
            TcpStream::connect_timeout(&resolved, timeout).map_err(ClientError::Connect)?;
        Connection::from_stream(stream, proto)
    }

    fn from_stream(stream: TcpStream, proto: Proto) -> Result<Connection, ClientError> {
        // Requests are small writes the client then waits on: send each
        // at once instead of holding it for the server's delayed ACK.
        stream.set_nodelay(true).map_err(ClientError::Connect)?;
        let read_half = stream.try_clone().map_err(ClientError::Connect)?;
        let mut conn = Connection {
            proto,
            writer: stream,
            reader: BufReader::new(read_half),
            next_id: 1,
            submitted: VecDeque::new(),
            arrived: VecDeque::new(),
        };
        if proto == Proto::V2 {
            frame::write_preamble(&mut conn.writer)
                .and_then(|()| conn.writer.flush())
                .map_err(ClientError::Send)?;
            frame::read_preamble(&mut conn.reader).map_err(|e| match e {
                frame::FrameError::Io(io) => ClientError::Recv(io),
                other => ClientError::Proto(other.to_string()),
            })?;
        }
        Ok(conn)
    }

    /// The protocol this connection speaks.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Requests submitted whose responses have not been returned yet.
    pub fn outstanding(&self) -> usize {
        self.submitted.len() + self.arrived.len()
    }

    /// True when no response is pending — the state a pooled keep-alive
    /// connection must be in to be reused.
    pub fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    /// Cheap liveness check for pooled idle connections: an idle, live
    /// endpoint has sent nothing, so a non-blocking peek must report
    /// would-block. EOF (the endpoint closed the idle connection) and
    /// unexpected bytes both disqualify it.
    pub fn is_live(&self) -> bool {
        if self.writer.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let result = self.writer.peek(&mut probe);
        let restored = self.writer.set_nonblocking(false).is_ok();
        restored && matches!(result, Err(e) if e.kind() == ErrorKind::WouldBlock)
    }

    /// Caps how long receiving may block (`None` removes the cap).
    /// Transport-level insurance for talking to a wedged endpoint.
    ///
    /// # Errors
    ///
    /// [`ClientError::Recv`] when the socket rejects the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(timeout).map_err(ClientError::Recv)
    }

    /// Writes one request without waiting for the reply — the deferred
    /// half of [`Connection::request`] — and returns the id its
    /// response will carry. On v2 many submits may be outstanding at
    /// once; on v1 responses come back in submission order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Send`] when the write fails.
    pub fn submit(&mut self, line: &str) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.proto {
            Proto::V1 => self.write_line(line)?,
            Proto::V2 => {
                let t = line_tag(line);
                frame::write_frame(&mut self.writer, id, t, line.as_bytes())
                    .and_then(|()| self.writer.flush())
                    .map_err(ClientError::Send)?;
            }
        }
        self.submitted.push_back(id);
        Ok(id)
    }

    /// Returns the next completed response as `(id, response)`. On v2
    /// this is the next completion *in arrival order*, which may not be
    /// submission order; on v1 it is always the oldest outstanding
    /// request.
    ///
    /// # Errors
    ///
    /// [`ClientError::Recv`] / [`ClientError::Closed`] on transport
    /// faults, [`ClientError::BadJson`] on an unparseable response.
    pub fn collect(&mut self) -> Result<(u64, Json), ClientError> {
        if let Some(done) = self.arrived.pop_front() {
            self.forget(done.0);
            return Ok(done);
        }
        match self.proto {
            Proto::V1 => {
                let id = self.submitted.pop_front().unwrap_or(0);
                Ok((id, self.read_line_json()?))
            }
            Proto::V2 => {
                let done = self.read_frame_json()?;
                self.forget(done.0);
                Ok(done)
            }
        }
    }

    /// Waits for the response with a specific id, buffering any other
    /// completions that arrive first (they remain collectable).
    ///
    /// # Errors
    ///
    /// As [`Connection::collect`].
    pub fn recv_for(&mut self, id: u64) -> Result<Json, ClientError> {
        if let Some(at) = self.arrived.iter().position(|(got, _)| *got == id) {
            let (_, json) = self.arrived.remove(at).expect("position just found");
            self.forget(id);
            return Ok(json);
        }
        match self.proto {
            Proto::V1 => {
                // v1 responses arrive in submission order: drain and
                // buffer until the wanted one is at the front.
                loop {
                    let front = self.submitted.pop_front().unwrap_or(0);
                    let json = self.read_line_json()?;
                    if front == id {
                        return Ok(json);
                    }
                    self.arrived.push_back((front, json));
                }
            }
            Proto::V2 => loop {
                let (got, json) = self.read_frame_json()?;
                if got == id {
                    self.forget(id);
                    return Ok(json);
                }
                self.arrived.push_back((got, json));
            },
        }
    }

    /// Writes one request line without waiting for the reply, for
    /// callers that want to do other work (or cancel the job) while it
    /// runs. Equivalent to discarding the id of [`Connection::submit`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Send`] when the write fails.
    pub fn send(&mut self, line: &str) -> Result<(), ClientError> {
        self.submit(line).map(|_| ())
    }

    /// Reads the next response, whatever request it answers.
    ///
    /// # Errors
    ///
    /// As [`Connection::collect`].
    pub fn recv(&mut self) -> Result<Json, ClientError> {
        self.collect().map(|(_, json)| json)
    }

    /// Sends one request and reads its matching response.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the send or receive half.
    pub fn request(&mut self, line: &str) -> Result<Json, ClientError> {
        let id = self.submit(line)?;
        self.recv_for(id)
    }

    /// Splits an idle v2 connection into independently owned send and
    /// receive halves, so a submitter thread can keep the pipeline full
    /// while a collector thread drains completions — the open-loop
    /// driver shape.
    ///
    /// # Errors
    ///
    /// [`ClientError::Proto`] on a v1 connection (the line protocol has
    /// no out-of-order half) or when responses are still outstanding.
    pub fn into_split(self) -> Result<(SendHalf, RecvHalf), ClientError> {
        if self.proto != Proto::V2 {
            return Err(ClientError::Proto("only v2 connections split".to_string()));
        }
        if !self.is_idle() {
            return Err(ClientError::Proto("cannot split with responses outstanding".to_string()));
        }
        Ok((
            SendHalf { writer: self.writer, next_id: self.next_id },
            RecvHalf { reader: self.reader },
        ))
    }

    /// Drops `id` from the outstanding-submission queue.
    fn forget(&mut self, id: u64) {
        if let Some(at) = self.submitted.iter().position(|s| *s == id) {
            self.submitted.remove(at);
        }
    }

    fn write_line(&mut self, line: &str) -> Result<(), ClientError> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        self.writer.write_all(&bytes).and_then(|()| self.writer.flush()).map_err(ClientError::Send)
    }

    fn read_line_json(&mut self) -> Result<Json, ClientError> {
        read_response_line(&mut self.reader)
    }

    fn read_frame_json(&mut self) -> Result<(u64, Json), ClientError> {
        read_response_frame(&mut self.reader)
    }
}

/// The tag a request line's op maps to; unknown ops are framed as
/// [`frame::tag::ERROR`] and rejected by the server as a bad frame —
/// the same terminal answer a v1 unknown op gets, one hop later.
fn line_tag(line: &str) -> u8 {
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(|j| j.get("op"))
        .and_then(Json::as_str)
        .and_then(frame::op_tag)
        .unwrap_or(frame::tag::ERROR)
}

fn read_response_line(reader: &mut BufReader<TcpStream>) -> Result<Json, ClientError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(ClientError::Recv)?;
    if n == 0 || line.trim().is_empty() {
        return Err(ClientError::Closed);
    }
    Json::parse(line.trim()).map_err(|e| ClientError::BadJson(e.to_string()))
}

fn read_response_frame(reader: &mut impl Read) -> Result<(u64, Json), ClientError> {
    let f = match frame::read_frame(reader) {
        Ok(f) => f,
        Err(frame::FrameError::Eof) => return Err(ClientError::Closed),
        Err(frame::FrameError::Io(e)) => return Err(ClientError::Recv(e)),
        Err(other) => return Err(ClientError::Proto(other.to_string())),
    };
    let text = std::str::from_utf8(&f.payload)
        .map_err(|e| ClientError::BadJson(format!("non-UTF-8 payload: {e}")))?;
    let json = Json::parse(text).map_err(|e| ClientError::BadJson(e.to_string()))?;
    Ok((f.id, json))
}

/// The submit half of a split v2 connection (see
/// [`Connection::into_split`]).
#[derive(Debug)]
pub struct SendHalf {
    writer: TcpStream,
    next_id: u64,
}

impl SendHalf {
    /// Writes one request frame and returns its id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Send`] when the write fails.
    pub fn submit(&mut self, line: &str) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        frame::write_frame(&mut self.writer, id, line_tag(line), line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(ClientError::Send)?;
        Ok(id)
    }
}

/// The collect half of a split v2 connection.
#[derive(Debug)]
pub struct RecvHalf {
    reader: BufReader<TcpStream>,
}

impl RecvHalf {
    /// Reads the next completion in arrival order.
    ///
    /// # Errors
    ///
    /// As [`Connection::collect`].
    pub fn collect(&mut self) -> Result<(u64, Json), ClientError> {
        read_response_frame(&mut self.reader)
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, ClientError> {
    addr.to_socket_addrs()
        .map_err(ClientError::Connect)?
        .next()
        .ok_or_else(|| ClientError::Connect(std::io::Error::other("address resolved to nothing")))
}

/// One request/response exchange on a fresh v1 connection.
///
/// # Errors
///
/// Any [`ClientError`] from connecting or the exchange.
pub fn request_once(addr: &str, line: &str) -> Result<Json, ClientError> {
    Connection::connect(addr)?.request(line)
}

/// One request/response exchange on a fresh connection speaking `proto`.
///
/// # Errors
///
/// Any [`ClientError`] from connecting or the exchange.
pub fn request_once_with(addr: &str, line: &str, proto: Proto) -> Result<Json, ClientError> {
    Connection::connect_with(addr, proto)?.request(line)
}

/// A small keep-alive connection pool: checked-in idle connections are
/// reused (after a liveness check) instead of paying a TCP connect plus
/// v2 preamble per request — the per-job coordination cost this PR
/// exists to remove from the fleet's dispatch path.
///
/// Reconnection is transparent: a checkout that finds only dead idle
/// connections dials a fresh one, and [`ConnectionPool::request`]
/// retries once on a fresh connection when a *reused* connection turns
/// out to be stale mid-request.
#[derive(Debug)]
pub struct ConnectionPool {
    proto: Proto,
    connect_timeout: Duration,
    max_idle_per_addr: usize,
    idle: Mutex<std::collections::HashMap<String, Vec<Connection>>>,
    checkouts: AtomicU64,
    reuses: AtomicU64,
    dials: AtomicU64,
    redials: AtomicU64,
}

/// A snapshot of a [`ConnectionPool`]'s lifetime counters, for the
/// metrics exposition of whoever owns the pool (the fleet coordinator
/// exports them as `capsule_fleet_pool_*` families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCounters {
    /// Connections checked out (reused + freshly dialed).
    pub checkouts: u64,
    /// Checkouts satisfied by a pooled keep-alive connection.
    pub reuses: u64,
    /// Fresh TCP dials (includes redials).
    pub dials: u64,
    /// Dials forced by a reused connection that died mid-request.
    pub redials: u64,
}

impl ConnectionPool {
    /// A pool dialing `proto` connections with `connect_timeout`,
    /// keeping at most 8 idle connections per address.
    pub fn new(proto: Proto, connect_timeout: Duration) -> ConnectionPool {
        ConnectionPool {
            proto,
            connect_timeout,
            max_idle_per_addr: 8,
            idle: Mutex::new(std::collections::HashMap::new()),
            checkouts: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            dials: AtomicU64::new(0),
            redials: AtomicU64::new(0),
        }
    }

    /// The pool's lifetime counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            dials: self.dials.load(Ordering::Relaxed),
            redials: self.redials.load(Ordering::Relaxed),
        }
    }

    /// The protocol this pool's connections speak.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Idle connections currently pooled for `addr`.
    pub fn idle_count(&self, addr: &str) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(addr)
            .map_or(0, Vec::len)
    }

    /// Checks out a connection to `addr`: a live pooled one when
    /// available (dead ones are discarded), a fresh dial otherwise. The
    /// returned guard checks the connection back in on drop if it is
    /// still clean.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] / [`ClientError::Proto`] from dialing
    /// when no pooled connection is usable.
    pub fn checkout(&self, addr: &str) -> Result<PooledConnection<'_>, ClientError> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        loop {
            let pooled = {
                let mut idle = self.idle.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                idle.get_mut(addr).and_then(Vec::pop)
            };
            match pooled {
                Some(conn) if conn.is_live() => {
                    self.reuses.fetch_add(1, Ordering::Relaxed);
                    return Ok(PooledConnection {
                        pool: self,
                        addr: addr.to_string(),
                        conn: Some(conn),
                        reused: true,
                        poisoned: false,
                    });
                }
                Some(_dead) => continue,
                None => break,
            }
        }
        self.dials.fetch_add(1, Ordering::Relaxed);
        let conn = Connection::connect_timeout_with(addr, self.connect_timeout, self.proto)?;
        Ok(PooledConnection {
            pool: self,
            addr: addr.to_string(),
            conn: Some(conn),
            reused: false,
            poisoned: false,
        })
    }

    /// One request/response over a pooled connection, with a transparent
    /// one-shot reconnect when a reused keep-alive connection turns out
    /// to have died since it was pooled (send failure or close before
    /// any response — faults that prove the request went nowhere).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the exchange (after the retry, if one
    /// applied).
    pub fn request(&self, addr: &str, line: &str) -> Result<Json, ClientError> {
        self.request_timeout(addr, line, None)
    }

    /// [`ConnectionPool::request`] with a per-request read timeout.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the exchange (after the retry, if one
    /// applied).
    pub fn request_timeout(
        &self,
        addr: &str,
        line: &str,
        read_timeout: Option<Duration>,
    ) -> Result<Json, ClientError> {
        let mut guard = self.checkout(addr)?;
        guard.set_read_timeout(read_timeout)?;
        let reused = guard.reused;
        match guard.request(line) {
            Err(ClientError::Send(_) | ClientError::Closed) if reused => {
                drop(guard);
                let mut fresh = self.checkout_fresh(addr)?;
                fresh.set_read_timeout(read_timeout)?;
                fresh.request(line)
            }
            other => other,
        }
    }

    /// Dials a fresh connection, bypassing the idle pool (the retry
    /// path after a stale reuse).
    fn checkout_fresh(&self, addr: &str) -> Result<PooledConnection<'_>, ClientError> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        self.dials.fetch_add(1, Ordering::Relaxed);
        self.redials.fetch_add(1, Ordering::Relaxed);
        let conn = Connection::connect_timeout_with(addr, self.connect_timeout, self.proto)?;
        Ok(PooledConnection {
            pool: self,
            addr: addr.to_string(),
            conn: Some(conn),
            reused: false,
            poisoned: false,
        })
    }

    fn checkin(&self, addr: String, conn: Connection) {
        // Only clean connections go back: idle (no orphaned responses
        // in flight) and with any per-request read timeout cleared.
        if !conn.is_idle() || conn.set_read_timeout(None).is_err() {
            return;
        }
        let mut idle = self.idle.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let slot = idle.entry(addr).or_default();
        if slot.len() < self.max_idle_per_addr {
            slot.push(conn);
        }
    }
}

/// A checked-out pooled connection. Dropping it returns the connection
/// to the pool unless a transport fault poisoned it (structured
/// `ok:false` responses are *not* faults and keep it reusable).
#[derive(Debug)]
pub struct PooledConnection<'a> {
    pool: &'a ConnectionPool,
    addr: String,
    conn: Option<Connection>,
    reused: bool,
    poisoned: bool,
}

impl PooledConnection<'_> {
    /// Whether this checkout reused a pooled keep-alive connection (as
    /// opposed to dialing fresh).
    pub fn reused(&self) -> bool {
        self.reused
    }

    fn conn(&mut self) -> &mut Connection {
        self.conn.as_mut().expect("connection present until drop")
    }

    /// [`Connection::set_read_timeout`], poisoning on failure.
    ///
    /// # Errors
    ///
    /// As [`Connection::set_read_timeout`].
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        let r = self.conn().set_read_timeout(timeout);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    /// [`Connection::request`], poisoning the connection on transport
    /// faults so it is not returned to the pool.
    ///
    /// # Errors
    ///
    /// As [`Connection::request`].
    pub fn request(&mut self, line: &str) -> Result<Json, ClientError> {
        let r = self.conn().request(line);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    /// [`Connection::submit`], poisoning on failure.
    ///
    /// # Errors
    ///
    /// As [`Connection::submit`].
    pub fn submit(&mut self, line: &str) -> Result<u64, ClientError> {
        let r = self.conn().submit(line);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    /// [`Connection::recv_for`], poisoning on failure.
    ///
    /// # Errors
    ///
    /// As [`Connection::recv_for`].
    pub fn recv_for(&mut self, id: u64) -> Result<Json, ClientError> {
        let r = self.conn().recv_for(id);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }
}

impl Drop for PooledConnection<'_> {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            if !self.poisoned {
                self.pool.checkin(std::mem::take(&mut self.addr), conn);
            }
        }
    }
}

/// What a `stats` probe learned about one endpoint — the slice of the
/// full `stats` response that dispatch decisions need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerProbe {
    /// Size of the endpoint's worker pool (its max concurrent jobs).
    pub workers: usize,
    /// Bounded queue depth behind the pool.
    pub queue_capacity: usize,
    /// Jobs running on the endpoint right now (self-reported).
    pub jobs_in_flight: u64,
    /// Completed-job total, for liveness/progress monitoring.
    pub jobs_completed: u64,
}

impl ServerProbe {
    /// Extracts a probe from a full `stats` response; `None` when the
    /// response is not an ok `capsule-serve/1` stats object.
    pub fn from_stats(stats: &Json) -> Option<ServerProbe> {
        if stats.get("ok").and_then(Json::as_bool) != Some(true) {
            return None;
        }
        Some(ServerProbe {
            workers: stats.get("workers")?.as_u64()? as usize,
            queue_capacity: stats.get("queue_capacity")?.as_u64()? as usize,
            jobs_in_flight: stats.get("jobs_in_flight")?.as_u64()?,
            jobs_completed: stats.get("counters")?.get("jobs_completed").and_then(Json::as_u64)?,
        })
    }
}

/// Probes `addr` with a `stats` request under tight timeouts: connect
/// within `connect_timeout`, answer within `read_timeout`. This is the
/// fleet coordinator's backend health check — a backend that cannot
/// answer `stats` promptly is not a backend jobs should be routed to.
///
/// # Errors
///
/// [`ClientError`] on any transport fault; `BadJson` doubles as the
/// error for a well-transported but malformed stats object.
pub fn probe(
    addr: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<ServerProbe, ClientError> {
    let mut conn = Connection::connect_timeout(addr, connect_timeout)?;
    conn.set_read_timeout(Some(read_timeout))?;
    let stats = conn.request(r#"{"op":"stats"}"#)?;
    ServerProbe::from_stats(&stats)
        .ok_or_else(|| ClientError::BadJson("stats response missing pool fields".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_extracts_pool_geometry_from_a_stats_response() {
        let stats = Json::parse(
            r#"{"schema":"capsule-serve/1","op":"stats","ok":true,
                "workers":3,"queue_capacity":16,"cache_capacity":64,"cache_entries":2,
                "jobs_in_flight":1,
                "counters":{"jobs_completed":41,"jobs_failed":0}}"#,
        )
        .unwrap();
        assert_eq!(
            ServerProbe::from_stats(&stats),
            Some(ServerProbe {
                workers: 3,
                queue_capacity: 16,
                jobs_in_flight: 1,
                jobs_completed: 41
            })
        );
    }

    #[test]
    fn probe_rejects_non_ok_and_malformed_responses() {
        let not_ok = Json::parse(r#"{"op":"stats","ok":false,"workers":3}"#).unwrap();
        assert_eq!(ServerProbe::from_stats(&not_ok), None);
        let missing = Json::parse(r#"{"op":"stats","ok":true,"workers":3}"#).unwrap();
        assert_eq!(ServerProbe::from_stats(&missing), None);
    }

    #[test]
    fn connecting_to_a_dead_endpoint_is_a_connect_error() {
        // Port 1 on localhost is essentially never listening.
        let err = request_once("127.0.0.1:1", r#"{"op":"stats"}"#).unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "{err}");
        let err =
            Connection::connect_timeout("127.0.0.1:1", Duration::from_millis(200)).unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "{err}");
        let err = ConnectionPool::new(Proto::V2, Duration::from_millis(200))
            .request("127.0.0.1:1", r#"{"op":"stats"}"#)
            .unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "{err}");
    }

    #[test]
    fn pool_counters_track_checkouts_and_dials() {
        let pool = ConnectionPool::new(Proto::V1, Duration::from_millis(200));
        assert_eq!(pool.counters(), PoolCounters { checkouts: 0, reuses: 0, dials: 0, redials: 0 });
        // A failed dial still counts the checkout and the dial attempt.
        let _ = pool.request("127.0.0.1:1", r#"{"op":"stats"}"#);
        let c = pool.counters();
        assert_eq!((c.checkouts, c.reuses, c.dials, c.redials), (1, 0, 1, 0));
    }

    #[test]
    fn proto_parses_its_flag_spellings() {
        assert_eq!(Proto::parse("v1"), Some(Proto::V1));
        assert_eq!(Proto::parse("v2"), Some(Proto::V2));
        assert_eq!(Proto::parse("v3"), None);
        assert_eq!(Proto::parse(""), None);
        assert_eq!(Proto::V2.name(), "v2");
        assert_eq!(Proto::default(), Proto::V1);
    }

    #[test]
    fn request_lines_map_to_their_op_tags() {
        assert_eq!(line_tag(r#"{"op":"run","scenario":"x"}"#), frame::tag::RUN);
        assert_eq!(line_tag(r#"{"op":"stats"}"#), frame::tag::STATS);
        // Unknown ops and unparseable lines frame as the error tag; the
        // server answers them as bad frames.
        assert_eq!(line_tag(r#"{"op":"frobnicate"}"#), frame::tag::ERROR);
        assert_eq!(line_tag("not json"), frame::tag::ERROR);
    }
}
