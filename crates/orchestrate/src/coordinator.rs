//! The coordinator: owns the grid and the checkpoint, leases tiles,
//! re-dispatches stragglers, dedups duplicates first-result-wins.
//!
//! Single-threaded nonblocking poll loop — [`Coordinator::poll_once`]
//! accepts connections, drains readable bytes, handles complete lines,
//! and expires leases; [`Coordinator::run`] wraps it in a sleep loop.
//! Tests drive `poll_once` directly against in-process fake workers, so
//! every race (expiry vs. late result, duplicate submission, kill
//! mid-lease) is steppable and deterministic.
//!
//! Correctness invariants:
//! * a tile enters the [`TileSet`] (and the checkpoint file) exactly
//!   once — the *first* accepted `T` line wins; later copies, identical
//!   or not, are counted and dropped (the fingerprint handshake already
//!   guarantees any honest duplicate is bit-identical, since tile values
//!   are a pure function of the fingerprinted inputs);
//! * a lease's tiles return to the pending pool the moment its
//!   connection dies (EOF) or its deadline passes — whichever is first —
//!   so a straggler can only waste its own time, never block the run;
//! * `I`/`W` lines attach only to the tile the same connection just
//!   submitted, and every result line is recorded through
//!   [`TileSet::accept`], the loader's own ordering rule — a worker whose
//!   tile lost the dedup race cannot corrupt the winner's certification.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use snd_core::{Checkpoint, ShardError, TileGrid, TileLine, TileSet};

use crate::autotune::Autotuner;
use crate::net::{Endpoint, Listener, Stream};
use crate::protocol::{
    coordinator_line, parse_worker_msg, CoordinatorMsg, WorkerMsg, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::OrchestrateError;

/// Tuning knobs for a coordinator run.
#[derive(Clone, Debug)]
pub struct CoordinatorOpts {
    /// Minimum lease lifetime; the effective deadline per lease is
    /// `max(lease_timeout, 5 × predicted lease seconds)`, so a generous
    /// floor never strands a genuinely long tile.
    pub lease_timeout: Duration,
    /// Target lease duration the autotuner composes toward.
    pub target_lease: Duration,
    /// How long `run` lingers after completion so connected workers can
    /// collect their `DONE` (exits early once every connection closes).
    pub grace: Duration,
}

impl Default for CoordinatorOpts {
    fn default() -> Self {
        CoordinatorOpts {
            lease_timeout: Duration::from_secs(30),
            target_lease: Duration::from_secs(2),
            grace: Duration::from_secs(5),
        }
    }
}

/// What a finished orchestration reports.
#[derive(Clone, Debug)]
pub struct OrchestrateReport {
    /// Total grid tiles.
    pub tiles: usize,
    /// Tiles already complete in the checkpoint at startup.
    pub resumed: usize,
    /// Tiles accepted from workers this run.
    pub computed: usize,
    /// Tiles re-queued after a lease expired or its worker died.
    pub redispatched: usize,
    /// Duplicate `T` submissions dropped (first result won).
    pub duplicates: usize,
    /// Distinct workers that completed the handshake.
    pub workers: usize,
    /// Connections dropped for protocol violations or bad handshakes.
    pub rejected: usize,
    /// Wall time of the run.
    pub wall: Duration,
}

struct Lease {
    id: u64,
    conn: u64,
    missing: BTreeSet<usize>,
    deadline: Instant,
}

struct Conn {
    id: u64,
    stream: Stream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    hello: bool,
    /// Tile of the last `T` line accepted fresh from this connection —
    /// the only tile its `I`/`W` lines may certify/time.
    last_tile: Option<usize>,
    /// Throughput model: pairs completed and busy seconds, for lease
    /// scaling.
    pairs_done: f64,
    busy_s: f64,
    lease_started: Option<Instant>,
    /// Tiles of the last lease granted, for the autotuner's affinity.
    last_lease: Vec<usize>,
    closing: bool,
}

impl Conn {
    fn send(&mut self, msg: &CoordinatorMsg) {
        self.outbuf
            .extend_from_slice(coordinator_line(msg).as_bytes());
    }
}

/// The coordinator. See the module docs for the model; construct with
/// [`Coordinator::new`], then either [`run`](Coordinator::run) to
/// completion or step [`poll_once`](Coordinator::poll_once) manually.
pub struct Coordinator {
    grid: TileGrid,
    fingerprint: u64,
    set: TileSet,
    ckpt: Checkpoint,
    listener: Listener,
    pending: BTreeSet<usize>,
    leases: Vec<Lease>,
    conns: Vec<Conn>,
    tuner: Autotuner,
    opts: CoordinatorOpts,
    next_lease: u64,
    next_conn: u64,
    started: Instant,
    resumed: usize,
    computed: usize,
    redispatched: usize,
    duplicates: usize,
    workers: usize,
    rejected: usize,
    /// Global mean throughput (pairs/s EWMA) for worker speed scaling.
    fleet_rate: Option<f64>,
}

impl Coordinator {
    /// Binds `listen` and opens (or resumes) the checkpoint at `path`
    /// for a `(grid, fingerprint)` run. Tiles already in the checkpoint
    /// are honored — a complete checkpoint makes the run a no-op — and
    /// their `W` lines warm-start the autotuner.
    pub fn new(
        listen: &Endpoint,
        path: &Path,
        grid: TileGrid,
        fingerprint: u64,
        opts: CoordinatorOpts,
    ) -> Result<Coordinator, OrchestrateError> {
        let (set, ckpt) = Checkpoint::open(path, grid, fingerprint)?;
        let listener = Listener::bind(listen)?;
        let pending: BTreeSet<usize> = (0..grid.tile_count())
            .filter(|&id| !set.contains(id))
            .collect();
        let resumed = grid.tile_count() - pending.len();
        let mut tuner = Autotuner::new(grid, opts.target_lease.as_secs_f64());
        tuner.warm_start(&set);
        Ok(Coordinator {
            grid,
            fingerprint,
            set,
            ckpt,
            listener,
            pending,
            leases: Vec::new(),
            conns: Vec::new(),
            tuner,
            opts,
            next_lease: 0,
            next_conn: 0,
            started: Instant::now(),
            resumed,
            computed: 0,
            redispatched: 0,
            duplicates: 0,
            workers: 0,
            rejected: 0,
            fleet_rate: None,
        })
    }

    /// The bound address workers should connect to (TCP port resolved).
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Whether every grid tile is present (the matrix is whole).
    pub fn is_complete(&self) -> bool {
        self.set.tile_count() == self.grid.tile_count()
    }

    /// Consumes the coordinator, returning the (possibly incomplete)
    /// tile set.
    pub fn into_tiles(self) -> TileSet {
        self.set
    }

    /// Run statistics so far.
    pub fn report(&self) -> OrchestrateReport {
        OrchestrateReport {
            tiles: self.grid.tile_count(),
            resumed: self.resumed,
            computed: self.computed,
            redispatched: self.redispatched,
            duplicates: self.duplicates,
            workers: self.workers,
            rejected: self.rejected,
            wall: self.started.elapsed(),
        }
    }

    /// One poll step: accept, read, handle, expire, flush. Returns
    /// whether anything happened (callers sleep briefly on `false`).
    /// Per-connection protocol violations close that connection;
    /// checkpoint IO errors abort the run.
    pub fn poll_once(&mut self) -> Result<bool, OrchestrateError> {
        let mut progress = false;
        while let Some(stream) = self.listener.accept()? {
            self.conns.push(Conn {
                id: self.next_conn,
                stream,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                hello: false,
                last_tile: None,
                pairs_done: 0.0,
                busy_s: 0.0,
                lease_started: None,
                last_lease: Vec::new(),
                closing: false,
            });
            self.next_conn += 1;
            progress = true;
        }

        for i in 0..self.conns.len() {
            progress |= self.service_conn(i)?;
        }
        progress |= self.expire_leases();

        // Drop connections that hit EOF or a violation, releasing their
        // leases immediately — a killed worker's tiles go straight back
        // into the pool, no need to wait out the deadline.
        let mut released: Vec<u64> = Vec::new();
        self.conns.retain(|c| {
            if c.closing && c.outbuf.is_empty() {
                released.push(c.id);
                false
            } else {
                true
            }
        });
        for conn in released {
            progress |= self.release_conn_leases(conn);
        }
        Ok(progress)
    }

    /// Polls until complete, then lingers `grace` for workers to collect
    /// `DONE`. Errors out if every connection is gone, nothing is
    /// leased, and nothing is pending-able — which cannot happen while
    /// tiles remain, so the only exit without completion is an IO error.
    pub fn run(&mut self) -> Result<OrchestrateReport, OrchestrateError> {
        while !self.is_complete() {
            if !self.poll_once()? {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.finish()?;
        Ok(self.report())
    }

    /// Post-completion linger: keep answering `NEXT` with `DONE` until
    /// every connection closes or the grace period ends.
    pub fn finish(&mut self) -> Result<(), OrchestrateError> {
        let deadline = Instant::now() + self.opts.grace;
        while !self.conns.is_empty() && Instant::now() < deadline {
            if !self.poll_once()? {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }

    /// Reads, parses, and answers one connection; returns progress.
    fn service_conn(&mut self, i: usize) -> Result<bool, OrchestrateError> {
        let mut progress = false;
        // Drain pending output first (nonblocking): small control lines
        // almost always fit the socket buffer in one write.
        {
            let c = &mut self.conns[i];
            while !c.outbuf.is_empty() {
                match c.stream.write(&c.outbuf) {
                    Ok(0) => {
                        c.closing = true;
                        c.outbuf.clear();
                        break;
                    }
                    Ok(n) => {
                        c.outbuf.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.closing = true;
                        c.outbuf.clear();
                        break;
                    }
                }
            }
        }

        // Read what's available.
        let mut buf = [0u8; 16 * 1024];
        loop {
            let c = &mut self.conns[i];
            if c.closing {
                break;
            }
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: the worker exited or was killed.
                    c.closing = true;
                    c.outbuf.clear();
                    progress = true;
                    break;
                }
                Ok(n) => {
                    c.inbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                    if c.inbuf.len() > MAX_LINE_BYTES {
                        self.reject(i, "line exceeds maximum length");
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.conns[i].closing = true;
                    break;
                }
            }
        }

        // Handle every complete line buffered so far.
        loop {
            let c = &mut self.conns[i];
            if c.closing {
                break;
            }
            let Some(nl) = c.inbuf.iter().position(|&b| b == b'\n') else {
                break;
            };
            let line_bytes: Vec<u8> = c.inbuf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line_bytes[..nl]).into_owned();
            progress = true;
            self.handle_line(i, line.trim_end())?;
        }
        Ok(progress)
    }

    /// Sends `ERR` and schedules the connection for closing.
    fn reject(&mut self, i: usize, why: &str) {
        self.rejected += 1;
        let c = &mut self.conns[i];
        c.send(&CoordinatorMsg::Err(why.to_string()));
        // Give the ERR line one direct flush attempt, then close.
        let _ = c.stream.write(&c.outbuf);
        c.outbuf.clear();
        c.closing = true;
    }

    fn handle_line(&mut self, i: usize, line: &str) -> Result<(), OrchestrateError> {
        let msg = match parse_worker_msg(line, &self.grid) {
            Ok(m) => m,
            Err(OrchestrateError::Protocol { reason, line }) => {
                self.reject(i, &format!("{reason} in {line:?}"));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if !self.conns[i].hello {
            // Only HELLO is meaningful before the handshake.
            let WorkerMsg::Hello {
                version,
                fingerprint,
                k,
            } = msg
            else {
                self.reject(i, "expected HELLO before anything else");
                return Ok(());
            };
            if version != PROTOCOL_VERSION {
                self.reject(
                    i,
                    &format!("protocol version {version}, coordinator speaks {PROTOCOL_VERSION}"),
                );
            } else if fingerprint != self.fingerprint {
                self.reject(
                    i,
                    &format!(
                        "dataset fingerprint {fingerprint:016x} does not match run {:016x} \
                         (different graph, snapshots, or engine config)",
                        self.fingerprint
                    ),
                );
            } else if k != self.grid.states() {
                self.reject(i, &format!("{k} snapshots, run has {}", self.grid.states()));
            } else {
                self.conns[i].hello = true;
                self.workers += 1;
                let reply = CoordinatorMsg::Grid {
                    grid: self.grid,
                    fingerprint: self.fingerprint,
                };
                self.conns[i].send(&reply);
            }
            return Ok(());
        }
        match msg {
            WorkerMsg::Hello { .. } => self.reject(i, "duplicate HELLO"),
            WorkerMsg::Next => self.grant(i),
            WorkerMsg::Result(line) => self.accept_result(i, line)?,
            WorkerMsg::Bye => {
                self.conns[i].closing = true;
            }
        }
        Ok(())
    }

    /// Answers a `NEXT`: lease, wait, or done.
    fn grant(&mut self, i: usize) {
        if self.is_complete() {
            self.conns[i].send(&CoordinatorMsg::Done);
            return;
        }
        let speed = self.conn_speed(i);
        let tiles = self
            .tuner
            .compose(&mut self.pending, speed, &self.conns[i].last_lease);
        if tiles.is_empty() {
            // Everything is leased out; outstanding leases may yet
            // expire back into the pool.
            self.conns[i].send(&CoordinatorMsg::Wait(50));
            return;
        }
        let predicted = self.tuner.predict_lease(&tiles);
        let timeout = self
            .opts
            .lease_timeout
            .max(Duration::from_secs_f64(5.0 * predicted));
        let lease = Lease {
            id: self.next_lease,
            conn: self.conns[i].id,
            missing: tiles.iter().copied().collect(),
            deadline: Instant::now() + timeout,
        };
        self.next_lease += 1;
        self.conns[i].last_lease.clone_from(&tiles);
        let msg = CoordinatorMsg::Lease {
            lease: lease.id,
            tiles,
        };
        self.leases.push(lease);
        self.conns[i].lease_started = Some(Instant::now());
        self.conns[i].send(&msg);
    }

    /// Accepts a result line through [`TileSet::accept`]; accepted lines
    /// go straight to the checkpoint. For a `T` line the first result
    /// wins — whether from this worker earlier, a re-dispatched twin, or
    /// the resumed checkpoint — and later copies are counted and dropped.
    /// An `I`/`W` line attaches only to the tile this connection just won,
    /// so a deduped duplicate's certification and timing are dropped with
    /// it.
    fn accept_result(&mut self, i: usize, line: TileLine) -> Result<(), ShardError> {
        let id = line.id();
        let tile = matches!(line, TileLine::Values { .. });
        let accepted =
            (tile || self.conns[i].last_tile == Some(id)) && self.set.accept(line.clone());
        if accepted {
            if let TileLine::Timing { seconds, .. } = line {
                self.tuner.observe(id, seconds);
            }
            self.ckpt.append(&[line])?;
        }
        if !tile {
            return Ok(());
        }
        if accepted {
            self.computed += 1;
        } else {
            self.duplicates += 1;
        }
        self.conns[i].last_tile = accepted.then_some(id);
        // Either way the tile is no longer owed by any lease.
        let conn_id = self.conns[i].id;
        let mut finished_pairs = 0usize;
        for lease in &mut self.leases {
            if lease.missing.remove(&id) && lease.conn == conn_id {
                finished_pairs = self.grid.pair_count(id);
            }
        }
        self.leases.retain(|l| !l.missing.is_empty());
        if finished_pairs > 0 {
            let c = &mut self.conns[i];
            if let Some(t0) = c.lease_started {
                c.pairs_done += finished_pairs as f64;
                c.busy_s += t0.elapsed().as_secs_f64();
                c.lease_started = Some(Instant::now());
                let rate = c.pairs_done / c.busy_s.max(1e-6);
                self.fleet_rate = Some(match self.fleet_rate {
                    Some(old) => 0.7 * old + 0.3 * rate,
                    None => rate,
                });
            }
        }
        Ok(())
    }

    /// This connection's measured speed relative to the fleet (1.0 when
    /// unknown) — the autotuner's idle/fast-worker bias.
    fn conn_speed(&self, i: usize) -> f64 {
        let c = &self.conns[i];
        match (self.fleet_rate, c.busy_s > 0.0) {
            (Some(fleet), true) if fleet > 0.0 => (c.pairs_done / c.busy_s.max(1e-6)) / fleet,
            _ => 1.0,
        }
    }

    /// Returns expired leases' missing tiles to the pool.
    fn expire_leases(&mut self) -> bool {
        let now = Instant::now();
        let mut progress = false;
        let mut keep = Vec::with_capacity(self.leases.len());
        for lease in self.leases.drain(..) {
            if lease.deadline <= now {
                self.redispatched += lease.missing.len();
                self.pending.extend(lease.missing.iter().copied());
                progress = true;
            } else {
                keep.push(lease);
            }
        }
        self.leases = keep;
        progress
    }

    /// Releases every lease held by a dead connection.
    fn release_conn_leases(&mut self, conn: u64) -> bool {
        let mut progress = false;
        let mut keep = Vec::with_capacity(self.leases.len());
        for lease in self.leases.drain(..) {
            if lease.conn == conn {
                self.redispatched += lease.missing.len();
                self.pending.extend(lease.missing.iter().copied());
                progress = true;
            } else {
                keep.push(lease);
            }
        }
        self.leases = keep;
        progress
    }
}

/// Formats the one-line summary the CLI prints (and the CI smoke greps).
pub fn report_line(r: &OrchestrateReport) -> String {
    format!(
        "orchestrate: complete: {} tile(s) ({} resumed, {} computed) via {} worker(s); \
         re-dispatched: {} tile(s), duplicates: {}, rejected: {}, wall {:.1}s",
        r.tiles,
        r.resumed,
        r.computed,
        r.workers,
        r.redispatched,
        r.duplicates,
        r.rejected,
        r.wall.as_secs_f64()
    )
}
