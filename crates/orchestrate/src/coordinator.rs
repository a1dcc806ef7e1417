//! The coordinator: owns the grid and the checkpoint, leases tiles,
//! re-dispatches stragglers, dedups duplicates first-result-wins.
//!
//! Single-threaded nonblocking poll loop — [`Coordinator::poll_once`]
//! accepts connections, handles every complete line, writes replies, and
//! releases leases; its caller loops it (`snd orchestrate` does, reaping
//! its local workers between polls). Tests drive `poll_once` directly
//! against in-process fake workers, so every race (expiry vs. late
//! result, duplicate submission, kill mid-lease) is steppable and
//! deterministic.
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
use std::path::Path;
use std::time::{Duration, Instant};

use snd_core::{Checkpoint, ShardError, TileGrid, TileLine, TileSet};

use crate::autotune::Autotuner;
use crate::net::{Endpoint, LineStream, Listener};
use crate::protocol::{
    coordinator_line, parse_worker_msg, CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION,
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
    /// How long [`Coordinator::finish`] lingers after completion so
    /// connected workers can collect their `DONE` (it returns early once
    /// every connection closes).
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
    lines: LineStream,
    hello: bool,
    /// Tile of the last `T` line accepted fresh from this connection —
    /// the only tile its `I`/`W` lines may certify/time.
    last_tile: Option<usize>,
    /// Seconds and pairs of the `W` lines this connection won: its own
    /// seconds per pair, which [`Autotuner::speed`] weighs against the
    /// fleet's to scale its leases.
    timed_s: f64,
    timed_pairs: usize,
    /// Tiles of the last lease granted, for the autotuner's affinity.
    last_lease: Vec<usize>,
    closing: bool,
}

impl Conn {
    fn send(&mut self, msg: &CoordinatorMsg) {
        self.lines.queue(&coordinator_line(msg));
    }
}

/// The coordinator. See the module docs for the model; construct with
/// [`Coordinator::new`], step [`poll_once`](Coordinator::poll_once)
/// until [`is_complete`](Coordinator::is_complete), then
/// [`finish`](Coordinator::finish).
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

    /// One poll step: accept, handle lines, write replies, release
    /// leases. Returns whether anything happened (callers sleep briefly
    /// on `false`). Per-connection protocol violations close that
    /// connection; checkpoint IO errors abort the run.
    pub fn poll_once(&mut self) -> Result<bool, OrchestrateError> {
        let mut progress = false;
        while let Some(stream) = self.listener.accept()? {
            self.conns.push(Conn {
                id: self.next_conn,
                lines: LineStream::new(stream),
                hello: false,
                last_tile: None,
                timed_s: 0.0,
                timed_pairs: 0,
                last_lease: Vec::new(),
                closing: false,
            });
            self.next_conn += 1;
            progress = true;
        }

        for i in 0..self.conns.len() {
            progress |= self.service_conn(i)?;
        }

        // Drop closed connections. Their leases go back into the pool at
        // once, with those past their deadline: a killed worker's tiles
        // need not wait out the deadline.
        let mut dead = Vec::new();
        self.conns.retain(|c| {
            if c.closing {
                dead.push(c.id);
            }
            !c.closing
        });
        let now = Instant::now();
        progress |= self.release_leases(|l| l.deadline <= now || dead.contains(&l.conn));
        Ok(progress)
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

    /// Handles every line one connection has sent, then writes what is
    /// queued for it (nonblocking; small control lines almost always fit
    /// the socket buffer in one write). Returns progress.
    fn service_conn(&mut self, i: usize) -> Result<bool, OrchestrateError> {
        let mut progress = false;
        while !self.conns[i].closing {
            match self.conns[i].lines.read_line() {
                Ok(Some(line)) => self.handle_line(i, line.trim_end())?,
                Ok(None) => break,
                Err(OrchestrateError::Protocol { reason, .. }) => self.reject(i, &reason),
                // EOF or a socket error: the worker exited or was killed.
                Err(_) => self.conns[i].closing = true,
            }
            progress = true;
        }
        let c = &mut self.conns[i];
        match c.lines.write_queued() {
            Ok(wrote) => progress |= wrote,
            Err(_) => c.closing = true,
        }
        Ok(progress)
    }

    /// Queues `ERR` and closes the connection: the `ERR` line gets this
    /// poll's one write attempt.
    fn reject(&mut self, i: usize, why: &str) {
        self.rejected += 1;
        let c = &mut self.conns[i];
        c.send(&CoordinatorMsg::Err(why.to_string()));
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
        let c = &self.conns[i];
        let speed = self.tuner.speed(c.timed_s, c.timed_pairs);
        let tiles = self.tuner.compose(&mut self.pending, speed, &c.last_lease);
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
                let c = &mut self.conns[i];
                c.timed_s += seconds;
                c.timed_pairs += self.grid.pair_count(id);
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
        for lease in &mut self.leases {
            lease.missing.remove(&id);
        }
        self.leases.retain(|l| !l.missing.is_empty());
        Ok(())
    }

    /// Returns the missing tiles of every lease `lapsed` picks to the
    /// pool, counting them as re-dispatched; the one path by which a
    /// lease ends unfinished, whether its deadline passed or its
    /// connection died.
    fn release_leases(&mut self, lapsed: impl Fn(&Lease) -> bool) -> bool {
        let before = self.leases.len();
        let (pending, redispatched) = (&mut self.pending, &mut self.redispatched);
        self.leases.retain(|lease| {
            if !lapsed(lease) {
                return true;
            }
            *redispatched += lease.missing.len();
            pending.extend(lease.missing.iter().copied());
            false
        });
        self.leases.len() < before
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
