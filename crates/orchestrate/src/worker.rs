//! The worker loop: handshake, lease, compute, stream, repeat.
//!
//! One [`TileWorkspace`] lives for the whole connection: the bundles of a
//! lease's final tile, and the chain head, stay live into the next lease,
//! whose first tiles find their rows cached. Every other row is repaired
//! from the full row of its key the workspace kept from an earlier lease,
//! so a worker runs each key's Dial run once. The coordinator
//! helps by leasing tiles that share a block with the previous lease
//! (see [`crate::autotune`]). The dataset fingerprint is hashed once, for
//! the handshake.
//!
//! Results are streamed double-buffered: while a lease computes, the
//! connection's [`LineStream`] is nonblocking, and each finished tile's
//! `T`/`I`/`W` lines are queued and written as far as the socket takes
//! them — the kernel's socket buffer does the sending, so tile *k*'s
//! flush overlaps tile *k+1*'s compute with no second thread. Whatever
//! is still queued at lease end goes out in one blocking write; the time
//! spent there is the reported `flush_wait_s`. Outside a lease the
//! stream blocks: each request waits for its reply, up to the read
//! timeout.

use std::time::{Duration, Instant};

use snd_core::{ShardPlan, SndEngine, TileGrid, TileLine, TileSet, TileWorkspace};
use snd_models::NetworkState;

use crate::net::{connect, Endpoint, LineStream};
use crate::protocol::{
    parse_coordinator_msg, worker_line, CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION,
};
use crate::OrchestrateError;

/// Worker tuning knobs.
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// How long to retry the initial connect (workers usually start
    /// before the coordinator binds).
    pub connect_retry: Duration,
    /// Blocking-read timeout: a silent coordinator is an error, not a
    /// hang.
    pub read_timeout: Duration,
    /// Artificial per-tile delay. A test/bench hook (set from
    /// `SND_WORK_THROTTLE_MS` by the CLI) that turns this worker into a
    /// deterministic straggler for kill/re-dispatch scenarios.
    pub throttle: Duration,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            connect_retry: Duration::from_secs(10),
            read_timeout: Duration::from_secs(120),
            throttle: Duration::ZERO,
        }
    }
}

/// What a worker did, for the CLI to print (the bench parses these).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// Leases completed.
    pub leases: usize,
    /// Tiles computed and streamed.
    pub tiles: usize,
    /// Seconds inside the engine's tile computation.
    pub compute_s: f64,
    /// Seconds blocked in the end-of-lease flush of results.
    pub flush_wait_s: f64,
    /// SSSP rows computed with a fresh Dial run, across every lease.
    pub fresh_rows: usize,
    /// SSSP rows repaired from another snapshot's row, across every lease.
    pub repaired_rows: usize,
}

/// Runs the worker loop against the coordinator at `addr` until `DONE`.
///
/// The engine/states pair must be the same dataset and configuration the
/// coordinator opened — enforced by the `shard_fingerprint` handshake,
/// which is what makes every accepted tile bit-identical to what any
/// other worker (or the sequential path) would produce.
pub fn run_worker(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    addr: &str,
    opts: &WorkerOpts,
) -> Result<WorkerReport, OrchestrateError> {
    let ep = Endpoint::parse(addr)?;
    let mut lines = LineStream::new(connect(&ep, opts.connect_retry)?);
    lines.stream().set_read_timeout(Some(opts.read_timeout))?;
    let fingerprint = engine.shard_fingerprint(states);

    let hello = WorkerMsg::Hello {
        version: PROTOCOL_VERSION,
        fingerprint,
        k: states.len(),
    };
    let grid = match request(&mut lines, &hello)? {
        CoordinatorMsg::Grid {
            grid,
            fingerprint: fp,
        } => {
            if grid.states() != states.len() || fp != fingerprint {
                return Err(OrchestrateError::Handshake(format!(
                    "coordinator run (k={}, fingerprint {fp:016x}) does not match this \
                     worker's dataset (k={}, fingerprint {fingerprint:016x})",
                    grid.states(),
                    states.len()
                )));
            }
            grid
        }
        CoordinatorMsg::Err(m) => return Err(OrchestrateError::Handshake(m)),
        other => {
            return Err(OrchestrateError::Handshake(format!(
                "expected GRID, got {other:?}"
            )))
        }
    };

    let mut report = WorkerReport::default();
    let mut resident = Resident {
        grid,
        fingerprint,
        ws: TileWorkspace::new(),
    };
    loop {
        match request(&mut lines, &WorkerMsg::Next)? {
            CoordinatorMsg::Lease { tiles, .. } => {
                resident.compute(engine, states, tiles, &mut lines, opts, &mut report)?;
                report.leases += 1;
            }
            CoordinatorMsg::Wait(ms) => {
                std::thread::sleep(Duration::from_millis(ms.min(1_000)));
            }
            CoordinatorMsg::Done => {
                lines.queue(&worker_line(&WorkerMsg::Bye));
                let _ = lines.write_queued();
                report.fresh_rows = resident.ws.fresh_rows();
                report.repaired_rows = resident.ws.repaired_rows();
                return Ok(report);
            }
            CoordinatorMsg::Err(m) => return Err(OrchestrateError::Failed(m)),
            CoordinatorMsg::Grid { .. } => {
                return Err(OrchestrateError::Protocol {
                    line: "GRID".into(),
                    reason: "unexpected second GRID".into(),
                })
            }
        }
    }
}

/// What a connection keeps from one lease to the next: the handshake's
/// grid and fingerprint, and the tile workspace.
struct Resident {
    grid: TileGrid,
    fingerprint: u64,
    ws: TileWorkspace,
}

impl Resident {
    /// Computes one lease, streaming each tile as it finishes.
    fn compute(
        &mut self,
        engine: &SndEngine<'_>,
        states: &[NetworkState],
        tiles: Vec<usize>,
        lines: &mut LineStream,
        opts: &WorkerOpts,
        report: &mut WorkerReport,
    ) -> Result<(), OrchestrateError> {
        let plan = ShardPlan::explicit(self.grid, tiles)?;
        let mut set = TileSet::empty(self.grid, self.fingerprint);
        let mut io_err: Option<std::io::Error> = None;
        let compute_started = Instant::now();
        lines.stream().set_nonblocking(true)?;
        let result = engine.pairwise_tiles_in(states, &plan, &mut self.ws, &mut set, &mut |tile| {
            if !opts.throttle.is_zero() {
                // Deterministic straggler hook for kill/re-dispatch
                // tests.
                std::thread::sleep(opts.throttle);
            }
            let mut text = String::new();
            for line in tile {
                match *line {
                    // The straggler's sleep counts in its reported timing.
                    TileLine::Timing { id, seconds } => TileLine::Timing {
                        id,
                        seconds: seconds + opts.throttle.as_secs_f64(),
                    }
                    .write(&mut text),
                    _ => line.write(&mut text),
                }
            }
            lines.queue(&text);
            report.tiles += 1;
            // Double-buffered: push what fits into the kernel's
            // socket buffer and return to computing; the remainder
            // rides along with the next tile or the end-of-lease
            // flush.
            if let Err(e) = lines.write_queued() {
                io_err = Some(e);
                // Any shard error aborts the engine loop; the real
                // cause is restored below.
                return Err(snd_core::ShardError::Format("socket write failed".into()));
            }
            Ok(())
        });
        match result {
            Ok(_) => {}
            Err(e) => {
                return Err(match io_err {
                    Some(io) => OrchestrateError::Io(io),
                    None => e.into(),
                })
            }
        }
        // End-of-lease settlement: everything the overlapped writes
        // couldn't place goes out now, blocking. This is usually nothing.
        let t0 = Instant::now();
        lines.stream().set_nonblocking(false)?;
        lines.write_queued()?;
        let lease_flush = t0.elapsed().as_secs_f64();
        report.flush_wait_s += lease_flush;
        report.compute_s += (compute_started.elapsed().as_secs_f64() - lease_flush).max(0.0);
        Ok(())
    }
}

/// Sends one message and reads the coordinator's reply, blocking up to
/// the stream's read timeout.
fn request(lines: &mut LineStream, msg: &WorkerMsg) -> Result<CoordinatorMsg, OrchestrateError> {
    lines.queue(&worker_line(msg));
    lines.write_queued()?;
    match lines.read_line()? {
        Some(line) => parse_coordinator_msg(&line),
        None => Err(OrchestrateError::Failed(
            "no reply from the coordinator within the read timeout".into(),
        )),
    }
}
