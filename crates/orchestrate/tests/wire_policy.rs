//! Coordinator policy a fake peer can drive from outside: worker speed
//! scales lease length, and a line that never ends is refused by both
//! sides at the framing bound.
#![cfg(unix)]

use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use snd_core::{SndConfig, SndEngine, TileGrid, TileLine};
use snd_graph::generators::path_graph;
use snd_models::NetworkState;
use snd_orchestrate::net::{connect, LineStream};
use snd_orchestrate::protocol::{parse_coordinator_msg, worker_line, MAX_LINE_BYTES};
use snd_orchestrate::{
    run_worker, Coordinator, CoordinatorMsg, CoordinatorOpts, Endpoint, OrchestrateError,
    WorkerMsg, WorkerOpts, PROTOCOL_VERSION,
};

/// How far past [`MAX_LINE_BYTES`] a peer may get to stream before the
/// other side hangs up: one read chunk plus the kernel's socket buffers.
const SLACK: usize = 1 << 20;

/// Fresh checkpoint + socket paths for one test (stale files removed).
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("snd_wire_{name}_{}.ckpt", std::process::id()));
    let sock = dir.join(format!("snd_wire_{name}_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&sock);
    (ckpt, sock)
}

/// A fake worker on the crate's own framing, stepping the coordinator's
/// poll loop while it waits for replies.
struct Fake(LineStream);

impl Fake {
    fn join(coord: &mut Coordinator, fingerprint: u64, k: usize) -> Fake {
        let ep = Endpoint::parse(&coord.local_addr()).expect("endpoint");
        let lines = LineStream::new(connect(&ep, Duration::from_secs(5)).expect("connect"));
        lines.stream().set_nonblocking(true).expect("nonblocking");
        let mut fake = Fake(lines);
        let hello = WorkerMsg::Hello {
            version: PROTOCOL_VERSION,
            fingerprint,
            k,
        };
        match fake.request(coord, &hello) {
            CoordinatorMsg::Grid { .. } => fake,
            other => panic!("expected GRID, got {other:?}"),
        }
    }

    fn send(&mut self, text: &str) {
        self.0.queue(text);
        self.0.stream().set_nonblocking(false).expect("blocking");
        self.0.write_queued().expect("send");
        self.0.stream().set_nonblocking(true).expect("nonblocking");
    }

    fn request(&mut self, coord: &mut Coordinator, msg: &WorkerMsg) -> CoordinatorMsg {
        self.send(&worker_line(msg));
        for _ in 0..20_000 {
            coord.poll_once().expect("poll");
            if let Some(line) = self.0.read_line().expect("read") {
                return parse_coordinator_msg(&line).expect("coordinator line");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("no reply from coordinator");
    }

    fn lease(&mut self, coord: &mut Coordinator) -> Vec<usize> {
        match self.request(coord, &WorkerMsg::Next) {
            CoordinatorMsg::Lease { tiles, .. } => tiles,
            other => panic!("expected LEASE, got {other:?}"),
        }
    }

    /// Answers `tiles` with zero-valued `T` lines and `W` lines claiming
    /// `per_pair` seconds per pair.
    fn answer(&mut self, coord: &mut Coordinator, grid: TileGrid, tiles: &[usize], per_pair: f64) {
        let mut text = String::new();
        for &id in tiles {
            let pairs = grid.pair_count(id);
            TileLine::Values {
                id,
                values: vec![0.0; pairs],
            }
            .write(&mut text);
            TileLine::Timing {
                id,
                seconds: per_pair * pairs as f64,
            }
            .write(&mut text);
        }
        self.send(&text);
        coord.poll_once().expect("poll");
    }
}

#[test]
fn the_worker_with_cheaper_timed_pairs_gets_the_longer_lease() {
    let grid = TileGrid::new(24, 2);
    let (ckpt, sock) = scratch("speed");
    let opts = CoordinatorOpts {
        target_lease: Duration::from_millis(20),
        ..CoordinatorOpts::default()
    };
    let mut coord =
        Coordinator::new(&Endpoint::Unix(sock), &ckpt, grid, 7, opts).expect("coordinator");
    let mut fast = Fake::join(&mut coord, 7, 24);
    let mut slow = Fake::join(&mut coord, 7, 24);

    // Calibration: one tile each. The slow worker's `W` lines claim 4×
    // the fast one's seconds per pair, but it answers first and at once,
    // while the fast one answers 50 ms late: speed comes from `W` seconds,
    // not from wall time between results.
    let fast_first = fast.lease(&mut coord);
    let slow_first = slow.lease(&mut coord);
    assert_eq!((fast_first.len(), slow_first.len()), (1, 1));
    slow.answer(&mut coord, grid, &slow_first, 0.004);
    std::thread::sleep(Duration::from_millis(50));
    fast.answer(&mut coord, grid, &fast_first, 0.001);

    // Both measured: the fleet runs at one cost per pair, the fast worker
    // below it and the slow one above, so the fast lease is the longer.
    let fast_next = fast.lease(&mut coord);
    let slow_next = slow.lease(&mut coord);
    assert!(
        fast_next.len() > slow_next.len(),
        "fast {fast_next:?} vs slow {slow_next:?}"
    );
    drop(coord);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn the_coordinator_refuses_a_line_past_the_bound_and_hangs_up() {
    let (ckpt, sock) = scratch("long_in");
    let mut coord = Coordinator::new(
        &Endpoint::Unix(sock.clone()),
        &ckpt,
        TileGrid::new(6, 2),
        7,
        CoordinatorOpts::default(),
    )
    .expect("coordinator");
    let mut peer = UnixStream::connect(&sock).expect("connect");
    peer.set_nonblocking(true).expect("nonblocking");

    // Stream newline-free bytes until the coordinator refuses them.
    let chunk = vec![b'a'; 64 * 1024];
    let mut sent = 0;
    while coord.report().rejected == 0 {
        match peer.write(&chunk) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("peer write: {e}"),
        }
        assert!(sent <= MAX_LINE_BYTES + SLACK, "{sent} bytes taken");
        coord.poll_once().expect("poll");
    }
    assert!(sent > MAX_LINE_BYTES, "refused after only {sent} bytes");
    assert_eq!(coord.report().rejected, 1);

    // The reply is one ERR line, then the connection is closed: EOF, or
    // a reset, since the coordinator hung up on bytes it never read.
    peer.set_nonblocking(false).expect("blocking");
    peer.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reply = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match peer.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("peer read: {e}"),
        }
    }
    assert_eq!(reply, b"ERR line exceeds maximum length\n");
    drop(coord);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn the_worker_refuses_a_coordinator_line_past_the_bound() {
    let (_, sock) = scratch("long_out");
    let listener = UnixListener::bind(&sock).expect("bind");
    let addr = sock.display().to_string();

    // lint:allow(thread-spawn) test harness stands in for a separate worker process
    let worker = std::thread::spawn(move || {
        let g = path_graph(10);
        let engine = SndEngine::new(&g, SndConfig::default());
        let states: Vec<NetworkState> = (0..4)
            .map(|t| NetworkState::from_values(&[(t % 3) as i8 - 1; 10]))
            .collect();
        let opts = WorkerOpts {
            connect_retry: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            throttle: Duration::ZERO,
        };
        run_worker(&engine, &states, &addr, &opts)
    });

    // Take the HELLO, then answer with bytes that never end a line.
    let (mut peer, _) = listener.accept().expect("accept");
    let mut hello = LineStream::new(snd_orchestrate::net::Stream::Unix(
        peer.try_clone().expect("clone"),
    ));
    let line = hello.read_line().expect("read").expect("HELLO line");
    assert!(line.starts_with("HELLO "), "{line:?}");
    let chunk = vec![b'a'; 64 * 1024];
    let mut sent = 0;
    while sent <= MAX_LINE_BYTES + SLACK {
        match peer.write(&chunk) {
            Ok(n) => sent += n,
            // The worker gave up and closed its end.
            Err(_) => break,
        }
    }
    assert!(sent > MAX_LINE_BYTES, "worker hung up after {sent} bytes");
    assert!(sent <= MAX_LINE_BYTES + SLACK, "worker took {sent} bytes");
    match worker.join().expect("worker thread") {
        Err(OrchestrateError::Protocol { reason, .. }) => {
            assert_eq!(reason, "line exceeds maximum length")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    drop(listener);
    let _ = std::fs::remove_file(&sock);
}
