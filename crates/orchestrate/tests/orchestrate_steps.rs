//! Steppable coordinator tests: in-process fake workers speak the wire
//! protocol over real Unix/TCP sockets while the test drives
//! [`Coordinator::poll_once`] by hand — every ordering (duplicate
//! submission, silent straggler, protocol garbage, kill-and-resume) is
//! deterministic, no sleeps-and-hope.
#![cfg(unix)]

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use snd_core::{
    DistanceMatrix, ShardPlan, SndConfig, SndEngine, TileGrid, TileLine, TileSet, TileWorkspace,
};
use snd_graph::generators::path_graph;
use snd_models::NetworkState;
use snd_orchestrate::protocol::{parse_coordinator_msg, worker_line};
use snd_orchestrate::{
    run_worker, Coordinator, CoordinatorMsg, CoordinatorOpts, Endpoint, WorkerMsg, WorkerOpts,
    PROTOCOL_VERSION,
};

fn states(k: usize) -> Vec<NetworkState> {
    (0..k)
        .map(|t| {
            let vals: Vec<i8> = (0..10).map(|u| ((u + t) % 3) as i8 - 1).collect();
            NetworkState::from_values(&vals)
        })
        .collect()
}

/// Fresh checkpoint + socket paths for one test (stale files removed).
fn scratch(name: &str) -> (PathBuf, Endpoint) {
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("snd_orch_{name}_{}.ckpt", std::process::id()));
    let sock = dir.join(format!("snd_orch_{name}_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&sock);
    (ckpt, Endpoint::Unix(sock))
}

/// The worker's half of a lease: checkpoint-format `T`/`I`/`W` lines for
/// `ids`, straight from the engine.
fn tile_lines(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    grid: TileGrid,
    ids: &[usize],
) -> String {
    let mut out = String::new();
    each_tile(engine, states, grid, ids, &mut |lines| {
        for line in lines {
            line.write(&mut out);
        }
    });
    out
}

/// Computes the tiles `ids` over a fresh workspace, handing each finished
/// tile's lines to `on_tile`.
fn each_tile(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    grid: TileGrid,
    ids: &[usize],
    on_tile: &mut dyn FnMut(&[TileLine]),
) {
    let plan = ShardPlan::explicit(grid, ids.to_vec()).expect("plan");
    let mut set = TileSet::empty(grid, engine.shard_fingerprint(states));
    engine
        .pairwise_tiles_in(
            states,
            &plan,
            &mut TileWorkspace::new(),
            &mut set,
            &mut |lines| {
                on_tile(lines);
                Ok(())
            },
        )
        .expect("tiles");
}

fn assert_bit_identical(a: &DistanceMatrix, b: &DistanceMatrix) {
    assert_eq!(a.size(), b.size());
    for i in 0..a.size() {
        for j in 0..a.size() {
            assert_eq!(
                a.at(i, j).to_bits(),
                b.at(i, j).to_bits(),
                "entry ({i},{j}): {} vs {}",
                a.at(i, j),
                b.at(i, j)
            );
        }
    }
}

/// An in-process fake worker: a plain blocking-write / nonblocking-read
/// socket the test interleaves with `poll_once`.
struct Fake {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Fake {
    fn connect(addr: &str) -> Fake {
        let stream = UnixStream::connect(addr).expect("connect fake worker");
        stream.set_nonblocking(true).expect("nonblocking");
        Fake {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, text: &str) {
        self.stream.set_nonblocking(false).expect("blocking");
        self.stream.write_all(text.as_bytes()).expect("send");
        self.stream.set_nonblocking(true).expect("nonblocking");
    }

    fn try_line(&mut self) -> Option<String> {
        let nl = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=nl).collect();
        Some(String::from_utf8_lossy(&line[..nl]).into_owned())
    }

    /// Reads one coordinator message, stepping the poll loop as needed.
    fn read_msg(&mut self, coord: &mut Coordinator) -> CoordinatorMsg {
        let mut chunk = [0u8; 16 * 1024];
        for _ in 0..20_000 {
            if let Some(line) = self.try_line() {
                return parse_coordinator_msg(&line).expect("coordinator line");
            }
            coord.poll_once().expect("poll");
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("coordinator closed the connection"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("fake worker read: {e}"),
            }
        }
        panic!("no reply from coordinator");
    }

    fn handshake(&mut self, coord: &mut Coordinator, fingerprint: u64, k: usize) {
        self.send(&worker_line(&WorkerMsg::Hello {
            version: PROTOCOL_VERSION,
            fingerprint,
            k,
        }));
        match self.read_msg(coord) {
            CoordinatorMsg::Grid {
                grid,
                fingerprint: fp,
            } => {
                assert_eq!(grid.states(), k);
                assert_eq!(fp, fingerprint);
            }
            other => panic!("expected GRID, got {other:?}"),
        }
    }

    /// NEXT/LEASE loop until DONE; returns the number of leases served.
    fn serve_until_done(
        &mut self,
        coord: &mut Coordinator,
        engine: &SndEngine<'_>,
        states: &[NetworkState],
        grid: TileGrid,
    ) -> usize {
        let mut leases = 0;
        loop {
            self.send(&worker_line(&WorkerMsg::Next));
            match self.read_msg(coord) {
                CoordinatorMsg::Lease { tiles, .. } => {
                    self.send(&tile_lines(engine, states, grid, &tiles));
                    leases += 1;
                }
                CoordinatorMsg::Wait(_) => {}
                CoordinatorMsg::Done => {
                    self.send(&worker_line(&WorkerMsg::Bye));
                    return leases;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn two_fake_workers_produce_the_sequential_matrix_bit_for_bit() {
    let g = path_graph(10);
    let engine = SndEngine::new(&g, SndConfig::default());
    let s = states(6);
    let grid = TileGrid::new(6, 2);
    let fp = engine.shard_fingerprint(&s);
    let (ckpt, ep) = scratch("two_fakes");
    let mut coord =
        Coordinator::new(&ep, &ckpt, grid, fp, CoordinatorOpts::default()).expect("coordinator");

    let mut fakes = [
        Fake::connect(&coord.local_addr()),
        Fake::connect(&coord.local_addr()),
    ];
    for f in &mut fakes {
        f.handshake(&mut coord, fp, 6);
    }
    // Interleave the two workers one message at a time until both are
    // told DONE — tiles land in whatever order the leases shake out.
    let mut done = [false, false];
    let mut leases = [0usize, 0usize];
    while done.iter().any(|d| !d) {
        for (w, f) in fakes.iter_mut().enumerate() {
            if done[w] {
                continue;
            }
            f.send(&worker_line(&WorkerMsg::Next));
            match f.read_msg(&mut coord) {
                CoordinatorMsg::Lease { tiles, .. } => {
                    f.send(&tile_lines(&engine, &s, grid, &tiles));
                    leases[w] += 1;
                }
                CoordinatorMsg::Wait(_) => {}
                CoordinatorMsg::Done => {
                    f.send(&worker_line(&WorkerMsg::Bye));
                    done[w] = true;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    assert!(coord.is_complete());
    let report = coord.report();
    assert_eq!(report.workers, 2);
    assert_eq!(report.computed, grid.tile_count());
    assert_eq!(report.resumed, 0);
    assert!(
        leases[0] > 0 && leases[1] > 0,
        "both workers served: {leases:?}"
    );

    let reference = engine.pairwise_distances_seq(&s);
    let merged = coord.into_tiles().to_matrix().expect("whole matrix");
    assert_bit_identical(&merged, &reference);
    // The durable checkpoint holds the identical artifact.
    let reloaded = TileSet::load(&ckpt)
        .expect("reload")
        .to_matrix()
        .expect("matrix");
    assert_bit_identical(&reloaded, &reference);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn silent_straggler_lease_expires_and_is_redispatched() {
    let g = path_graph(10);
    let engine = SndEngine::new(&g, SndConfig::default());
    let s = states(6);
    let grid = TileGrid::new(6, 2);
    let fp = engine.shard_fingerprint(&s);
    let (ckpt, ep) = scratch("straggler");
    let opts = CoordinatorOpts {
        lease_timeout: Duration::from_millis(40),
        target_lease: Duration::from_millis(5),
        grace: Duration::from_millis(100),
    };
    let mut coord = Coordinator::new(&ep, &ckpt, grid, fp, opts).expect("coordinator");

    // Worker A takes a lease and goes silent (a hung process).
    let mut straggler = Fake::connect(&coord.local_addr());
    straggler.handshake(&mut coord, fp, 6);
    straggler.send(&worker_line(&WorkerMsg::Next));
    let CoordinatorMsg::Lease { tiles: stuck, .. } = straggler.read_msg(&mut coord) else {
        panic!("expected a lease");
    };
    assert!(!stuck.is_empty());

    // Past the deadline the lease returns to the pool.
    std::thread::sleep(Duration::from_millis(120));
    coord.poll_once().expect("poll");
    assert!(coord.report().redispatched >= stuck.len());

    // Worker B completes the whole grid, stuck tiles included.
    let mut healthy = Fake::connect(&coord.local_addr());
    healthy.handshake(&mut coord, fp, 6);
    healthy.serve_until_done(&mut coord, &engine, &s, grid);

    assert!(coord.is_complete());
    let reference = engine.pairwise_distances_seq(&s);
    let merged = coord.into_tiles().to_matrix().expect("whole matrix");
    assert_bit_identical(&merged, &reference);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn duplicate_results_keep_the_first_bits_and_certification_attribution() {
    let g = path_graph(10);
    let engine = SndEngine::new(&g, SndConfig::default());
    let s = states(6);
    let grid = TileGrid::new(6, 2);
    let fp = engine.shard_fingerprint(&s);
    let (ckpt, ep) = scratch("dupes");
    let mut coord =
        Coordinator::new(&ep, &ckpt, grid, fp, CoordinatorOpts::default()).expect("coordinator");
    let mut fake = Fake::connect(&coord.local_addr());
    fake.handshake(&mut coord, fp, 6);

    // Tile 0 submitted correctly, then a *corrupted* duplicate: the
    // first result must win and the poison copy be dropped on the floor.
    let honest = tile_lines(&engine, &s, grid, &[0]);
    fake.send(&honest);
    let mut poison = String::new();
    TileLine::Values {
        id: 0,
        values: vec![42.0; grid.pair_count(0)],
    }
    .write(&mut poison);
    fake.send(&poison);

    // Tile 1 arrives, then a duplicate, then an interval line: the
    // duplicate clears attribution, so the certification is dropped —
    // a losing worker can't certify the winner's values.
    let mut t1 = String::new();
    each_tile(&engine, &s, grid, &[1], &mut |lines| {
        lines[0].write(&mut t1)
    });
    fake.send(&t1);
    fake.send(&t1);
    let mut stray_interval = String::new();
    TileLine::Intervals {
        id: 1,
        intervals: vec![(0.0, 1.0); grid.pair_count(1)],
    }
    .write(&mut stray_interval);
    fake.send(&stray_interval);

    // Remaining tiles, then drain to DONE.
    let rest: Vec<usize> = (2..grid.tile_count()).collect();
    fake.send(&tile_lines(&engine, &s, grid, &rest));
    fake.serve_until_done(&mut coord, &engine, &s, grid);

    let report = coord.report();
    assert_eq!(report.duplicates, 2);
    assert_eq!(report.computed, grid.tile_count());
    let tiles = coord.into_tiles();
    assert!(!tiles.is_certified(1), "stray interval must not attach");
    let reference = engine.pairwise_distances_seq(&s);
    assert_bit_identical(&tiles.to_matrix().expect("matrix"), &reference);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn garbage_and_bad_handshakes_get_structured_errs_not_crashes() {
    let g = path_graph(10);
    let engine = SndEngine::new(&g, SndConfig::default());
    let s = states(6);
    let grid = TileGrid::new(6, 2);
    let fp = engine.shard_fingerprint(&s);
    let (ckpt, ep) = scratch("garbage");
    let mut coord =
        Coordinator::new(&ep, &ckpt, grid, fp, CoordinatorOpts::default()).expect("coordinator");

    // Wrong fingerprint: rejected with a message naming the mismatch.
    let mut wrong = Fake::connect(&coord.local_addr());
    wrong.send(&worker_line(&WorkerMsg::Hello {
        version: PROTOCOL_VERSION,
        fingerprint: fp ^ 1,
        k: 6,
    }));
    match wrong.read_msg(&mut coord) {
        CoordinatorMsg::Err(m) => assert!(m.contains("fingerprint"), "{m}"),
        other => panic!("expected ERR, got {other:?}"),
    }

    // Post-handshake garbage: ERR (with the offending line) and close.
    let mut garbled = Fake::connect(&coord.local_addr());
    garbled.handshake(&mut coord, fp, 6);
    garbled.send("LAUNCH missiles 42\n");
    match garbled.read_msg(&mut coord) {
        CoordinatorMsg::Err(m) => assert!(m.contains("LAUNCH"), "{m}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    assert_eq!(coord.report().rejected, 2);

    // The coordinator shrugs it off: a healthy worker still completes.
    let mut healthy = Fake::connect(&coord.local_addr());
    healthy.handshake(&mut coord, fp, 6);
    healthy.serve_until_done(&mut coord, &engine, &s, grid);
    assert!(coord.is_complete());
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn complete_checkpoint_resumes_to_immediate_done() {
    let g = path_graph(10);
    let engine = SndEngine::new(&g, SndConfig::default());
    let s = states(6);
    let grid = TileGrid::new(6, 2);
    let fp = engine.shard_fingerprint(&s);
    let (ckpt, ep) = scratch("resume_done");

    let full = engine.pairwise_tiles(&s, &ShardPlan::full(grid));
    full.save(&ckpt).expect("save");

    let mut coord =
        Coordinator::new(&ep, &ckpt, grid, fp, CoordinatorOpts::default()).expect("coordinator");
    assert!(coord.is_complete(), "resume honors a complete checkpoint");
    let mut fake = Fake::connect(&coord.local_addr());
    fake.handshake(&mut coord, fp, 6);
    fake.send(&worker_line(&WorkerMsg::Next));
    assert_eq!(fake.read_msg(&mut coord), CoordinatorMsg::Done);
    let report = coord.report();
    assert_eq!(report.resumed, grid.tile_count());
    assert_eq!(report.computed, 0);
    let reference = engine.pairwise_distances_seq(&s);
    assert_bit_identical(&coord.into_tiles().to_matrix().expect("matrix"), &reference);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn tcp_endpoint_handshakes_like_unix() {
    let g = path_graph(10);
    let engine = SndEngine::new(&g, SndConfig::default());
    let s = states(6);
    let grid = TileGrid::new(6, 2);
    let fp = engine.shard_fingerprint(&s);
    let ckpt = std::env::temp_dir().join(format!("snd_orch_tcp_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let ep = Endpoint::parse("127.0.0.1:0").expect("endpoint");
    let mut coord =
        Coordinator::new(&ep, &ckpt, grid, fp, CoordinatorOpts::default()).expect("coordinator");
    let addr = coord.local_addr();
    assert!(addr.contains(':') && !addr.ends_with(":0"), "{addr}");

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_nonblocking(true).expect("nonblocking");
    let mut fake = FakeTcp {
        stream,
        buf: Vec::new(),
    };
    fake.send(&worker_line(&WorkerMsg::Hello {
        version: PROTOCOL_VERSION,
        fingerprint: fp,
        k: 6,
    }));
    match fake.read_msg(&mut coord) {
        CoordinatorMsg::Grid { grid, .. } => assert_eq!(grid.states(), 6),
        other => panic!("expected GRID, got {other:?}"),
    }
    let _ = std::fs::remove_file(&ckpt);
}

/// TCP twin of [`Fake`] for the address-family smoke test.
struct FakeTcp {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
}

impl FakeTcp {
    fn send(&mut self, text: &str) {
        self.stream.set_nonblocking(false).expect("blocking");
        self.stream.write_all(text.as_bytes()).expect("send");
        self.stream.set_nonblocking(true).expect("nonblocking");
    }

    fn read_msg(&mut self, coord: &mut Coordinator) -> CoordinatorMsg {
        let mut chunk = [0u8; 4096];
        for _ in 0..20_000 {
            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=nl).collect();
                let line = String::from_utf8_lossy(&line[..nl]).into_owned();
                return parse_coordinator_msg(&line).expect("coordinator line");
            }
            coord.poll_once().expect("poll");
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("coordinator closed the connection"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        panic!("no reply from coordinator");
    }
}

#[test]
fn real_worker_loop_completes_against_a_live_coordinator() {
    let g = path_graph(10);
    let engine = SndEngine::new(&g, SndConfig::default());
    let s = states(6);
    let grid = TileGrid::new(6, 2);
    let fp = engine.shard_fingerprint(&s);
    let (ckpt, ep) = scratch("real_worker");
    let opts = CoordinatorOpts {
        grace: Duration::from_secs(5),
        ..CoordinatorOpts::default()
    };
    let mut coord = Coordinator::new(&ep, &ckpt, grid, fp, opts).expect("coordinator");
    let addr = coord.local_addr();

    // The library's coordinator is thread-free; the *test* needs a second
    // thread to stand in for a worker process driving the blocking loop.
    // lint:allow(thread-spawn) test harness stands in for a separate worker process
    let worker = std::thread::spawn(move || {
        let g = path_graph(10);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(6);
        run_worker(
            &engine,
            &s,
            &addr,
            &WorkerOpts {
                connect_retry: Duration::from_secs(5),
                read_timeout: Duration::from_secs(30),
                throttle: Duration::ZERO,
            },
        )
    });

    while !coord.is_complete() {
        if !coord.poll_once().expect("poll") {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    coord.finish().expect("finish");
    let report = coord.report();
    let worker_report = worker.join().expect("worker thread").expect("worker run");
    assert_eq!(report.computed, grid.tile_count());
    assert_eq!(worker_report.tiles, grid.tile_count());
    assert!(worker_report.leases >= 1);

    let reference = engine.pairwise_distances_seq(&s);
    assert_bit_identical(&coord.into_tiles().to_matrix().expect("matrix"), &reference);
    let _ = std::fs::remove_file(&ckpt);
}
