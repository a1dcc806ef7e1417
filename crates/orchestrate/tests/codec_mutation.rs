//! Seeded mutation test over the one tile-line codec. An approximate-tier
//! checkpoint (`T`, `I` and `W` lines) is cut at every byte and hit with
//! a fixed budget of single-byte mutations. Every variant must load to
//! `Ok` or a `ShardError` — never a panic — and an `Ok` set must survive
//! `save` then `load` unchanged. The same lines, fed to the worker-wire
//! parser, must each give `Ok` or a protocol error. A coordinator
//! transcript (`GRID`, `LEASE`, `WAIT`, `DONE`, `ERR`) gets the same
//! treatment through the worker-side parser.

use snd_core::{ApproxConfig, ShardPlan, SndConfig, SndEngine, TileGrid, TileSet};
use snd_graph::generators::path_graph;
use snd_models::NetworkState;
use snd_orchestrate::protocol::{coordinator_line, parse_coordinator_msg, parse_worker_msg};
use snd_orchestrate::{CoordinatorMsg, OrchestrateError};

/// Single-byte mutations applied on top of the truncations.
const MUTATIONS: usize = 2_000;

/// Bytes a checkpoint mutation writes: line and word breaks, a non-UTF-8
/// byte, and characters the format gives meaning to. Every fourth
/// mutation writes a random byte instead.
const HOSTILE: &[u8] = b"\n \xff0fTIW-+";

/// SplitMix64: a fixed-seed generator with no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn mutated_checkpoints_and_wire_lines_never_panic() {
    let g = path_graph(8);
    let config = SndConfig {
        approx: Some(ApproxConfig {
            epsilon: 0.5,
            min_nodes: 0,
            ..Default::default()
        }),
        ..Default::default()
    };
    let engine = SndEngine::new(&g, config);
    let states = five_states();
    let grid = TileGrid::new(states.len(), 2);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let (base, mutated, resaved) = (
        dir.join(format!("snd_codec_base_{pid}.ckpt")),
        dir.join(format!("snd_codec_mutated_{pid}.ckpt")),
        dir.join(format!("snd_codec_resaved_{pid}.ckpt")),
    );
    let _ = std::fs::remove_file(&base);
    engine
        .pairwise_tiles_checkpointed(&states, &ShardPlan::full(grid), &base)
        .expect("approximate-tier checkpoint");
    let bytes = std::fs::read(&base).expect("read checkpoint");
    let text = String::from_utf8_lossy(&bytes);
    for tag in ["T ", "I ", "W "] {
        assert!(text.lines().any(|l| l.starts_with(tag)), "no {tag}line");
    }

    let (mut loaded, mut refused) = (0, 0);
    for case in variants(&bytes, HOSTILE, 0x5eed) {
        std::fs::write(&mutated, &case).expect("write variant");
        match TileSet::load(&mutated) {
            Ok(set) => {
                loaded += 1;
                set.save(&resaved).expect("save");
                let back = TileSet::load(&resaved).expect("reload a saved set");
                assert_eq!(back, set, "{:?}", String::from_utf8_lossy(&case));
                for id in 0..set.grid().tile_count() {
                    assert_eq!(
                        back.timing(id).map(f64::to_bits),
                        set.timing(id).map(f64::to_bits)
                    );
                }
            }
            Err(_) => refused += 1,
        }
        for line in case.split(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(line);
            match parse_worker_msg(line.trim_end(), &grid) {
                Ok(_) | Err(OrchestrateError::Protocol { .. }) => {}
                Err(e) => panic!("{line:?}: {e}"),
            }
        }
    }
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );
    for path in [&base, &mutated, &resaved] {
        let _ = std::fs::remove_file(path);
    }
}

/// Line-level damage to a valid checkpoint, on the exact and the
/// approximate tier: two `T` lines swapped, an `I` or `W` line moved
/// ahead of its `T` line, a duplicated `T` line, and a `T` line torn in
/// the middle of the file with the lines after it kept. Each variant must
/// load to `Ok` (holding only clean values) or a `ShardError`; a
/// checkpointed run resumed over it must recompute the damaged tiles,
/// end with the clean run's matrix bytes and leave a file that loads
/// complete.
#[test]
fn reordered_duplicated_and_torn_tile_lines_resume_to_the_clean_matrix() {
    let g = path_graph(8);
    let states = five_states();
    let grid = TileGrid::new(states.len(), 2);
    let plan = ShardPlan::full(grid);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let (clean, damaged) = (
        dir.join(format!("snd_codec_clean_{pid}.ckpt")),
        dir.join(format!("snd_codec_damaged_{pid}.ckpt")),
    );
    let bits = |set: &TileSet| -> Vec<u64> {
        let m = set.to_matrix().expect("a complete set");
        (0..m.size() * m.size())
            .map(|x| m.at(x / m.size(), x % m.size()).to_bits())
            .collect()
    };
    let approx = ApproxConfig {
        epsilon: 0.5,
        min_nodes: 0,
        ..Default::default()
    };
    for (approx, side) in [(None, "W "), (Some(approx), "I ")] {
        let engine = SndEngine::new(
            &g,
            SndConfig {
                approx,
                ..Default::default()
            },
        );
        let _ = std::fs::remove_file(&clean);
        engine
            .pairwise_tiles_checkpointed(&states, &plan, &clean)
            .expect("clean checkpoint");
        let want = TileSet::load(&clean).expect("load the clean checkpoint");
        let text = std::fs::read_to_string(&clean).expect("read checkpoint");
        let (head, body) = text.split_at(text.match_indices('\n').nth(1).expect("header").0 + 1);
        let body: Vec<String> = body.split_inclusive('\n').map(String::from).collect();
        let t: Vec<usize> = (0..body.len())
            .filter(|&i| body[i].starts_with("T "))
            .collect();
        assert!(t.len() >= 3, "{text}");
        // The first `I`/`W` line after the second `T` line: its tile's.
        let own = (t[1]..body.len())
            .find(|&i| body[i].starts_with(side))
            .expect("a side line after the second tile");

        let mut cases: Vec<(&str, Vec<String>)> = Vec::new();
        let mut swapped = body.clone();
        swapped.swap(t[0], t[1]);
        cases.push(("swapped", swapped));
        let mut early = body.clone();
        let line = early.remove(own);
        early.insert(t[1], line);
        cases.push(("side line first", early));
        let mut duplicated = body.clone();
        duplicated.insert(t[1] + 1, body[t[1]].clone());
        cases.push(("duplicated", duplicated));
        let mut torn = body.clone();
        torn[t[1]].truncate(body[t[1]].len() / 2);
        cases.push(("torn", torn));

        for (what, lines) in cases {
            std::fs::write(&damaged, format!("{head}{}", lines.concat())).expect("write");
            if let Ok(set) = TileSet::load(&damaged) {
                for i in 0..states.len() {
                    for j in (i + 1)..states.len() {
                        if let Some(v) = set.pair(i, j) {
                            assert_eq!(v.to_bits(), want.pair(i, j).expect("clean").to_bits());
                        }
                    }
                }
            }
            let run = engine
                .pairwise_tiles_checkpointed(&states, &plan, &damaged)
                .unwrap_or_else(|e| panic!("{what}: resume: {e}"));
            assert!(run.computed > 0, "{what}: the damage was not detected");
            assert_eq!(bits(&run.tiles), bits(&want), "{what}");
            let left = TileSet::load(&damaged).expect("the resumed file loads");
            assert_eq!(bits(&left), bits(&want), "{what}: reloaded");
        }
    }
    for path in [&clean, &damaged] {
        let _ = std::fs::remove_file(path);
    }
}

/// The snapshot set both checkpoint tests run on: five states of an
/// 8-node path.
fn five_states() -> Vec<NetworkState> {
    (0..5)
        .map(|t| {
            let vals: Vec<i8> = (0..8).map(|u| ((u + t) % 3) as i8 - 1).collect();
            NetworkState::from_values(&vals)
        })
        .collect()
}

/// Every prefix of `bytes`, then `MUTATIONS` seeded single-byte
/// mutations of it (every fourth a random byte, the rest from `hostile`).
fn variants<'a>(
    bytes: &'a [u8],
    hostile: &'a [u8],
    seed: u64,
) -> impl Iterator<Item = Vec<u8>> + 'a {
    let mut rng = SplitMix(seed);
    let truncations = (0..=bytes.len()).map(|cut| bytes[..cut].to_vec());
    let mutations = (0..MUTATIONS).map(move |n| {
        let mut v = bytes.to_vec();
        let at = rng.below(v.len());
        v[at] = if n % 4 == 3 {
            rng.next() as u8
        } else {
            hostile[rng.below(hostile.len())]
        };
        v
    });
    truncations.chain(mutations)
}

#[test]
fn mutated_coordinator_transcripts_never_panic() {
    let transcript: String = [
        CoordinatorMsg::Grid {
            grid: TileGrid::new(12, 2),
            fingerprint: 0x0123_4567_89ab_cdef,
        },
        CoordinatorMsg::Lease {
            lease: 3,
            tiles: vec![4, 5, 11],
        },
        CoordinatorMsg::Wait(50),
        CoordinatorMsg::Lease {
            lease: 4,
            tiles: vec![7],
        },
        CoordinatorMsg::Done,
        CoordinatorMsg::Err("dataset fingerprint mismatch".into()),
    ]
    .iter()
    .map(coordinator_line)
    .collect();
    // Oversized lines: a verb glued to a long numeral, and a lease whose
    // tile ID overflows.
    let oversized = [
        format!("LEASE{}\n", "9".repeat(10_000)),
        format!("LEASE 1 1 {}\n", "9".repeat(10_000)),
    ];
    let cases = variants(transcript.as_bytes(), b"\n \xff0179ELGRDWTN-+", 0xc0de)
        .chain(oversized.iter().map(|l| l.as_bytes().to_vec()));
    let (mut parsed, mut refused) = (0, 0);
    for case in cases {
        // Lines as the worker reads them: cut at each newline, lossy UTF-8.
        for line in case.split(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(line);
            match parse_coordinator_msg(&line) {
                Ok(msg) => {
                    parsed += 1;
                    // The value holds no more than the line carried.
                    match &msg {
                        CoordinatorMsg::Lease { tiles, .. } => {
                            assert!(tiles.capacity() <= line.len(), "{line:?}")
                        }
                        CoordinatorMsg::Err(m) => assert!(m.len() <= line.len(), "{line:?}"),
                        _ => {}
                    }
                    let back = parse_coordinator_msg(&coordinator_line(&msg));
                    assert_eq!(back.ok().as_ref(), Some(&msg), "{line:?}");
                }
                Err(OrchestrateError::Protocol {
                    line: shown,
                    reason,
                }) => {
                    refused += 1;
                    assert!(shown.len() <= 100 && reason.len() <= 200, "{line:?}");
                }
                Err(e) => panic!("{line:?}: {e}"),
            }
        }
    }
    assert!(
        parsed > 0 && refused > 0,
        "{parsed} parsed, {refused} refused"
    );
}
