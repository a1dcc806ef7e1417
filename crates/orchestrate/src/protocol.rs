//! The line-oriented wire protocol. One message per `\n`-terminated
//! line, ASCII, human-readable — and the result lines (`T`/`I`/`W`) are
//! *verbatim* checkpoint lines (`snd_core::shard`), so a worker's stream
//! is exactly the durable artifact the coordinator appends: hex-exact
//! f64 bits, validated pair counts, no separate serialization layer to
//! diverge.
//!
//! ```text
//! worker → coordinator             coordinator → worker
//! ─────────────────────            ─────────────────────
//! HELLO 1 <fp:hex16> k <k>         GRID k <k> tile <t> fingerprint <fp>
//! NEXT                             LEASE <lease_id> <n> <tile> ...
//! T <id> <count> <hex> ...         WAIT <millis>
//! I <id> <count> <lo> <hi> ...     DONE
//! W <id> <secs-hex>                ERR <message>
//! BYE
//! ```
//!
//! Lifecycle: `HELLO` (version + dataset fingerprint + snapshot count) is
//! answered by `GRID` or `ERR`; each `NEXT` is answered by `LEASE`,
//! `WAIT` (nothing leasable right now — outstanding leases may yet
//! expire), or `DONE` (matrix complete). Result lines may arrive at any
//! time after the handshake; an `I`/`W` line must follow the `T` line of
//! the same tile on the same connection, mirroring checkpoint order.

use snd_core::{parse_interval_line, parse_tile_line, parse_timing_line, TileGrid};

use crate::{clip, OrchestrateError};

/// Wire protocol version; bumped on any incompatible change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Longest line either side accepts: a tile line holds `pair_count`
/// 16-hex-digit words, so even huge tiles fit well under this; anything
/// longer is garbage and is rejected before it can exhaust memory.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// A message from a worker to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Handshake: protocol version, dataset fingerprint, snapshot count.
    Hello {
        /// Protocol version the worker speaks.
        version: u32,
        /// The worker's `shard_fingerprint` of its dataset + config.
        fingerprint: u64,
        /// Number of snapshots the worker loaded.
        k: usize,
    },
    /// Request for work.
    Next,
    /// A finished tile's values (verbatim checkpoint `T` line).
    Tile {
        /// Tile ID.
        id: usize,
        /// Values in grid pair order.
        values: Vec<f64>,
    },
    /// Certified `[lo, hi]` pairs for the preceding tile (`I` line).
    Interval {
        /// Tile ID.
        id: usize,
        /// Intervals in grid pair order.
        intervals: Vec<(f64, f64)>,
    },
    /// Observed compute seconds for the preceding tile (`W` line).
    Timing {
        /// Tile ID.
        id: usize,
        /// Wall seconds.
        secs: f64,
    },
    /// Clean disconnect.
    Bye,
}

/// A message from the coordinator to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorMsg {
    /// Handshake accepted: the grid and fingerprint this run computes.
    Grid {
        /// Snapshot count.
        k: usize,
        /// Tile edge length.
        tile: usize,
        /// Dataset fingerprint.
        fingerprint: u64,
    },
    /// A lease: compute these tiles and stream the results back.
    Lease {
        /// Lease ID (for diagnostics; tiles are the contract).
        lease: u64,
        /// Tile IDs, ascending.
        tiles: Vec<usize>,
    },
    /// Nothing leasable right now; ask again after this many millis.
    Wait(u64),
    /// The matrix is complete; disconnect.
    Done,
    /// Protocol violation or handshake rejection; connection closes.
    Err(String),
}

/// Serializes a worker message as one newline-terminated line.
pub fn worker_line(msg: &WorkerMsg) -> String {
    match msg {
        WorkerMsg::Hello {
            version,
            fingerprint,
            k,
        } => format!("HELLO {version} {fingerprint:016x} k {k}\n"),
        WorkerMsg::Next => "NEXT\n".into(),
        WorkerMsg::Tile { id, values } => {
            let mut out = String::new();
            snd_core::tile_line(&mut out, *id, values);
            out
        }
        WorkerMsg::Interval { id, intervals } => {
            let mut out = String::new();
            snd_core::interval_line(&mut out, *id, intervals);
            out
        }
        WorkerMsg::Timing { id, secs } => {
            let mut out = String::new();
            snd_core::timing_line(&mut out, *id, *secs);
            out
        }
        WorkerMsg::Bye => "BYE\n".into(),
    }
}

/// Serializes a coordinator message as one newline-terminated line.
pub fn coordinator_line(msg: &CoordinatorMsg) -> String {
    match msg {
        CoordinatorMsg::Grid {
            k,
            tile,
            fingerprint,
        } => format!("GRID k {k} tile {tile} fingerprint {fingerprint:016x}\n"),
        CoordinatorMsg::Lease { lease, tiles } => {
            let mut out = format!("LEASE {lease} {}", tiles.len());
            for t in tiles {
                out.push_str(&format!(" {t}"));
            }
            out.push('\n');
            out
        }
        CoordinatorMsg::Wait(ms) => format!("WAIT {ms}\n"),
        CoordinatorMsg::Done => "DONE\n".into(),
        // Newlines inside the message would smuggle in a second line.
        CoordinatorMsg::Err(m) => format!("ERR {}\n", m.replace('\n', " ")),
    }
}

fn violation(line: &str, reason: impl Into<String>) -> OrchestrateError {
    OrchestrateError::Protocol {
        line: clip(line),
        reason: reason.into(),
    }
}

/// Parses one worker line against the run's grid (`T`/`I`/`W` pair
/// counts and IDs are validated exactly as checkpoint loading does).
/// Malformed lines are structured errors, never panics.
pub fn parse_worker_msg(line: &str, grid: &TileGrid) -> Result<WorkerMsg, OrchestrateError> {
    match line.split_ascii_whitespace().next() {
        Some("HELLO") => {
            let mut t = line.split_ascii_whitespace().skip(1);
            let parsed = (|| {
                let version: u32 = t.next()?.parse().ok()?;
                let fingerprint = u64::from_str_radix(t.next()?, 16).ok()?;
                if t.next()? != "k" {
                    return None;
                }
                let k: usize = t.next()?.parse().ok()?;
                t.next().is_none().then_some(WorkerMsg::Hello {
                    version,
                    fingerprint,
                    k,
                })
            })();
            parsed.ok_or_else(|| violation(line, "bad HELLO (want: HELLO <ver> <fp-hex16> k <k>)"))
        }
        Some("NEXT") if line.trim_end() == "NEXT" => Ok(WorkerMsg::Next),
        Some("BYE") if line.trim_end() == "BYE" => Ok(WorkerMsg::Bye),
        Some("T") => parse_tile_line(line, grid)
            .map(|(id, values)| WorkerMsg::Tile { id, values })
            .ok_or_else(|| violation(line, "bad tile line (id/count/hex mismatch with grid)")),
        Some("I") => parse_interval_line(line, grid)
            .map(|(id, intervals)| WorkerMsg::Interval { id, intervals })
            .ok_or_else(|| violation(line, "bad interval line (id/count/hex mismatch with grid)")),
        Some("W") => parse_timing_line(line, grid)
            .map(|(id, secs)| WorkerMsg::Timing { id, secs })
            .ok_or_else(|| violation(line, "bad timing line (id/hex/finiteness)")),
        Some(other) => Err(violation(line, format!("unknown message {other:?}"))),
        None => Err(violation(line, "empty line")),
    }
}

/// Parses one coordinator line.
pub fn parse_coordinator_msg(line: &str) -> Result<CoordinatorMsg, OrchestrateError> {
    let trimmed = line.trim_end();
    match trimmed.split_ascii_whitespace().next() {
        Some("GRID") => {
            let mut t = trimmed.split_ascii_whitespace().skip(1);
            let parsed = (|| {
                if t.next()? != "k" {
                    return None;
                }
                let k: usize = t.next()?.parse().ok()?;
                if t.next()? != "tile" {
                    return None;
                }
                let tile: usize = t.next()?.parse().ok()?;
                if tile == 0 || t.next()? != "fingerprint" {
                    return None;
                }
                let fingerprint = u64::from_str_radix(t.next()?, 16).ok()?;
                t.next().is_none().then_some(CoordinatorMsg::Grid {
                    k,
                    tile,
                    fingerprint,
                })
            })();
            parsed.ok_or_else(|| {
                violation(
                    line,
                    "bad GRID (want: GRID k <k> tile <t> fingerprint <fp>)",
                )
            })
        }
        Some("LEASE") => {
            let mut t = trimmed.split_ascii_whitespace().skip(1);
            let parsed = (|| {
                let lease: u64 = t.next()?.parse().ok()?;
                let n: usize = t.next()?.parse().ok()?;
                let mut tiles = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    tiles.push(t.next()?.parse().ok()?);
                }
                t.next()
                    .is_none()
                    .then_some(CoordinatorMsg::Lease { lease, tiles })
            })();
            parsed.ok_or_else(|| violation(line, "bad LEASE (want: LEASE <id> <n> <tile>...)"))
        }
        Some("WAIT") => {
            let mut t = trimmed.split_ascii_whitespace().skip(1);
            let parsed = (|| {
                let ms: u64 = t.next()?.parse().ok()?;
                t.next().is_none().then_some(CoordinatorMsg::Wait(ms))
            })();
            parsed.ok_or_else(|| violation(line, "bad WAIT (want: WAIT <millis>)"))
        }
        Some("DONE") if trimmed == "DONE" => Ok(CoordinatorMsg::Done),
        Some("ERR") => Ok(CoordinatorMsg::Err(
            trimmed.strip_prefix("ERR").unwrap_or("").trim().to_string(),
        )),
        Some(other) => Err(violation(line, format!("unknown message {other:?}"))),
        None => Err(violation(line, "empty line")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TileGrid {
        TileGrid::new(6, 2)
    }

    #[test]
    fn worker_messages_roundtrip() {
        let msgs = [
            WorkerMsg::Hello {
                version: 1,
                fingerprint: 0xdead_beef_0123_4567,
                k: 6,
            },
            WorkerMsg::Next,
            WorkerMsg::Tile {
                id: 1,
                values: vec![1.5, 0.25, f64::MAX, 3.0],
            },
            WorkerMsg::Interval {
                id: 1,
                intervals: vec![(1.0, 2.0), (0.0, 0.5), (1.0, 1.0), (2.0, 4.0)],
            },
            WorkerMsg::Timing { id: 1, secs: 0.125 },
            WorkerMsg::Bye,
        ];
        for msg in msgs {
            let line = worker_line(&msg);
            assert!(line.ends_with('\n'));
            let back = parse_worker_msg(line.trim_end(), &grid()).unwrap();
            assert_eq!(back, msg, "{line:?}");
        }
    }

    #[test]
    fn coordinator_messages_roundtrip() {
        let msgs = [
            CoordinatorMsg::Grid {
                k: 6,
                tile: 2,
                fingerprint: 42,
            },
            CoordinatorMsg::Lease {
                lease: 7,
                tiles: vec![0, 3, 5],
            },
            CoordinatorMsg::Lease {
                lease: 8,
                tiles: vec![],
            },
            CoordinatorMsg::Wait(250),
            CoordinatorMsg::Done,
            CoordinatorMsg::Err("fingerprint mismatch".into()),
        ];
        for msg in msgs {
            let line = coordinator_line(&msg);
            assert!(line.ends_with('\n'));
            let back = parse_coordinator_msg(&line).unwrap();
            assert_eq!(back, msg, "{line:?}");
        }
    }

    #[test]
    fn malformed_lines_are_structured_errors_not_panics() {
        let bad_worker = [
            "",
            "   ",
            "HELLO",
            "HELLO one 00 k 6",
            "HELLO 1 xyz k 6",
            "HELLO 1 00 k",
            "HELLO 1 00 k 6 extra",
            "NEXT please",
            "T",
            "T 999 1 0000000000000000", // id out of range
            "T 1 2 0000000000000000",   // count mismatch (tile 1 has 4 pairs)
            "T 1 4 0000000000000000 nonsense aaaaaaaaaaaaaaaa bbbbbbbbbbbbbbbb",
            "I 1 4 0000000000000000", // too few words
            // Values that are no SND: NaN, +inf and negative distances,
            // and an interval whose lower end exceeds its upper end.
            "T 1 4 7ff8000000000000 0000000000000000 0000000000000000 0000000000000000",
            "T 1 4 0000000000000000 7ff0000000000000 0000000000000000 0000000000000000",
            "T 1 4 0000000000000000 0000000000000000 bff0000000000000 0000000000000000",
            "I 1 4 4014000000000000 3ff0000000000000 0 0 0 0 0 0",
            "I 1 4 0 0 7ff8000000000000 7ff8000000000000 0 0 0 0",
            "I 1 4 0 0 0 0 bff0000000000000 0000000000000000 0 0",
            "W 1 zzzz",
            "W 1 fff0000000000000", // -inf: non-finite timing
            "LEASE 1 1 0",          // coordinator verb on worker channel
        ];
        for line in bad_worker {
            match parse_worker_msg(line, &grid()) {
                Err(OrchestrateError::Protocol { reason, .. }) => {
                    assert!(!reason.is_empty(), "{line:?}")
                }
                other => panic!("{line:?} should be a protocol error, got {other:?}"),
            }
        }
        let bad_coord = [
            "",
            "GRID",
            "GRID k 6 tile 0 fingerprint 00", // zero tile
            "GRID k 6 tile 2 fingerprint xyz",
            "LEASE 1",
            "LEASE 1 2 0",   // promises 2 tiles, carries 1
            "LEASE 1 1 0 9", // trailing junk
            "WAIT",
            "WAIT soon",
            "DONE now",
            "T 0 1 0000000000000000", // worker verb on coordinator channel
        ];
        for line in bad_coord {
            match parse_coordinator_msg(line) {
                Err(OrchestrateError::Protocol { reason, .. }) => {
                    assert!(!reason.is_empty(), "{line:?}")
                }
                other => panic!("{line:?} should be a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn long_garbage_is_clipped_in_the_error() {
        let line = format!("T 0 1 {}", "a".repeat(500));
        let Err(OrchestrateError::Protocol { line: shown, .. }) = parse_worker_msg(&line, &grid())
        else {
            panic!("expected protocol error");
        };
        assert!(shown.len() < 120, "clipped: {}", shown.len());
    }
}
