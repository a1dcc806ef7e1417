//! The line-oriented wire protocol. One message per `\n`-terminated
//! line, ASCII, human-readable — and the wire reuses the checkpoint
//! codec (`snd_core::shard`): a result line (`T`/`I`/`W`) is a
//! [`TileLine`] written and parsed by the same code as the checkpoint, so
//! a worker's stream is exactly the durable artifact the coordinator
//! appends (hex-exact f64 bits, validated pair counts), and `GRID`
//! carries the checkpoint's header line.
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
//! the same tile on the same connection, under the checkpoint's ordering
//! rule (`TileSet::accept`).

use snd_core::{TileGrid, TileLine};

use crate::{clip, OrchestrateError};

/// Wire protocol version; bumped on any incompatible change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Longest line either side accepts: a tile line holds `pair_count`
/// 16-hex-digit words, so even huge tiles fit well under this; anything
/// longer is garbage, and [`LineStream`](crate::net::LineStream) rejects
/// it before it can exhaust memory.
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
    /// A result: a finished tile's `T` line, or the `I`/`W` line that
    /// follows it — a verbatim checkpoint line.
    Result(TileLine),
    /// Clean disconnect.
    Bye,
}

/// A message from the coordinator to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorMsg {
    /// Handshake accepted: the grid and fingerprint this run computes.
    Grid {
        /// The run's tile grid.
        grid: TileGrid,
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
        WorkerMsg::Result(line) => {
            let mut out = String::new();
            line.write(&mut out);
            out
        }
        WorkerMsg::Bye => "BYE\n".into(),
    }
}

/// Serializes a coordinator message as one newline-terminated line.
pub fn coordinator_line(msg: &CoordinatorMsg) -> String {
    match msg {
        CoordinatorMsg::Grid { grid, fingerprint } => {
            let mut out = "GRID ".to_string();
            TileLine::write_header(&mut out, grid, *fingerprint);
            out
        }
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

/// Parses one worker line against the run's grid (a `T`/`I`/`W` line
/// goes through the checkpoint's own parser, [`TileLine::parse`]).
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
        Some("T" | "I" | "W") => TileLine::parse(line, grid)
            .map(WorkerMsg::Result)
            .ok_or_else(|| {
                violation(
                    line,
                    "bad result line (id, pair count or value mismatch with the grid)",
                )
            }),
        Some(other) => Err(violation(
            line,
            format!("unknown message {:?}", clip(other)),
        )),
        None => Err(violation(line, "empty line")),
    }
}

/// Parses one coordinator line.
pub fn parse_coordinator_msg(line: &str) -> Result<CoordinatorMsg, OrchestrateError> {
    let trimmed = line.trim_end();
    match trimmed.split_ascii_whitespace().next() {
        Some("GRID") => {
            let parsed = trimmed
                .trim_start()
                .strip_prefix("GRID")
                .and_then(TileLine::parse_header)
                .map(|(grid, fingerprint)| CoordinatorMsg::Grid { grid, fingerprint });
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
                // No capacity from `n`: the line, not the claim, bounds
                // the tiles.
                let mut tiles = Vec::new();
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
        Some(other) => Err(violation(
            line,
            format!("unknown message {:?}", clip(other)),
        )),
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
            WorkerMsg::Result(TileLine::Values {
                id: 1,
                values: vec![1.5, 0.25, f64::MAX, 3.0],
            }),
            WorkerMsg::Result(TileLine::Intervals {
                id: 1,
                intervals: vec![(1.0, 2.0), (0.0, 0.5), (1.0, 1.0), (2.0, 4.0)],
            }),
            WorkerMsg::Result(TileLine::Timing {
                id: 1,
                seconds: 0.125,
            }),
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
                grid: TileGrid::new(6, 2),
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
            "GRID k 4294967296 tile 1 fingerprint 00", // k² overflows usize
            "LEASE 1",
            "LEASE 1 2 0",     // promises 2 tiles, carries 1
            "LEASE 1 1 0 9",   // trailing junk
            "LEASE 1 1048576", // claims a million tiles, carries none
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
