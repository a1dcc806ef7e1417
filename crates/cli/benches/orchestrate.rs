//! Orchestrated-run benchmark: wall-clock for 1/2/4 local workers plus
//! the streaming-overlap ablation, gated on bit-identity with the
//! single-process shard path.
//!
//! Not a criterion harness: each point is one full multi-process run of
//! the real `snd` binary (coordinator + worker fleet over a Unix
//! socket), so the interesting number is the end-to-end wall time and
//! the per-phase worker seconds parsed from its report lines. Results
//! land in `BENCH_orchestrate.json` at the repo root. The container is
//! 1-core, so worker counts measure scheduling overhead and overlap
//! behaviour, not parallel speedup.
//!
//! `--test` (used by CI and `cargo test`-adjacent smoke) shrinks the
//! dataset and skips nothing — the bit-identity gate always runs.
//!
//! Scale knobs (env): `SND_BENCH_NODES` (default 1500),
//! `SND_BENCH_SNAPSHOTS` (default 8).

use std::path::Path;
use std::process::Command;
use std::time::Instant;

const SND: &str = env!("CARGO_BIN_EXE_snd");

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `snd` with `args`, asserting success; returns (stdout, seconds).
fn snd(args: &[&str]) -> (String, f64) {
    let started = Instant::now();
    let out = Command::new(SND)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {SND}: {e}"));
    let wall = started.elapsed().as_secs_f64();
    assert!(
        out.status.success(),
        "snd {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (String::from_utf8_lossy(&out.stdout).into_owned(), wall)
}

/// Sums `label {value}s` occurrences over every worker report line.
fn sum_worker_seconds(stdout: &str, label: &str) -> f64 {
    stdout
        .lines()
        .filter(|l| l.starts_with("work:"))
        .filter_map(|l| {
            let rest = l.split(label).nth(1)?;
            rest.split('s').next()?.trim().parse::<f64>().ok()
        })
        .sum()
}

/// Pulls `key: N` style counters out of the coordinator report line.
fn report_counter(stdout: &str, key: &str) -> usize {
    stdout
        .lines()
        .find(|l| l.starts_with("orchestrate: complete"))
        .and_then(|l| l.split(key).nth(1))
        .and_then(|rest| {
            rest.trim_start_matches(": ")
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

struct Run {
    workers: usize,
    overlap: bool,
    wall_s: f64,
    compute_s: f64,
    flush_wait_s: f64,
    redispatched: usize,
    duplicates: usize,
}

fn orchestrated_run(
    data: &Path,
    ckpt: &Path,
    out_json: &Path,
    tile: usize,
    workers: usize,
    overlap: bool,
) -> Run {
    let _ = std::fs::remove_file(ckpt);
    let tile_s = tile.to_string();
    let workers_s = workers.to_string();
    let mut args = vec![
        "orchestrate",
        "--data",
        data.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--workers",
        &workers_s,
        "--tile",
        &tile_s,
        "--out",
        out_json.to_str().unwrap(),
    ];
    if !overlap {
        args.push("--no-overlap");
    }
    let (stdout, wall_s) = snd(&args);
    Run {
        workers,
        overlap,
        wall_s,
        compute_s: sum_worker_seconds(&stdout, "compute "),
        flush_wait_s: sum_worker_seconds(&stdout, "flush-wait "),
        redispatched: report_counter(&stdout, "re-dispatched"),
        duplicates: report_counter(&stdout, "duplicates"),
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (nodes, snapshots) = if test_mode {
        (120, 5)
    } else {
        (
            env_usize("SND_BENCH_NODES", 1_500).max(50),
            env_usize("SND_BENCH_SNAPSHOTS", 8).max(3),
        )
    };
    let tile = 2usize;
    let dir = std::env::temp_dir().join(format!("snd_bench_orch_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench workdir");
    let data = dir.join("data.json");
    let steps = (snapshots - 1).to_string();
    let nodes_s = nodes.to_string();
    snd(&[
        "generate",
        "--nodes",
        &nodes_s,
        "--steps",
        &steps,
        "--seed",
        "11",
        "--out",
        data.to_str().unwrap(),
    ]);

    // Reference: the single-process shard path on the same explicit grid.
    let ref_ckpt = dir.join("ref.snd");
    let tile_s = tile.to_string();
    let (_, ref_wall) = snd(&[
        "shard",
        "--data",
        data.to_str().unwrap(),
        "--shard",
        "0/1",
        "--checkpoint",
        ref_ckpt.to_str().unwrap(),
        "--tile",
        &tile_s,
    ]);
    let ref_json = dir.join("ref.json");
    snd(&[
        "shard",
        "merge",
        "--out",
        ref_json.to_str().unwrap(),
        ref_ckpt.to_str().unwrap(),
    ]);
    let reference = std::fs::read(&ref_json).expect("reference matrix");

    // Worker-count curve plus the overlap ablation at 2 workers.
    let points: &[(usize, bool)] = &[(1, true), (2, true), (4, true), (2, false)];
    let mut runs = Vec::new();
    for &(workers, overlap) in points {
        let tag = format!("w{workers}{}", if overlap { "" } else { "_noovl" });
        let ckpt = dir.join(format!("orch_{tag}.snd"));
        let out_json = dir.join(format!("orch_{tag}.json"));
        let run = orchestrated_run(&data, &ckpt, &out_json, tile, workers, overlap);
        // The gate: every orchestrated matrix is byte-identical to the
        // single-process artifact (which is itself bit-exact f64 JSON).
        let merged = std::fs::read(&out_json).expect("orchestrated matrix");
        assert_eq!(
            merged, reference,
            "{tag}: orchestrated matrix differs from the sequential shard path"
        );
        println!(
            "orchestrate bench {tag}: wall {:.2}s (reference {ref_wall:.2}s), compute {:.2}s, \
             flush-wait {:.3}s, redispatched {}, duplicates {}",
            run.wall_s, run.compute_s, run.flush_wait_s, run.redispatched, run.duplicates
        );
        runs.push(run);
    }

    write_results(nodes, snapshots, tile, ref_wall, &runs);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "orchestrate bench: bit-identity gate passed for all {} runs",
        runs.len()
    );
}

/// Records the measurements as `BENCH_orchestrate.json` at the repo root
/// (skipped in `--test` mode: CI numbers would overwrite real ones).
fn write_results(nodes: usize, snapshots: usize, tile: usize, ref_wall: f64, runs: &[Run]) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"orchestrate\",\n");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    json.push_str(&format!(
        "  \"config\": {{\"nodes\": {nodes}, \"snapshots\": {snapshots}, \"tile\": {tile}, \
         \"cores\": {cores}}},\n"
    ));
    json.push_str(&format!(
        "  \"reference\": {{\"mode\": \"shard 0/1 single process\", \"wall_s\": {ref_wall:.3}}},\n"
    ));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"overlap\": {}, \"wall_s\": {:.3}, \"compute_s\": {:.3}, \
             \"flush_wait_s\": {:.4}, \"redispatched\": {}, \"duplicates\": {}, \
             \"bit_identical\": true}}{}\n",
            r.workers,
            r.overlap,
            r.wall_s,
            r.compute_s,
            r.flush_wait_s,
            r.redispatched,
            r.duplicates,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_orchestrate.json");
    std::fs::write(path, json).expect("writing BENCH_orchestrate.json");
    println!("wrote {path}");
}
