//! End-to-end orchestrator tests over the real `snd` binary: a
//! coordinator and worker *processes* on a Unix socket, including the
//! kill-a-worker property — a straggler holding a lease is killed
//! mid-run, its tiles are re-dispatched, and the final matrix is
//! byte-identical to the single-process shard path.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SND: &str = env!("CARGO_BIN_EXE_snd");

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snd_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("workdir");
    dir
}

/// Runs `snd` to completion, asserting success; returns stdout.
fn snd_ok(args: &[&str]) -> String {
    let out = Command::new(SND).args(args).output().expect("spawn snd");
    assert!(
        out.status.success(),
        "snd {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Writes the dataset + the single-process reference matrix for it.
fn dataset_and_reference(dir: &Path, tile: usize) -> (PathBuf, Vec<u8>) {
    let data = dir.join("data.json");
    snd_ok(&[
        "generate",
        "--nodes",
        "80",
        "--steps",
        "4",
        "--seed",
        "13",
        "--out",
        data.to_str().unwrap(),
    ]);
    let ref_ckpt = dir.join("ref.snd");
    let tile_s = tile.to_string();
    snd_ok(&[
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
    snd_ok(&[
        "shard",
        "merge",
        "--out",
        ref_json.to_str().unwrap(),
        ref_ckpt.to_str().unwrap(),
    ]);
    (data, std::fs::read(&ref_json).expect("reference matrix"))
}

/// Waits for a child with a deadline, killing it on timeout.
fn wait_with_deadline(child: &mut Child, secs: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "{what} exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("{what} did not finish within {secs}s");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn killed_worker_is_redispatched_and_matrix_stays_bit_identical() {
    let dir = workdir("kill");
    let tile = 2;
    let (data, reference) = dataset_and_reference(&dir, tile);
    let sock = dir.join("coord.sock");
    let ckpt = dir.join("orch.snd");
    let merged = dir.join("orch.json");

    let mut coord = Command::new(SND)
        .args([
            "orchestrate",
            "--data",
            data.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--listen",
            sock.to_str().unwrap(),
            "--tile",
            &tile.to_string(),
            "--lease-timeout",
            "2",
            "--target-lease",
            "0.2",
            "--out",
            merged.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");

    // The straggler: throttled so hard it never delivers its leased tile.
    let mut straggler = Command::new(SND)
        .args([
            "work",
            "--data",
            data.to_str().unwrap(),
            "--addr",
            sock.to_str().unwrap(),
        ])
        .env("SND_WORK_THROTTLE_MS", "60000")
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn straggler");
    // Give it time to handshake, win a lease, and get stuck in it.
    std::thread::sleep(Duration::from_secs(2));
    straggler.kill().expect("kill straggler");
    let _ = straggler.wait();

    // A healthy worker finishes the run, re-dispatched tiles included.
    let mut healthy = Command::new(SND)
        .args([
            "work",
            "--data",
            data.to_str().unwrap(),
            "--addr",
            sock.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn healthy worker");

    wait_with_deadline(&mut coord, 120, "coordinator");
    wait_with_deadline(&mut healthy, 60, "healthy worker");

    let mut stdout = String::new();
    std::io::Read::read_to_string(coord.stdout.as_mut().expect("stdout"), &mut stdout)
        .expect("read coordinator stdout");
    let redispatched: usize = stdout
        .lines()
        .find_map(|l| l.split("re-dispatched: ").nth(1))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no re-dispatch count in:\n{stdout}"));
    assert!(
        redispatched >= 1,
        "straggler's lease must re-dispatch:\n{stdout}"
    );

    let merged_bytes = std::fs::read(&merged).expect("orchestrated matrix");
    assert_eq!(
        merged_bytes, reference,
        "orchestrated matrix differs from the single-process shard path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spawned_worker_fleet_completes_and_matches_the_reference() {
    let dir = workdir("fleet");
    let tile = 2;
    let (data, reference) = dataset_and_reference(&dir, tile);
    let ckpt = |tag: &str| dir.join(format!("orch_{tag}.snd"));

    // The worker-count curve plus the streaming-overlap ablation.
    for (workers, overlap) in [(1, true), (2, true), (4, true), (2, false)] {
        let tag = format!("w{workers}{}", if overlap { "" } else { "_noovl" });
        let (ckpt_path, merged) = (ckpt(&tag), dir.join(format!("orch_{tag}.json")));
        let (workers_s, tile_s) = (workers.to_string(), tile.to_string());
        let mut args = vec![
            "orchestrate",
            "--data",
            data.to_str().unwrap(),
            "--checkpoint",
            ckpt_path.to_str().unwrap(),
            "--workers",
            &workers_s,
            "--tile",
            &tile_s,
            "--out",
            merged.to_str().unwrap(),
        ];
        if !overlap {
            args.push("--no-overlap");
        }
        let stdout = snd_ok(&args);
        assert!(stdout.contains("orchestrate: complete"), "{tag}: {stdout}");
        // Spawned workers print their reports through the shared stdout.
        assert!(
            stdout.lines().filter(|l| l.starts_with("work:")).count() >= 1,
            "{tag}: {stdout}"
        );
        let merged_bytes = std::fs::read(&merged).expect("orchestrated matrix");
        assert_eq!(
            merged_bytes, reference,
            "{tag}: orchestrated matrix differs from the single-process shard path"
        );
    }

    // Resuming the complete checkpoint is a no-op run: 0 computed.
    let resumed = snd_ok(&[
        "orchestrate",
        "--data",
        data.to_str().unwrap(),
        "--checkpoint",
        ckpt("w2").to_str().unwrap(),
        "--workers",
        "1",
        "--tile",
        &tile.to_string(),
    ]);
    assert!(resumed.contains("0 computed"), "{resumed}");
    let _ = std::fs::remove_dir_all(&dir);
}
