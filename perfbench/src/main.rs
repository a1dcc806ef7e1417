//! The SND workspace benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --snd PATH
//! perfbench --tiny --snd PATH
//! ```
//!
//! Normally started through `python3 perfbench/run.py …` from the
//! repository root, which builds this package and the `snd` binary first.
//!
//! Workloads (see `BENCHMARK.json` for why each exists): `pairwise`,
//! `series`, `series_rebuild`, `orchestrate`. Load is a closed loop with
//! one caller: each call waits for its result, and sampled processes run
//! one after another. The library's rayon pool is pinned to the machine's
//! core count; `orchestrate` runs one `snd work` process per core with one
//! pool thread each.
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds` and checks
//! the outputs; in-process workloads are sampled in several processes of
//! this binary (`--sample-child`), one after another. `--trace 1` runs the
//! workload once untraced, then replays it through the layers' public
//! entry points with spans around every call (`replay.rs`), at the core
//! count and — in a child process — at one thread, and reports per-layer
//! self time. The last stdout line is always one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. `--tiny` runs all four workloads in
//! both modes on tiny inputs and exits non-zero if any output is wrong.

mod inputs;
mod replay;
mod sys;
mod trace;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use inputs::{Identity, Input, Size, Workload};
use snd_core::SndEngine;
use trace::{Counter, LayerTable};

/// Tile size of the orchestrated grid.
const TILE: usize = 2;
/// Processes sampled per in-process run. A process's memory layout moves
/// its speed by up to a fifth from one process to the next, while calls
/// within a process agree within a few percent, so a run reports the
/// median over several processes.
const PROCESS_SAMPLES: usize = 5;
/// Shortest timed batch of engine constructions for `setup_s`: a per-bin
/// construction takes microseconds, too little to time one at a time.
const SETUP_BATCH_S: f64 = 0.02;
/// Batches of engine constructions timed per sampled process.
const SETUP_BATCHES: usize = 5;
/// Resumed-complete orchestrations timed per run for `setup_s`.
const ORCH_SETUP_REPS: usize = 15;
/// Timed calls per closed loop, at least.
const MIN_CALLS: usize = 2;
/// Lease target for `orchestrate`, in seconds: below any tile's compute
/// time, so every lease is one tile. Coalesced leases share geometry
/// within a lease and their composition depends on timing, which made the
/// work per run vary by a third; one tile per lease fixes it, and is the
/// case per-lease geometry rebuilds cost most.
const TARGET_LEASE_S: &str = "0.001";
/// Untraced/traced replay pairs timed for the tracing overhead.
const OVERHEAD_ROUNDS: usize = 2;
/// Matrix entries / transitions re-checked against the sequential
/// reference per run.
const GATE_SAMPLES: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    snd: PathBuf,
    replay_child: bool,
    sample_child: bool,
    checkpoint: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        snd: PathBuf::from(".bench_build/release/snd"),
        replay_child: false,
        sample_child: false,
        checkpoint: None,
    };
    let mut i = 0;
    let value = |i: usize| {
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{} needs a value", argv[i]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let v = value(i)?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                i += 1;
            }
            "--seed" => {
                a.seed = value(i)?.parse().map_err(|_| "bad --seed")?;
                i += 1;
            }
            "--seconds" => {
                a.seconds = value(i)?.parse().map_err(|_| "bad --seconds")?;
                i += 1;
            }
            "--trace" => {
                a.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
                i += 1;
            }
            "--snd" => {
                a.snd = PathBuf::from(value(i)?);
                i += 1;
            }
            "--checkpoint" => {
                a.checkpoint = Some(PathBuf::from(value(i)?));
                i += 1;
            }
            "--tiny" => a.tiny = true,
            "--replay-child" => a.replay_child = true,
            "--sample-child" => a.sample_child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if a.workload.is_none() && !a.tiny {
        return Err("need --workload NAME (or --tiny)".into());
    }
    Ok(a)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run reports.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn print_table(&self) {
        for m in &self.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("  {:<34} {:>16.6} ratio", "error_rate", rate);
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Counts positions where two value lists differ bit for bit (a length
/// mismatch counts every missing value).
fn mismatches(a: &[f64], b: &[f64]) -> usize {
    let common = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    common + a.len().abs_diff(b.len())
}

/// A seeded sample of `k` distinct indices below `n`.
fn sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < k.min(n) {
        let i = rng.gen_range(0..n);
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

/// Per-run scratch directory under `perfbench/out` (relative to the
/// repository root, which the benchmark runs from).
fn work_dir(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(format!(
        "perfbench/out/run-{}-{seed}-{}",
        w.name(),
        std::process::id()
    ))
}

fn print_identity(w: Workload, seed: u64, id: &Identity) {
    let nproc = sys::nproc();
    let fleet = if w == Workload::Orchestrate {
        format!("{nproc} worker process(es) x 1 pool thread")
    } else {
        format!(
            "1 process x {} pool thread(s)",
            rayon::current_num_threads()
        )
    };
    println!(
        "input: workload={} seed={seed} nodes={} edges={} snapshots={} mean_flips={:.2} \
         mean_touched_edges={:.1} fallback_transitions={}/{} states_fingerprint={:#018x}",
        w.name(),
        id.nodes,
        id.edges,
        id.snapshots,
        id.mean_flips,
        id.mean_touched_edges,
        id.fallback_transitions,
        id.transitions,
        id.fingerprint
    );
    println!(
        "env: nproc={nproc} rayon_threads={} compute={fleet}",
        rayon::current_num_threads()
    );
}

/// Transitions that fall outside the workload's intended regime: `series`
/// must never fall back, `series_rebuild` must always.
fn regime_violations(w: Workload, id: &Identity) -> usize {
    match w {
        Workload::Series => id.fallback_transitions,
        Workload::SeriesRebuild => id.transitions - id.fallback_transitions,
        _ => 0,
    }
}

/// Result of the timed closed loop.
struct Loop {
    rates: Vec<f64>,
    cpu_ms_per_value: Vec<f64>,
    walls: Vec<f64>,
    attempted: usize,
    failed: usize,
    first: Vec<f64>,
}

/// Calls `f` back to back until `seconds` have passed and it ran at least
/// `min_calls` times, timing each call and checking that every call
/// returns the first call's values bit for bit.
fn closed_loop(
    seconds: f64,
    min_calls: usize,
    mut f: impl FnMut() -> Result<Vec<f64>, String>,
) -> Loop {
    let mut l = Loop {
        rates: Vec::new(),
        cpu_ms_per_value: Vec::new(),
        walls: Vec::new(),
        attempted: 0,
        failed: 0,
        first: Vec::new(),
    };
    let started = Instant::now();
    let mut expected = 0;
    loop {
        let cpu0 = sys::total_cpu_s();
        let t0 = Instant::now();
        let out = black_box(f());
        let wall = t0.elapsed().as_secs_f64();
        let cpu = sys::total_cpu_s() - cpu0;
        match out {
            Ok(values) => {
                let n = values.len().max(1);
                l.attempted += values.len();
                if l.walls.is_empty() {
                    expected = values.len();
                    l.first = values;
                } else {
                    l.failed += mismatches(&l.first, &values);
                }
                l.rates.push(n as f64 / wall);
                l.cpu_ms_per_value.push(cpu * 1e3 / n as f64);
            }
            Err(e) => {
                eprintln!("iteration failed: {e}");
                l.attempted += expected.max(1);
                l.failed += expected.max(1);
            }
        }
        l.walls.push(wall);
        if started.elapsed().as_secs_f64() >= seconds && l.walls.len() >= min_calls {
            break;
        }
    }
    l
}

/// Wall time of one engine construction (the clustering): constructions
/// run back to back in batches of at least [`SETUP_BATCH_S`], and the
/// median batch's time per construction is reported.
fn engine_setup_s(input: &Input, size: Size) -> f64 {
    let config = inputs::config(size);
    let batch = |k: usize| {
        let t0 = Instant::now();
        for _ in 0..k {
            black_box(SndEngine::new(&input.graph, config.clone()));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut k = 1;
    while batch(k) < SETUP_BATCH_S {
        k *= 2;
    }
    let times: Vec<f64> = (0..SETUP_BATCHES).map(|_| batch(k) / k as f64).collect();
    median(&times)
}

/// Bit-identity gate for in-process workloads: sampled matrix entries
/// against `distance_seq`, sampled transitions against
/// `series_distances_seq`. Returns the mismatch count.
fn sequential_gate(
    w: Workload,
    engine: &SndEngine<'_>,
    input: &Input,
    values: &[f64],
    seed: u64,
) -> usize {
    let states = &input.states;
    let mut bad = 0;
    if w.is_matrix() {
        let pairs = replay::upper_pairs(states.len());
        for idx in sample(pairs.len(), GATE_SAMPLES, seed) {
            let (i, j) = pairs[idx];
            let reference = engine.distance_seq(&states[i], &states[j]);
            if reference.to_bits() != values[idx].to_bits() {
                eprintln!(
                    "gate: entry ({i},{j}) {} != sequential {reference}",
                    values[idx]
                );
                bad += 1;
            }
        }
    } else {
        // One sampled transition: the sequential reference rebuilds both
        // geometries from scratch, the most expensive check per value.
        for t in sample(states.len() - 1, 1, seed) {
            let reference = engine.series_distances_seq(&states[t..t + 2])[0];
            if reference.to_bits() != values[t].to_bits() {
                eprintln!(
                    "gate: transition {t} {} != sequential {reference}",
                    values[t]
                );
                bad += 1;
            }
        }
    }
    bad
}

/// Stats parsed from one `snd orchestrate` run's stdout (the coordinator
/// report line plus the workers' `work:` lines).
#[derive(Default, Debug)]
struct OrchStats {
    wall_s: f64,
    compute_s: f64,
    flush_wait_s: f64,
    leases: f64,
    redispatched: f64,
    duplicates: f64,
}

fn sum_worker(stdout: &str, label: &str) -> f64 {
    stdout
        .lines()
        .filter(|l| l.starts_with("work:"))
        .filter_map(|l| {
            let rest = l.split(label).nth(1)?;
            rest.trim()
                .split(|c: char| !(c.is_ascii_digit() || c == '.'))
                .next()?
                .parse::<f64>()
                .ok()
        })
        .sum()
}

fn worker_leases(stdout: &str) -> f64 {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("work: "))
        .filter_map(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .sum()
}

fn report_counter(stdout: &str, key: &str) -> f64 {
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
        .unwrap_or(0.0)
}

/// Runs the `snd` binary, returning stdout; a failure is an error.
fn snd(bin: &Path, args: &[&str], threads: usize) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "snd {args:?} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(stdout)
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("benchmark paths are UTF-8")
}

/// One orchestrated all-pairs run: a coordinator on a Unix socket with
/// one `snd work` process per core, each with one pool thread.
fn orchestrate_once(
    a: &Args,
    dir: &Path,
    data: &Path,
    ckpt: &Path,
    out: &Path,
) -> Result<OrchStats, String> {
    let _ = std::fs::remove_file(ckpt);
    let _ = std::fs::remove_file(out);
    let sock = dir.join("coord.sock");
    let workers = sys::nproc().to_string();
    let tile = TILE.to_string();
    let t0 = Instant::now();
    let stdout = snd(
        &a.snd,
        &[
            "orchestrate",
            "--data",
            path_str(data),
            "--checkpoint",
            path_str(ckpt),
            "--workers",
            &workers,
            "--tile",
            &tile,
            "--listen",
            path_str(&sock),
            "--target-lease",
            TARGET_LEASE_S,
            "--out",
            path_str(out),
        ],
        1,
    )?;
    Ok(OrchStats {
        wall_s: t0.elapsed().as_secs_f64(),
        compute_s: sum_worker(&stdout, "compute "),
        flush_wait_s: sum_worker(&stdout, "flush-wait "),
        leases: worker_leases(&stdout),
        redispatched: report_counter(&stdout, "re-dispatched"),
        duplicates: report_counter(&stdout, "duplicates"),
    })
}

/// Parses the CLI's matrix JSON (`{"size":k,"rows":[[…],…]}`) into its
/// strict upper triangle, row-major.
fn matrix_upper(json: &str) -> Result<Vec<f64>, String> {
    let rows = json
        .split("\"rows\":")
        .nth(1)
        .ok_or("matrix JSON without rows")?;
    let cells: Vec<&str> = rows
        .split(['[', ']', ',', '}'])
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect();
    let k = (cells.len() as f64).sqrt().round() as usize;
    if k * k != cells.len() {
        return Err(format!(
            "matrix JSON holds {} cells, not a square",
            cells.len()
        ));
    }
    let mut out = Vec::new();
    for i in 0..k {
        for j in (i + 1)..k {
            out.push(
                cells[i * k + j]
                    .parse::<f64>()
                    .map_err(|_| format!("bad matrix cell {:?}", cells[i * k + j]))?,
            );
        }
    }
    Ok(out)
}

/// The single-process reference matrix for `orchestrate`: `snd shard 0/1`
/// on the same grid, then `snd shard merge`.
fn shard_reference(a: &Args, dir: &Path, data: &Path) -> Result<Vec<u8>, String> {
    let ckpt = dir.join("reference.snd");
    let out = dir.join("reference.json");
    let tile = TILE.to_string();
    let threads = sys::nproc();
    snd(
        &a.snd,
        &[
            "shard",
            "--data",
            path_str(data),
            "--shard",
            "0/1",
            "--checkpoint",
            path_str(&ckpt),
            "--tile",
            &tile,
        ],
        threads,
    )?;
    snd(
        &a.snd,
        &["shard", "merge", "--out", path_str(&out), path_str(&ckpt)],
        threads,
    )?;
    std::fs::read(&out).map_err(|e| format!("reading {}: {e}", out.display()))
}

/// Median wall time of resumed-complete orchestrations: the coordinator
/// starts, spawns its fleet, and every worker loads the dataset, builds
/// its engine and handshakes before the coordinator can release it.
fn orchestrate_setup_s(a: &Args, dir: &Path, data: &Path, complete: &Path) -> Result<f64, String> {
    let workers = sys::nproc().to_string();
    let tile = TILE.to_string();
    let sock = dir.join("setup.sock");
    let mut times = Vec::new();
    for r in 0..ORCH_SETUP_REPS {
        let copy = dir.join(format!("setup-{r}.snd"));
        std::fs::copy(complete, &copy).map_err(|e| format!("copying checkpoint: {e}"))?;
        let t0 = Instant::now();
        snd(
            &a.snd,
            &[
                "orchestrate",
                "--data",
                path_str(data),
                "--checkpoint",
                path_str(&copy),
                "--workers",
                &workers,
                "--tile",
                &tile,
                "--listen",
                path_str(&sock),
                "--target-lease",
                TARGET_LEASE_S,
            ],
            1,
        )?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// The four end-to-end metrics.
fn end_to_end(rate: f64, cpu_ms: f64, peak_kib: f64, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("snd_per_s", rate, "1/s"),
        metric("cpu_ms_per_snd", cpu_ms, "ms"),
        metric("peak_rss_mib", peak_kib / 1024.0, "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

fn print_loop(l: &Loop) {
    let walls: Vec<String> = l.walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "loop: {} call(s) of {} value(s), wall s: {}",
        l.walls.len(),
        l.first.len(),
        walls.join(" ")
    );
}

/// One process's measurement of an in-process workload.
struct Sample {
    /// Median values per second over the process's calls.
    rate: f64,
    /// Median CPU ms per value over the process's calls.
    cpu_ms: f64,
    peak_kib: i64,
    setup_s: f64,
    calls: usize,
    attempted: usize,
    failed: usize,
    /// FNV-1a digest of the first call's value bits.
    digest: u64,
}

impl Sample {
    /// The child-process hand-off line.
    fn line(&self) -> String {
        format!(
            "sample {} {} {} {} {} {} {} {:x}",
            self.rate,
            self.cpu_ms,
            self.peak_kib,
            self.setup_s,
            self.calls,
            self.attempted,
            self.failed,
            self.digest
        )
    }

    fn parse(text: &str) -> Option<Sample> {
        let line = text.lines().find_map(|l| l.strip_prefix("sample "))?;
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [rate, cpu_ms, peak, setup, calls, attempted, failed, digest] => Some(Sample {
                rate: rate.parse().ok()?,
                cpu_ms: cpu_ms.parse().ok()?,
                peak_kib: peak.parse().ok()?,
                setup_s: setup.parse().ok()?,
                calls: calls.parse().ok()?,
                attempted: attempted.parse().ok()?,
                failed: failed.parse().ok()?,
                digest: u64::from_str_radix(digest, 16).ok()?,
            }),
            _ => None,
        }
    }
}

fn digest(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Measures an in-process workload in this process: the engine set-up
/// time, then the closed loop for `seconds`. Also returns the first call's
/// values.
fn in_process_sample(
    w: Workload,
    input: &Input,
    size: Size,
    engine: &SndEngine<'_>,
    seconds: f64,
) -> (Sample, Vec<f64>) {
    let setup_s = engine_setup_s(input, size);
    let states = &input.states;
    let l = closed_loop(seconds, MIN_CALLS, || {
        Ok(if w.is_matrix() {
            let m = engine.pairwise_distances(states);
            replay::upper_pairs(m.size())
                .into_iter()
                .map(|(i, j)| m.at(i, j))
                .collect()
        } else {
            engine.series_distances(states)
        })
    });
    let peak_kib = sys::self_usage().maxrss_kib;
    print_loop(&l);
    let sample = Sample {
        rate: median(&l.rates),
        cpu_ms: median(&l.cpu_ms_per_value),
        peak_kib,
        setup_s,
        calls: l.walls.len(),
        attempted: l.attempted,
        failed: l.failed,
        digest: digest(&l.first),
    };
    (sample, l.first)
}

/// `--sample-child`: one sampled process, reported as a `sample` line.
fn run_sample_child(a: &Args, w: Workload) {
    let size = Size::of(w, a.tiny);
    let input = inputs::generate(w, size, a.seed);
    let engine = SndEngine::new(&input.graph, inputs::config(size));
    let (sample, _) = in_process_sample(w, &input, size, &engine, a.seconds);
    println!("{}", sample.line());
}

/// Runs this binary again on the same workload and seed with `extra`
/// arguments and `threads` pool threads, returning its stdout.
fn run_child(a: &Args, w: Workload, extra: &[&str], threads: usize) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &a.seed.to_string()])
        .args(extra)
        .arg("--snd")
        .arg(&a.snd)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(std::process::Stdio::null());
    if a.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {extra:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `--trace 0`: the end-to-end metrics.
///
/// In-process workloads are measured in [`PROCESS_SAMPLES`] processes one
/// after another — this one, then fresh processes of this binary — each
/// for an equal share of `--seconds`. Each must return the same values
/// bit for bit. The loop metrics are the median over the processes;
/// `setup_s` is the fastest process's, because the construction runs on
/// one thread and its speed follows the core it lands on (on a shared
/// 2-vCPU host one core ran it up to 1.7 times slower than the other).
fn run_untraced(a: &Args, w: Workload) -> Result<Report, String> {
    let size = Size::of(w, a.tiny);
    let input = inputs::generate(w, size, a.seed);
    let id = Identity::of(&input);
    print_identity(w, a.seed, &id);
    let engine = SndEngine::new(&input.graph, inputs::config(size));
    let regime = regime_violations(w, &id);

    if w == Workload::Orchestrate {
        let dir = work_dir(w, a.seed);
        let result = orchestrate_untraced(a, &dir, &engine, &input);
        let _ = std::fs::remove_dir_all(&dir);
        let (l, peak_kib, setup_s, gate_bad) = result?;
        print_loop(&l);
        return Ok(Report {
            attempted: l.attempted,
            failed: l.failed + gate_bad + regime,
            metrics: end_to_end(
                median(&l.rates),
                median(&l.cpu_ms_per_value),
                peak_kib as f64,
                setup_s,
            ),
        });
    }

    let share = a.seconds / PROCESS_SAMPLES as f64;
    let (own, first) = in_process_sample(w, &input, size, &engine, share);
    let mut failed = regime + sequential_gate(w, &engine, &input, &first, a.seed);
    let mut samples = vec![own];
    for _ in 1..PROCESS_SAMPLES {
        let text = run_child(
            a,
            w,
            &["--seconds", &share.to_string(), "--sample-child"],
            sys::nproc(),
        )?;
        samples.push(Sample::parse(&text).ok_or("sample child printed no sample")?);
    }
    for (k, s) in samples.iter().enumerate() {
        println!(
            "sample {k}: {} call(s), {:.4} values/s, {:.4} CPU ms/value, peak {} KiB, setup {:.4e} s",
            s.calls, s.rate, s.cpu_ms, s.peak_kib, s.setup_s
        );
        failed += s.failed;
        if s.digest != samples[0].digest {
            eprintln!("sample {k}: values differ from sample 0");
            failed += first.len().max(1);
        }
    }
    let over = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    Ok(Report {
        attempted: samples.iter().map(|s| s.attempted).sum(),
        failed,
        metrics: end_to_end(
            over(|s| s.rate),
            over(|s| s.cpu_ms),
            over(|s| s.peak_kib as f64),
            samples
                .iter()
                .map(|s| s.setup_s)
                .fold(f64::INFINITY, f64::min),
        ),
    })
}

/// The `orchestrate` closed loop plus its gates: every run's matrix is
/// byte-compared with the single-process shard reference, and sampled
/// entries with `distance_seq`.
fn orchestrate_untraced(
    a: &Args,
    dir: &Path,
    engine: &SndEngine<'_>,
    input: &Input,
) -> Result<(Loop, i64, f64, usize), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let data = dir.join("data.json");
    std::fs::write(&data, inputs::dataset_json(input))
        .map_err(|e| format!("writing dataset: {e}"))?;
    let ckpt = dir.join("run.snd");
    let mut matrices: Vec<Vec<u8>> = Vec::new();
    let l = closed_loop(a.seconds, MIN_CALLS, || {
        let out = dir.join(format!("run-{}.json", matrices.len()));
        orchestrate_once(a, dir, &data, &ckpt, &out)?;
        let bytes = std::fs::read(&out).map_err(|e| format!("reading {}: {e}", out.display()))?;
        let values = matrix_upper(&String::from_utf8_lossy(&bytes))?;
        let _ = std::fs::remove_file(&out);
        matrices.push(bytes);
        Ok(values)
    });
    let peak = sys::children_usage().maxrss_kib;
    let reference = shard_reference(a, dir, &data)?;
    let mut bad = 0;
    for m in &matrices {
        if *m != reference {
            let got = matrix_upper(&String::from_utf8_lossy(m))?;
            let want = matrix_upper(&String::from_utf8_lossy(&reference))?;
            bad += mismatches(&want, &got).max(1);
        }
    }
    bad += sequential_gate(Workload::Orchestrate, engine, input, &l.first, a.seed);
    let setup = orchestrate_setup_s(a, dir, &data, &ckpt)?;
    Ok((l, peak, setup, bad))
}

/// Replays the workload with spans, returning the replay's values, the
/// layer table, the replay's compute wall time in ms (the shard IO of
/// `orchestrate`, which the engine run does not do, is left out) and the
/// spans.
fn traced_replay(
    w: Workload,
    engine: &SndEngine<'_>,
    input: &Input,
    checkpoint: Option<&Path>,
) -> Result<(Vec<f64>, LayerTable, f64, Vec<trace::Span>), String> {
    let states = &input.states;
    trace::set_run(rayon::current_num_threads() as u32);
    let mut compute_ms = 0.0;
    let values = trace::span("run", 0, |root| -> Result<Vec<f64>, String> {
        let t0 = Instant::now();
        let values = match w {
            Workload::Pairwise => replay::pairwise(engine, states, root),
            Workload::Series | Workload::SeriesRebuild => replay::series(engine, states, root),
            Workload::Orchestrate => replay::tiles(engine, states, TILE, root),
        };
        compute_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(ckpt) = checkpoint {
            replay::shard_io(ckpt, root)?;
        }
        Ok(values)
    })?;
    let spans = trace::drain();
    let table = trace::layer_table(&spans);
    Ok((values, table, compute_ms, spans))
}

/// Writes the replay's spans to
/// `perfbench/out/trace-<workload>-seed<n>-t<threads>.jsonl`.
fn write_spans(w: Workload, seed: u64, spans: &[trace::Span]) -> Result<PathBuf, String> {
    let path = PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{seed}-t{}.jsonl",
        w.name(),
        rayon::current_num_threads()
    ));
    trace::write_spans(&path, spans).map_err(|e| format!("writing spans: {e}"))?;
    Ok(path)
}

/// `--replay-child`: the one-thread replay, reported as layer lines.
fn run_replay_child(a: &Args, w: Workload) -> Result<(), String> {
    let size = Size::of(w, a.tiny);
    let input = inputs::generate(w, size, a.seed);
    let engine = SndEngine::new(&input.graph, inputs::config(size));
    let (_, table, wall_ms, spans) = traced_replay(w, &engine, &input, a.checkpoint.as_deref())?;
    write_spans(w, a.seed, &spans)?;
    print!("{}", table.to_lines());
    println!("wall {wall_ms}");
    Ok(())
}

/// Starts the one-thread replay in a child process (the pool size is
/// fixed per process) and parses its layer table.
fn one_thread_replay(
    a: &Args,
    w: Workload,
    checkpoint: Option<&Path>,
) -> Result<(LayerTable, f64), String> {
    let mut extra = vec!["--replay-child"];
    if let Some(c) = checkpoint {
        extra.extend(["--checkpoint", path_str(c)]);
    }
    let text = run_child(a, w, &extra, 1)?;
    let wall = text
        .lines()
        .find_map(|l| l.strip_prefix("wall "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("replay child printed no wall time")?;
    Ok((LayerTable::from_lines(&text), wall))
}

/// `--trace 1`: the per-layer metrics.
fn run_traced(a: &Args, w: Workload) -> Result<Report, String> {
    let size = Size::of(w, a.tiny);
    let input = inputs::generate(w, size, a.seed);
    let id = Identity::of(&input);
    print_identity(w, a.seed, &id);
    let engine = SndEngine::new(&input.graph, inputs::config(size));
    let states = &input.states;
    let threads = rayon::current_num_threads();
    let dir = work_dir(w, a.seed);
    let mut failed = regime_violations(w, &id);

    // Untraced pass: the reference values, wall time and pool idle time.
    let mut orch = OrchStats::default();
    let mut checkpoint_bytes = 0.0;
    let mut engine_rows = None;
    let cpu0 = sys::total_cpu_s();
    let t0 = Instant::now();
    let untraced: Vec<f64> = match w {
        Workload::Pairwise => {
            let geoms: Vec<_> = {
                use rayon::prelude::*;
                states
                    .par_iter()
                    .map(|s| engine.state_geometry(s))
                    .collect()
            };
            let m = engine.pairwise_distances_with(states, &geoms);
            engine_rows = Some(geoms.iter().map(|g| g.cached_rows()).sum::<usize>());
            replay::upper_pairs(states.len())
                .into_iter()
                .map(|(i, j)| m.at(i, j))
                .collect()
        }
        Workload::Series | Workload::SeriesRebuild => engine.series_distances(states),
        Workload::Orchestrate => replay::tiles_untraced(&engine, states, TILE),
    };
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut pool_idle_ms = threads as f64 * untraced_ms - (sys::total_cpu_s() - cpu0) * 1e3;
    let mut pool_threads = threads as f64;

    let checkpoint = dir.join("run.snd");
    if w == Workload::Orchestrate {
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let data = dir.join("data.json");
        std::fs::write(&data, inputs::dataset_json(&input))
            .map_err(|e| format!("writing dataset: {e}"))?;
        let cpu0 = sys::total_cpu_s();
        orch = orchestrate_once(a, &dir, &data, &checkpoint, &dir.join("run.json"))?;
        let cpu = sys::total_cpu_s() - cpu0;
        let workers = sys::nproc() as f64;
        pool_threads = workers;
        pool_idle_ms = (workers * orch.wall_s - cpu) * 1e3;
        checkpoint_bytes = std::fs::metadata(&checkpoint)
            .map(|m| m.len() as f64)
            .unwrap_or(0.0);
    }
    let ckpt = (w == Workload::Orchestrate).then_some(checkpoint.as_path());

    // The replay with recording off (the base of the tracing overhead)
    // and the traced replay at the pool's thread count, in alternating
    // order so warm-up favours neither; the fastest of each is kept (noise
    // only adds time) and the last traced replay gives the table, spans
    // and counts. Then the traced replay at one thread.
    let (mut replay_off_ms, mut traced_ms) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for round in 0..OVERHEAD_ROUNDS {
        for traced in [round % 2 == 1, round % 2 == 0] {
            trace::set_enabled(traced);
            if traced {
                trace::reset_counts();
            }
            let (values, table, ms, spans) =
                traced_replay(w, &engine, &input, ckpt.filter(|_| traced))?;
            let bad = mismatches(&untraced, &values);
            if bad > 0 {
                eprintln!("trace: {bad} replayed value(s) differ from the untraced run");
            }
            failed += bad;
            if traced {
                traced_ms = traced_ms.min(ms);
                last = Some((table, spans));
            } else {
                replay_off_ms = replay_off_ms.min(ms);
            }
        }
    }
    trace::set_enabled(true);
    let (mut table, spans) = last.expect("at least one overhead round");
    if let Some(rows) = engine_rows {
        if rows as u64 != trace::counted(Counter::RowsComputed) {
            eprintln!(
                "trace: replay computed {} rows, RowCache::computed_rows says {rows}",
                trace::counted(Counter::RowsComputed)
            );
            failed += 1;
        }
    }
    let (table_1t, traced_1t_ms) = one_thread_replay(a, w, ckpt)?;
    let spans_path = write_spans(w, a.seed, &spans)?;
    let _ = std::fs::remove_dir_all(&dir);
    if w == Workload::Orchestrate {
        // Worker time outside tile compute: start-up, handshake, lease
        // waits and result flushing, one entry per lease.
        let outside = (pool_threads * orch.wall_s - orch.compute_s).max(0.0) * 1e3;
        table
            .layers
            .insert("orchestrate".into(), (outside, orch.leases as u64));
    }

    print_layers(&table, &table_1t, threads, traced_ms, traced_1t_ms);
    println!(
        "trace: engine {untraced_ms:.1} ms, replay untraced {replay_off_ms:.1} ms, \
         traced {traced_ms:.1} ms, {} spans -> {}",
        table.spans,
        spans_path.display()
    );

    let c = |k: Counter| trace::counted(k) as f64;
    let mut metrics = vec![
        metric(
            "graph.sssp_rows_ms",
            table.inclusive("graph.sssp_row"),
            "ms",
        ),
        metric("graph.sssp_rows_count", c(Counter::RowsComputed), "count"),
        metric("graph.rows_reused_count", c(Counter::RowsReused), "count"),
        metric(
            "transport.solve_ms",
            table.inclusive("transport.solve"),
            "ms",
        ),
        metric("transport.solve_count", c(Counter::Solves), "count"),
        metric("transport.cells", c(Counter::Cells), "count"),
        metric("transport.simplex_count", c(Counter::Simplex), "count"),
        metric(
            "transport.cost_scaling_count",
            c(Counter::CostScaling),
            "count",
        ),
        metric(
            "transport.closed_form_count",
            c(Counter::ClosedForm),
            "count",
        ),
        metric(
            "emd.term_ms",
            table.inclusive("emd.term") + table.inclusive("emd.terms")
                - table.inclusive("replay.solver_kind"),
            "ms",
        ),
        metric("emd.term_count", c(Counter::Terms), "count"),
        metric("emd.residual_users", c(Counter::ResidualUsers), "count"),
        metric("emd.assembly_ms", table.ms("emd"), "ms"),
        metric(
            "models.edge_costs_ms",
            table.inclusive("models.edge_costs"),
            "ms",
        ),
        metric("models.edge_costs_count", c(Counter::EdgeCosts), "count"),
        metric("models.delta_ms", table.inclusive("models.delta"), "ms"),
        metric("models.touched_edges", c(Counter::TouchedEdges), "count"),
        metric("banks.fresh_ms", table.inclusive("banks.fresh"), "ms"),
        metric("banks.fresh_count", c(Counter::Fresh), "count"),
        metric("banks.step_ms", table.inclusive("banks.step"), "ms"),
        metric("banks.step_count", c(Counter::Steps), "count"),
        metric("banks.fallback_count", c(Counter::Fallbacks), "count"),
        metric("batch.pool_idle_ms", pool_idle_ms, "ms"),
        metric("batch.threads", pool_threads, "count"),
        metric("shard.checkpoint_bytes", checkpoint_bytes, "bytes"),
        metric("shard.load_ms", table.inclusive("shard.load"), "ms"),
        metric("shard.merge_ms", table.inclusive("shard.merge"), "ms"),
        metric("orchestrate.compute_s", orch.compute_s, "s"),
        metric("orchestrate.flush_wait_s", orch.flush_wait_s, "s"),
        metric("orchestrate.redispatched", orch.redispatched, "count"),
        metric("orchestrate.duplicates", orch.duplicates, "count"),
    ];
    for layer in trace::LAYERS {
        metrics.push(metric(format!("layer.{layer}.ms"), table.ms(layer), "ms"));
        metrics.push(metric(
            format!("layer.{layer}.count"),
            table.count(layer) as f64,
            "count",
        ));
    }
    // The one-thread child replays the computation only; the
    // `orchestrate` layer exists only in the worker fleet.
    for layer in trace::LAYERS.into_iter().filter(|&l| l != "orchestrate") {
        metrics.push(metric(
            format!("layer_1t.{layer}.ms"),
            table_1t.ms(layer),
            "ms",
        ));
        metrics.push(metric(
            format!("layer_1t.{layer}.count"),
            table_1t.count(layer) as f64,
            "count",
        ));
    }
    metrics.extend([
        metric("trace.unattributed_ms", table.unattributed_ms, "ms"),
        metric("trace.unattributed_1t_ms", table_1t.unattributed_ms, "ms"),
        metric("trace.untraced_ms", untraced_ms, "ms"),
        metric("trace.replay_off_ms", replay_off_ms, "ms"),
        metric("trace.traced_ms", traced_ms, "ms"),
        metric("trace.traced_1t_ms", traced_1t_ms, "ms"),
        metric(
            "trace.overhead_pct",
            (traced_ms - replay_off_ms) / replay_off_ms.max(1e-9) * 100.0,
            "%",
        ),
        metric("trace.spans", table.spans as f64, "count"),
    ]);
    if w.is_matrix() {
        // The replay's geometry must be the engine's, field for field.
        for op in [snd_models::Opinion::Positive, snd_models::Opinion::Negative] {
            let g = &input.graph;
            if replay::per_bin_geometry(g, &states[0], op, engine.config(), 0)
                != engine.geometry(&states[0], op)
            {
                eprintln!("trace: replayed {op:?} geometry differs from the engine's");
                failed += 1;
            }
        }
    }
    Ok(Report {
        attempted: untraced.len(),
        failed,
        metrics,
    })
}

/// Prints the `{ms, count}` layer table at both thread counts with each
/// layer's share of the attributed and unattributed time.
fn print_layers(t: &LayerTable, t1: &LayerTable, threads: usize, wall: f64, wall_1t: f64) {
    let total = |t: &LayerTable| t.layers.values().map(|v| v.0).sum::<f64>() + t.unattributed_ms;
    let (sum, sum_1t) = (total(t), total(t1));
    println!(
        "layers (self ms summed over threads): {:>12} {:>8} {:>7} | {:>12} {:>8} {:>7}",
        format!("{threads} threads"),
        "count",
        "share",
        "1 thread",
        "count",
        "share"
    );
    for layer in trace::LAYERS {
        println!(
            "  {:<36} {:>12.1} {:>8} {:>6.1}% | {:>12.1} {:>8} {:>6.1}%",
            layer,
            t.ms(layer),
            t.count(layer),
            100.0 * t.ms(layer) / sum.max(1e-9),
            t1.ms(layer),
            t1.count(layer),
            100.0 * t1.ms(layer) / sum_1t.max(1e-9)
        );
    }
    println!(
        "  {:<36} {:>12.1} {:>8} {:>6.1}% | {:>12.1} {:>8} {:>6.1}%",
        "(unattributed)",
        t.unattributed_ms,
        "",
        100.0 * t.unattributed_ms / sum.max(1e-9),
        t1.unattributed_ms,
        "",
        100.0 * t1.unattributed_ms / sum_1t.max(1e-9)
    );
    println!("  replay wall: {wall:.1} ms at {threads} threads, {wall_1t:.1} ms at 1 thread");
}

/// `--tiny`: every workload in both modes on tiny inputs.
fn run_tiny(a: &Args) -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        for trace_mode in [false, true] {
            let exe = std::env::current_exe().expect("own binary");
            let out = Command::new(exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &a.seed.to_string(),
                    "--seconds",
                    "0",
                    "--tiny",
                ])
                .args(["--trace", if trace_mode { "1" } else { "0" }])
                .arg("--snd")
                .arg(&a.snd)
                .output();
            let line = out
                .as_ref()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| {
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .map(str::to_string)
                });
            let pass = line
                .as_deref()
                .is_some_and(|l| l.starts_with("{\"correct\": true"));
            println!(
                "tiny {:<15} trace={} {}",
                w.name(),
                u8::from(trace_mode),
                if pass { "ok" } else { "FAILED" }
            );
            if !pass {
                if let Ok(o) = &out {
                    eprintln!(
                        "{}{}",
                        String::from_utf8_lossy(&o.stdout),
                        String::from_utf8_lossy(&o.stderr)
                    );
                }
            }
            ok &= pass;
        }
    }
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the library pool before its first use (the size is read once
    // per process); the one-thread replay child arrives with it set.
    let threads = if args.replay_child { 1 } else { sys::nproc() };
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    if args.tiny && args.workload.is_none() {
        std::process::exit(if run_tiny(&args) { 0 } else { 1 });
    }
    let w = args.workload.expect("checked by parse_args");
    if args.sample_child {
        run_sample_child(&args, w);
        return;
    }
    if args.replay_child {
        if let Err(e) = run_replay_child(&args, w) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        run_traced(&args, w)
    } else {
        run_untraced(&args, w)
    };
    match report {
        Ok(r) => {
            r.print_table();
            println!("{}", r.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
