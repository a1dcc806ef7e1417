//! CLI subcommand implementations.

use std::path::Path;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd_analysis::series::processed_series;
use snd_analysis::{
    accuracy, anomaly_scores, distance_based_prediction_batch, evaluate_detection,
    extrapolate_linear, search_interventions, select_targets, InterventionConfig,
};
use snd_baselines::{Hamming, QuadForm, StateDistance, WalkDist};
use snd_core::{
    auto_tile, ApproxConfig, CandidateEvaluator, ClusterSpec, ShardPlan, SndConfig, SndEngine,
    TileGrid, TileSet,
};
use snd_data::{
    find_scenario, generate_series, registry, simulate_twitter, SyntheticSeries,
    SyntheticSeriesConfig, TwitterSimConfig,
};
use snd_graph::NodeId;
use snd_models::dynamics::VotingConfig;
use snd_models::{flips_between, GroundCostConfig, NetworkState, Opinion};

use crate::args::Args;
use crate::dataset::{Dataset, ModelRecord};

/// Parses the approximate-tier flags: `--approx` opts in (forcing the
/// sketch tier regardless of graph size), `--epsilon E` sets the certified
/// relative gap, `--landmarks L` and `--budget B` bound the sketch.
/// Returns `Ok(None)` when `--approx` is absent — and rejects the
/// dependent flags in that case, so a typo'd invocation cannot silently
/// run exact while the user believes an ε is in force.
fn approx_config(args: &Args) -> Result<Option<ApproxConfig>, String> {
    if !args.has("--approx") {
        for name in ["--epsilon", "--landmarks", "--budget"] {
            if args.has(name) {
                return Err(format!("{name} requires --approx"));
            }
        }
        return Ok(None);
    }
    let mut approx = ApproxConfig {
        min_nodes: 0,
        ..Default::default()
    };
    if let Some(epsilon) = args.get("--epsilon")? {
        approx.epsilon = epsilon;
    }
    if let Some(landmarks) = args.get("--landmarks")? {
        approx.max_landmarks = landmarks;
    }
    if let Some(budget) = args.get("--budget")? {
        approx.budget = budget;
    }
    // Library-level validation (NaN / infinite / negative ε, zero
    // landmarks) surfaces as the same structured error the API returns.
    approx.validate().map_err(|e| e.to_string())?;
    Ok(Some(approx))
}

pub(crate) const GENERATE: &str = "generate [--nodes N] [--steps S] [--seeds K] [--p-nbr P] \
     [--p-ext P] [--p-nbr-anomalous P] [--p-ext-anomalous P] [--twitter] [--avg-degree D] \
     [--seed K] --out FILE";

/// `snd generate`: writes a synthetic or simulated-Twitter dataset.
pub fn generate(args: &Args) -> Result<(), String> {
    let out: String = args.get("--out")?.ok_or("missing --out FILE")?;
    let seed = args.get("--seed")?.unwrap_or(7u64);
    let dataset = if args.has("--twitter") {
        args.reject_ignored("--twitter", |flag| {
            flag == "--steps" || flag == "--seeds" || flag.starts_with("--p-")
        })?;
        let sim = simulate_twitter(&TwitterSimConfig {
            users: args.get("--nodes")?.unwrap_or(4000),
            avg_degree: args.get("--avg-degree")?.unwrap_or(50),
            seed,
            ..Default::default()
        });
        Dataset {
            nodes: sim.graph.node_count(),
            edges: sim.graph.edges().collect(),
            states: sim.states.iter().map(|s| s.values()).collect(),
            labels: sim.labels,
            // The Twitter sim mixes per-event dynamics; no single
            // parameter set describes the series.
            model: None,
        }
    } else {
        args.reject_ignored("a synthetic series (no --twitter)", |flag| {
            flag == "--avg-degree"
        })?;
        let steps = args.get("--steps")?.unwrap_or(20usize);
        let p_nbr = args.get("--p-nbr")?.unwrap_or(0.12);
        let p_ext = args.get("--p-ext")?.unwrap_or(0.01);
        // Structured validation: a bad --p-nbr/--p-ext split comes back as
        // a printable CLI error, not a library panic.
        let normal = VotingConfig::new(p_nbr, p_ext).map_err(|e| e.to_string())?;
        let anomalous = VotingConfig::new(
            args.get("--p-nbr-anomalous")?.unwrap_or(0.08),
            args.get("--p-ext-anomalous")?.unwrap_or(0.05),
        )
        .map_err(|e| e.to_string())?;
        let series = generate_series(&SyntheticSeriesConfig {
            nodes: args.get("--nodes")?.unwrap_or(2000),
            steps,
            initial_adopters: args.get("--seeds")?.unwrap_or(100),
            normal,
            anomalous,
            anomalous_steps: vec![steps / 3, (2 * steps) / 3],
            seed,
            ..Default::default()
        });
        dataset_from_series(
            &series,
            Some(ModelRecord {
                family: "voting".into(),
                params: vec![("p_nbr".into(), p_nbr), ("p_ext".into(), p_ext)],
            }),
        )
    };
    dataset.save(&out)?;
    println!(
        "wrote {}: {} users, {} edges, {} states",
        out,
        dataset.nodes,
        dataset.edges.len(),
        dataset.states.len()
    );
    Ok(())
}

/// A dataset in the wire format from any simulated series, carrying the
/// generating model's parameters when the caller knows them.
fn dataset_from_series(series: &SyntheticSeries, model: Option<ModelRecord>) -> Dataset {
    Dataset {
        nodes: series.graph.node_count(),
        edges: series.graph.edges().collect(),
        states: series.states.iter().map(|s| s.values()).collect(),
        labels: series.labels.clone(),
        model,
    }
}

pub(crate) const SIMULATE: &str =
    "simulate --scenario NAME [--nodes N] [--steps T] [--seed S] --out FILE | --list";

/// `snd simulate`: runs a named scenario from the registry and writes the
/// resulting series in the dataset format, so `snd
/// distance/anomaly/predict/shard` consume it directly.
pub fn simulate(args: &Args) -> Result<(), String> {
    if args.has("--list") {
        args.reject_ignored("--list", |flag| flag != "--list")?;
        println!("{:<22} {:<20} description", "scenario", "model");
        for sc in registry() {
            println!(
                "{:<22} {:<20} {}",
                sc.name,
                sc.model.family(),
                sc.description
            );
        }
        return Ok(());
    }
    let name: String = args
        .get("--scenario")?
        .ok_or("missing --scenario NAME (see snd simulate --list)")?;
    let mut scenario = find_scenario(&name)
        .ok_or_else(|| format!("unknown scenario '{name}' (see snd simulate --list)"))?;
    if let Some(nodes) = args.get("--nodes")? {
        scenario.nodes = nodes;
    }
    if let Some(steps) = args.get("--steps")? {
        scenario.steps = steps;
    }
    let seed = args.get("--seed")?.unwrap_or(7u64);
    let out: String = args.get("--out")?.ok_or("missing --out FILE")?;

    let series = scenario.run(seed).map_err(|e| e.to_string())?;
    // Record the simulated model so later `--ground icc|ltc` runs reprice
    // with these exact parameters instead of the family defaults.
    let record = ModelRecord {
        family: scenario.model.family().to_string(),
        params: scenario
            .model
            .params()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    };
    let dataset = dataset_from_series(&series, Some(record));
    dataset.save(&out)?;
    println!(
        "scenario '{}' (model {}, graph {}, seed {seed}): wrote {out}: {} users, {} edges, {} \
         states, {} labelled anomalies",
        scenario.name,
        scenario.model.family(),
        scenario.graph.label(),
        dataset.nodes,
        dataset.edges.len(),
        dataset.states.len(),
        dataset.labels.iter().filter(|&&l| l).count(),
    );
    Ok(())
}

/// Resolves a `--ground` argument into the matching ground-distance
/// configuration, closing the "CLI always prices with the default ground
/// config" gap: SND's edge costs are model-dependent (Eq. 2), so a series
/// simulated under ICC or LTC should be priced under that model's
/// spreading probabilities. Accepts the three ground models of §3
/// (`agnostic` — the default, `icc`, `ltc`) and, as a convenience, any
/// registry model family name (`snd simulate --list`), mapped to the
/// nearest ground model: the cascade families to their own ground,
/// everything else to the model-agnostic penalties.
///
/// When the dataset records its simulated model (`snd simulate` writes a
/// `"model"` field), the matching ground model is instantiated with the
/// *recorded* parameters — e.g. an LTC series simulated at threshold 0.35
/// reprices at 0.35, not the 0.5 default. Datasets without the field (or
/// simulated under a different family than `--ground` asks for) fall back
/// to the family defaults (weighted-cascade / degree-normalized edges,
/// 0.5 thresholds).
fn ground_config_for(
    name: &str,
    graph: &snd_graph::CsrGraph,
    recorded: Option<&ModelRecord>,
) -> Result<GroundCostConfig, String> {
    use snd_models::{icc::EdgeActivation, ltc::EdgeWeights, IccParams, LtcParams, SpreadingModel};
    let recorded_for = |family: &str| recorded.filter(|m| m.family == family);
    match name {
        "agnostic" | "default" | "voting" | "voting-sampled" | "random-activation"
        | "majority-rule" | "stubborn-voter" | "degroot-threshold" | "bounded-confidence" => {
            Ok(GroundCostConfig::default())
        }
        // ICC's spreading probabilities are fully determined by the graph
        // (weighted-cascade edges, no free parameters), so recorded and
        // default parameters coincide.
        "icc" => Ok(GroundCostConfig::with_model(SpreadingModel::Icc(
            IccParams::for_graph(graph, EdgeActivation::WeightedCascade, None, 1e-6)
                .map_err(|e| e.to_string())?,
        ))),
        "ltc" => {
            let thresholds = recorded_for("ltc")
                .and_then(|m| m.param("threshold"))
                .map(|t| vec![t; graph.node_count()]);
            Ok(GroundCostConfig::with_model(SpreadingModel::Ltc(
                LtcParams::for_graph(graph, EdgeWeights::DegreeNormalized, thresholds, 1e-6)
                    .map_err(|e| e.to_string())?,
            )))
        }
        other => Err(format!(
            "unknown ground model '{other}' (want agnostic, icc, ltc, or a model family \
             from `snd simulate --list`)"
        )),
    }
}

/// The engine config for a dataset run, honoring an optional `--ground`,
/// an optional `--clusters N` (cluster-bank mode instead of the per-bin
/// default), and the approximate-tier flags (`--approx --epsilon E`).
pub(crate) fn engine_config(
    args: &Args,
    graph: &snd_graph::CsrGraph,
    recorded: Option<&ModelRecord>,
) -> Result<SndConfig, String> {
    let mut config = match args.get::<String>("--ground")? {
        Some(name) => SndConfig::with_ground(ground_config_for(&name, graph, recorded)?),
        None => SndConfig::default(),
    };
    if let Some(clusters) = args.get("--clusters")? {
        if clusters == 0 {
            return Err("--clusters must be at least 1".into());
        }
        config.clusters = ClusterSpec::BfsPartition { clusters };
    }
    config.approx = approx_config(args)?;
    if config.approx.is_some() && !matches!(config.clusters, ClusterSpec::PerBin) {
        // Mirror snd_core::ApproxError::UnsupportedBankMode up front, so
        // the run fails before any geometry is built rather than silently
        // staying exact.
        return Err(
            "the approximate tier requires per-bin banks; drop --clusters or --approx".into(),
        );
    }
    Ok(config)
}

pub(crate) const DISTANCE: &str = "distance --data FILE [--t1 I] [--t2 J] [--series] [TIER]";

/// `snd distance`: all measures between two states of a dataset, or —
/// with `--series` — every adjacent transition of the series.
pub fn distance(args: &Args) -> Result<(), String> {
    let path: String = args.get("--data")?.ok_or("missing --data FILE")?;
    if args.has("--series") {
        return distance_series(args, &path);
    }
    let t1 = args.get("--t1")?.unwrap_or(0usize);
    let t2 = args.get("--t2")?.unwrap_or(1usize);
    let dataset = Dataset::load(&path)?;
    let graph = dataset.graph();
    let states = dataset.network_states();
    let a = states.get(t1).ok_or(format!("state {t1} out of range"))?;
    let b = states.get(t2).ok_or(format!("state {t2} out of range"))?;

    let config = engine_config(args, &graph, dataset.model.as_ref())?;
    let approx_on = config.approx.is_some();
    let engine = SndEngine::new(&graph, config);
    println!("n_delta = {}", a.diff_count(b));
    if approx_on {
        let iv = engine.distance_interval(a, b).map_err(|e| e.to_string())?;
        println!(
            "SND        = {:.4} certified in [{:.4}, {:.4}] (width {:.4})",
            iv.midpoint(),
            iv.lower,
            iv.upper,
            iv.width()
        );
    } else {
        println!("SND        = {:.4}", engine.distance(a, b));
    }
    println!("hamming    = {:.4}", Hamming.distance(a, b));
    println!("quad-form  = {:.4}", QuadForm::new(&graph).distance(a, b));
    println!("walk-dist  = {:.4}", WalkDist::new(&graph).distance(a, b));
    Ok(())
}

/// `snd distance --series`: SND for every adjacent transition. Under
/// `--approx` this runs the certified series path
/// (`SndEngine::series_intervals`), whose landmark rows are repaired
/// along the series, and prints each transition's `[lower, upper]`,
/// equal to that pair's `snd distance --approx`; without it, the exact
/// delta series.
fn distance_series(args: &Args, path: &str) -> Result<(), String> {
    let dataset = Dataset::load(path)?;
    let graph = dataset.graph();
    let states = dataset.network_states();
    if states.len() < 2 {
        return Err("need at least 2 states for --series".into());
    }
    let config = engine_config(args, &graph, dataset.model.as_ref())?;
    let approx_on = config.approx.is_some();
    let engine = SndEngine::new(&graph, config);
    if approx_on {
        let ivs = engine
            .series_intervals(&states)
            .map_err(|e| e.to_string())?;
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>10}",
            "t", "SND", "lower", "upper", "width"
        );
        for (t, iv) in ivs.iter().enumerate() {
            println!(
                "{:>4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                t + 1,
                iv.midpoint(),
                iv.lower,
                iv.upper,
                iv.width()
            );
        }
    } else {
        let series = engine.series_distances(&states);
        println!("{:>4} {:>10}", "t", "SND");
        for (t, d) in series.iter().enumerate() {
            println!("{:>4} {:>10.4}", t + 1, d);
        }
    }
    Ok(())
}

pub(crate) const ANOMALY: &str = "anomaly --data FILE [--top K] [TIER]";

/// `snd anomaly`: score every transition of the dataset's series.
pub fn anomaly(args: &Args) -> Result<(), String> {
    let path: String = args.get("--data")?.ok_or("missing --data FILE")?;
    let top: Option<usize> = args.get("--top")?;
    let dataset = Dataset::load(&path)?;
    let graph = dataset.graph();
    let states = dataset.network_states();
    if states.len() < 3 {
        return Err("need at least 3 states".into());
    }
    // The series below runs through the engine's delta-aware path:
    // consecutive snapshots are priced incrementally (touched-edge costs,
    // repaired geometry, zero-cost identical transitions). Under --approx
    // the interval-carrying series path runs instead: each transition is
    // scored at its certified-interval midpoint and the interval is shown.
    let config = engine_config(args, &graph, dataset.model.as_ref())?;
    let approx_on = config.approx.is_some();
    let engine = SndEngine::new(&graph, config);
    let (raw, intervals) = if approx_on {
        let ivs = engine
            .series_intervals(&states)
            .map_err(|e| e.to_string())?;
        let mids = ivs.iter().map(|iv| iv.midpoint()).collect();
        (mids, Some(ivs))
    } else {
        (engine.series_distances(&states), None)
    };
    let processed = processed_series(&raw, &states);
    let scores = anomaly_scores(&processed);
    let k = top.unwrap_or_else(|| dataset.labels.iter().filter(|&&l| l).count().max(1));
    println!("{:>4} {:>10} {:>10}  label", "t", "SND", "score");
    for t in 0..processed.len() {
        let label = dataset.labels.get(t).copied().unwrap_or(false);
        let certified = intervals
            .as_ref()
            .map(|ivs| format!(" in [{:.4}, {:.4}]", ivs[t].lower, ivs[t].upper))
            .unwrap_or_default();
        println!(
            "{:>4} {:>10.4} {:>10.4}  {}{certified}",
            t,
            processed[t],
            scores[t],
            if label { "anomalous" } else { "" }
        );
    }
    let report = evaluate_detection(&scores, &dataset.labels, k);
    println!(
        "\ntop-{} flagged transitions: {:?}",
        report.k, report.flagged
    );
    if !dataset.labels.is_empty() {
        println!("matches ground truth: {}/{}", report.hits, report.k);
        if let Some(auc) = report.auc {
            println!("ranking AUC: {auc:.3}");
        }
    }
    Ok(())
}

pub(crate) const SHARD: &str =
    "shard --data FILE [--shard I/N] --checkpoint FILE [--tile T] [TIER]";

/// `snd shard`: compute one shard of the all-pairs SND matrix with
/// checkpoint/resume.
pub fn shard(args: &Args) -> Result<(), String> {
    let path: String = args.get("--data")?.ok_or("missing --data FILE")?;
    let checkpoint: String = args
        .get("--checkpoint")?
        .ok_or("missing --checkpoint FILE")?;
    let spec: String = args.get("--shard")?.unwrap_or_else(|| "0/1".to_string());
    let (index, count) = parse_shard_spec(&spec)?;
    let tile: Option<usize> = args.get("--tile")?;
    if tile == Some(0) {
        return Err("--tile must be at least 1".into());
    }

    let dataset = Dataset::load(&path)?;
    let graph = dataset.graph();
    let states = dataset.network_states();
    // --ground/--approx feed the shard fingerprint (it hashes the full
    // config), so shards priced under different tiers can never merge.
    let config = engine_config(args, &graph, dataset.model.as_ref())?;
    let approx_on = config.approx.is_some();
    let engine = SndEngine::new(&graph, config);
    // Default tile follows the workload shape; every shard of a run
    // derives the same grid as long as all pass the same (or no) --tile.
    // A pre-existing checkpoint wins over the heuristic: resuming a run
    // started under a different default must not invalidate its tiles.
    let tile: usize = match tile {
        Some(t) => t,
        None => match TileSet::load(Path::new(&checkpoint)) {
            Ok(existing) => existing.grid().tile_size(),
            Err(_) => auto_tile(states.len(), graph.node_count()),
        },
    };
    let grid = TileGrid::new(states.len(), tile);
    let plan = ShardPlan::round_robin(grid, index, count).map_err(|e| e.to_string())?;

    let run = engine
        .pairwise_tiles_checkpointed(&states, &plan, Path::new(&checkpoint))
        .map_err(|e| e.to_string())?;
    println!(
        "shard {index}/{count}: {} tile(s) of {} ({} resumed, {} computed) -> {}{}",
        run.tiles.tile_count(),
        grid.tile_count(),
        run.resumed,
        run.computed,
        checkpoint,
        if approx_on {
            " (approximate tier: entries are certified-interval midpoints)"
        } else {
            ""
        }
    );
    Ok(())
}

pub(crate) const SHARD_MERGE: &str = "shard merge --out FILE PART...";

/// `snd shard merge`: reassemble shard artifacts, validate overlap/holes,
/// and write the full matrix as JSON.
pub fn shard_merge(args: &Args) -> Result<(), String> {
    let out: String = args.get("--out")?.ok_or("missing --out FILE")?;
    let parts = &args.parts;
    if parts.is_empty() {
        return Err("merge needs at least one shard artifact".into());
    }
    let sets = parts
        .iter()
        .map(|p| TileSet::load(Path::new(p)).map_err(|e| format!("{p}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let merged = TileSet::merge(sets).map_err(|e| e.to_string())?;
    let matrix = merged.to_matrix().map_err(|e| e.to_string())?;
    write_matrix_json(&matrix, &out)?;
    if merged.certified_tile_count() > 0 && merged.certified_tile_count() < merged.tile_count() {
        println!(
            "note: {} of {} tile(s) lack certified intervals; the merged matrix is \
             midpoint-only (downgraded, no interval guarantees)",
            merged.tile_count() - merged.certified_tile_count(),
            merged.tile_count()
        );
    }

    let adjacent = matrix.adjacent();
    let mean = if adjacent.is_empty() {
        0.0
    } else {
        adjacent.iter().sum::<f64>() / adjacent.len() as f64
    };
    println!(
        "merged {} artifact(s): {} states, {} tile(s), mean adjacent SND {mean:.4} -> {out}",
        parts.len(),
        matrix.size(),
        merged.tile_count()
    );
    Ok(())
}

/// Writes a distance matrix as the `{"size":K,"rows":[[..]]}` JSON both
/// `snd shard merge` and `snd orchestrate --out` emit.
pub(crate) fn write_matrix_json(
    matrix: &snd_core::DistanceMatrix,
    out: &str,
) -> Result<(), String> {
    let k = matrix.size();
    let mut json = String::with_capacity(k * k * 8 + 32);
    json.push_str(&format!("{{\"size\":{k},\"rows\":["));
    for i in 0..k {
        if i > 0 {
            json.push(',');
        }
        json.push('[');
        for (j, v) in matrix.row(i).iter().enumerate() {
            if j > 0 {
                json.push(',');
            }
            json.push_str(&format!("{v:?}"));
        }
        json.push(']');
    }
    json.push_str("]}");
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))
}

/// Parses `--shard I/N`.
fn parse_shard_spec(spec: &str) -> Result<(usize, usize), String> {
    let bad = || format!("bad --shard spec '{spec}' (want I/N, e.g. 0/2)");
    let (i, n) = spec.split_once('/').ok_or_else(bad)?;
    let index: usize = i.trim().parse().map_err(|_| bad())?;
    let count: usize = n.trim().parse().map_err(|_| bad())?;
    if count == 0 || index >= count {
        return Err(format!(
            "shard index {index} out of range for {count} shard(s)"
        ));
    }
    Ok((index, count))
}

pub(crate) const PREDICT: &str = "predict --data FILE [--targets K] [--candidates C] [--seed S]";

/// `snd predict`: hide random active users in the final state and recover
/// their opinions with SND.
pub fn predict(args: &Args) -> Result<(), String> {
    let path: String = args.get("--data")?.ok_or("missing --data FILE")?;
    let n_targets = args.get("--targets")?.unwrap_or(20usize);
    let candidates = args.get("--candidates")?.unwrap_or(100usize);
    let seed = args.get("--seed")?.unwrap_or(5u64);
    let dataset = Dataset::load(&path)?;
    let graph = dataset.graph();
    let states = dataset.network_states();
    // Checked before indexing: an empty series must error, not underflow.
    if states.len() < 4 {
        return Err("need at least 4 states".into());
    }
    let t = states.len() - 1;
    let truth: &NetworkState = &states[t];
    let mut rng = SmallRng::seed_from_u64(seed);
    let targets = select_targets(truth, n_targets, &mut rng);
    let mut known = truth.clone();
    for &u in &targets {
        known.set(u, Opinion::Neutral);
    }

    let engine = SndEngine::new(&graph, SndConfig::default());
    let ordered = |from: &NetworkState, to: &NetworkState| {
        CandidateEvaluator::new(&engine, from.clone()).price(&flips_between(from, to))
    };
    let d1 = ordered(&states[t - 3], &states[t - 2]);
    let d2 = ordered(&states[t - 2], &states[t - 1]);
    let d_star = extrapolate_linear(&[d1, d2]).map_err(|e| e.to_string())?;
    println!("history: {d1:.2}, {d2:.2} -> d* = {d_star:.2}");

    // Delta-priced candidate search: one anchored geometry, candidates as
    // flip-lists (anchor→known base flips + the drawn target assignment;
    // last-wins normalization lets the assignment override the blanked
    // targets). Same RNG stream and selection rule as the sequential
    // search, so the chosen assignment is identical.
    let evaluator = CandidateEvaluator::new(&engine, states[t - 1].clone());
    let base = flips_between(&states[t - 1], &known);
    let predicted = distance_based_prediction_batch(
        |cands| {
            let full: Vec<Vec<(NodeId, Opinion)>> = cands
                .iter()
                .map(|c| base.iter().copied().chain(c.iter().copied()).collect())
                .collect();
            evaluator.price_candidates(&full)
        },
        d_star,
        &targets,
        candidates,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let acc = accuracy(&predicted, truth, &targets).map_err(|e| e.to_string())?;
    println!(
        "predicted {} targets with {:.1}% accuracy ({} candidates, {} cached rows)",
        targets.len(),
        100.0 * acc,
        candidates,
        evaluator.cached_rows()
    );
    Ok(())
}

pub(crate) const INTERVENE: &str = "intervene --scenario NAME [--budget K] [--beam B] [--nodes N] \
     [--steps T] [--rollouts R] [--horizon H] [--seed S]";

/// `snd intervene`: plan a budget of network edits (edge edits, stubborn
/// placements) minimizing expected delta-SND drift on a registry scenario.
pub fn intervene(args: &Args) -> Result<(), String> {
    let name: String = args
        .get("--scenario")?
        .ok_or("missing --scenario NAME (see snd simulate --list)")?;
    let mut scenario = find_scenario(&name)
        .ok_or_else(|| format!("unknown scenario '{name}' (see snd simulate --list)"))?;
    if let Some(nodes) = args.get("--nodes")? {
        scenario.nodes = nodes;
    }
    if let Some(steps) = args.get("--steps")? {
        scenario.steps = steps;
    }
    let seed = args.get("--seed")?.unwrap_or(7u64);
    let defaults = InterventionConfig::default();
    let cfg = InterventionConfig {
        budget: args.get("--budget")?.unwrap_or(defaults.budget),
        beam: args.get("--beam")?.unwrap_or(defaults.beam),
        rollouts: args.get("--rollouts")?.unwrap_or(defaults.rollouts),
        horizon: args.get("--horizon")?.unwrap_or(defaults.horizon),
        seed,
        ..defaults
    };

    // The scenario supplies the topology, the dynamics, and — by running
    // it — a realistic current state to intervene on.
    let series = scenario.run(seed).map_err(|e| e.to_string())?;
    let graph = series.graph;
    let current = series
        .states
        .last()
        .cloned()
        .ok_or("scenario produced no states")?;
    let model = scenario
        .model
        .build(graph.node_count(), &graph)
        .map_err(|e| e.to_string())?;
    println!(
        "scenario '{}': {} nodes, intervening on the state after {} step(s)",
        scenario.name,
        graph.node_count(),
        series.states.len() - 1
    );

    let plan = search_interventions(
        &graph,
        model.as_ref(),
        &current,
        &SndConfig::default(),
        &cfg,
    )
    .map_err(|e| e.to_string())?;
    println!("baseline drift: {:.4}", plan.baseline_drift);
    for (i, p) in plan.actions.iter().enumerate() {
        println!("  {}. {} -> drift {:.4}", i + 1, p.action, p.drift);
    }
    let pct = if plan.baseline_drift > 0.0 {
        100.0 * plan.final_drift / plan.baseline_drift
    } else {
        100.0
    };
    println!(
        "plan: {} action(s), final drift {:.4} ({pct:.1}% of baseline)",
        plan.actions.len(),
        plan.final_drift
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// `approx_config` over `snd distance` flags.
    fn approx(parts: &[&str]) -> Result<Option<ApproxConfig>, String> {
        approx_config(&Args::parse(DISTANCE, &argv(parts))?)
    }

    /// `engine_config` over `snd distance` flags.
    fn config(parts: &[&str], g: &snd_graph::CsrGraph) -> Result<SndConfig, String> {
        engine_config(&Args::parse(DISTANCE, &argv(parts))?, g, None)
    }

    /// Every numeric flag of the dataset commands: a malformed or missing
    /// value is an error naming the flag, raised before any work is done
    /// (no dataset written or loaded, no scenario run) — never a silent
    /// default.
    #[test]
    fn malformed_numeric_flags_are_errors_naming_the_flag() {
        let scenario = registry()[0].name;
        let out = std::env::temp_dir().join(format!("snd_cli_flags_{}.json", std::process::id()));
        let out = out.to_str().expect("utf-8 temp dir");
        let data = "no-such-dir/no-such-dataset.json";
        let cases: [(String, &str); 7] = [
            (
                format!("generate --out {out}"),
                "--seed --nodes --steps --p-nbr --p-ext --p-nbr-anomalous --p-ext-anomalous --seeds",
            ),
            (format!("generate --twitter --out {out}"), "--seed --nodes --avg-degree"),
            (format!("simulate --scenario {scenario} --out {out}"), "--nodes --steps --seed"),
            (format!("distance --data {data}"), "--t1 --t2"),
            (format!("anomaly --data {data}"), "--top"),
            (format!("predict --data {data}"), "--targets --candidates --seed"),
            (
                format!("intervene --scenario {scenario}"),
                "--nodes --steps --seed --budget --beam --rollouts --horizon",
            ),
        ];
        for (base, flags) in &cases {
            for name in flags.split_whitespace() {
                for bad in [Some("abc"), Some("x2"), Some("1.5e"), Some(""), None] {
                    let mut args: Vec<String> = base.split_whitespace().map(String::from).collect();
                    args.push(name.to_string());
                    args.extend(bad.map(String::from));
                    let err = crate::run(&args).expect_err("malformed value must be rejected");
                    assert!(err.contains(name), "{args:?}: {err}");
                }
            }
        }
        // A flag the chosen mode ignores is an error naming it, before
        // any work: `--twitter` reads no voting parameters, a synthetic
        // series no degree, and `--list` nothing else at all.
        let ignored: [(String, &str); 4] = [
            (
                format!("generate --twitter --nodes 100 --avg-degree 5 --steps 3 --p-nbr 0.9 --out {out}"),
                "--steps",
            ),
            (format!("generate --twitter --p-ext-anomalous 0.1 --seeds 3 --out {out}"), "--p-ext-anomalous"),
            (format!("generate --avg-degree 5 --out {out}"), "--avg-degree"),
            (format!("simulate --list --scenario nonexistent --out {out}"), "--scenario"),
        ];
        for (args, name) in &ignored {
            let args: Vec<String> = args.split_whitespace().map(String::from).collect();
            let err = crate::run(&args).expect_err("an ignored flag must be rejected");
            assert!(
                err.contains(name) && err.contains("no effect"),
                "{args:?}: {err}"
            );
        }
        assert!(!Path::new(out).exists(), "no dataset may be written");

        // A flag the command does not take is an error naming it and the
        // command, before any work: `--cluster` would otherwise price
        // per-bin banks while the user asked for clusters, and `--aprox`
        // would run exact. So is a stray argument, a repeated flag and a
        // switch given a value, which would otherwise run on as if unsaid.
        let unknown: [(String, &str); 7] = [
            (format!("distance --data {data} --cluster 2"), "'--cluster'"),
            (format!("distance --data {data} --aprox"), "'--aprox'"),
            (format!("anomaly --data {data} --series"), "'--series'"),
            (format!("predict --data {data} --approx"), "'--approx'"),
            (format!("distance --data {data} --t1 0 3"), "'3'"),
            (format!("distance --data {data} --t2 1 --t2 3"), "'--t2'"),
            (format!("distance --data {data} --series yes"), "'yes'"),
        ];
        for (args, name) in &unknown {
            let args: Vec<String> = args.split_whitespace().map(String::from).collect();
            let err = crate::run(&args).expect_err("unknown flag must be rejected");
            assert!(
                err.contains(name) && err.contains("snd "),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn approx_flags_parse_and_validate() {
        assert_eq!(approx(&[]).unwrap(), None);
        let a = approx(&["--approx"]).unwrap().unwrap();
        assert_eq!(a.epsilon, ApproxConfig::default().epsilon);
        assert_eq!(a.min_nodes, 0, "explicit --approx forces the sketch tier");
        let a = approx(&[
            "--approx",
            "--epsilon",
            "0.1",
            "--landmarks",
            "4",
            "--budget",
            "9",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(a.epsilon, 0.1);
        assert_eq!(a.max_landmarks, 4);
        assert_eq!(a.budget, 9);
        // ε = 0 is legal: refine to exact.
        assert!(approx(&["--approx", "--epsilon", "0"]).is_ok());
    }

    /// Fuzz the approximate-tier flag parser the way `dataset.rs` fuzzes
    /// `from_json`: every malformed invocation must come back as a
    /// structured `Err`, never a panic and never a silent default.
    #[test]
    fn malformed_approx_flags_surface_structured_errors_not_panics() {
        let bad: &[&[&str]] = &[
            &["--approx", "--epsilon"],           // missing value
            &["--approx", "--epsilon", "abc"],    // non-numeric
            &["--approx", "--epsilon", "NaN"],    // NaN
            &["--approx", "--epsilon", "nan"],    // NaN (lowercase)
            &["--approx", "--epsilon", "inf"],    // infinite
            &["--approx", "--epsilon", "-0.5"],   // negative
            &["--approx", "--epsilon", "-1e308"], // large negative
            &["--approx", "--epsilon", ""],       // empty value
            &["--approx", "--epsilon", "0.5.5"],  // double dot
            &["--approx", "--epsilon", "0,5"],    // locale comma
            &["--approx", "--landmarks"],         // missing value
            &["--approx", "--landmarks", "0"],    // zero landmarks
            &["--approx", "--landmarks", "-3"],   // negative
            &["--approx", "--landmarks", "4.5"],  // fractional
            &["--approx", "--landmarks", "many"], // non-numeric
            &["--approx", "--budget"],            // missing value
            &["--approx", "--budget", "-1"],      // negative
            &["--approx", "--budget", "1e3"],     // float syntax
            &["--epsilon", "0.1"],                // --epsilon without --approx
            &["--landmarks", "4"],                // --landmarks without --approx
            &["--budget", "2"],                   // --budget without --approx
        ];
        for case in bad {
            let err = approx(case);
            assert!(err.is_err(), "{case:?} must be rejected, got {err:?}");
            // The error is printable and self-descriptive.
            assert!(!err.unwrap_err().is_empty());
        }
    }

    #[test]
    fn recorded_ltc_parameters_change_the_ground_pricing() {
        let g = snd_graph::generators::path_graph(6);
        let recorded = ModelRecord {
            family: "ltc".into(),
            params: vec![("threshold".into(), 0.9)],
        };
        let default = ground_config_for("ltc", &g, None).unwrap();
        let exact = ground_config_for("ltc", &g, Some(&recorded)).unwrap();
        // The recorded threshold must actually land in the LTC params (the
        // configs differ), while a record from a *different* family leaves
        // the requested ground model at its defaults.
        assert_ne!(format!("{default:?}"), format!("{exact:?}"));
        assert!(format!("{exact:?}").contains("0.9"), "{exact:?}");
        let other_family = ModelRecord {
            family: "icc".into(),
            params: vec![("threshold".into(), 0.9)],
        };
        let fallback = ground_config_for("ltc", &g, Some(&other_family)).unwrap();
        assert_eq!(format!("{default:?}"), format!("{fallback:?}"));
        // Family-name grounds stay parameter-free, with or without record.
        let agn = ground_config_for("agnostic", &g, Some(&recorded)).unwrap();
        assert_eq!(
            format!("{agn:?}"),
            format!("{:?}", GroundCostConfig::default())
        );
    }

    #[test]
    fn approx_rejects_cluster_bank_modes() {
        let g = snd_graph::generators::path_graph(6);
        // --clusters alone is fine (cluster-bank exact mode)...
        let ok = config(&["--clusters", "2"], &g).unwrap();
        assert!(matches!(
            ok.clusters,
            ClusterSpec::BfsPartition { clusters: 2 }
        ));
        // ...but combining it with --approx is a structured error.
        let err = config(&["--approx", "--clusters", "2"], &g).unwrap_err();
        assert!(err.contains("per-bin"), "{err}");
        // Malformed cluster counts error out too.
        assert!(config(&["--clusters", "0"], &g).is_err());
        assert!(config(&["--clusters", "two"], &g).is_err());
        assert!(config(&["--clusters"], &g).is_err());
    }
}
