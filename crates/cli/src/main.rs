//! `snd` — command-line interface to the Social Network Distance library.
//!
//! ```text
//! snd generate --nodes 2000 --steps 20 --out data.json   # synthetic series
//! snd generate --twitter --out data.json                 # simulated Twitter
//! snd simulate --list                                    # scenario registry
//! snd simulate --scenario majority-consensus \
//!              --seed 3 --out data.json                  # any dynamics model
//! snd distance --data data.json --t1 0 --t2 1            # all measures
//! snd distance --data data.json --ground icc             # ICC ground costs
//! snd distance --data data.json --approx --epsilon 0.05  # certified interval
//! snd distance --data data.json --approx --series        # certified series
//! snd anomaly --data data.json                           # score the series
//! snd predict --data data.json                           # hide & recover opinions
//! snd intervene --scenario voting --budget 2             # plan calming edits
//! snd shard --data data.json --shard 0/2 \
//!           --checkpoint part0.snd                       # one resumable shard
//! snd shard merge --out matrix.json part0.snd part1.snd  # reassemble
//! snd orchestrate --data data.json --checkpoint run.snd \
//!                 --workers 4                            # distributed all-pairs
//! snd work --data data.json --addr host:7070            # one remote worker
//! ```

use std::process::ExitCode;

use args::{Args, TIER};

mod args;
mod commands;
mod dataset;
mod orchestrate;

type Command = fn(&Args) -> Result<(), String>;

/// Each subcommand's usage line, which is also its flag table, with its
/// entry point. `shard merge` precedes `shard`: the first line whose
/// command words begin argv runs.
const COMMANDS: &[(&str, Command)] = &[
    (commands::GENERATE, commands::generate),
    (commands::SIMULATE, commands::simulate),
    (commands::DISTANCE, commands::distance),
    (commands::ANOMALY, commands::anomaly),
    (commands::PREDICT, commands::predict),
    (commands::INTERVENE, commands::intervene),
    (commands::SHARD_MERGE, commands::shard_merge),
    (commands::SHARD, commands::shard),
    (orchestrate::ORCHESTRATE, orchestrate::orchestrate),
    (orchestrate::WORK, orchestrate::work),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some("--help" | "-h" | "help") = argv.first().map(String::as_str) {
        eprintln!("{}", help());
        return ExitCode::SUCCESS;
    }
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", help());
            ExitCode::FAILURE
        }
    }
}

/// Runs the subcommand `argv` names on the rest of `argv`, parsed against
/// its usage line.
fn run(argv: &[String]) -> Result<(), String> {
    for &(usage, command) in COMMANDS {
        let words = args::command(usage).split(' ');
        let n = words.clone().count();
        if words.eq(argv.iter().take(n).map(String::as_str)) {
            return command(&Args::parse(usage, &argv[n..])?);
        }
    }
    Err(match argv.first() {
        Some(other) => format!("unknown command '{other}'"),
        None => "no command given".into(),
    })
}

/// The `snd --help` text: every usage line, then the tier flags.
fn help() -> String {
    let lines: String = COMMANDS
        .iter()
        .map(|(usage, _)| format!("  snd {usage}\n"))
        .collect();
    format!(
        "snd — Social Network Distance (ICDE 2017 reproduction)\n\nUSAGE:\n{lines}\n\
         TIER (how SND is priced): {TIER}\n\
         \u{20} --ground: agnostic | icc | ltc | a model family from `snd simulate --list`\n\
         \u{20} --clusters: K BFS cluster banks instead of one bank per bin\n\
         \u{20} --approx: certified [lower, upper] intervals instead of exact SND, per-bin\n\
         \u{20}   banks only; --epsilon, --landmarks and --budget require it\n\
         \u{20} --landmarks: landmarks per sketch (default 8), on every surface\n\
         \u{20}   (a certified series, distance --series and anomaly, included)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full valid invocations: together, those of a subcommand name every
    /// flag its usage line declares (`--clusters` and `--approx` exclude
    /// each other, so pricing commands take two). Their work fails fast
    /// or stays tiny: datasets, checkpoints and outputs lie under a
    /// directory that does not exist, so nothing is loaded, spawned or
    /// written.
    const FULL: &[&str] = &[
        "generate --nodes 40 --steps 3 --seeds 4 --p-nbr 0.2 --p-ext 0.01 --p-nbr-anomalous 0.1 \
         --p-ext-anomalous 0.05 --seed 3 --out no-such-dir/g.json",
        "generate --twitter --nodes 40 --avg-degree 4 --seed 3 --out no-such-dir/g.json",
        "simulate --scenario voting --nodes 40 --steps 2 --seed 3 --out no-such-dir/s.json",
        "simulate --list",
        "distance --data no-such-dir/d.json --t1 0 --t2 1 --series --ground icc --epsilon 0.1 \
         --landmarks 4 --budget 2 --approx",
        "distance --data no-such-dir/d.json --clusters 2",
        "anomaly --data no-such-dir/d.json --top 2 --ground ltc --clusters 2",
        "anomaly --data no-such-dir/d.json --epsilon 0.1 --landmarks 4 --budget 2 --approx",
        "predict --data no-such-dir/d.json --targets 3 --candidates 4 --seed 1",
        "intervene --budget 1 --beam 1 --nodes 30 --steps 2 --rollouts 1 --horizon 1 --seed 3 \
         --scenario voting",
        "shard merge --out no-such-dir/m.json no-such-dir/p0.snd no-such-dir/p1.snd",
        "shard --data no-such-dir/d.json --shard 0/2 --checkpoint no-such-dir/c.snd --tile 2 \
         --ground agnostic --clusters 2",
        "shard --data no-such-dir/d.json --checkpoint no-such-dir/c.snd --epsilon 0.1 \
         --landmarks 4 --budget 2 --approx",
        "orchestrate --data no-such-dir/d.json --checkpoint no-such-dir/c.snd --workers 2 \
         --listen 127.0.0.1:7070 --tile 2 --lease-timeout 15 --target-lease 1.5 \
         --out no-such-dir/m.json --ground icc --epsilon 0.1 --landmarks 4 --budget 2 --approx",
        "orchestrate --data no-such-dir/d.json --checkpoint no-such-dir/c.snd --workers 1 \
         --clusters 2",
        "work --data no-such-dir/d.json --addr 127.0.0.1:7070 --connect-retry 3 \
         --read-timeout 60 --ground voting --clusters 2",
        "work --data no-such-dir/d.json --addr 127.0.0.1:7070 --epsilon 0.1 --landmarks 4 \
         --budget 2 --approx",
    ];

    /// The usage line an invocation runs under.
    fn usage_of(line: &str) -> &'static str {
        let (usage, _) = COMMANDS
            .iter()
            .find(|(usage, _)| line.starts_with(&format!("{} --", args::command(usage))))
            .expect("every invocation names a subcommand");
        usage
    }

    #[test]
    fn usage_text_lists_every_flag_every_subcommand_accepts() {
        let help = help();
        for &(usage, _) in COMMANDS {
            for (flag, _) in args::flags(usage) {
                assert!(
                    help.split([' ', '[', ']', '\n']).any(|word| word == flag),
                    "usage text does not list {flag}"
                );
                assert!(
                    FULL.iter().any(|line| usage_of(line) == usage
                        && line.split_whitespace().any(|word| word == flag)),
                    "no full `{}` invocation names {flag}",
                    args::command(usage)
                );
            }
        }
    }

    /// The argv fuzz: every prefix truncation and every single-token
    /// mutation (drop, duplicate, swap with the next token, replace with
    /// `--`, the empty string or a 10 kB token) of each full invocation,
    /// through `Args::parse`, the command itself and, for a pricing
    /// command, `engine_config`, ends in `Ok` or a non-empty `Err` — never
    /// a panic.
    #[test]
    fn argv_truncations_and_mutations_surface_structured_errors_not_panics() {
        let graph = snd_graph::generators::path_graph(6);
        let long = "9".repeat(10_240);
        for line in FULL {
            let usage = usage_of(line);
            let full: Vec<String> = line.split_whitespace().map(String::from).collect();
            let (words, tail) = full.split_at(args::command(usage).split(' ').count());
            assert!(Args::parse(usage, tail).is_ok(), "{full:?}");
            let mut inputs: Vec<Vec<String>> =
                (0..=tail.len()).map(|len| tail[..len].to_vec()).collect();
            for i in 0..tail.len() {
                let mut dropped = tail.to_vec();
                dropped.remove(i);
                let mut doubled = tail.to_vec();
                doubled.insert(i, tail[i].clone());
                let mut swapped = tail.to_vec();
                swapped.swap(i, (i + 1) % tail.len());
                inputs.extend([dropped, doubled, swapped]);
                for token in ["--", "", &long] {
                    let mut replaced = tail.to_vec();
                    replaced[i] = token.to_string();
                    inputs.push(replaced);
                }
            }
            for tail in inputs {
                let argv = [words, &tail].concat();
                let priced =
                    Args::parse(usage, &tail).and_then(|args| match usage.contains("[TIER]") {
                        true => commands::engine_config(&args, &graph, None).map(drop),
                        false => Ok(()),
                    });
                for result in [run(&argv), priced] {
                    assert!(result.err().is_none_or(|e| !e.is_empty()), "{argv:?}");
                }
            }
        }
    }
}
