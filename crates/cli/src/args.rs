//! argv parsing: each subcommand's usage line is its flag table.
//!
//! In a usage line such as `distance --data FILE [--t1 I] [--series]
//! [TIER]`, the leading lower-case words name the command, a `--flag`
//! token is a flag, and an upper-case token right after it names the
//! flag's value (a flag without one is a switch). Brackets only mark a
//! flag optional for the reader; the command reports its own missing
//! flags. `[TIER]` stands for the shared pricing flags of [`TIER`], and a
//! line ending in `PART...` takes bare arguments.

use std::str::FromStr;

/// The pricing-tier flags every SND-pricing command accepts, in the order
/// a coordinator forwards them to its workers.
pub(crate) const TIER: &str =
    "[--ground MODEL] [--clusters K] [--epsilon E] [--landmarks L] [--budget B] [--approx]";

/// The command words of a usage line (`"shard merge"`).
pub(crate) fn command(usage: &str) -> &str {
    usage
        .find(['-', '['])
        .map_or(usage, |i| usage[..i].trim_end())
}

/// The flags a usage line declares, as `(name, takes_value)`.
pub(crate) fn flags(usage: &'static str) -> impl Iterator<Item = (&'static str, bool)> {
    let mut tokens = usage
        .split_whitespace()
        .flat_map(|t| if t == "[TIER]" { TIER } else { t }.split_whitespace())
        .peekable();
    std::iter::from_fn(move || loop {
        let token = tokens.next()?.trim_matches(['[', ']']);
        if token.starts_with("--") {
            let value = tokens.next_if(|t| t.starts_with(|c: char| c.is_ascii_uppercase()));
            return Some((token, value.is_some()));
        }
    })
}

/// One invocation's argv, checked against its command's usage line.
#[derive(Debug)]
pub(crate) struct Args {
    usage: &'static str,
    /// Each given flag with its value (`None` for a switch), in argv order.
    given: Vec<(&'static str, Option<String>)>,
    /// The bare arguments of a `PART...` command.
    pub parts: Vec<String>,
}

impl Args {
    /// Walks `argv` once, rejecting with an error naming the token and the
    /// command an unknown flag, a flag given twice, a flag without its
    /// value, and a stray argument.
    pub(crate) fn parse(usage: &'static str, argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            usage,
            given: Vec::new(),
            parts: Vec::new(),
        };
        let mut argv = argv.iter();
        while let Some(token) = argv.next() {
            let error = |what| Err(format!("{what} '{token}' for snd {}", command(usage)));
            match flags(usage).find(|&(name, _)| name == token) {
                Some((name, _)) if args.has(name) => return error("repeated flag"),
                Some((name, false)) => args.given.push((name, None)),
                Some((name, true)) => match argv.next().filter(|v| !v.starts_with("--")) {
                    Some(value) => args.given.push((name, Some(value.clone()))),
                    None => return error("missing value after"),
                },
                None if token.starts_with("--") => return error("unknown flag"),
                None if usage.ends_with("...") => args.parts.push(token.clone()),
                None => return error("unexpected argument"),
            }
        }
        Ok(args)
    }

    /// The flag's entry if it was given: `Some(None)` for a switch.
    fn entry(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            flags(self.usage).any(|(f, _)| f == name),
            "{name} is not in the usage line `{}`",
            self.usage
        );
        self.given.iter().find(|&&(f, _)| f == name).map(|(_, v)| v)
    }

    /// Whether the flag was given.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// `--flag value` lookup: `Ok(None)` when the flag is absent, and an
    /// error naming the flag when its value does not parse — a malformed
    /// value never silently becomes the default.
    pub(crate) fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(value) = self.entry(name) else {
            return Ok(None);
        };
        let raw = value.as_deref().unwrap_or_default();
        raw.parse()
            .map(Some)
            .map_err(|_| format!("bad {name} '{raw}' (want {})", std::any::type_name::<T>()))
    }

    /// Rejects the first given flag that `mode` ignores, naming both: a
    /// flag that would have no effect is an error, never silently
    /// dropped.
    pub(crate) fn reject_ignored(
        &self,
        mode: &str,
        ignored: impl Fn(&str) -> bool,
    ) -> Result<(), String> {
        match self.given.iter().find(|(flag, _)| ignored(flag)) {
            Some((flag, _)) => Err(format!(
                "{flag} has no effect with {mode} for snd {}",
                command(self.usage)
            )),
            None => Ok(()),
        }
    }

    /// Parses a `--flag SECONDS` duration: explicit, finite, non-negative —
    /// a malformed value is a structured error, never a silent default.
    pub(crate) fn seconds_flag(&self, name: &str, default: f64) -> Result<f64, String> {
        let secs = self.get(name)?.unwrap_or(default);
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!(
                "bad {name} '{secs}' (want seconds, a finite number >= 0)"
            ));
        }
        Ok(secs)
    }

    /// The given [`TIER`] flags as argv, in [`TIER`] order: what a
    /// coordinator passes its workers so both build the same engine.
    pub(crate) fn tier_argv(&self) -> Vec<String> {
        flags(TIER)
            .filter_map(|(name, _)| Some((name, self.entry(name)?)))
            .flat_map(|(name, v)| std::iter::once(name.to_string()).chain(v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::GENERATE;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn get_distinguishes_absent_valid_and_malformed_values() {
        let args = Args::parse(GENERATE, &argv("--nodes 300 --p-nbr 0.25")).unwrap();
        assert_eq!(args.get::<usize>("--nodes"), Ok(Some(300)));
        assert_eq!(args.get::<f64>("--p-nbr"), Ok(Some(0.25)));
        assert_eq!(args.get::<usize>("--seeds"), Ok(None));
        assert!(args.get::<u64>("--p-nbr").unwrap_err().contains("--p-nbr"));
        assert!(Args::parse(GENERATE, &argv("--nodes 300 --steps"))
            .unwrap_err()
            .contains("--steps"));
    }
}
