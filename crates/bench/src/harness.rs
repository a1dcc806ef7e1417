//! Shared plumbing for the experiment binaries: flag parsing, timing, and
//! table formatting.

use std::time::Instant;

/// Minimal `--flag value` / `--paper` argument parser for the experiment
/// binaries.
#[derive(Clone, Debug, Default)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// True if the boolean flag is present (e.g. `--paper`).
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// Value of `--name value`, parsed, or the default when the flag is
    /// absent. A missing or malformed value prints an error naming the
    /// flag and exits 1.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.lookup(name, default).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }

    fn lookup<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        let Some(i) = self.raw.iter().position(|a| a == name) else {
            return Ok(default);
        };
        let raw = self.raw.get(i + 1).ok_or(format!("{name} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("bad {name} '{raw}' (want {})", std::any::type_name::<T>()))
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Prints a standard experiment header.
pub fn banner(id: &str, description: &str, paper_setup: &str, this_setup: &str) {
    println!("================================================================");
    println!("{id}: {description}");
    println!("  paper setup: {paper_setup}");
    println!("  this run:    {this_setup}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_lookup() {
        let args = Args {
            raw: vec!["--nodes".into(), "500".into(), "--paper".into()],
        };
        assert_eq!(args.get("--nodes", 10usize), 500);
        assert_eq!(args.get("--steps", 40usize), 40);
        assert!(args.flag("--paper"));
        assert!(!args.flag("--quick"));

        let malformed = Args {
            raw: vec!["--nodes".into(), "5k".into()],
        };
        let err = malformed.lookup("--nodes", 10usize).unwrap_err();
        assert!(err.contains("--nodes") && err.contains("5k"), "{err}");
        let trailing = Args {
            raw: vec!["--paper".into(), "--nodes".into()],
        };
        let err = trailing.lookup("--nodes", 10usize).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
    }

    #[test]
    fn timed_returns_value() {
        let (v, secs) = timed(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(secs >= 0.0);
    }
}
