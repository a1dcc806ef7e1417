//! The crate benches' one record format and one env-knob reader.
//!
//! Each bench owns `BENCH_<bench>.json` at the repo root and writes it
//! through [`Record`]: the bench name, a timestamp and the thread count;
//! the run's parameters; every measurement the vendored harness took
//! (`id`, `samples`, `min_s`, `mean_s`, `max_s`); and the bench's own
//! derived figures. In `--test` smoke mode nothing is measured and
//! nothing is written.

use std::path::PathBuf;
use std::str::FromStr;

use criterion::Measurement;

/// The value of env knob `name`, or `default` when it is unset.
///
/// # Panics
/// If the variable is set to a value that does not parse as `T`: a typo
/// in a scale knob must not silently run the default workload.
pub fn knob<T: FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
            panic!(
                "{name}={raw:?} is not a valid {}",
                std::any::type_name::<T>()
            )
        }),
        Err(e) => panic!("{name}: {e}"),
    }
}

/// A value that renders as JSON.
pub trait Json {
    /// The JSON text of `self`.
    fn json(&self) -> String;
}

impl Json for bool {
    fn json(&self) -> String {
        self.to_string()
    }
}

impl Json for usize {
    fn json(&self) -> String {
        self.to_string()
    }
}

/// Six significant digits, without trailing zeros. Non-finite values (a
/// figure derived from a measurement `--test` mode skipped) render as
/// `null`.
impl Json for f64 {
    fn json(&self) -> String {
        if !self.is_finite() {
            return "null".into();
        }
        if *self == 0.0 {
            return "0".into();
        }
        let magnitude = self.abs().log10().floor() as i32;
        let decimals = (5 - magnitude).max(0) as usize;
        let text = format!("{self:.decimals$}");
        if text.contains('.') {
            text.trim_end_matches('0').trim_end_matches('.').into()
        } else {
            text
        }
    }
}

impl Json for &str {
    fn json(&self) -> String {
        format!("{self:?}")
    }
}

impl<T: Json> Json for Option<T> {
    fn json(&self) -> String {
        self.as_ref().map_or_else(|| "null".into(), Json::json)
    }
}

impl<T: Json> Json for Vec<T> {
    fn json(&self) -> String {
        let items: Vec<String> = self.iter().map(Json::json).collect();
        format!("[{}]", items.join(", "))
    }
}

/// One bench run's record, written to `BENCH_<bench>.json`.
pub struct Record {
    bench: &'static str,
    measurements: Vec<Measurement>,
    params: Vec<(String, String)>,
    derived: Vec<(String, String)>,
}

impl Record {
    /// Starts `bench`'s record, draining every measurement the harness
    /// has taken so far in this process.
    pub fn new(bench: &'static str) -> Self {
        Record {
            bench,
            measurements: criterion::take_measurements(),
            params: Vec::new(),
            derived: Vec::new(),
        }
    }

    /// Adds a run parameter (workload size, seed-independent knobs).
    pub fn param(&mut self, key: &str, value: impl Json) -> &mut Self {
        self.params.push((key.into(), value.json()));
        self
    }

    /// Adds a figure the bench derives from its measurements or checks.
    pub fn derived(&mut self, key: &str, value: impl Json) -> &mut Self {
        self.derived.push((key.into(), value.json()));
        self
    }

    /// Mean seconds per iteration of measurement `id`; NaN in `--test`
    /// mode, where nothing is measured.
    ///
    /// # Panics
    /// If a measured run has no measurement `id`.
    pub fn mean_s(&self, id: &str) -> f64 {
        if criterion::is_test_mode() {
            return f64::NAN;
        }
        self.measurements
            .iter()
            .find(|m| m.id == id)
            .unwrap_or_else(|| panic!("{}: no measurement {id:?}", self.bench))
            .mean_s
    }

    /// The record's JSON text.
    fn render(&self, unix_time: u64, threads: usize) -> String {
        let object = |fields: &[(String, String)]| {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("    {}: {v}", k.as_str().json()))
                .collect();
            if body.is_empty() {
                "{}".into()
            } else {
                format!("{{\n{}\n  }}", body.join(",\n"))
            }
        };
        let rows: Vec<String> = self
            .measurements
            .iter()
            .map(|m| {
                format!(
                    "    {{\"id\": {}, \"samples\": {}, \"min_s\": {}, \"mean_s\": {}, \"max_s\": {}}}",
                    m.id.as_str().json(),
                    m.samples,
                    m.min_s.json(),
                    m.mean_s.json(),
                    m.max_s.json()
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": {},\n  \"unix_time\": {unix_time},\n  \"threads\": {threads},\n  \
             \"params\": {},\n  \"measurements\": [\n{}\n  ],\n  \"derived\": {}\n}}\n",
            self.bench.json(),
            object(&self.params),
            rows.join(",\n"),
            object(&self.derived),
        )
    }

    /// Writes `BENCH_<bench>.json` at the repo root and prints it; does
    /// nothing in `--test` mode.
    ///
    /// # Panics
    /// If the file cannot be written.
    pub fn write(&self) {
        if criterion::is_test_mode() {
            return;
        }
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let json = self.render(unix_time, rayon::current_num_threads());
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}:\n{json}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_params_measurements_and_derived_figures() {
        let mut rec = Record {
            bench: "unit",
            measurements: vec![Measurement {
                id: "unit/a/1".into(),
                mean_s: 0.5,
                min_s: 0.25,
                max_s: 1.0,
                samples: 3,
            }],
            params: Vec::new(),
            derived: Vec::new(),
        };
        rec.param("graph", "grid")
            .param("ladder", vec![2_000usize, 10_000]);
        rec.param("epsilon", 0.2).param("slope", -1234.56789);
        rec.derived("speedup", f64::NAN)
            .derived("crossover", None::<usize>)
            .derived("bracketed", true)
            .derived("tiny", 1.127188720363385e-6);
        let json = rec.render(7, 2);
        for needle in [
            "\"bench\": \"unit\"",
            "\"threads\": 2",
            "\"graph\": \"grid\"",
            "\"ladder\": [2000, 10000]",
            "{\"id\": \"unit/a/1\", \"samples\": 3, \"min_s\": 0.25, \"mean_s\": 0.5, \"max_s\": 1}",
            "\"epsilon\": 0.2,",
            "\"slope\": -1234.57",
            "\"speedup\": null",
            "\"crossover\": null",
            "\"bracketed\": true",
            "\"tiny\": 0.00000112719",
        ] {
            assert!(json.contains(needle), "{needle} missing from:\n{json}");
        }
    }

    #[test]
    fn knob_reads_defaults_and_values_and_rejects_malformed_ones() {
        let name = "SND_BENCH_RECORD_UNIT_KNOB";
        std::env::remove_var(name);
        assert_eq!(knob(name, 7usize), 7);
        std::env::set_var(name, " 12 ");
        assert_eq!(knob(name, 7usize), 12);
        std::env::set_var(name, "5k");
        let err = std::panic::catch_unwind(|| knob(name, 7usize)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains(name), "{msg}");
        std::env::remove_var(name);
    }
}
