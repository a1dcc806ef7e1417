//! Shared helpers for the experiment binaries (`src/bin/`, the
//! per-figure regenerators) and the criterion benches (`benches/`).
pub mod harness;
pub mod record;
