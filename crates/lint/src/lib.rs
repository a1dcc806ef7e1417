//! `snd-lint` — the workspace-invariant lint driver.
//!
//! The repo's correctness story rests on invariants no off-the-shelf tool
//! checks: parallel paths must stay bit-identical to `*_seq` references,
//! float orderings must be NaN-total, all fan-out must route through the
//! vendored rayon pool, and every `unsafe` block must carry its safety
//! argument next to the code. This crate enforces those invariants
//! mechanically, over a hand-rolled comment/string-aware lexer — no
//! registry dependencies, no proc macros, no `syn`.
//!
//! # Rules
//!
//! | id | rule | scope |
//! |----|------|-------|
//! | L1 `float-cmp` | no `partial_cmp` — float orderings must be NaN-total (`total_cmp`) | workspace, vendor exempt |
//! | L2 `thread-spawn` | no `std::thread` spawns — all fan-out goes through the rayon pool | workspace except `vendor/rayon`, `vendor/interleave` |
//! | L3 `par-seq` | every exported `*_par` entry point has a `*_seq` counterpart, and every exported `*_seq` reference path is exercised by at least one test | library code, vendor exempt |
//! | L4 `no-unwrap` | no `unwrap()`/`expect()` in library code of `snd-{core,graph,transport,emd,models,analysis,orchestrate,data}` | those crates' `src/`, test regions exempt |
//! | L5 `lossy-cast` | no lossy `as` casts participating in mass/cost arithmetic | `snd-transport`/`snd-emd` `src/` |
//! | L6 `safety-comment` | every `unsafe` carries a `// SAFETY:` comment | workspace, vendor included |
//!
//! # Suppression
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above: `// lint:allow(rule-id) reason` — the reason is
//! mandatory and should state the invariant that makes the flagged code
//! sound. Suppressions are counted and reported, never silent.
//!
//! Run via `cargo xtask lint` (the CI gate) or `cargo test -p snd-lint`
//! (the `workspace_is_clean` integration test runs the same scan).

pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, test_mask, Comment, Tok};

/// Which part of a crate a file belongs to — rules scope on this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Under a crate's `src/` — library (or binary) code.
    Lib,
    /// Under a `tests/` directory.
    Test,
    /// Under a `benches/` directory.
    Bench,
    /// Under an `examples/` directory.
    Example,
}

/// One lexed source file with its workspace classification.
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// Owning crate (`snd-core`, `rayon`, `snd` for the root facade, …).
    pub crate_name: String,
    /// Library / test / bench / example.
    pub kind: FileKind,
    /// Whether the file lives under `vendor/`.
    pub vendor: bool,
    /// Token stream (comments and string contents excluded).
    pub toks: Vec<Tok>,
    /// Comment side-channel.
    pub comments: Vec<Comment>,
    /// Per-token flag: inside `#[test]` / `#[cfg(test)]` code.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Lexes `src` into a classified file.
    pub fn new(path: impl Into<PathBuf>, crate_name: &str, kind: FileKind, src: &str) -> Self {
        let path = path.into();
        let vendor = path.starts_with("vendor");
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        SourceFile {
            path,
            crate_name: crate_name.to_string(),
            kind,
            vendor,
            toks: lexed.toks,
            comments: lexed.comments,
            test_mask: mask,
        }
    }

    /// True when the token at `idx` is test code (test file, bench,
    /// example, or a `#[cfg(test)]` region of a lib file).
    pub fn is_test_tok(&self, idx: usize) -> bool {
        self.kind != FileKind::Lib || self.test_mask[idx]
    }

    /// The comment-based suppression lookup: is a finding of `rule` on
    /// `line` covered by a `lint:allow(rule) reason` on the same line or
    /// the line directly above?
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.comments.iter().any(|c| {
            (c.end_line == line || c.end_line + 1 == line)
                && c.text.split("lint:allow(").nth(1).is_some_and(|rest| {
                    match rest.split_once(')') {
                        Some((id, reason)) => id.trim() == rule && !reason.trim().is_empty(),
                        None => false,
                    }
                })
        })
    }
}

/// The lexed workspace the rules run over.
pub struct Workspace {
    /// Every classified `.rs` file.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads and lexes every workspace `.rs` file under `root`
    /// (`crates/*/{src,tests,benches}`, `vendor/*/src`, the root facade's
    /// `src`/`tests`/`examples`, and `xtask/src`). `target/` and `.git/`
    /// are never entered.
    pub fn from_dir(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for entry in ["crates", "vendor"] {
            let dir = root.join(entry);
            if !dir.is_dir() {
                continue;
            }
            for krate in read_dir_sorted(&dir)? {
                if !krate.is_dir() {
                    continue;
                }
                let crate_name =
                    manifest_crate_name(&krate).unwrap_or_else(|| file_name_string(&krate));
                for (sub, kind) in [
                    ("src", FileKind::Lib),
                    ("tests", FileKind::Test),
                    ("benches", FileKind::Bench),
                    ("examples", FileKind::Example),
                ] {
                    collect_rs(root, &krate.join(sub), &crate_name, kind, &mut files)?;
                }
            }
        }
        let root_name = manifest_crate_name(root).unwrap_or_else(|| "root".to_string());
        for (sub, kind) in [
            ("src", FileKind::Lib),
            ("tests", FileKind::Test),
            ("benches", FileKind::Bench),
            ("examples", FileKind::Example),
        ] {
            collect_rs(root, &root.join(sub), &root_name, kind, &mut files)?;
        }
        collect_rs(
            root,
            &root.join("xtask/src"),
            "xtask",
            FileKind::Lib,
            &mut files,
        )?;
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory sources — the fixture entry point
    /// the rule tests use. Each tuple is `(path, crate_name, kind, src)`.
    pub fn from_sources(sources: &[(&str, &str, FileKind, &str)]) -> Workspace {
        Workspace {
            files: sources
                .iter()
                .map(|(p, c, k, s)| SourceFile::new(*p, c, *k, s))
                .collect(),
        }
    }

    /// Runs every rule, producing the full report.
    pub fn check(&self) -> Report {
        rules::run(self)
    }
}

fn file_name_string(p: &Path) -> String {
    p.file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Reads the `name = "…"` out of a crate's `Cargo.toml` `[package]`
/// table, so lint crate names match cargo's.
fn manifest_crate_name(krate: &Path) -> Option<String> {
    let text = std::fs::read_to_string(krate.join("Cargo.toml")).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

fn read_dir_sorted(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

/// Recursively collects `.rs` files under `dir` into `files`.
fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    kind: FileKind,
    files: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            let name = file_name_string(&path);
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(root, &path, crate_name, kind, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(SourceFile::new(rel, crate_name, kind, &src));
        }
    }
    Ok(())
}

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id (`float-cmp`, `no-unwrap`, …).
    pub rule: &'static str,
    /// File (workspace-relative).
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// One documented `unsafe` site — the L6 inventory entry.
#[derive(Clone, Debug)]
pub struct UnsafeSite {
    /// File (workspace-relative).
    pub path: PathBuf,
    /// 1-based line of the `unsafe` token.
    pub line: u32,
    /// First line of the `SAFETY:` argument (empty when missing —
    /// which is also a finding).
    pub safety: String,
}

/// The full lint report: findings, suppressions, and the unsafe
/// inventory.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations — a non-empty list fails the gate.
    pub findings: Vec<Finding>,
    /// Violations covered by a `lint:allow` with a reason.
    pub allowed: Vec<Finding>,
    /// Every `unsafe` site in the workspace with its safety argument.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the gate passes.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The unsafe inventory as markdown.
    pub fn unsafe_inventory(&self) -> String {
        let mut out = String::from("# Unsafe inventory\n\n");
        out.push_str(&format!(
            "{} `unsafe` site(s) in the workspace; every one must carry a \
             `// SAFETY:` argument (rule `safety-comment`).\n\n",
            self.unsafe_sites.len()
        ));
        for site in &self.unsafe_sites {
            out.push_str(&format!(
                "- `{}:{}` — {}\n",
                site.path.display(),
                site.line,
                if site.safety.is_empty() {
                    "**UNDOCUMENTED**"
                } else {
                    &site.safety
                }
            ));
        }
        out
    }
}
