//! The six workspace rules, L1–L6, over the lexed token streams.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Tok, TokKind};
use crate::{FileKind, Finding, Report, SourceFile, UnsafeSite, Workspace};

/// L1 rule id.
pub const FLOAT_CMP: &str = "float-cmp";
/// L2 rule id.
pub const THREAD_SPAWN: &str = "thread-spawn";
/// L3 rule id.
pub const PAR_SEQ: &str = "par-seq";
/// L4 rule id.
pub const NO_UNWRAP: &str = "no-unwrap";
/// L5 rule id.
pub const LOSSY_CAST: &str = "lossy-cast";
/// L6 rule id.
pub const SAFETY_COMMENT: &str = "safety-comment";

/// Crates whose library code forbids `unwrap()`/`expect()` (L4): the
/// load-bearing numeric core plus the analysis layer (its prediction and
/// intervention entry points run on user-supplied CLI inputs, so
/// degenerate data must surface as `AnalysisError`, not panics) and the
/// orchestration layer (it parses wire bytes from arbitrary peers, so a
/// malformed line must come back as `OrchestrateError`, never a panic),
/// and the model and dataset crates every series flows through.
/// CLI, benches, and tests stay exempt.
const NO_UNWRAP_CRATES: [&str; 8] = [
    "snd-core",
    "snd-graph",
    "snd-transport",
    "snd-emd",
    "snd-models",
    "snd-analysis",
    "snd-orchestrate",
    "snd-data",
];

/// Crates whose mass-and-cost arithmetic is covered by L5.
const LOSSY_CAST_CRATES: [&str; 2] = ["snd-transport", "snd-emd"];

/// Crates allowed to touch `std::thread` directly: the pool itself and
/// the model checker that schedules it.
const SPAWN_EXEMPT_CRATES: [&str; 2] = ["rayon", "interleave"];

/// Cast targets L5 treats as value-preserving from every integer type
/// the transport/emd arithmetic uses (`u32` costs, `u64` masses,
/// `i64`/`i128` accumulators): only genuinely wider types qualify.
const WIDENING_TARGETS: [&str; 3] = ["i128", "u128", "f64"];

/// Integer-ish cast targets L5 inspects.
const NARROW_TARGETS: [&str; 11] = [
    "i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64", "isize", "usize", "f32",
];

/// Runs every rule over the workspace.
pub fn run(ws: &Workspace) -> Report {
    let mut report = Report {
        files_scanned: ws.files.len(),
        ..Report::default()
    };
    for file in &ws.files {
        float_cmp(file, &mut report);
        thread_spawn(file, &mut report);
        no_unwrap(file, &mut report);
        lossy_cast(file, &mut report);
        safety_comment(file, &mut report);
    }
    par_seq(ws, &mut report);
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
}

/// Records `finding` as suppressed or live depending on the allowlist.
fn push(file: &SourceFile, report: &mut Report, finding: Finding) {
    if file.allowed(finding.rule, finding.line) {
        report.allowed.push(finding);
    } else {
        report.findings.push(finding);
    }
}

/// L1: float comparisons must be NaN-total. Any `partial_cmp` call in
/// non-vendor code is flagged — the workspace orders scores, distances,
/// and costs, all of which can be NaN after a degenerate run, and a
/// partial ordering either panics (`.unwrap()`) or silently reorders
/// (`unwrap_or(Equal)` makes the comparator non-transitive, which
/// `sort_by` may answer with an arbitrary permutation).
fn float_cmp(file: &SourceFile, report: &mut Report) {
    if file.vendor {
        return;
    }
    for (i, t) in file.toks.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "partial_cmp" {
            push(
                file,
                report,
                Finding {
                    rule: FLOAT_CMP,
                    path: file.path.clone(),
                    line: t.line,
                    message: "partial_cmp on float keys; use f64::total_cmp \
                              (NaN-total, deterministic)"
                        .to_string(),
                },
            );
            let _ = i;
        }
    }
}

/// L2: all fan-out routes through the vendored rayon pool. Direct
/// `std::thread::spawn` / `std::thread::Builder` use outside the pool
/// (and the model checker that instruments it) bypasses the shared
/// worker accounting, `RAYON_NUM_THREADS`, and the panic-safety
/// protocol.
fn thread_spawn(file: &SourceFile, report: &mut Report) {
    if SPAWN_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = &file.toks;
    for i in 2..toks.len() {
        let is_path = toks[i - 2].text == "thread" && toks[i - 1].text == "::";
        if is_path && (toks[i].text == "spawn" || toks[i].text == "Builder") {
            push(
                file,
                report,
                Finding {
                    rule: THREAD_SPAWN,
                    path: file.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "std::thread::{} outside the vendored rayon pool; \
                         route fan-out through rayon::join / par_iter",
                        toks[i].text
                    ),
                },
            );
        }
    }
}

/// L4: no `unwrap()`/`expect()` in the numeric core's library code.
/// Load-bearing fallibility must surface as structured errors; provably
/// unreachable panics carry a `// lint:allow(no-unwrap) <invariant>`.
fn no_unwrap(file: &SourceFile, report: &mut Report) {
    if file.vendor
        || file.kind != FileKind::Lib
        || !NO_UNWRAP_CRATES.contains(&file.crate_name.as_str())
    {
        return;
    }
    let toks = &file.toks;
    for i in 1..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            push(
                file,
                report,
                Finding {
                    rule: NO_UNWRAP,
                    path: file.path.clone(),
                    line: t.line,
                    message: format!(
                        "{}() in library code; return a structured error or \
                         annotate the invariant with lint:allow(no-unwrap)",
                        t.text
                    ),
                },
            );
        }
    }
}

/// L5: lossy `as` casts in mass-and-cost arithmetic (the PR 2 overflow
/// class). A cast is flagged when its target is not provably widening
/// (`i128`/`u128`/`f64`) **and** the cast participates directly in
/// arithmetic or a value comparison — `d + rc as u64`, `acc -= x as
/// i64`. Index plumbing (`basis[cell_id as usize]`, `row: i as u32`)
/// carries ids, not masses, and is not flagged.
fn lossy_cast(file: &SourceFile, report: &mut Report) {
    if file.vendor
        || file.kind != FileKind::Lib
        || !LOSSY_CAST_CRATES.contains(&file.crate_name.as_str())
    {
        return;
    }
    const AFTER_OPS: [&str; 11] = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="];
    const BEFORE_OPS: [&str; 16] = [
        "+", "-", "*", "/", "%", "+=", "-=", "*=", "/=", "%=", "<", "<=", ">", ">=", "==", "!=",
    ];
    let toks = &file.toks;
    for i in 1..toks.len() {
        if file.test_mask[i] || toks[i].text != "as" || toks[i].kind != TokKind::Ident {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        debug_assert!(!WIDENING_TARGETS.contains(&target.text.as_str()));
        let after_arith = toks
            .get(i + 2)
            .is_some_and(|n| AFTER_OPS.contains(&n.text.as_str()));
        let before_arith = expr_start(toks, i - 1)
            .and_then(|s| s.checked_sub(1))
            .and_then(|p| toks.get(p))
            .is_some_and(|p| BEFORE_OPS.contains(&p.text.as_str()));
        if after_arith || before_arith {
            push(
                file,
                report,
                Finding {
                    rule: LOSSY_CAST,
                    path: file.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "possibly lossy `as {}` inside mass/cost arithmetic; \
                         widen (i128), use a checked conversion, or annotate \
                         the width invariant with lint:allow(lossy-cast)",
                        target.text
                    ),
                },
            );
        }
    }
}

/// Walks backward over one primary expression ending at token `end`,
/// returning the index of its first token. Handles `a.b`, `a::b`,
/// `f(x)`, `v[i]`, and parenthesized groups; returns `None` when `end`
/// does not terminate a recognizable primary.
fn expr_start(toks: &[Tok], end: usize) -> Option<usize> {
    let mut j = end;
    loop {
        // Reduce the current component to its first token.
        match toks.get(j)?.text.as_str() {
            ")" => j = match_back(toks, j, "(", ")")?,
            "]" => j = match_back(toks, j, "[", "]")?,
            _ if matches!(toks[j].kind, TokKind::Ident | TokKind::Num) => {}
            _ => return None,
        }
        if j == 0 {
            return Some(0);
        }
        let p = j - 1;
        let prev = &toks[p];
        // `f(…)` / `v[…]`: the callee/base ident belongs to the primary.
        if (toks[j].text == "(" || toks[j].text == "[")
            && matches!(prev.kind, TokKind::Ident | TokKind::Num)
        {
            j = p;
            if j == 0 {
                return Some(0);
            }
            let p2 = j - 1;
            if toks[p2].text == "." || toks[p2].text == "::" {
                if p2 == 0 {
                    return Some(0);
                }
                j = p2 - 1;
                continue;
            }
            return Some(j);
        }
        if prev.text == "." || prev.text == "::" {
            if p == 0 {
                return Some(0);
            }
            j = p - 1;
            continue;
        }
        return Some(j);
    }
}

/// Index of the token opening the bracket closed at `close`.
fn match_back(toks: &[Tok], close: usize, open_sym: &str, close_sym: &str) -> Option<usize> {
    let mut depth = 0isize;
    for k in (0..=close).rev() {
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            if t.text == close_sym {
                depth += 1;
            } else if t.text == open_sym {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

/// How far above an `unsafe` token its `// SAFETY:` comment may end
/// (attributes or a signature line may sit between them).
const SAFETY_WINDOW: u32 = 3;

/// L6: every `unsafe` carries its safety argument in a `// SAFETY:`
/// comment — trailing on the same line or ending within
/// [`SAFETY_WINDOW`] lines above. An `unsafe fn` declaration may instead
/// document its caller obligation in a `# Safety` doc section (the
/// standard idiom; its body still needs per-block `// SAFETY:`). Vendor
/// code included: the hand-rolled pool is exactly where the obligation
/// bites. Also builds the unsafe inventory.
fn safety_comment(file: &SourceFile, report: &mut Report) {
    for (idx, t) in file.toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        let is_fn_decl = file.toks.get(idx + 1).is_some_and(|n| n.text == "fn");
        // `unsafe fn(...)` with no name is a fn-pointer *type*, not a
        // declaration — the obligation lives where such a pointer is
        // produced and called, so the type itself is not a site.
        if is_fn_decl && file.toks.get(idx + 2).is_some_and(|n| n.text == "(") {
            continue;
        }
        let safety = file.comments.iter().rev().find(|c| {
            (c.text.contains("SAFETY:") || (is_fn_decl && c.text.contains("# Safety")))
                && (c.start_line == t.line
                    || (c.end_line < t.line && t.line - c.end_line <= SAFETY_WINDOW))
        });
        let summary = safety
            .map(|c| {
                c.text
                    .split("SAFETY:")
                    .nth(1)
                    .or_else(|| c.text.split("# Safety").nth(1))
                    .unwrap_or("")
                    .lines()
                    .map(|l| l.trim().trim_start_matches(['/', '*', ' ']).trim())
                    .find(|l| !l.is_empty())
                    .unwrap_or("")
                    .to_string()
            })
            .unwrap_or_default();
        report.unsafe_sites.push(UnsafeSite {
            path: file.path.clone(),
            line: t.line,
            safety: summary,
        });
        if safety.is_none() {
            push(
                file,
                report,
                Finding {
                    rule: SAFETY_COMMENT,
                    path: file.path.clone(),
                    line: t.line,
                    message: "unsafe without a `// SAFETY:` comment directly above, \
                              trailing on the same line, or (for `unsafe fn`) a \
                              `# Safety` doc section"
                        .to_string(),
                },
            );
        }
    }
}

/// L3: the bit-identity contract. Every exported `*_par` entry point
/// must have an exported `*_seq` counterpart (`x_par` ↔ `x_seq`), and
/// every exported `*_seq` reference (such as
/// `SndEngine::series_distances_seq`, the reference of the parallel
/// `series_distances`) must be exercised by at least one test —
/// otherwise nothing pins the parallel path to its reference semantics.
fn par_seq(ws: &Workspace, report: &mut Report) {
    struct Decl {
        file: usize,
        line: u32,
    }
    let mut decls: HashMap<String, Decl> = HashMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.vendor || file.kind != FileKind::Lib {
            continue;
        }
        let toks = &file.toks;
        for i in 0..toks.len() {
            if toks[i].text != "fn" || file.test_mask[i] {
                continue;
            }
            // Exported? Walk back over fn qualifiers to a bare `pub`
            // (`pub(crate)` and friends are not part of the public API).
            let mut q = i;
            let exported = loop {
                if q == 0 {
                    break false;
                }
                q -= 1;
                match toks[q].text.as_str() {
                    "const" | "async" | "unsafe" | "extern" => continue,
                    "pub" => break toks[q + 1].text != "(",
                    _ => break false,
                }
            };
            if !exported {
                continue;
            }
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident {
                    decls.insert(
                        name.text.clone(),
                        Decl {
                            file: fi,
                            line: name.line,
                        },
                    );
                }
            }
        }
    }

    // Which `*_seq` names does test code reference?
    let mut test_refs: HashSet<&str> = HashSet::new();
    for file in &ws.files {
        for (i, t) in file.toks.iter().enumerate() {
            if t.kind == TokKind::Ident && t.text.ends_with("_seq") && file.is_test_tok(i) {
                test_refs.insert(t.text.as_str());
            }
        }
    }

    let mut names: Vec<&String> = decls.keys().collect();
    names.sort();
    for name in names {
        let decl = &decls[name];
        let file = &ws.files[decl.file];
        if let Some(base) = name.strip_suffix("_par") {
            let seq = format!("{base}_seq");
            if !decls.contains_key(&seq) {
                push(
                    file,
                    report,
                    Finding {
                        rule: PAR_SEQ,
                        path: file.path.clone(),
                        line: decl.line,
                        message: format!(
                            "exported parallel entry point `{name}` has no exported \
                             `{seq}` reference counterpart"
                        ),
                    },
                );
            }
        }
        if name.ends_with("_seq") && !test_refs.contains(name.as_str()) {
            push(
                file,
                report,
                Finding {
                    rule: PAR_SEQ,
                    path: file.path.clone(),
                    line: decl.line,
                    message: format!(
                        "sequential reference `{name}` is not exercised by any test; \
                         nothing pins the parallel path to it"
                    ),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn lib(src: &str) -> Workspace {
        Workspace::from_sources(&[("crates/core/src/x.rs", "snd-core", FileKind::Lib, src)])
    }

    fn rules_of(report: &Report) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn l1_flags_partial_cmp_but_not_strings_or_comments() {
        let ws = lib("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert!(rules_of(&ws.check()).contains(&FLOAT_CMP));
        let ws = lib("// partial_cmp\nfn f() { let s = \"partial_cmp\"; }");
        assert!(!rules_of(&ws.check()).contains(&FLOAT_CMP));
    }

    #[test]
    fn l1_allow_suppresses_with_reason_only() {
        let ws = lib(
            "fn f(a: f64, b: f64) {\n// lint:allow(float-cmp) ordering on non-float newtype\n\
             a.partial_cmp(&b);\n}",
        );
        let report = ws.check();
        assert!(!rules_of(&report).contains(&FLOAT_CMP));
        assert_eq!(report.allowed.len(), 1);
        // Reason-less allow does not suppress.
        let ws = lib("fn f(a: f64, b: f64) {\n// lint:allow(float-cmp)\na.partial_cmp(&b);\n}");
        assert!(rules_of(&ws.check()).contains(&FLOAT_CMP));
    }

    #[test]
    fn l2_flags_spawn_outside_pool_crates() {
        let ws = lib("fn f() { std::thread::spawn(|| {}); }");
        assert!(rules_of(&ws.check()).contains(&THREAD_SPAWN));
        let ws = Workspace::from_sources(&[(
            "vendor/rayon/src/lib.rs",
            "rayon",
            FileKind::Lib,
            "fn f() { std::thread::Builder::new(); }",
        )]);
        assert!(ws.check().findings.is_empty());
    }

    #[test]
    fn l3_par_requires_seq_and_seq_requires_test_reference() {
        // _par with no _seq: finding.
        let ws = Workspace::from_sources(&[(
            "crates/transport/src/lib.rs",
            "snd-transport",
            FileKind::Lib,
            "pub fn solve_par() {}",
        )]);
        assert_eq!(rules_of(&ws.check()), vec![PAR_SEQ]);
        // _par + _seq + test reference: clean.
        let ws = Workspace::from_sources(&[
            (
                "crates/transport/src/lib.rs",
                "snd-transport",
                FileKind::Lib,
                "pub fn solve_par() {}\npub fn solve_seq() {}",
            ),
            (
                "crates/transport/tests/t.rs",
                "snd-transport",
                FileKind::Test,
                "fn t() { solve_seq(); }",
            ),
        ]);
        assert!(ws.check().findings.is_empty());
        // _seq referenced only from lib code: still a finding.
        let ws = Workspace::from_sources(&[(
            "crates/transport/src/lib.rs",
            "snd-transport",
            FileKind::Lib,
            "pub fn solve_par() {}\npub fn solve_seq() {}\nfn call() { solve_seq(); }",
        )]);
        assert_eq!(rules_of(&ws.check()), vec![PAR_SEQ]);
        // cfg(test) reference in the lib file counts as a test.
        let ws = Workspace::from_sources(&[(
            "crates/transport/src/lib.rs",
            "snd-transport",
            FileKind::Lib,
            "pub fn solve_par() {}\npub fn solve_seq() {}\n#[cfg(test)]\nmod tests { fn t() { solve_seq(); } }",
        )]);
        assert!(ws.check().findings.is_empty());
        // pub(crate) fns are not exported: no obligation.
        let ws = Workspace::from_sources(&[(
            "crates/transport/src/lib.rs",
            "snd-transport",
            FileKind::Lib,
            "pub(crate) fn helper_seq() {}",
        )]);
        assert!(ws.check().findings.is_empty());
    }

    #[test]
    fn l4_flags_unwrap_in_lib_but_not_tests_or_other_crates() {
        let ws = lib("fn f(x: Option<u32>) { x.unwrap(); }");
        assert!(rules_of(&ws.check()).contains(&NO_UNWRAP));
        let ws = lib("fn f(x: Option<u32>) { x.expect(\"m\"); }");
        assert!(rules_of(&ws.check()).contains(&NO_UNWRAP));
        // unwrap_or is not unwrap.
        let ws = lib("fn f(x: Option<u32>) { x.unwrap_or(0); }");
        assert!(!rules_of(&ws.check()).contains(&NO_UNWRAP));
        // Test regions exempt.
        let ws = lib("#[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }");
        assert!(!rules_of(&ws.check()).contains(&NO_UNWRAP));
        // CLI crate exempt.
        let ws = Workspace::from_sources(&[(
            "crates/cli/src/main.rs",
            "snd-cli",
            FileKind::Lib,
            "fn f(x: Option<u32>) { x.unwrap(); }",
        )]);
        assert!(!rules_of(&ws.check()).contains(&NO_UNWRAP));
    }

    #[test]
    fn l5_flags_arith_adjacent_narrow_casts_only() {
        let t = |src: &str| {
            Workspace::from_sources(&[(
                "crates/transport/src/ssp.rs",
                "snd-transport",
                FileKind::Lib,
                src,
            )])
            .check()
        };
        // The PR 2 class: mass arithmetic through a narrowing cast.
        assert!(
            rules_of(&t("fn f(d: u64, rc: i64) -> u64 { d + rc as u64 }")).contains(&LOSSY_CAST)
        );
        assert!(
            rules_of(&t("fn f(a: &mut i64, x: u64) { *a += x.min(3) as i64; }"))
                .contains(&LOSSY_CAST)
        );
        // Comparison on a cast mass counts as arithmetic.
        assert!(
            rules_of(&t("fn f(a: u64, b: i64) -> bool { a < b as u64 }")).contains(&LOSSY_CAST)
        );
        // Index plumbing is not arithmetic.
        assert!(
            !rules_of(&t("fn f(v: &[u32], i: u32) -> u32 { v[i as usize] }")).contains(&LOSSY_CAST)
        );
        assert!(!rules_of(&t(
            "fn f(i: usize) -> u32 { g(i as u32) } fn g(_: u32) -> u32 { 0 }"
        ))
        .contains(&LOSSY_CAST));
        // Parenthesized index math stays exempt.
        assert!(!rules_of(&t(
            "fn f(m: usize, j: usize) -> u32 { h((m + j) as u32) } fn h(x: u32) -> u32 { x }"
        ))
        .contains(&LOSSY_CAST));
        // Widening targets are exempt even in arithmetic.
        assert!(
            !rules_of(&t("fn f(a: i128, x: u64) -> i128 { a + x as i128 }")).contains(&LOSSY_CAST)
        );
        // Other crates out of scope.
        let ws = lib("fn f(d: u64, rc: i64) -> u64 { d + rc as u64 }");
        assert!(!rules_of(&ws.check()).contains(&LOSSY_CAST));
    }

    #[test]
    fn l6_requires_safety_comment_and_builds_inventory() {
        let ws = lib("fn f() { unsafe { core::hint::unreachable_unchecked() } }");
        let report = ws.check();
        assert!(rules_of(&report).contains(&SAFETY_COMMENT));
        assert_eq!(report.unsafe_sites.len(), 1);
        assert!(report.unsafe_sites[0].safety.is_empty());

        let ws =
            lib("// SAFETY: caller guarantees the index is in range.\nfn f() { unsafe { g() } }");
        let report = ws.check();
        assert!(!rules_of(&report).contains(&SAFETY_COMMENT));
        assert_eq!(
            report.unsafe_sites[0].safety,
            "caller guarantees the index is in range."
        );
        assert!(report.unsafe_inventory().contains("x.rs"));

        // Vendor code is NOT exempt from L6.
        let ws = Workspace::from_sources(&[(
            "vendor/rayon/src/lib.rs",
            "rayon",
            FileKind::Lib,
            "fn f() { unsafe { g() } }",
        )]);
        assert!(rules_of(&ws.check()).contains(&SAFETY_COMMENT));
    }

    #[test]
    fn l6_accepts_trailing_and_windowed_comments() {
        let ws = lib("unsafe impl Send for T {} // SAFETY: T owns no thread-bound state.");
        assert!(ws.check().findings.is_empty());
        // Comment more than SAFETY_WINDOW lines above does not count.
        let ws = lib("// SAFETY: stale\n\n\n\n\nfn f() { unsafe { g() } }");
        assert!(rules_of(&ws.check()).contains(&SAFETY_COMMENT));
    }
}
