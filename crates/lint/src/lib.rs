//! `scalewall-lint` — the workspace determinism lint.
//!
//! The whole reproduction rests on bit-identical replay (`tests/
//! determinism.rs`, the fault DSL, every golden experiment number). That
//! contract dies silently the moment a sim-facing code path consults wall
//! clock time, ambient randomness, or hash-iteration order — or, more
//! subtly, forks two RNG streams under one label, acquires locks in
//! inconsistent order, or panics mid-failover. This crate machine-checks
//! the contract on every build instead of rediscovering it per incident.
//!
//! # Rules
//!
//! * **D1 — no wall clock / OS threads.** `Instant`, `SystemTime`, and
//!   `std::thread` are forbidden in sim-facing code. Time comes from
//!   `SimTime`; concurrency from the event kernel. The sanctioned
//!   exception is `scalewall_bench::microbench`, the one place wall-clock
//!   measurement is the point.
//! * **D2 — no hash-ordered collections.** `HashMap`/`HashSet` are
//!   forbidden in sim-facing code, *mentions included*: the lint cannot
//!   prove a given map is never iterated, so the rule is enforced at the
//!   type level. Use `BTreeMap`/`BTreeSet` or carry a pragma explaining
//!   why the map can never leak ordering.
//! * **D3 — no literal-seeded RNGs.** `SimRng::new(42)` outside
//!   `crates/sim` breaks the fork discipline (seeds must flow from the
//!   experiment root so streams stay stable). Construct from config seeds
//!   or `fork()`.
//! * **D4 — no `unsafe`.** It has no business in a deterministic
//!   simulation, anywhere in the workspace.
//! * **D5 — RNG stream discipline** (semantic). Two `fork(…)` sites on
//!   one stream sharing a static label, re-forking a stream after drawing
//!   from it ("fork before fan-out"), and workload RNG values flowing
//!   into fault/backoff code are all replay hazards the fork convention
//!   exists to prevent.
//! * **D6 — lock-order analysis** (semantic). The acquisition graph of
//!   `sim::sync` locks, with held-sets propagated through a conservative
//!   call graph: same-lock nested acquires and cycle-participating
//!   acquisition sites are replay-visible deadlock risks.
//! * **D7 — panic-surface audit.** No `unwrap`/`expect`/`panic!`-family
//!   macros/integer-literal indexing on the experiment, kernel,
//!   zk-replica, and shard-manager hot paths ([`HOT_PATHS`]); each must
//!   become a typed error or carry a reasoned pragma.
//!
//! Detection runs on a parsed representation (`parser.rs`) with a
//! workspace symbol table and call graph (`semantic.rs`); anything the
//! tolerant parser cannot shape falls back to the v1 token scan, so
//! coverage never regresses (DESIGN.md §5c documents the conservatism and
//! its known false-negative edges).
//!
//! `#[cfg(test)]` items are exempt from all rules; integration tests,
//! examples, and the bench/lint tooling run under a reduced rule set (see
//! [`ruleset_for`]). Suppression requires a scoped pragma:
//!
//! ```text
//! // scalewall-lint: allow(D2) -- point lookups only, never iterated
//! ```
//!
//! A pragma on its own line covers the next code line; at the end of a
//! code line it covers that line. Malformed and *unused* pragmas are
//! themselves violations, so stale allows cannot accumulate.

pub mod json;
pub mod lexer;
pub mod parser;
mod semantic;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Tok, Token};
use parser::{Expr, ParsedFile, Stmt, Ty};

/// Crates whose `src/` is sim-facing (full rule set).
pub const SIM_FACING_CRATES: &[&str] =
    &["sim", "cluster", "cubrick", "shard-manager", "discovery", "zk"];

/// Hot-path files under the D7 panic-surface audit: the experiment
/// engine, the event kernel, the replicated coordination plane, the
/// shard manager, the admission controller, and the partial-result
/// merge — the code that runs during failover and overload, where a
/// panic kills the experiment mid-replay (or melts the serving plane
/// exactly when it is shedding load).
pub const HOT_PATHS: &[&str] = &[
    "crates/sim/src/event.rs",
    "crates/cluster/src/experiment.rs",
    "crates/zk/src/replica.rs",
    "crates/zk/src/log.rs",
    "crates/shard-manager/src/server.rs",
    "crates/cubrick/src/admission.rs",
    "crates/cubrick/src/coordinator.rs",
];

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock time or OS threads in sim-facing code.
    D1,
    /// Hash-ordered collection in sim-facing code.
    D2,
    /// Literal-seeded RNG construction outside `crates/sim`.
    D3,
    /// `unsafe` anywhere.
    D4,
    /// RNG stream-discipline breach (duplicate fork label, fork after
    /// draw, workload→fault/backoff flow).
    D5,
    /// Lock-order hazard (nested same-lock acquire or cycle site).
    D6,
    /// Panic surface on a hot path (`unwrap`/`expect`/`panic!`/literal
    /// index).
    D7,
    /// Malformed or unused suppression pragma.
    Pragma,
}

impl RuleId {
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim() {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "D4" => Some(RuleId::D4),
            "D5" => Some(RuleId::D5),
            "D6" => Some(RuleId::D6),
            "D7" => Some(RuleId::D7),
            _ => None,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::D7 => "D7",
            RuleId::Pragma => "pragma",
        };
        f.write_str(s)
    }
}

/// Which rules apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    pub d1: bool,
    pub d2: bool,
    pub d3: bool,
    pub d4: bool,
    pub d5: bool,
    pub d6: bool,
    pub d7: bool,
}

impl RuleSet {
    /// Full sim-facing tier (D7 only on [`HOT_PATHS`]).
    pub const SIM: RuleSet =
        RuleSet { d1: true, d2: true, d3: true, d4: true, d5: true, d6: true, d7: false };
    /// `crates/sim` itself: RNG construction is its job (no D3).
    pub const SIM_RNG_HOME: RuleSet =
        RuleSet { d1: true, d2: true, d3: false, d4: true, d5: true, d6: true, d7: false };
    /// Bench tier: no wall clock outside the sanctioned runner, but hash
    /// maps and local seeds are fine (bench output sorts explicitly).
    pub const BENCH: RuleSet =
        RuleSet { d1: true, d2: false, d3: false, d4: true, d5: false, d6: false, d7: false };
    /// Integration tests, examples, glue, tooling: only `unsafe` is policed.
    pub const PLAIN: RuleSet =
        RuleSet { d1: false, d2: false, d3: false, d4: true, d5: false, d6: false, d7: false };

    fn enables(&self, rule: RuleId) -> bool {
        match rule {
            RuleId::D1 => self.d1,
            RuleId::D2 => self.d2,
            RuleId::D3 => self.d3,
            RuleId::D4 => self.d4,
            RuleId::D5 => self.d5,
            RuleId::D6 => self.d6,
            RuleId::D7 => self.d7,
            RuleId::Pragma => true,
        }
    }
}

/// One unsuppressed rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: RuleId,
    pub line: u32,
    pub message: String,
}

/// One suppression pragma found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaUse {
    pub line: u32,
    pub rules: Vec<RuleId>,
    pub reason: String,
    /// How many violations this pragma silenced.
    pub suppressed: usize,
}

/// Lint results for one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    pub path: String,
    pub violations: Vec<Violation>,
    pub pragmas: Vec<PragmaUse>,
}

/// Lint results for a whole workspace scan.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    pub files: Vec<FileReport>,
    pub files_scanned: usize,
}

impl WorkspaceReport {
    pub fn violation_count(&self) -> usize {
        self.files.iter().map(|f| f.violations.len()).sum()
    }

    pub fn suppressed_count(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.pragmas)
            .map(|p| p.suppressed)
            .sum()
    }

    /// Every pragma in the workspace, as `(path, pragma)` pairs — the
    /// allow inventory the self-test prints.
    pub fn pragma_inventory(&self) -> Vec<(&str, &PragmaUse)> {
        self.files
            .iter()
            .flat_map(|f| f.pragmas.iter().map(move |p| (f.path.as_str(), p)))
            .collect()
    }
}

/// Rule set for a workspace-relative path, or `None` to skip the file
/// entirely (lint fixtures carry seeded violations on purpose).
pub fn ruleset_for(rel: &str) -> Option<RuleSet> {
    let rel = rel.replace('\\', "/");
    if rel.starts_with("crates/lint/fixtures/") {
        return None;
    }
    if rel == "crates/bench/src/microbench.rs" {
        // The sanctioned wall-clock runner.
        return Some(RuleSet::PLAIN);
    }
    let mut base = None;
    for c in SIM_FACING_CRATES {
        if rel.starts_with(&format!("crates/{c}/src/")) {
            base = Some(if *c == "sim" { RuleSet::SIM_RNG_HOME } else { RuleSet::SIM });
            break;
        }
    }
    let mut rules = match base {
        Some(r) => r,
        None if rel.starts_with("crates/bench/src/") => RuleSet::BENCH,
        // Everything else that is Rust: crate tests/, workspace tests/,
        // examples/, root src/, the lint itself.
        None => RuleSet::PLAIN,
    };
    if HOT_PATHS.contains(&rel.as_str()) {
        rules.d7 = true;
    }
    Some(rules)
}

// --------------------------------------------------------------- pragmas

const PRAGMA_MARKER: &str = "scalewall-lint:";

struct ParsedPragma {
    line: u32,
    rules: Vec<RuleId>,
    reason: String,
    error: Option<String>,
}

/// Doc comments (`///`, `//!`, `/** */`, `/*! */`) never carry pragmas:
/// they are documentation, and quoting the pragma syntax in them — as
/// this crate's own module docs do — must not create a live suppression.
/// (`////…` and `/***…` are plain comments per the Rust reference, as is
/// the empty `/**/`.)
fn is_doc_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && text.len() > 4 && !text.starts_with("/***"))
        || text.starts_with("/*!")
}

/// Parse `// scalewall-lint: allow(D1, D2) -- reason` from a comment.
/// `line` is the line the comment *starts* on; a pragma further down a
/// multi-line block comment is attributed to its own physical line.
fn parse_pragma(text: &str, line: u32) -> Option<ParsedPragma> {
    if is_doc_comment(text) {
        return None;
    }
    let at = text.find(PRAGMA_MARKER)?;
    let line = line + text[..at].matches('\n').count() as u32;
    let rest = text[at + PRAGMA_MARKER.len()..].trim();
    // Inside a block comment the pragma's scope ends with its line.
    let rest = rest.lines().next().unwrap_or("").trim_end_matches("*/").trim();
    let fail = |msg: &str| {
        Some(ParsedPragma {
            line,
            rules: Vec::new(),
            reason: String::new(),
            error: Some(msg.to_string()),
        })
    };
    let Some(args) = rest.strip_prefix("allow(") else {
        return fail("expected `allow(<rule>,…) -- <reason>` after `scalewall-lint:`");
    };
    let Some(close) = args.find(')') else {
        return fail("unclosed `allow(`");
    };
    let mut rules = Vec::new();
    for part in args[..close].split(',') {
        match RuleId::parse(part) {
            Some(r) => rules.push(r),
            None => return fail(&format!("unknown rule {:?} (use D1–D7)", part.trim())),
        }
    }
    if rules.is_empty() {
        return fail("empty rule list in `allow()`");
    }
    let tail = args[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("--") else {
        return fail("missing `-- <reason>` after `allow(...)`");
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return fail("empty reason after `--`");
    }
    Some(ParsedPragma {
        line,
        rules,
        reason: reason.to_string(),
        error: None,
    })
}

// ---------------------------------------------------------- rule engine

#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub(crate) rule: RuleId,
    pub(crate) line: u32,
    pub(crate) message: String,
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

const D4_MESSAGE: &str = "`unsafe` has no business in a deterministic simulation";

fn push_candidate(out: &mut Vec<Candidate>, rule: RuleId, line: u32, message: String) {
    // Dedupe per (rule, line): `std::thread::spawn` should report once.
    if !out.iter().any(|c| c.rule == rule && c.line == line) {
        out.push(Candidate { rule, line, message });
    }
}

fn check_ty(out: &mut Vec<Candidate>, ty: &Ty) {
    for i in &ty.idents {
        match i.as_str() {
            "Instant" | "SystemTime" => push_candidate(
                out,
                RuleId::D1,
                ty.line,
                format!("`{i}` is wall-clock time — use `SimTime` (sim-facing code must not observe the host clock)"),
            ),
            "HashMap" | "HashSet" => push_candidate(
                out,
                RuleId::D2,
                ty.line,
                format!("`{i}` iteration order is nondeterministic — use `BTreeMap`/`BTreeSet` or a sorted collect"),
            ),
            _ => {}
        }
    }
}

/// AST-level rule scan over one parsed file (tiering and suppression are
/// applied later by the caller).
fn scan_parsed(parsed: &ParsedFile) -> Vec<Candidate> {
    let mut out = Vec::new();
    // Fields declared as fixed-size arrays (`[T; N]`) in this file: a
    // literal index into one is bounded by the type, not by runtime
    // emptiness, so the D7 "assume non-empty" rule skips them (the
    // kernel's `occupied[0]` occupancy-bitmask idiom). Known
    // false-negative edge: a literal ≥ N still panics; the lint does not
    // evaluate const expressions.
    let array_fields: std::collections::BTreeSet<&str> = parsed
        .structs
        .iter()
        .flat_map(|s| s.fields.iter())
        .filter(|(_, ty)| ty.text.trim_start().starts_with('['))
        .map(|(name, _)| name.as_str())
        .collect();
    for (line, in_test) in &parsed.item_unsafe {
        if !in_test {
            push_candidate(
                &mut out,
                RuleId::D4,
                *line,
                D4_MESSAGE.to_string(),
            );
        }
    }
    for s in &parsed.structs {
        if s.in_test {
            continue;
        }
        for (_, ty) in &s.fields {
            check_ty(&mut out, ty);
        }
    }
    for f in &parsed.fns {
        if f.in_test {
            continue;
        }
        for p in &f.params {
            check_ty(&mut out, &p.ty);
        }
        if let Some(ret) = &f.ret {
            check_ty(&mut out, ret);
        }
        let Some(body) = &f.body else { continue };
        parser::visit_stmts(body, &mut |s| {
            if let Stmt::Let { ty: Some(ty), .. } = s {
                check_ty(&mut out, ty);
            }
        });
        parser::walk_block(body, &mut |e| match e {
            Expr::Path(segs, line) => {
                for seg in segs {
                    match seg.as_str() {
                        "Instant" | "SystemTime" => push_candidate(
                            &mut out,
                            RuleId::D1,
                            *line,
                            format!("`{seg}` is wall-clock time — use `SimTime` (sim-facing code must not observe the host clock)"),
                        ),
                        "HashMap" | "HashSet" => push_candidate(
                            &mut out,
                            RuleId::D2,
                            *line,
                            format!("`{seg}` iteration order is nondeterministic — use `BTreeMap`/`BTreeSet` or a sorted collect"),
                        ),
                        _ => {}
                    }
                }
                let thread_spawn = segs.windows(2).any(|w| w[0] == "thread" && w[1] == "spawn");
                let std_thread = segs.windows(2).any(|w| w[0] == "std" && w[1] == "thread");
                if thread_spawn || std_thread {
                    push_candidate(
                        &mut out,
                        RuleId::D1,
                        *line,
                        "`std::thread` — sim-facing code runs on the deterministic event kernel, not OS threads".to_string(),
                    );
                }
            }
            Expr::Call { callee, args, line } => {
                if let Expr::Path(segs, _) = callee.as_ref() {
                    if segs.len() >= 2
                        && segs[segs.len() - 1] == "new"
                        && segs[segs.len() - 2].ends_with("Rng")
                        && args.len() == 1
                        && matches!(args[0], Expr::LitInt(..))
                    {
                        push_candidate(
                            &mut out,
                            RuleId::D3,
                            *line,
                            format!("literal-seeded `{}::new(…)` — seeds must flow from the experiment root via `fork()` (scalewall_sim::rng discipline)", segs[segs.len() - 2]),
                        );
                    }
                }
            }
            Expr::Method { name, line, .. } if name == "unwrap" || name == "expect" => {
                push_candidate(
                    &mut out,
                    RuleId::D7,
                    *line,
                    format!("`.{name}(…)` on a hot path — failover code must degrade through a typed error, not panic mid-replay"),
                );
            }
            Expr::Macro { name, line } if PANIC_MACROS.contains(&name.as_str()) => {
                push_candidate(
                    &mut out,
                    RuleId::D7,
                    *line,
                    format!("`{name}!` on a hot path — failover code must degrade through a typed error, not panic mid-replay"),
                );
            }
            Expr::Index { recv, index, line } => {
                let on_array_field = matches!(
                    recv.as_ref(),
                    Expr::Field { name, .. } if array_fields.contains(name.as_str())
                );
                if matches!(index.as_ref(), Expr::LitInt(..)) && !on_array_field {
                    push_candidate(
                        &mut out,
                        RuleId::D7,
                        *line,
                        "integer-literal index on a hot path assumes the collection is non-empty — use `.get(…)`/`.first()` and degrade".to_string(),
                    );
                }
            }
            Expr::Unsafe { line, .. } => {
                push_candidate(
                    &mut out,
                    RuleId::D4,
                    *line,
                    D4_MESSAGE.to_string(),
                );
            }
            _ => {}
        });
    }
    // Fallback token scan over everything the parser left opaque.
    for span in &parsed.opaque {
        if span.in_test {
            continue;
        }
        scan_tokens(&parsed.tokens[span.start..span.end], &mut out);
    }
    out
}

/// The v1 token-level scan, run over opaque spans (macro arguments,
/// `use`/`const` items, patterns, recovery stretches) so the parser's
/// tolerance never loses detections.
fn scan_tokens(code: &[Token], out: &mut Vec<Candidate>) {
    let punct_at = |i: usize, c: char| matches!(code.get(i), Some(t) if t.tok == Tok::Punct(c));
    let ident_at = |i: usize| match code.get(i) {
        Some(Token { tok: Tok::Ident(s), .. }) => Some(s.as_str()),
        _ => None,
    };
    for (i, t) in code.iter().enumerate() {
        let Tok::Ident(word) = &t.tok else { continue };
        match word.as_str() {
            "Instant" | "SystemTime" => push_candidate(
                out,
                RuleId::D1,
                t.line,
                format!("`{word}` is wall-clock time — use `SimTime` (sim-facing code must not observe the host clock)"),
            ),
            "thread"
                if punct_at(i + 1, ':') && punct_at(i + 2, ':') && ident_at(i + 3) == Some("spawn") =>
            {
                push_candidate(
                    out,
                    RuleId::D1,
                    t.line,
                    "`thread::spawn` — sim-facing code runs on the deterministic event kernel, not OS threads".to_string(),
                )
            }
            "std" if punct_at(i + 1, ':') && punct_at(i + 2, ':') && ident_at(i + 3) == Some("thread") => {
                push_candidate(
                    out,
                    RuleId::D1,
                    t.line,
                    "`std::thread` — sim-facing code runs on the deterministic event kernel, not OS threads".to_string(),
                )
            }
            "HashMap" | "HashSet" => push_candidate(
                out,
                RuleId::D2,
                t.line,
                format!("`{word}` iteration order is nondeterministic — use `BTreeMap`/`BTreeSet` or a sorted collect"),
            ),
            "unsafe" => push_candidate(
                out,
                RuleId::D4,
                t.line,
                D4_MESSAGE.to_string(),
            ),
            "unwrap" | "expect" if i > 0 && punct_at(i - 1, '.') && punct_at(i + 1, '(') => {
                push_candidate(
                    out,
                    RuleId::D7,
                    t.line,
                    format!("`.{word}(…)` on a hot path — failover code must degrade through a typed error, not panic mid-replay"),
                )
            }
            w if PANIC_MACROS.contains(&w) && punct_at(i + 1, '!') => push_candidate(
                out,
                RuleId::D7,
                t.line,
                format!("`{w}!` on a hot path — failover code must degrade through a typed error, not panic mid-replay"),
            ),
            w if w.ends_with("Rng")
                && punct_at(i + 1, ':')
                && punct_at(i + 2, ':')
                && ident_at(i + 3) == Some("new")
                && punct_at(i + 4, '(')
                && matches!(code.get(i + 5), Some(Token { tok: Tok::Int(_), .. }))
                && punct_at(i + 6, ')') =>
            {
                push_candidate(
                    out,
                    RuleId::D3,
                    t.line,
                    format!("literal-seeded `{w}::new(…)` — seeds must flow from the experiment root via `fork()` (scalewall_sim::rng discipline)"),
                )
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------- two-phase analysis

struct AnalyzedFile {
    path: String,
    rules: RuleSet,
    parsed: ParsedFile,
    candidates: Vec<Candidate>,
    /// Pragma scopes: (governed line, rules, index into `pragmas`).
    scopes: Vec<(u32, Vec<RuleId>, usize)>,
    pragmas: Vec<PragmaUse>,
    pragma_errors: Vec<Violation>,
}

/// Two-phase lint driver: add every file, then [`Analysis::finish`] runs
/// the cross-file semantic passes (D5 flow, D6 propagation) and resolves
/// suppression.
#[derive(Default)]
pub struct Analysis {
    files: Vec<AnalyzedFile>,
}

impl Analysis {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_source(&mut self, path: &str, src: &str, rules: RuleSet) {
        let all_tokens = lex(src);
        let parsed = parser::parse(src);
        let candidates = scan_parsed(&parsed);

        // Lines that carry at least one code token, for pragma scoping.
        let code_lines: Vec<u32> = {
            let mut v: Vec<u32> = parsed.tokens.iter().map(|t| t.line).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut scopes = Vec::new();
        let mut pragmas = Vec::new();
        let mut pragma_errors = Vec::new();
        for t in &all_tokens {
            let Tok::Comment(text) = &t.tok else { continue };
            let Some(p) = parse_pragma(text, t.line) else { continue };
            if let Some(err) = p.error {
                pragma_errors.push(Violation {
                    rule: RuleId::Pragma,
                    line: p.line,
                    message: format!("malformed pragma: {err}"),
                });
                continue;
            }
            let target = if code_lines.binary_search(&p.line).is_ok() {
                p.line
            } else {
                match code_lines.iter().find(|&&l| l > p.line) {
                    Some(&l) => l,
                    None => p.line, // pragma at EOF governs nothing; reported unused
                }
            };
            scopes.push((target, p.rules.clone(), pragmas.len()));
            pragmas.push(PragmaUse {
                line: p.line,
                rules: p.rules,
                reason: p.reason,
                suppressed: 0,
            });
        }

        self.files.push(AnalyzedFile {
            path: path.to_string(),
            rules,
            parsed,
            candidates,
            scopes,
            pragmas,
            pragma_errors,
        });
    }

    pub fn finish(mut self) -> Vec<FileReport> {
        // Cross-file semantic passes (D5 domain flow, D6 call-graph
        // propagation) over every file at once.
        let inputs: Vec<(usize, String, &ParsedFile)> = self
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.path.clone(), &f.parsed))
            .collect();
        let cross = semantic::analyze(&inputs);
        drop(inputs);
        for (idx, c) in cross {
            let file = &mut self.files[idx];
            if !file.candidates.iter().any(|e| e.rule == c.rule && e.line == c.line) {
                file.candidates.push(c);
            }
        }

        let mut reports = Vec::new();
        for mut file in self.files {
            let mut violations = std::mem::take(&mut file.pragma_errors);
            for c in &file.candidates {
                if !file.rules.enables(c.rule) {
                    continue;
                }
                let suppressor = file
                    .scopes
                    .iter()
                    .find(|(line, rs, _)| *line == c.line && rs.contains(&c.rule));
                match suppressor {
                    Some(&(_, _, idx)) => file.pragmas[idx].suppressed += 1,
                    None => violations.push(Violation {
                        rule: c.rule,
                        line: c.line,
                        message: c.message.clone(),
                    }),
                }
            }
            // A pragma that silenced nothing is stale — make it impossible
            // for dead allows to accumulate.
            for p in &file.pragmas {
                if p.suppressed == 0 {
                    violations.push(Violation {
                        rule: RuleId::Pragma,
                        line: p.line,
                        message: "unused pragma: it suppresses nothing on its scope line"
                            .to_string(),
                    });
                }
            }
            violations.sort_by_key(|v| (v.line, v.rule));
            reports.push(FileReport {
                path: file.path,
                violations,
                pragmas: file.pragmas,
            });
        }
        reports
    }
}

// ------------------------------------------------------------ per-file

/// Lint one file's source under a rule set. Cross-file D5/D6 reasoning is
/// restricted to what the single file can prove about itself.
pub fn lint_source(src: &str, rules: RuleSet) -> (Vec<Violation>, Vec<PragmaUse>) {
    let mut a = Analysis::new();
    a.add_source("<memory>.rs", src, rules);
    let mut reports = a.finish();
    let r = reports.pop().unwrap_or_default();
    (r.violations, r.pragmas)
}

/// Lint one file from disk. `rel` is the workspace-relative path used for
/// tier classification and reporting.
pub fn lint_file(root: &Path, rel: &str) -> std::io::Result<Option<FileReport>> {
    let Some(rules) = ruleset_for(rel) else {
        return Ok(None);
    };
    let src = std::fs::read_to_string(root.join(rel))?;
    let mut a = Analysis::new();
    a.add_source(rel, &src, rules);
    Ok(a.finish().pop())
}

/// Collect workspace `.rs` files (sorted, deterministic).
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`: every file feeds one
/// symbol table, so D6 held-sets propagate across crate boundaries.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, root, &mut files)?;
        }
    }
    let mut analysis = Analysis::new();
    let mut files_scanned = 0usize;
    for rel in files {
        let Some(rules) = ruleset_for(&rel) else { continue };
        let src = std::fs::read_to_string(root.join(&rel))?;
        analysis.add_source(&rel, &src, rules);
        files_scanned += 1;
    }
    let mut report = WorkspaceReport { files: Vec::new(), files_scanned };
    for file_report in analysis.finish() {
        if !file_report.violations.is_empty() || !file_report.pragmas.is_empty() {
            report.files.push(file_report);
        }
    }
    Ok(report)
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(src: &str, rules: RuleSet) -> Vec<RuleId> {
        lint_source(src, rules).0.into_iter().map(|v| v.rule).collect()
    }

    /// The SIM tier with the D7 hot-path audit switched on, as
    /// `ruleset_for` produces for [`HOT_PATHS`].
    const HOT: RuleSet = RuleSet { d7: true, ..RuleSet::SIM };

    #[test]
    fn clean_source_is_clean() {
        let src = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n";
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d1_flags_instant_and_threads() {
        assert_eq!(violations("use std::time::Instant;", RuleSet::SIM), [RuleId::D1]);
        assert_eq!(violations("fn f() { let _ = SystemTime::now(); }", RuleSet::SIM), [RuleId::D1]);
        assert_eq!(
            violations("fn f() { std::thread::spawn(|| {}); }", RuleSet::SIM),
            [RuleId::D1]
        );
    }

    #[test]
    fn d1_flags_wall_clock_types_in_signatures() {
        assert_eq!(
            violations("fn f(t: Instant) {}", RuleSet::SIM),
            [RuleId::D1]
        );
        assert_eq!(
            violations("fn now() -> SystemTime { loop {} }", RuleSet::SIM),
            [RuleId::D1]
        );
        assert_eq!(
            violations("struct S { started: Instant }", RuleSet::SIM),
            [RuleId::D1]
        );
    }

    #[test]
    fn d2_flags_hash_collections() {
        assert_eq!(
            violations("use std::collections::HashMap;", RuleSet::SIM),
            [RuleId::D2]
        );
        // …but not in the bench tier.
        assert!(violations("use std::collections::HashMap;", RuleSet::BENCH).is_empty());
    }

    #[test]
    fn d2_flags_types_inside_macro_args() {
        // Macro arguments are opaque to the parser; the fallback token
        // scan must still see them.
        let src = "fn f() { foo!(HashMap::new()); }";
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D2]);
    }

    #[test]
    fn d3_flags_literal_seeds_only() {
        assert_eq!(violations("fn f() { let r = SimRng::new(42); }", RuleSet::SIM), [RuleId::D3]);
        assert!(violations("fn f(s: u64) { let r = SimRng::new(s); }", RuleSet::SIM).is_empty());
        assert!(violations("fn f() { let r = SimRng::new(cfg.seed); }", RuleSet::SIM).is_empty());
        // No D3 inside crates/sim's own rule set.
        assert!(violations("fn f() { let r = SimRng::new(42); }", RuleSet::SIM_RNG_HOME).is_empty());
    }

    #[test]
    fn d4_flags_unsafe() {
        assert_eq!(
            violations("fn f() { unsafe { std::hint::unreachable_unchecked() } }", RuleSet::PLAIN),
            [RuleId::D4]
        );
        assert_eq!(violations("unsafe fn f() {}", RuleSet::PLAIN), [RuleId::D4]);
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                use std::time::Instant;
                fn t() { let _ = std::thread::spawn(|| {}); let _ = SimRng::new(1); }
            }
        "#;
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn cfg_test_fn_with_stacked_attrs_is_exempt() {
        let src = r#"
            #[cfg(test)]
            #[allow(dead_code)]
            fn helper() { let m = HashMap::new(); }
            fn real() { let m = HashMap::new(); }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D2]);
    }

    #[test]
    fn cfg_test_use_statement_is_exempt() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\n";
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn cfg_any_including_test_is_exempt() {
        let src = "#[cfg(any(test, fuzzing))]\nfn f() { let m = HashMap::new(); }\n";
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn non_test_cfg_is_not_exempt() {
        let src = "#[cfg(target_os = \"linux\")]\nfn f() { let m = HashMap::new(); }\n";
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D2]);
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = r###"
            // HashMap Instant unsafe SimRng::new(42)
            /* HashMap /* Instant */ unsafe */
            fn f() { let s = "HashMap Instant unsafe"; let r = r#"HashMap"#; }
        "###;
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    // ------------------------------------------------------------ D5

    #[test]
    fn d5_flags_duplicate_fork_labels() {
        let src = r#"
            fn f(rng: &mut SimRng) {
                let a = rng.fork(7);
                let b = rng.fork(7);
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D5]);
        // Distinct labels are the sanctioned pattern.
        let clean = "fn f(rng: &mut SimRng) { let a = rng.fork(1); let b = rng.fork(2); }";
        assert!(violations(clean, RuleSet::SIM).is_empty());
        // Dynamic labels (loop indices) are fine — hierarchy, not reuse.
        let dynamic = "fn f(rng: &mut SimRng, n: u64) { for i in 0..n { let c = rng.fork(i); } }";
        assert!(violations(dynamic, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d5_flags_screaming_const_label_reuse() {
        let src = r#"
            fn f(rng: &mut SimRng) {
                let a = rng.fork(TOPOLOGY_STREAM);
                let b = rng.fork(TOPOLOGY_STREAM);
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D5]);
    }

    #[test]
    fn d5_flags_fork_after_draw() {
        let src = r#"
            fn f(rng: &mut SimRng) {
                let mut child = rng.fork(1);
                let x = child.below(10);
                let grandchild = child.fork(2);
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D5]);
        // Fork-then-fork (hierarchical fan-out before any draw) is the
        // sanctioned idiom.
        let clean = r#"
            fn f(rng: &mut SimRng) {
                let mut topo = rng.fork(1);
                let a = topo.fork(10);
                let b = topo.fork(11);
            }
        "#;
        assert!(violations(clean, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d5_flags_workload_rng_into_fault_code() {
        let src = r#"
            mod workload {
                fn issue_queries(rng: &mut SimRng) {
                    super::fault::inject(rng);
                }
            }
            mod fault {
                pub fn inject(r: &mut SimRng) {}
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D5]);
        // A fault module using its own forked stream is fine.
        let clean = r#"
            mod workload {
                fn issue_queries(rng: &mut SimRng) { let x = rng.unit(); }
            }
            mod fault {
                pub fn inject(r: &mut SimRng) { let y = r.unit(); }
            }
        "#;
        assert!(violations(clean, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d5_flags_workload_rng_into_backoff() {
        let src = r#"
            mod workload {
                fn drive(policy: &RetryPolicy, rng: &mut SimRng) {
                    let wait = policy.backoff(3, rng);
                }
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D5]);
    }

    // ------------------------------------------------------------ D6

    #[test]
    fn d6_flags_nested_same_lock_acquire() {
        let src = r#"
            struct S { catalog: RwLock<u32> }
            impl S {
                fn f(&self) {
                    let g = self.catalog.write();
                    let h = self.catalog.read();
                }
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D6]);
        // Sequential (non-nested) acquisition is fine: the first guard
        // dies at the end of its statement or on drop().
        let clean = r#"
            struct S { catalog: RwLock<u32> }
            impl S {
                fn f(&self) {
                    let a = self.catalog.write();
                    drop(a);
                    let b = self.catalog.read();
                }
            }
        "#;
        assert!(violations(clean, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d6_flags_lock_order_cycle_across_functions() {
        let src = r#"
            struct S { a: RwLock<u32>, b: RwLock<u32> }
            impl S {
                fn ab(&self) {
                    let g = self.a.write();
                    let h = self.b.read();
                }
                fn ba(&self) {
                    let g = self.b.write();
                    let h = self.a.read();
                }
            }
        "#;
        let v = lint_source(src, RuleSet::SIM).0;
        assert!(v.iter().all(|v| v.rule == RuleId::D6), "{v:?}");
        assert_eq!(v.len(), 2, "both cycle sites report: {v:?}");
        // Consistent ordering has no cycle.
        let clean = r#"
            struct S { a: RwLock<u32>, b: RwLock<u32> }
            impl S {
                fn ab(&self) {
                    let g = self.a.write();
                    let h = self.b.read();
                }
                fn ab2(&self) {
                    let g = self.a.read();
                    let h = self.b.write();
                }
            }
        "#;
        assert!(violations(clean, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d6_propagates_held_sets_through_calls() {
        // `outer` holds `a` while calling `inner`, which acquires `a`
        // again: a self-deadlock only visible through the call graph.
        let src = r#"
            struct S { a: Mutex<u32> }
            impl S {
                fn outer(&self) {
                    let g = self.a.lock();
                    self.inner();
                }
                fn inner(&self) {
                    let h = self.a.lock();
                }
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D6]);
        // Dropping the guard before the call clears it.
        let clean = r#"
            struct S { a: Mutex<u32> }
            impl S {
                fn outer(&self) {
                    let g = self.a.lock();
                    drop(g);
                    self.inner();
                }
                fn inner(&self) {
                    let h = self.a.lock();
                }
            }
        "#;
        assert!(violations(clean, RuleSet::SIM).is_empty());
    }

    // ------------------------------------------------------------ D7

    #[test]
    fn d7_flags_panic_surface_on_hot_paths_only() {
        let src = r#"
            fn f(x: Option<u32>) -> u32 {
                let a = x.unwrap();
                let b = x.expect("present");
                if a > b { panic!("impossible"); }
                a
            }
            fn g(v: &[u32]) -> u32 { v[0] }
        "#;
        let v = lint_source(src, HOT).0;
        assert_eq!(v.iter().map(|v| v.rule).collect::<Vec<_>>(), [RuleId::D7; 4], "{v:?}");
        // The same source is fine off the hot paths…
        assert!(violations(src, RuleSet::SIM).is_empty());
        // …and in test code on them.
        let test_src = "#[cfg(test)]\nmod t { fn f(x: Option<u32>) { x.unwrap(); } }";
        assert!(violations(test_src, HOT).is_empty());
    }

    #[test]
    fn d7_allows_literal_index_into_fixed_size_array_fields() {
        // `[T; N]` fields are bounded by the type (the kernel's
        // `occupied[0]` bitmask idiom); Vec/slice fields still flag.
        let src = r#"
struct W { occupied: [u64; 4], refs: Vec<u32> }
impl W {
    fn f(&self) -> u64 { self.occupied[0] }
    fn g(&self) -> u32 { self.refs[0] }
}
"#;
        let v = lint_source(src, HOT).0;
        assert_eq!(
            v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
            [(RuleId::D7, 5)],
            "{v:?}"
        );
    }

    #[test]
    fn d7_ignores_variable_indexing() {
        // Variable indices are how the kernel's wheel works; only the
        // "assume non-empty" literal-index pattern is flagged.
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        assert!(violations(src, HOT).is_empty());
    }

    // ------------------------------------------------------- pragmas

    #[test]
    fn pragma_suppresses_same_line() {
        let src = "use std::collections::HashMap; // scalewall-lint: allow(D2) -- fixture\n";
        let (v, p) = lint_source(src, RuleSet::SIM);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].suppressed, 1);
        assert_eq!(p[0].reason, "fixture");
    }

    #[test]
    fn pragma_on_own_line_covers_next_code_line() {
        let src = "// scalewall-lint: allow(D1) -- sanctioned probe\n\nuse std::time::Instant;\n";
        let (v, p) = lint_source(src, RuleSet::SIM);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(p[0].suppressed, 1);
    }

    #[test]
    fn pragma_does_not_leak_past_its_scope() {
        let src = "// scalewall-lint: allow(D2) -- first only\nlet a = HashMap::new();\nlet b = HashMap::new();\n";
        let (v, _) = lint_source(src, RuleSet::SIM);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn pragma_wrong_rule_does_not_suppress() {
        let src = "use std::collections::HashMap; // scalewall-lint: allow(D1) -- wrong rule\n";
        let (v, _) = lint_source(src, RuleSet::SIM);
        // The D2 fires AND the pragma is unused.
        assert_eq!(
            v.iter().map(|v| v.rule).collect::<Vec<_>>(),
            [RuleId::D2, RuleId::Pragma]
        );
    }

    #[test]
    fn pragma_deep_in_block_comment_gets_its_own_line() {
        // The pragma sits on physical line 3 of a block comment starting
        // on line 1; it must govern line 4 (the next code line), not line
        // 2. This was a live bug in the v1 comment-line attribution.
        let src = "/* preamble\n   more\n   scalewall-lint: allow(D2) -- block scoped */\nuse std::collections::HashMap;\n";
        let (v, p) = lint_source(src, RuleSet::SIM);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(p[0].line, 3);
        assert_eq!(p[0].suppressed, 1);
    }

    #[test]
    fn malformed_pragma_is_a_violation() {
        for bad in [
            "// scalewall-lint: allow(D9) -- nope",
            "// scalewall-lint: allow(D2)",
            "// scalewall-lint: allow(D2) --   ",
            "// scalewall-lint: allow() -- empty",
            "// scalewall-lint: deny(D2) -- wrong verb",
        ] {
            let (v, _) = lint_source(bad, RuleSet::SIM);
            assert_eq!(v.len(), 1, "{bad}");
            assert_eq!(v[0].rule, RuleId::Pragma, "{bad}");
        }
    }

    #[test]
    fn unused_pragma_is_a_violation() {
        let src = "// scalewall-lint: allow(D2) -- stale\nlet x = 1;\n";
        let (v, _) = lint_source(src, RuleSet::SIM);
        assert_eq!(v.iter().map(|v| v.rule).collect::<Vec<_>>(), [RuleId::Pragma]);
    }

    #[test]
    fn doc_comments_never_carry_pragmas() {
        // Quoting the pragma syntax in documentation must create neither a
        // live suppression nor an unused-pragma violation.
        for src in [
            "//! // scalewall-lint: allow(D2) -- quoted in module docs\nlet x = 1;\n",
            "/// // scalewall-lint: allow(D2) -- quoted in item docs\nuse std::collections::HashMap;\n",
            "/** scalewall-lint: allow(D1) -- quoted in block docs */\nlet x = 1;\n",
        ] {
            let (v, p) = lint_source(src, RuleSet::PLAIN);
            assert!(v.is_empty(), "{src}: {v:?}");
            assert!(p.is_empty(), "{src}: {p:?}");
        }
        // …and a doc-comment "pragma" cannot suppress a real violation.
        let src = "/// scalewall-lint: allow(D2) -- docs only\nuse std::collections::HashMap;\n";
        let (v, _) = lint_source(src, RuleSet::SIM);
        assert_eq!(v.iter().map(|v| v.rule).collect::<Vec<_>>(), [RuleId::D2]);
    }

    #[test]
    fn multi_rule_pragma() {
        let src = "// scalewall-lint: allow(D1, D2) -- both on next line\nuse std::time::Instant; use std::collections::HashMap;\n";
        let (v, p) = lint_source(src, RuleSet::SIM);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(p[0].suppressed, 2);
    }

    #[test]
    fn tiering_matches_layout() {
        assert_eq!(ruleset_for("crates/cubrick/src/store.rs"), Some(RuleSet::SIM));
        assert_eq!(ruleset_for("crates/sim/src/rng.rs"), Some(RuleSet::SIM_RNG_HOME));
        assert_eq!(ruleset_for("crates/sim/src/sync.rs"), Some(RuleSet::SIM_RNG_HOME));
        assert_eq!(ruleset_for("crates/bench/src/microbench.rs"), Some(RuleSet::PLAIN));
        assert_eq!(ruleset_for("crates/bench/src/figures/fig4a.rs"), Some(RuleSet::BENCH));
        assert_eq!(ruleset_for("crates/cubrick/tests/props.rs"), Some(RuleSet::PLAIN));
        assert_eq!(ruleset_for("tests/determinism.rs"), Some(RuleSet::PLAIN));
        assert_eq!(ruleset_for("crates/lint/src/lib.rs"), Some(RuleSet::PLAIN));
        assert_eq!(ruleset_for("crates/lint/fixtures/d1_wall_clock.rs"), None);
        // The D7 hot-path audit rides on top of each file's base tier.
        assert_eq!(
            ruleset_for("crates/sim/src/event.rs"),
            Some(RuleSet { d7: true, ..RuleSet::SIM_RNG_HOME })
        );
        assert_eq!(
            ruleset_for("crates/cluster/src/experiment.rs"),
            Some(RuleSet { d7: true, ..RuleSet::SIM })
        );
        assert_eq!(
            ruleset_for("crates/zk/src/replica.rs"),
            Some(RuleSet { d7: true, ..RuleSet::SIM })
        );
    }
}
