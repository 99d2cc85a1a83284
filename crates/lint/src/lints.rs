//! The six SSL lints, each encoding one of the repo's design rules.
//!
//! Lints run over the token stream of one file plus a little context:
//! the file's workspace-relative path (lints are scoped to the modules
//! whose contract they guard) and which lines are test code (files
//! under `tests/`, `benches/`, `examples/`, and `#[cfg(test)] mod`
//! regions). Panic-freedom (SSL001) and lock-nesting (SSL006) do not
//! apply to test code — tests may unwrap; determinism and unsafety
//! rules apply everywhere their paths match.

use crate::diag::{Code, Diagnostic};
use crate::lexer::{Token, TokenKind};

/// Per-file input to the lints.
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// The lexed file.
    pub tokens: &'a [Token],
    /// Whole file is test/bench/example code.
    pub is_test_file: bool,
    /// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` regions.
    pub test_regions: Vec<(u32, u32)>,
}

impl FileContext<'_> {
    /// Is `line` inside test code?
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// Computes the `#[cfg(test)] mod` line regions of a token stream.
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // `# [ cfg ( test ) ]` …
        let is_cfg_test = code[i].text == "#"
            && code.get(i + 1).is_some_and(|t| t.text == "[")
            && code.get(i + 2).is_some_and(|t| t.text == "cfg")
            && code.get(i + 3).is_some_and(|t| t.text == "(")
            && code.get(i + 4).is_some_and(|t| t.text == "test")
            && code.get(i + 5).is_some_and(|t| t.text == ")")
            && code.get(i + 6).is_some_and(|t| t.text == "]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect `mod name {` — or an
        // arbitrary `#[cfg(test)]` item (`fn`, `use`, …), whose body we
        // also skip to its matching brace.
        let mut j = i + 7;
        while code.get(j).is_some_and(|t| t.text == "#") {
            let mut depth = 0i32;
            loop {
                match code.get(j) {
                    Some(t) if t.text == "[" => depth += 1,
                    Some(t) if t.text == "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    None => break,
                    _ => {}
                }
                j += 1;
            }
        }
        // Find the item's opening brace (a `;` first means no body).
        let mut open = None;
        let mut k = j;
        while let Some(t) = code.get(k) {
            if t.text == "{" {
                open = Some(k);
                break;
            }
            if t.text == ";" {
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            i = k + 1;
            continue;
        };
        // Brace-match to the region's end.
        let mut depth = 0i32;
        let mut end = open;
        for (off, t) in code[open..].iter().enumerate() {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + off;
                        break;
                    }
                }
                _ => {}
            }
        }
        regions.push((code[i].line, code[end].line));
        i = end + 1;
    }
    regions
}

/// Whether a lint's findings stand in test code.
fn applies_in_tests(code: Code) -> bool {
    match code {
        // Tests may unwrap, hold multiple locks, and keep local
        // statics — their panics and ordering are the harness's
        // problem, not a serving worker's.
        Code::Ssl001 | Code::Ssl004 | Code::Ssl006 => false,
        Code::Ssl000 | Code::Ssl002 | Code::Ssl003 | Code::Ssl005 => true,
    }
}

/// Whether `code` checks files at `path` (workspace-relative).
pub fn in_scope(code: Code, path: &str) -> bool {
    let within = |dir: &str| path.starts_with(dir);
    match code {
        Code::Ssl000 => true,
        // Untrusted-input paths: the serving crate, the shared JSON
        // parser, and the store/graph file open+read paths (header
        // parsers, the tier open path, the paged read path).
        Code::Ssl001 => {
            within("crates/serve/src/")
                || path == "crates/core/src/json.rs"
                || matches!(
                    path,
                    "crates/store/src/file.rs"
                        | "crates/store/src/graph_file.rs"
                        | "crates/store/src/shared.rs"
                        | "crates/store/src/registry.rs"
                        | "crates/store/src/open.rs"
                        | "crates/store/src/paged.rs"
                )
        }
        // Result-producing modules: experiment tables, report cells,
        // cost policies, sample traces, plus the registry (occupancy
        // reports).
        Code::Ssl002 => {
            matches!(
                path,
                "crates/core/src/experiments.rs"
                    | "crates/core/src/report.rs"
                    | "crates/store/src/trace.rs"
                    | "crates/store/src/registry.rs"
            ) || within("crates/core/src/cost/")
        }
        // Modeled-time code: cost policies and the SSD device models.
        Code::Ssl003 => within("crates/core/src/cost/") || within("crates/storage/src/"),
        Code::Ssl004 | Code::Ssl005 => true,
        // Known lock families: serve (batcher queue, engine, stop
        // flags), store (registry per-key locks, scratchpad), hostio
        // (page-cache shards, read engine).
        Code::Ssl006 => {
            within("crates/serve/src/")
                || within("crates/store/src/")
                || within("crates/hostio/src/")
        }
    }
}

/// Runs every scoped lint over one file. Suppressions are NOT applied
/// here — the caller pairs this with [`crate::suppress`].
pub fn check(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (code, f) in LINTS {
        if !in_scope(code, ctx.path) {
            continue;
        }
        let mut found = f(ctx);
        if !applies_in_tests(code) {
            found.retain(|d| !ctx.in_test(d.line));
        }
        diags.append(&mut found);
    }
    diags
}

type LintFn = fn(&FileContext<'_>) -> Vec<Diagnostic>;

const LINTS: [(Code, LintFn); 6] = [
    (Code::Ssl001, ssl001_no_panics),
    (Code::Ssl002, ssl002_no_hash_collections),
    (Code::Ssl003, ssl003_no_wall_clock),
    (Code::Ssl004, ssl004_no_global_state),
    (Code::Ssl005, ssl005_no_unsafe),
    (Code::Ssl006, ssl006_no_nested_locks),
];

fn diag(ctx: &FileContext<'_>, t: &Token, code: Code, message: String, help: &str) -> Diagnostic {
    Diagnostic {
        file: ctx.path.to_string(),
        line: t.line,
        col: t.col,
        code,
        message,
        help: help.to_string(),
    }
}

/// Code tokens only (comments stripped), as (index-into-original,
/// token) pairs are not needed — lints match on adjacency of *code*
/// tokens.
fn code_tokens<'a>(ctx: &'a FileContext<'_>) -> Vec<&'a Token> {
    ctx.tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect()
}

/// SSL001: no `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`,
/// `todo!`, `unimplemented!` in untrusted-input paths.
fn ssl001_no_panics(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let code = code_tokens(ctx);
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.in_attribute {
            continue;
        }
        let prev_is_dot = i > 0 && code[i - 1].text == ".";
        let next_is_paren = code.get(i + 1).is_some_and(|n| n.text == "(");
        let next_is_bang = code.get(i + 1).is_some_and(|n| n.text == "!");
        match t.text.as_str() {
            "unwrap" | "expect" if prev_is_dot && next_is_paren => {
                out.push(diag(
                    ctx,
                    t,
                    Code::Ssl001,
                    format!("`.{}(…)` can panic a worker on untrusted input", t.text),
                    "return a typed error (ServeError / StoreError / JsonError) instead; if the \
                     value is provably present, justify it with `// ssl::allow(SSL001): <proof>`",
                ));
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if next_is_bang => {
                out.push(diag(
                    ctx,
                    t,
                    Code::Ssl001,
                    format!("`{}!` aborts the worker thread", t.text),
                    "untrusted-input paths must degrade to a typed error, never a dead worker",
                ));
            }
            _ => {}
        }
    }
    out
}

/// SSL002: no `HashMap`/`HashSet` in result-producing modules.
fn ssl002_no_hash_collections(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    code_tokens(ctx)
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Ident
                && !t.in_attribute
                && (t.text == "HashMap" || t.text == "HashSet")
        })
        .map(|t| {
            diag(
                ctx,
                t,
                Code::Ssl002,
                format!(
                    "`{}` in a result-producing module: its iteration order is \
                     nondeterministic, which breaks the byte-identical-tables contract",
                    t.text
                ),
                "use BTreeMap/BTreeSet, or a Vec sorted before anything reads it out",
            )
        })
        .collect()
}

/// SSL003: no `Instant::now` / `SystemTime::now` in modeled-time code.
fn ssl003_no_wall_clock(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let code = code_tokens(ctx);
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !matches!(t.text.as_str(), "Instant" | "SystemTime") {
            continue;
        }
        let now_follows = code.get(i + 1).is_some_and(|a| a.text == ":")
            && code.get(i + 2).is_some_and(|a| a.text == ":")
            && code.get(i + 3).is_some_and(|a| a.text == "now");
        if now_follows {
            out.push(diag(
                ctx,
                t,
                Code::Ssl003,
                format!(
                    "`{}::now()` reads the wall clock inside modeled-time code",
                    t.text
                ),
                "modeled time must be a pure function of the SampleTrace and the device \
                 parameters — derive it from the trace cursor, never the host clock",
            ));
        }
    }
    out
}

/// Types whose appearance in a `static` item means shared mutable
/// state (interior mutability or lock-guarded).
const MUTABLE_CELL_TYPES: [&str; 7] = [
    "OnceLock",
    "LazyLock",
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
];

/// SSL004: no new mutable global state — `static mut`,
/// `thread_local!`, or `static X: <interior-mutable type>`. The
/// sanctioned instances (`core::store_metrics`' per-thread scope
/// stack, the global registry and engine) carry line-level allows.
fn ssl004_no_global_state(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let code = code_tokens(ctx);
    let mut out = Vec::new();
    let help = "per-sweep state belongs in SweepScope / per-handle StoreStats (PR 3); if this \
                global is genuinely sanctioned, justify it with `// ssl::allow(SSL004): <why>`";
    // End of the `thread_local!` block being skipped: its inner
    // `static` items are the thread-local state itself, so the block is
    // one finding (and one `ssl::allow`), not one per item.
    let mut skip_until = 0;
    for (i, t) in code.iter().enumerate() {
        if i < skip_until || t.kind != TokenKind::Ident || t.in_attribute {
            continue;
        }
        if t.text == "thread_local" && code.get(i + 1).is_some_and(|n| n.text == "!") {
            out.push(diag(
                ctx,
                t,
                Code::Ssl004,
                "`thread_local!` state survives across sweeps on reused worker threads".into(),
                help,
            ));
            let mut depth = 0i32;
            for (j, inner) in code.iter().enumerate().skip(i + 2) {
                match inner.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    skip_until = j;
                    break;
                }
            }
            continue;
        }
        if t.text != "static" {
            continue;
        }
        // `static` inside a `&'static str` reference or a lifetime
        // (`'static`) is lexed as a Lifetime token, so a bare `static`
        // ident here starts a static item (or `static mut`).
        if code.get(i + 1).is_some_and(|n| n.text == "mut") {
            out.push(diag(
                ctx,
                t,
                Code::Ssl004,
                "`static mut` is unsynchronized mutable global state".into(),
                help,
            ));
            continue;
        }
        // `static NAME : <type> = …;` — scan the type span for
        // interior-mutable wrappers (a plain `static TABLE: [T; N]`
        // is immutable and fine).
        let Some(colon) = code.get(i + 2).filter(|c| c.text == ":") else {
            continue;
        };
        let _ = colon;
        let mut j = i + 3;
        let mut depth = 0i32;
        while let Some(ty) = code.get(j) {
            match ty.text.as_str() {
                "=" | ";" if depth == 0 => break,
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                name if ty.kind == TokenKind::Ident
                    && (MUTABLE_CELL_TYPES.contains(&name) || name.starts_with("Atomic")) =>
                {
                    out.push(diag(
                        ctx,
                        t,
                        Code::Ssl004,
                        format!(
                            "`static {}: …{}…` is mutable global state (never reset \
                             between sweeps)",
                            code[i + 1].text,
                            name
                        ),
                        help,
                    ));
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// SSL005: no `unsafe` anywhere in first-party code.
fn ssl005_no_unsafe(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    code_tokens(ctx)
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && t.text == "unsafe" && !t.in_attribute)
        .map(|t| {
            diag(
                ctx,
                t,
                Code::Ssl005,
                "`unsafe` in a first-party crate".into(),
                "every first-party crate is #![forbid(unsafe_code)]; model the problem \
                 without it",
            )
        })
        .collect()
}

/// Method names that acquire a lock when called with no arguments.
/// `.read()`/`.write()` with arguments are `io::Read`/`io::Write`
/// calls and are skipped; zero-argument forms are `RwLock` methods.
fn is_lock_acquisition(code: &[&Token], i: usize) -> bool {
    let t = code[i];
    if t.kind != TokenKind::Ident || i == 0 || code[i - 1].text != "." {
        return false;
    }
    if !matches!(t.text.as_str(), "lock" | "safe_lock" | "read" | "write") {
        return false;
    }
    code.get(i + 1).is_some_and(|n| n.text == "(") && code.get(i + 2).is_some_and(|n| n.text == ")")
}

/// SSL006: nested lock acquisitions in one function.
///
/// Lexical approximation of "a second lock is taken while the first is
/// held": within one `fn` body, flag an acquisition when (a) another
/// acquisition already happened in the *same statement* (a nested
/// expression always holds the first guard), or (b) a `let`-bound
/// guard from an earlier statement is still in scope (its enclosing
/// block has not closed and it was not explicitly `drop`ped). This is
/// deliberately conservative: a genuinely-ordered multi-lock function
/// must carry an audited `ssl::allow(SSL006)` naming its lock order.
fn ssl006_no_nested_locks(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let code = code_tokens(ctx);
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].kind == TokenKind::Ident && code[i].text == "fn") {
            i += 1;
            continue;
        }
        // Find the body's opening brace; a `;` first means a bodyless
        // trait-method declaration.
        let mut open = None;
        let mut j = i + 1;
        while let Some(t) = code.get(j) {
            match t.text.as_str() {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        // Walk the body.
        struct Guard {
            depth: i32,
            name: Option<String>,
        }
        let mut depth = 0i32;
        let mut guards: Vec<Guard> = Vec::new();
        let mut stmt_acquisitions = 0u32;
        let mut stmt_has_let = false;
        let mut stmt_let_name: Option<String> = None;
        let mut k = open;
        while let Some(t) = code.get(k) {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    stmt_acquisitions = 0;
                    stmt_has_let = false;
                    stmt_let_name = None;
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    stmt_acquisitions = 0;
                    stmt_has_let = false;
                    stmt_let_name = None;
                    if depth == 0 {
                        break;
                    }
                }
                ";" => {
                    stmt_acquisitions = 0;
                    stmt_has_let = false;
                    stmt_let_name = None;
                }
                "let" if t.kind == TokenKind::Ident => {
                    stmt_has_let = true;
                    // `let mut name` / `let name`
                    let mut n = k + 1;
                    if code.get(n).is_some_and(|x| x.text == "mut") {
                        n += 1;
                    }
                    stmt_let_name = code
                        .get(n)
                        .filter(|x| x.kind == TokenKind::Ident)
                        .map(|x| x.text.clone());
                }
                // `drop(name)` releases that guard.
                "drop"
                    if t.kind == TokenKind::Ident
                        && code.get(k + 1).is_some_and(|x| x.text == "(")
                        && code.get(k + 3).is_some_and(|x| x.text == ")") =>
                {
                    if let Some(name) = code.get(k + 2).filter(|x| x.kind == TokenKind::Ident) {
                        guards.retain(|g| g.name.as_deref() != Some(name.text.as_str()));
                    }
                }
                _ if is_lock_acquisition(&code, k) => {
                    if stmt_acquisitions > 0 || !guards.is_empty() {
                        out.push(diag(
                            ctx,
                            t,
                            Code::Ssl006,
                            format!(
                                "`.{}()` acquired while another lock in this function may \
                                 still be held — a deadlock-ordering hazard",
                                t.text
                            ),
                            "release the first guard (scope it in a block or `drop` it) before \
                             taking the second, or audit the ordering and justify it with \
                             `// ssl::allow(SSL006): lock order <A> then <B>, consistent with <where>`",
                        ));
                    }
                    stmt_acquisitions += 1;
                    if stmt_has_let {
                        guards.push(Guard {
                            depth,
                            name: stmt_let_name.clone(),
                        });
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_on(path: &str, src: &str) -> Vec<Diagnostic> {
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        let ctx = FileContext {
            path,
            tokens: &tokens,
            is_test_file: false,
            test_regions: regions,
        };
        check(&ctx)
    }

    #[test]
    fn ssl001_flags_unwrap_only_in_scoped_paths() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(run_on("crates/serve/src/engine.rs", src).len(), 1);
        assert!(run_on("crates/gnn/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn ssl001_skips_cfg_test_modules_and_prose() {
        let src = "\
            //! call .unwrap() freely in docs\n\
            fn ok() -> u8 { 0 }\n\
            #[cfg(test)]\n\
            mod tests {\n\
                #[test]\n\
                fn t() { Some(1).unwrap(); panic!(\"fine in tests\"); }\n\
            }\n";
        assert!(run_on("crates/serve/src/engine.rs", src).is_empty());
    }

    #[test]
    fn ssl002_flags_hash_collections_in_result_modules() {
        let src = "use std::collections::HashMap;\nfn t() -> HashMap<u8, u8> { HashMap::new() }";
        let found = run_on("crates/core/src/report.rs", src);
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|d| d.code == Code::Ssl002));
        assert!(run_on("crates/gnn/src/model.rs", src).is_empty());
    }

    #[test]
    fn ssl003_flags_wall_clock_in_cost_code() {
        let src = "fn t() { let _ = std::time::Instant::now(); }";
        assert_eq!(run_on("crates/core/src/cost/mem.rs", src).len(), 1);
        assert_eq!(run_on("crates/storage/src/ssd.rs", src).len(), 1);
        assert!(run_on("crates/core/src/runner.rs", src).is_empty());
    }

    #[test]
    fn ssl004_flags_global_state_but_not_fields_or_const_tables() {
        assert_eq!(
            run_on("crates/x/src/a.rs", "static mut C: u64 = 0;").len(),
            1
        );
        assert_eq!(
            run_on(
                "crates/x/src/a.rs",
                "static C: AtomicU64 = AtomicU64::new(0);"
            )
            .len(),
            1
        );
        assert_eq!(
            run_on("crates/x/src/a.rs", "thread_local! { static S: u8 = 0; }").len(),
            1
        );
        // A thread_local! block is one finding; statics after it are
        // still checked.
        assert_eq!(
            run_on(
                "crates/x/src/a.rs",
                "thread_local! { static S: RefCell<u8> = RefCell::new(0); }\n\
                 static G: OnceLock<u8> = OnceLock::new();"
            )
            .len(),
            2
        );
        // A struct field of interior-mutable type is not global state.
        assert!(run_on("crates/x/src/a.rs", "struct S { c: OnceLock<u8> }").is_empty());
        // An immutable static table is fine.
        assert!(run_on("crates/x/src/a.rs", "static T: [u8; 2] = [1, 2];").is_empty());
        // No file-level allowlist: store_metrics is covered like any
        // other module (its one thread_local! carries a line allow).
        assert_eq!(
            run_on(
                "crates/core/src/store_metrics.rs",
                "static G: OnceLock<u8> = OnceLock::new();"
            )
            .len(),
            1
        );
    }

    #[test]
    fn ssl005_flags_unsafe_everywhere_even_tests() {
        let src =
            "#[cfg(test)]\nmod tests { fn t() { unsafe { std::hint::unreachable_unchecked() } } }";
        let found = run_on("crates/gnn/src/tensor.rs", src);
        assert_eq!(found.iter().filter(|d| d.code == Code::Ssl005).count(), 1);
    }

    #[test]
    fn ssl006_flags_nested_but_not_sequential_locks() {
        // Nested: a let-bound guard still open when the second lock is
        // taken.
        let nested = "fn f(a: &M, b: &M) { let g = a.lock(); let h = b.lock(); }";
        assert_eq!(run_on("crates/store/src/registry.rs", nested).len(), 1);
        // Same statement counts as nested even without a binding.
        let same_stmt = "fn f(a: &M, b: &M) { a.lock().x(b.lock().y()); }";
        assert_eq!(run_on("crates/store/src/registry.rs", same_stmt).len(), 1);
        // Sequential, scoped like the registry: first guard's block
        // closes before the second lock.
        let scoped =
            "fn f(a: &M, b: &M) { let s = { let g = a.lock(); g.get() }; let h = b.lock(); }";
        assert!(run_on("crates/store/src/registry.rs", scoped).is_empty());
        // Explicit drop releases the guard.
        let dropped = "fn f(a: &M, b: &M) { let g = a.lock(); drop(g); let h = b.lock(); }";
        assert!(run_on("crates/store/src/registry.rs", dropped).is_empty());
        // `.read(buf)` is I/O, not a lock.
        let io = "fn f(a: &M, f: &mut F) { let g = a.lock(); f.read(buf); }";
        assert!(run_on("crates/store/src/registry.rs", io).is_empty());
    }

    #[test]
    fn test_region_detection_spans_the_mod() {
        let tokens = lex("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}");
        let regions = test_regions(&tokens);
        assert_eq!(regions, vec![(2, 5)]);
    }
}
