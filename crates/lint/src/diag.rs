//! Diagnostic codes and rendering.
//!
//! Every finding is a [`Diagnostic`] with a stable `SSL00N` code,
//! rendered `file:line:col  SSL00N  message` plus an indented `help:`
//! line so editors and CI logs stay greppable.

use std::fmt;

/// Stable lint codes. `Ssl000` is reserved for misuse of the
//  suppression mechanism itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Broken `ssl::allow` suppression (missing justification, unknown
    /// code, or suppressing nothing).
    Ssl000,
    /// `unwrap`/`expect`/`panic!` family in an untrusted-input path.
    Ssl001,
    /// `HashMap`/`HashSet` in a result-producing module.
    Ssl002,
    /// Wall-clock time (`Instant::now`/`SystemTime::now`) in modeled-
    /// time code.
    Ssl003,
    /// New mutable global state.
    Ssl004,
    /// `unsafe` in a first-party crate.
    Ssl005,
    /// Nested lock acquisitions in one function.
    Ssl006,
}

impl Code {
    /// All codes a suppression may name.
    pub const ALL: [Code; 7] = [
        Code::Ssl000,
        Code::Ssl001,
        Code::Ssl002,
        Code::Ssl003,
        Code::Ssl004,
        Code::Ssl005,
        Code::Ssl006,
    ];

    /// The `SSL00N` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Ssl000 => "SSL000",
            Code::Ssl001 => "SSL001",
            Code::Ssl002 => "SSL002",
            Code::Ssl003 => "SSL003",
            Code::Ssl004 => "SSL004",
            Code::Ssl005 => "SSL005",
            Code::Ssl006 => "SSL006",
        }
    }

    /// Parses `SSL00N` (exact, case-sensitive — suppressions are part
    /// of the audited surface and must be spelled out).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// One-line description of the rule the code enforces.
    pub fn summary(self) -> &'static str {
        match self {
            Code::Ssl000 => "ssl::allow suppressions must carry a justification and suppress something",
            Code::Ssl001 => "no unwrap/expect/panic! in untrusted-input paths (serve, core::json, store file open+read)",
            Code::Ssl002 => "no HashMap/HashSet in result-producing modules (iteration order breaks byte-identical tables)",
            Code::Ssl003 => "no Instant::now/SystemTime::now in cost policies or device models (modeled time derives from the trace)",
            Code::Ssl004 => "no mutable global state (sanctioned instances carry a line-level allow)",
            Code::Ssl005 => "no unsafe in first-party crates",
            Code::Ssl006 => "no nested lock acquisitions in one function (deadlock-ordering hazard; audited allows only)",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, pointing at a token.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path (unix separators).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The violated rule.
    pub code: Code,
    /// What is wrong, concretely.
    pub message: String,
    /// How to fix it (or how to suppress it with an audited allow).
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}  {}  {}\n    help: {}",
            self.file, self.line, self.col, self.code, self.message, self.help
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_through_parse() {
        for code in Code::ALL {
            assert_eq!(Code::parse(code.as_str()), Some(code));
        }
        assert_eq!(Code::parse("SSL999"), None);
        assert_eq!(Code::parse("ssl001"), None);
    }

    #[test]
    fn rendering_is_greppable() {
        let d = Diagnostic {
            file: "crates/serve/src/engine.rs".into(),
            line: 42,
            col: 7,
            code: Code::Ssl001,
            message: "`.unwrap()` can panic".into(),
            help: "return a typed error".into(),
        };
        let text = d.to_string();
        assert!(text.starts_with("crates/serve/src/engine.rs:42:7  SSL001  "));
        assert!(text.contains("help: return a typed error"));
    }
}
