//! Minimal flag parser (no external dependencies).
//!
//! Supports `--flag value`, `--flag=value`, and boolean `--flag`, plus one
//! leading positional argument (the subcommand). Unknown flags are errors —
//! typos should not silently select defaults.

use std::collections::HashMap;
use std::fmt;
use trex_shapley::ExecConfig;

/// Parsed command line: subcommand plus flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first positional argument.
    pub command: Option<String>,
    flags: HashMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Argument error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse from an iterator of raw arguments (without the program name).
    pub fn parse<I, S>(raw: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(flag) = tok.strip_prefix("--") {
                let (name, value) = match flag.split_once('=') {
                    Some((n, v)) => (n.to_string(), v.to_string()),
                    None => {
                        // Boolean flag unless the next token is a value.
                        match iter.peek() {
                            Some(next) if !next.starts_with("--") => {
                                (flag.to_string(), iter.next().unwrap())
                            }
                            _ => (flag.to_string(), "true".to_string()),
                        }
                    }
                };
                if args.flags.insert(name.clone(), value).is_some() {
                    return Err(ArgError(format!("duplicate flag --{name}")));
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(ArgError(format!("unexpected positional argument {tok:?}")));
            }
        }
        Ok(args)
    }

    /// Fetch an optional flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(name.to_string());
        self.flags.get(name).map(String::as_str)
    }

    /// Fetch a required flag.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError(format!("missing required flag --{name}")))
    }

    /// Fetch a flag parsed as `T`, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Parse the shared execution flags — `--threads`, `--oracle-cap`,
    /// `--oracle-batch`, and `--seed` — into one [`ExecConfig`].
    ///
    /// This is the single validation path for every subcommand that takes
    /// execution knobs: `--threads` absent or `0` resolves to the available
    /// parallelism (absurd counts are rejected with one error message
    /// everywhere), `--oracle-cap` bounds the repair-oracle memo cache (`0`
    /// disables caching), `--oracle-batch` caps how many cache-missing
    /// coalition queries each oracle dispatch carries (must be ≥ 1;
    /// identical output at any cap), and `--seed` feeds the sampling seed.
    /// The knob names, validation rules, and error wording all live in
    /// [`trex_shapley::exec_config_from_knobs`], which the `trex-server`
    /// request parser calls too — a bad `?threads=999999` over HTTP reads
    /// exactly like a bad `--threads 999999` here.
    pub fn exec_config(&self) -> Result<ExecConfig, ArgError> {
        let base = ExecConfig::new().with_threads(trex_shapley::parallel::available_threads());
        trex_shapley::exec_config_from_knobs(base, |name| self.get(name)).map_err(ArgError)
    }

    /// After all flags are read, error on anything the command didn't use.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        for name in self.flags.keys() {
            if !consumed.iter().any(|c| c == name) {
                return Err(ArgError(format!("unknown flag --{name}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_flags() {
        let a = Args::parse([
            "repair",
            "--table",
            "t.csv",
            "--engine=holoclean",
            "--train",
        ])
        .unwrap();
        assert_eq!(a.command.as_deref(), Some("repair"));
        assert_eq!(a.get("table"), Some("t.csv"));
        assert_eq!(a.get("engine"), Some("holoclean"));
        assert!(a.has("train"));
        assert!(a.reject_unknown().is_ok());
    }

    #[test]
    fn missing_required_flag() {
        let a = Args::parse(["explain"]).unwrap();
        assert!(a.require("table").is_err());
    }

    #[test]
    fn parsed_with_default() {
        let a = Args::parse(["x", "--samples", "500"]).unwrap();
        assert_eq!(a.get_parsed("samples", 100usize).unwrap(), 500);
        assert_eq!(a.get_parsed("seed", 7u64).unwrap(), 7);
        let b = Args::parse(["x", "--samples", "abc"]).unwrap();
        assert!(b.get_parsed("samples", 100usize).is_err());
    }

    #[test]
    fn duplicate_and_unknown_flags_rejected() {
        assert!(Args::parse(["x", "--a", "1", "--a", "2"]).is_err());
        let a = Args::parse(["x", "--mystery", "1"]).unwrap();
        assert!(a.reject_unknown().is_err());
    }

    #[test]
    fn extra_positional_rejected() {
        assert!(Args::parse(["x", "y"]).is_err());
    }

    #[test]
    fn exec_config_defaults_resolve_threads_and_leave_the_rest_unset() {
        let a = Args::parse(["explain"]).unwrap();
        let cfg = a.exec_config().unwrap();
        assert!(cfg.threads() >= 1, "absent --threads resolves to ≥ 1");
        assert_eq!(cfg.oracle_cap(), None);
        assert_eq!(cfg.oracle_batch(), None);
        assert_eq!(cfg.seed(), None);
        // Explicit 0 also means "available parallelism".
        let b = Args::parse(["explain", "--threads", "0"]).unwrap();
        assert!(b.exec_config().unwrap().threads() >= 1);
    }

    #[test]
    fn exec_config_parses_every_knob() {
        let a = Args::parse([
            "explain",
            "--threads",
            "4",
            "--oracle-cap",
            "4096",
            "--oracle-batch",
            "64",
            "--seed",
            "7",
        ])
        .unwrap();
        let cfg = a.exec_config().unwrap();
        assert_eq!(cfg.threads(), 4);
        assert_eq!(cfg.oracle_cap(), Some(4096));
        assert_eq!(cfg.oracle_batch(), Some(64));
        assert_eq!(cfg.seed(), Some(7));
        assert!(a.reject_unknown().is_ok());
    }

    #[test]
    fn retired_exec_flags_are_unknown() {
        // Pruning is always on and sampling has one schedule, so neither
        // flag selects anything: both are typos like any other.
        for flag in ["--prune-redundant", "--schedule"] {
            let a = Args::parse(["violations", flag, "steal"]).unwrap();
            assert!(a.exec_config().is_ok(), "{flag}");
            let err = a.reject_unknown().unwrap_err().to_string();
            assert_eq!(err, format!("unknown flag {flag}"));
        }
    }

    #[test]
    fn exec_config_rejects_bad_values_with_one_error_path() {
        // Absurd thread counts keep the offending value and the cap in the
        // message, for every subcommand that shares the helper.
        let a = Args::parse(["violations", "--threads", "999999"]).unwrap();
        let err = a.exec_config().unwrap_err().to_string();
        assert!(err.contains("999999"), "{err}");
        assert!(err.contains("1024"), "{err}");
        for bad in [
            vec!["x", "--threads", "many"],
            vec!["x", "--oracle-cap", "lots"],
            vec!["x", "--oracle-batch", "heaps"],
            vec!["x", "--seed", "entropy"],
        ] {
            let a = Args::parse(bad.clone()).unwrap();
            assert!(a.exec_config().is_err(), "{bad:?}");
        }
        // A zero batch is rejected before it can reach the config's panic.
        let a = Args::parse(["x", "--oracle-batch", "0"]).unwrap();
        let err = a.exec_config().unwrap_err().to_string();
        assert!(err.contains(">= 1"), "{err}");
    }
}
