//! A tiny command-line flag parser (no external dependencies).
//!
//! Each subcommand declares its boolean flags and its value-taking flags
//! up front; everything else is a positional argument. Unknown `--flags`
//! and value flags missing their value are reported as errors instead of
//! being silently ignored — the failure mode of the previous hand-rolled
//! `args.iter().position(...)` scanning.

/// Parsed arguments for one subcommand.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    positionals: Vec<String>,
    bools: Vec<String>,
    values: Vec<(String, String)>,
}

impl Flags {
    /// Parses `args` against the declared flags. `bool_flags` are
    /// presence-only (`--json`); `value_flags` consume the next argument
    /// (`--metrics DIR`). Also accepts `--flag=value` for value flags.
    pub fn parse(
        args: &[String],
        bool_flags: &[&str],
        value_flags: &[&str],
    ) -> Result<Flags, String> {
        let mut out = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                out.positionals.push(arg.clone());
                continue;
            }
            if let Some((name, value)) = arg.split_once('=') {
                if value_flags.contains(&name) {
                    out.values.push((name.to_string(), value.to_string()));
                    continue;
                }
                return Err(format!("unknown flag {name}"));
            }
            if bool_flags.contains(&arg.as_str()) {
                out.bools.push(arg.clone());
            } else if value_flags.contains(&arg.as_str()) {
                match it.next() {
                    Some(v) => out.values.push((arg.clone(), v.clone())),
                    None => return Err(format!("flag {arg} expects a value")),
                }
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(out)
    }

    /// Positional (non-flag) arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether a boolean flag was given.
    pub fn is_set(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    /// The value of a value flag, if given (last occurrence wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses a value flag into a number-like type, with a default when
    /// the flag is absent.
    pub fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {name} expects a number, got {v:?}")),
        }
    }

    /// Parses the `--shards N` flag for the serving reactor: a shard
    /// count of at least 1, defaulting to the host's available
    /// parallelism (thread-per-core) when absent. Zero and non-numeric
    /// values are rejected — the shard count is a divisor in the
    /// dataset-affinity rule.
    pub fn shards(&self, default: usize) -> Result<usize, String> {
        let n: usize = self.value_or("--shards", default)?;
        if n == 0 {
            return Err("flag --shards expects a positive shard count".to_string());
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_flags_and_values_parse() {
        let f = Flags::parse(
            &argv(&["scenario.json", "--json", "--metrics", "out", "extra"]),
            &["--json", "--no-churn"],
            &["--metrics"],
        )
        .unwrap();
        assert_eq!(f.positionals(), &["scenario.json", "extra"]);
        assert!(f.is_set("--json"));
        assert!(!f.is_set("--no-churn"));
        assert_eq!(f.value("--metrics"), Some("out"));
    }

    #[test]
    fn equals_syntax_works_for_value_flags() {
        let f = Flags::parse(&argv(&["--metrics=out"]), &[], &["--metrics"]).unwrap();
        assert_eq!(f.value("--metrics"), Some("out"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = Flags::parse(&argv(&["--wat"]), &["--json"], &[]).unwrap_err();
        assert!(err.contains("--wat"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Flags::parse(&argv(&["--metrics"]), &[], &["--metrics"]).unwrap_err();
        assert!(err.contains("--metrics"));
    }

    #[test]
    fn shards_accepts_positive_counts_and_defaults() {
        let f = Flags::parse(&argv(&["--shards", "4"]), &[], &["--shards"]).unwrap();
        assert_eq!(f.shards(1).unwrap(), 4);
        let absent = Flags::parse(&argv(&[]), &[], &["--shards"]).unwrap();
        assert_eq!(absent.shards(2).unwrap(), 2);
    }

    #[test]
    fn shards_rejects_zero_and_non_numeric() {
        let zero = Flags::parse(&argv(&["--shards", "0"]), &[], &["--shards"]).unwrap();
        assert!(zero.shards(1).unwrap_err().contains("positive"));
        let junk = Flags::parse(&argv(&["--shards", "lots"]), &[], &["--shards"]).unwrap();
        assert!(junk.shards(1).unwrap_err().contains("--shards"));
        let negative = Flags::parse(&argv(&["--shards", "-1"]), &[], &["--shards"]).unwrap();
        assert!(negative.shards(1).is_err());
    }

    #[test]
    fn value_or_parses_with_default() {
        let f = Flags::parse(&argv(&["--chunks", "512"]), &[], &["--chunks", "--nodes"]).unwrap();
        assert_eq!(f.value_or("--chunks", 7u64).unwrap(), 512);
        assert_eq!(f.value_or("--nodes", 128u32).unwrap(), 128);
        let bad = Flags::parse(&argv(&["--chunks", "x"]), &[], &["--chunks"]).unwrap();
        assert!(bad.value_or("--chunks", 0u64).is_err());
    }
}
