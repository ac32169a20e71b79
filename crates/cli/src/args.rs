//! Tiny dependency-free argument parsing for the `adalsh` CLI.
//!
//! Grammar: `adalsh <command> [positional…] [--flag value…]`. Flags are
//! always `--name value` pairs except the subcommand's boolean switches.
//! Each subcommand declares the options it reads in a [`Spec`]; any
//! other `--name` is a parse error, so a misspelt or removed flag never
//! silently runs the defaults.

use std::collections::BTreeMap;

/// The options one subcommand reads: `--name value` flags, in groups so
/// subcommands can share one (the oracle flags, say), and boolean
/// `--name` switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Value-taking flag names, by group.
    pub flags: &'static [&'static [&'static str]],
    /// Boolean switch names.
    pub switches: &'static [&'static str],
}

impl Spec {
    fn takes_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|group| group.contains(&name))
    }
}

/// Parsed command line: a command, positionals, and `--flag value` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    spec: Spec,
}

impl Args {
    /// Parses raw arguments (excluding the program name) against the
    /// subcommand's `spec`.
    ///
    /// # Errors
    /// Fails on an empty argument list, a `--name` the spec does not
    /// list, or a flag without a value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I, spec: Spec) -> Result<Self, String> {
        let mut iter = raw.into_iter();
        let command = iter.next().ok_or("missing command")?;
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if spec.switches.contains(&name) {
                    switches.push(name.to_string());
                } else if spec.takes_flag(name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                } else {
                    return Err(format!("unknown flag --{name} for '{command}'"));
                }
            } else {
                positional.push(arg);
            }
        }
        Ok(Self {
            command,
            positional,
            flags,
            switches,
            spec,
        })
    }

    /// The value of `--name`, if given.
    pub fn flag(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.spec.takes_flag(name),
            "'{}' reads --{name}, which its Spec does not list",
            self.command
        );
        self.flags.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as `T`, or `default`.
    ///
    /// # Errors
    /// Fails if the value is present but does not parse.
    pub fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name} {v}: {e}")),
        }
    }

    /// Is the boolean switch `--name` present?
    pub fn switch(&self, name: &str) -> bool {
        debug_assert!(
            self.spec.switches.contains(&name),
            "'{}' reads --{name}, which its Spec does not list",
            self.command
        );
        self.switches.iter().any(|s| s == name)
    }

    /// The `i`-th positional argument.
    ///
    /// # Errors
    /// Fails with `what` in the message if absent.
    pub fn positional(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        flags: &[&["k", "method"]],
        switches: &["verbose"],
    };

    fn parse(parts: &[&str]) -> Result<Args, String> {
        Args::parse(parts.iter().map(|s| s.to_string()), SPEC)
    }

    #[test]
    fn parses_command_positionals_flags() {
        let a = parse(&["filter", "data.jsonl", "--k", "5", "--method", "adalsh"]).unwrap();
        assert_eq!(a.command, "filter");
        assert_eq!(a.positional, vec!["data.jsonl"]);
        assert_eq!(a.flag("k"), Some("5"));
        assert_eq!(a.flag("method"), Some("adalsh"));
        let b = parse(&["filter", "data.jsonl"]).unwrap();
        assert_eq!(b.flag("k"), None);
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&["info", "--verbose", "d.jsonl"]).unwrap();
        assert!(a.switch("verbose"));
        assert_eq!(a.positional, vec!["d.jsonl"]);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["filter", "--k"]).is_err());
    }

    #[test]
    fn empty_args_is_error() {
        assert!(Args::parse(std::iter::empty(), SPEC).is_err());
    }

    #[test]
    fn unlisted_flag_is_error_naming_flag_and_command() {
        let err = parse(&["filter", "d.jsonl", "--thread", "1"]).unwrap_err();
        assert!(err.contains("--thread"), "{err}");
        assert!(err.contains("'filter'"), "{err}");
    }

    #[test]
    fn flag_or_parses_and_defaults() {
        let a = parse(&["x", "--k", "7"]).unwrap();
        assert_eq!(a.flag_or("k", 1usize).unwrap(), 7);
        assert_eq!(a.flag_or("method", 3usize).unwrap(), 3);
        let bad = parse(&["x", "--k", "seven"]).unwrap();
        assert!(bad.flag_or("k", 1usize).is_err());
    }

    #[test]
    fn positional_error_names_the_slot() {
        let a = parse(&["filter"]).unwrap();
        let err = a.positional(0, "dataset path").unwrap_err();
        assert!(err.contains("dataset path"));
    }
}
