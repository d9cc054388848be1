//! Minimal flag parser: `--name value` pairs and bare `--switch`es.
//!
//! Hand-rolled rather than pulling a CLI crate: the approved offline
//! dependency set does not include one, and the needs here are tiny.

use std::collections::BTreeMap;

/// Parsed flags: `--key value` pairs (later occurrences win) and boolean
/// switches.
#[derive(Debug, Default, Clone)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Known boolean switches (flags that take no value).
const SWITCHES: &[&str] = &[
    "quiet", "help", "stdin", "simulate", "trace", "timing", "service",
];

impl Flags {
    /// Parse `args` (without the program/command names).
    ///
    /// # Errors
    /// Returns a message for a flag missing its value or a stray
    /// positional argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut f = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}` (flags start with --)"));
            };
            if SWITCHES.contains(&name) {
                f.switches.push(name.to_string());
                i += 1;
                continue;
            }
            let Some(v) = args.get(i + 1) else {
                return Err(format!("--{name} requires a value"));
            };
            f.values.insert(name.to_string(), v.clone());
            i += 2;
        }
        Ok(f)
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Raw string value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    /// Message naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    /// Optional typed flag: `None` when absent.
    ///
    /// # Errors
    /// Message on parse failure.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("--{name}: invalid value `{v}` ({e})"))
            })
            .transpose()
    }

    /// Optional typed flag with a default.
    ///
    /// # Errors
    /// Message on parse failure.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// Names of value-flags that were provided (for unknown-flag checks).
    pub fn provided(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

/// Reject flags outside `allowed` (catches typos early).
///
/// # Errors
/// Message naming the first unknown flag.
pub fn check_allowed(flags: &Flags, allowed: &[&str]) -> Result<(), String> {
    for name in flags.provided() {
        if !allowed.contains(&name) {
            return Err(format!("unknown flag --{name} for this command"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let f = Flags::parse(&argv("--n 100 --ccr 2.5 --quiet")).unwrap();
        assert_eq!(f.get("n"), Some("100"));
        assert_eq!(f.get_or("ccr", 0.0).unwrap(), 2.5);
        assert!(f.has("quiet"));
        assert!(!f.has("help"));
        assert_eq!(f.get_or("missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_value_and_positionals() {
        assert!(Flags::parse(&argv("--n")).is_err());
        assert!(Flags::parse(&argv("oops")).is_err());
    }

    #[test]
    fn require_and_type_errors() {
        let f = Flags::parse(&argv("--n abc")).unwrap();
        assert!(f.require("n").is_ok());
        assert!(f.require("out").is_err());
        assert!(f.get_or::<usize>("n", 1).is_err());
    }

    #[test]
    fn unknown_flag_check() {
        let f = Flags::parse(&argv("--n 5 --bogus 1")).unwrap();
        assert!(check_allowed(&f, &["n"]).is_err());
        assert!(check_allowed(&f, &["n", "bogus"]).is_ok());
    }

    #[test]
    fn later_value_wins() {
        let f = Flags::parse(&argv("--n 1 --n 2")).unwrap();
        assert_eq!(f.get("n"), Some("2"));
    }
}
