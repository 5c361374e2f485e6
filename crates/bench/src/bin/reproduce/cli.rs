//! The argument parser every experiment shares. Every flag must be
//! declared: a misspelled flag or a malformed value is an error, never a
//! silent default.

use std::path::PathBuf;
use std::slice::Iter;

/// Common experiment options, plus the experiment's own declared flags.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Args {
    /// Use the reduced-accuracy fast dataset (separate cache file).
    pub(crate) fast: bool,
    /// Worker threads (0 = all cores).
    pub(crate) threads: usize,
    /// Trajectories per strategy for batch experiments.
    pub(crate) trajectories: usize,
    /// Base random seed.
    pub(crate) seed: u64,
    /// Directory for the record and the experiment's artifacts.
    pub(crate) out: Option<PathBuf>,
    /// The experiment's own flags that were passed, in order, each with
    /// its value (`None` for a switch). Private: `parse_from` admits
    /// declared flags only, and has checked every `N` value.
    extra: Vec<(String, Option<String>)>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            fast: false,
            threads: 0,
            trajectories: 5,
            seed: 2018,
            out: None,
            extra: Vec::new(),
        }
    }
}

/// The usage of the common flags.
pub(crate) const COMMON: &str = "[--fast] [--threads N] [--trajectories N] [--seed N] [--out DIR]";

impl Args {
    /// Parse argument strings (the experiment name excluded).
    ///
    /// `extra` declares the experiment's own flags: a bare name is a switch
    /// (`"--weighted"`), a name and a metavar take a value (`"--csv FILE"`),
    /// and the metavar `N` requires an unsigned integer. An undeclared flag,
    /// a missing value or a malformed number is an error.
    pub(crate) fn parse_from(args: &[String], extra: &[&str]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--fast" => out.fast = true,
                "--threads" => out.threads = Self::value(&mut it, arg)?,
                "--trajectories" => out.trajectories = Self::value(&mut it, arg)?,
                "--seed" => out.seed = Self::value(&mut it, arg)?,
                "--out" => out.out = Some(Self::value(&mut it, arg)?),
                flag => {
                    let Some(spec) = extra
                        .iter()
                        .find(|spec| spec.split(' ').next() == Some(flag))
                    else {
                        return Err(format!("unknown flag {flag:?}"));
                    };
                    let value = match spec.split_once(' ') {
                        None => None,
                        Some((_, "N")) => Some(Self::value::<usize>(&mut it, flag)?.to_string()),
                        Some(_) => Some(Self::value::<String>(&mut it, flag)?),
                    };
                    out.extra.push((flag.to_string(), value));
                }
            }
        }
        Ok(out)
    }

    /// True when the given declared switch was passed.
    pub(crate) fn has_flag(&self, flag: &str) -> bool {
        self.extra.iter().any(|(f, _)| f == flag)
    }

    /// The value of the last occurrence of the declared valued flag `flag`.
    pub(crate) fn flag_value(&self, flag: &str) -> Option<&str> {
        self.extra
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of the declared `N` flag `flag`; `parse_from` has already
    /// checked it is an unsigned integer.
    pub(crate) fn count(&self, flag: &str) -> Option<usize> {
        self.flag_value(flag).and_then(|v| v.parse().ok())
    }

    fn value<T: std::str::FromStr>(it: &mut Iter<'_, String>, flag: &str) -> Result<T, String> {
        let v = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: invalid value {v:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], extra: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse_from(&args, extra)
    }

    #[test]
    fn defaults_without_flags() {
        let a = parse(&[], &[]).unwrap();
        assert_eq!(a, Args::default());
    }

    #[test]
    fn parses_all_common_flags() {
        let a = parse(
            &[
                "--fast",
                "--threads",
                "8",
                "--trajectories",
                "12",
                "--seed",
                "7",
                "--out",
                "records",
            ],
            &[],
        )
        .unwrap();
        assert!(a.fast);
        assert_eq!(a.threads, 8);
        assert_eq!(a.trajectories, 12);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, Some(PathBuf::from("records")));
    }

    #[test]
    fn undeclared_flags_are_rejected() {
        // Misspellings of common flags must not fall back to defaults.
        for typo in ["--trajetories", "--fats", "--nope", "20"] {
            let err = parse(&[typo], &["--weighted"]).unwrap_err();
            assert!(err.contains(typo), "{err}");
        }
        // A flag is accepted only by the experiments that declare it.
        assert!(parse(&["--weighted"], &["--paper-lmem"]).is_err());
        let a = parse(&["--weighted", "--fast"], &["--weighted"]).unwrap();
        assert!(a.has_flag("--weighted"));
        assert!(!a.has_flag("--paper-lmem"));
        assert!(a.fast);
    }

    #[test]
    fn declared_values_are_checked_and_the_last_one_wins() {
        let extra = ["--csv FILE", "--unique N", "--small-grid"];
        let a = parse(
            &["--unique", "3", "--csv", "a.csv", "--unique", "4"],
            &extra,
        )
        .unwrap();
        assert_eq!(a.flag_value("--csv"), Some("a.csv"));
        assert_eq!(a.count("--unique"), Some(4));
        assert_eq!(a.count("--repeats"), None);
        assert!(!a.has_flag("--small-grid"));
        assert!(parse(&["--unique", "many"], &extra).is_err());
        assert!(parse(&["--unique", "-1"], &extra).is_err());
        assert!(parse(&["--csv"], &extra).is_err());
    }

    #[test]
    fn missing_or_bad_values_error() {
        assert!(parse(&["--threads"], &[]).is_err());
        assert!(parse(&["--seed", "abc"], &[]).is_err());
        assert!(parse(&["--out"], &[]).is_err());
    }
}
