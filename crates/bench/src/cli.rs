//! Minimal argument parsing shared by the experiment binaries. Every flag
//! must be declared: a misspelled flag or a malformed value is an error,
//! never a silent default.

/// Common experiment options parsed from `std::env::args`, plus the
/// binary's own declared flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Use the reduced-accuracy fast dataset (separate cache file).
    pub fast: bool,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Trajectories per strategy for batch experiments.
    pub trajectories: usize,
    /// Base random seed.
    pub seed: u64,
    /// The binary's own flags that were passed, in order, each with its
    /// value (`None` for a switch). Private: `parse_from` admits declared
    /// flags only, and has checked every `N` value.
    extra: Vec<(String, Option<String>)>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            fast: false,
            threads: 0,
            trajectories: 5,
            seed: 2018,
            extra: Vec::new(),
        }
    }
}

impl Args {
    /// Parse from an iterator of argument strings (excluding `argv[0]`).
    ///
    /// `extra` declares the binary's own flags: a bare name is a switch
    /// (`"--weighted"`), a name and a metavar take a value (`"--out FILE"`),
    /// and the metavar `N` requires an unsigned integer. An undeclared flag,
    /// a missing value or a malformed number is an error.
    fn parse_from<I: IntoIterator<Item = String>>(args: I, extra: &[&str]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--fast" => out.fast = true,
                "--threads" => {
                    out.threads = Self::value(&mut it, "--threads")?;
                }
                "--trajectories" => {
                    out.trajectories = Self::value(&mut it, "--trajectories")?;
                }
                "--seed" => {
                    out.seed = Self::value(&mut it, "--seed")?;
                }
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

    /// Parse the process arguments against the declared `extra` flags (see
    /// `Args::parse_from`), exiting with status 2 and the usage line on
    /// error.
    pub fn parse(extra: &[&str]) -> Args {
        match Self::parse_from(std::env::args().skip(1), extra) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("usage: {}", usage(extra));
                std::process::exit(2);
            }
        }
    }

    /// True when the given declared switch was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.extra.iter().any(|(f, _)| f == flag)
    }

    /// The value of the last occurrence of the declared valued flag `flag`.
    pub fn flag_value(&self, flag: &str) -> Option<&str> {
        self.extra
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of the declared `N` flag `flag`; `parse_from` has already
    /// checked it is an unsigned integer.
    pub fn count(&self, flag: &str) -> Option<usize> {
        self.flag_value(flag).and_then(|v| v.parse().ok())
    }

    fn value<T: std::str::FromStr>(
        it: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let v = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: invalid value {v:?}"))
    }
}

/// The usage line: the common flags, then the declared ones.
fn usage(extra: &[&str]) -> String {
    let mut line = String::from("[--fast] [--threads N] [--trajectories N] [--seed N]");
    for spec in extra {
        line.push_str(&format!(" [{spec}]"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], extra: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|s| s.to_string()), extra)
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
            ],
            &[],
        )
        .unwrap();
        assert!(a.fast);
        assert_eq!(a.threads, 8);
        assert_eq!(a.trajectories, 12);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn undeclared_flags_are_rejected() {
        // Misspellings of common flags must not fall back to defaults.
        for typo in ["--trajetories", "--fats", "--nope", "20"] {
            let err = parse(&[typo], &["--weighted"]).unwrap_err();
            assert!(err.contains(typo), "{err}");
        }
        // A flag is accepted only by the binaries that declare it.
        assert!(parse(&["--weighted"], &["--paper-lmem"]).is_err());
        let a = parse(&["--weighted", "--fast"], &["--weighted"]).unwrap();
        assert!(a.has_flag("--weighted"));
        assert!(!a.has_flag("--paper-lmem"));
        assert!(a.fast);
    }

    #[test]
    fn declared_values_are_checked_and_the_last_one_wins() {
        let extra = ["--out FILE", "--unique N", "--small-grid"];
        let a = parse(
            &["--unique", "3", "--out", "a.csv", "--unique", "4"],
            &extra,
        )
        .unwrap();
        assert_eq!(a.flag_value("--out"), Some("a.csv"));
        assert_eq!(a.count("--unique"), Some(4));
        assert_eq!(a.count("--repeats"), None);
        assert!(!a.has_flag("--small-grid"));
        assert!(parse(&["--unique", "many"], &extra).is_err());
        assert!(parse(&["--unique", "-1"], &extra).is_err());
        assert!(parse(&["--out"], &extra).is_err());
    }

    #[test]
    fn missing_or_bad_values_error() {
        assert!(parse(&["--threads"], &[]).is_err());
        assert!(parse(&["--seed", "abc"], &[]).is_err());
    }

    #[test]
    fn usage_lists_the_declared_flags() {
        assert_eq!(
            usage(&["--out FILE", "--smoke"]),
            "[--fast] [--threads N] [--trajectories N] [--seed N] [--out FILE] [--smoke]"
        );
    }
}
