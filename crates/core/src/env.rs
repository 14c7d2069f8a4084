//! Shared warn-once environment-knob parsing.
//!
//! Every `IPT_*` knob follows the same contract: an unset variable means
//! "use the default", a parseable value is honored, and garbage is
//! *reported* on stderr exactly once and then ignored — never silently
//! swallowed (a knob the user set deserves a diagnostic) and never fatal
//! (an env typo must not abort a long batch job). [`parse_once`]
//! centralizes that contract so `IPT_THREADS`, `IPT_FAULT`, `IPT_CHECK`,
//! `IPT_RETRY` and `IPT_WATCHDOG_MS` cannot drift apart again
//! (`IPT_FAULT` had already drifted: it rejected the case/whitespace
//! variants the other knobs accept). The library reads these knobs and
//! nothing else; per-call choices such as the row-shuffle kernel and the
//! column-group width come from the call's shape and element type alone.
//!
//! Parsers receive the raw value and are expected to `trim()` (and
//! case-fold where the domain is symbolic) so shell-quoted exports like
//! `" Panic:0.5 "` behave identically to `panic:0.5`. Error strings should name
//! the variable and quote the raw value — they surface verbatim as
//! `ipt: ignoring {err}`.

use std::sync::OnceLock;

/// Read and parse the environment variable `var` exactly once, caching
/// the outcome in `cache`.
///
/// * unset variable → `None`, silently;
/// * `parse(raw)` succeeds → `Some(value)`;
/// * `parse(raw)` fails → `None`, with `ipt: ignoring {err}` printed to
///   stderr exactly once per process (the `OnceLock` guarantees it).
///
/// ```
/// use std::sync::OnceLock;
/// use ipt_core::env::{parse_once, parse_positive};
///
/// static GRAIN: OnceLock<Option<usize>> = OnceLock::new();
/// let grain = parse_once(&GRAIN, "IPT_DOCTEST_UNSET", |raw| {
///     parse_positive("IPT_DOCTEST_UNSET", raw)
/// });
/// assert_eq!(grain, None);
/// ```
pub fn parse_once<T: Clone>(
    cache: &OnceLock<Option<T>>,
    var: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    cache
        .get_or_init(|| match std::env::var(var) {
            Ok(raw) => match parse(&raw) {
                Ok(v) => Some(v),
                Err(e) => {
                    eprintln!("ipt: ignoring {e}");
                    None
                }
            },
            Err(_) => None,
        })
        .clone()
}

/// Parse a positive-integer knob value (`IPT_THREADS`,
/// `IPT_WATCHDOG_MS`): whitespace-trimmed; zero and garbage are
/// explicit errors naming `var` and quoting the offending value.
pub fn parse_positive(var: &str, raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "{var} {raw:?} is zero (expected a positive integer)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{var} {raw:?} is not a positive integer")),
    }
}

/// Parse a non-negative-integer knob value (`IPT_RETRY`): like
/// [`parse_positive`] but zero is a legal, meaningful setting — it is how
/// a user explicitly switches the feature off.
pub fn parse_non_negative(var: &str, raw: &str) -> Result<usize, String> {
    raw.trim()
        .parse::<usize>()
        .map_err(|_| format!("{var} {raw:?} is not a non-negative integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_parser_trims_and_rejects_zero_and_garbage() {
        assert_eq!(parse_positive("IPT_X", "4"), Ok(4));
        assert_eq!(parse_positive("IPT_X", " 8 "), Ok(8));
        assert_eq!(parse_positive("IPT_X", "\t2\n"), Ok(2));
        for bad in ["0", " 0 ", "", "many", "-1", "1.5", "4x"] {
            let err = parse_positive("IPT_X", bad).unwrap_err();
            assert!(err.contains("IPT_X"), "{bad:?}: {err}");
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn non_negative_parser_accepts_zero_and_rejects_garbage() {
        assert_eq!(parse_non_negative("IPT_X", "0"), Ok(0));
        assert_eq!(parse_non_negative("IPT_X", " 3 "), Ok(3));
        for bad in ["", "many", "-1", "1.5", "4x"] {
            let err = parse_non_negative("IPT_X", bad).unwrap_err();
            assert!(err.contains("IPT_X"), "{bad:?}: {err}");
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn unset_variable_is_silently_none() {
        static CACHE: OnceLock<Option<usize>> = OnceLock::new();
        let got = parse_once(&CACHE, "IPT_ENV_TEST_NEVER_SET", |raw| {
            parse_positive("IPT_ENV_TEST_NEVER_SET", raw)
        });
        assert_eq!(got, None);
    }

    #[test]
    fn parse_runs_once_and_result_is_cached() {
        // The parser must not run again once the cache is populated, even
        // if a later call would parse differently.
        static CACHE: OnceLock<Option<usize>> = OnceLock::new();
        let mut calls = 0;
        std::env::set_var("IPT_ENV_TEST_CACHED", "7");
        let first = parse_once(&CACHE, "IPT_ENV_TEST_CACHED", |raw| {
            calls += 1;
            parse_positive("IPT_ENV_TEST_CACHED", raw)
        });
        let second = parse_once(&CACHE, "IPT_ENV_TEST_CACHED", |raw| {
            calls += 1;
            parse_positive("IPT_ENV_TEST_CACHED", raw)
        });
        std::env::remove_var("IPT_ENV_TEST_CACHED");
        assert_eq!((first, second), (Some(7), Some(7)));
        assert_eq!(calls, 1, "parser runs exactly once");
    }

    /// The library crates read the environment here and nowhere else, so
    /// every knob follows the contract above. Unit-test modules, where a
    /// test sets or inspects a knob, are exempt.
    #[test]
    fn library_crates_read_the_environment_only_here() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut offenders = Vec::new();
        let mut scanned = 0;
        for krate in ["core", "pool", "parallel", "aos-soa"] {
            let mut dirs = vec![crates.join(krate).join("src")];
            while let Some(dir) = dirs.pop() {
                for entry in std::fs::read_dir(&dir).expect("a source directory") {
                    let path = entry.expect("a directory entry").path();
                    if path.is_dir() {
                        dirs.push(path);
                        continue;
                    }
                    if path.extension().is_none_or(|e| e != "rs")
                        || path.ends_with("core/src/env.rs")
                    {
                        continue;
                    }
                    scanned += 1;
                    let text = std::fs::read_to_string(&path).expect("a source file");
                    let lines: Vec<&str> = text.lines().collect();
                    // Cut at the unit-test module, as scripts/loc.sh does.
                    let end = lines
                        .windows(2)
                        .position(|w| {
                            w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod tests")
                        })
                        .unwrap_or(lines.len());
                    for (i, line) in lines[..end].iter().enumerate() {
                        let code = line.trim_start();
                        if !code.starts_with("//") && code.contains("env::var") {
                            offenders.push(format!("{}:{}: {code}", path.display(), i + 1));
                        }
                    }
                }
            }
        }
        assert!(
            scanned > 20,
            "scanned only {scanned} files under {}",
            crates.display()
        );
        assert!(offenders.is_empty(), "{offenders:#?}");
    }

    #[test]
    fn bad_value_falls_back_to_none() {
        static CACHE: OnceLock<Option<usize>> = OnceLock::new();
        std::env::set_var("IPT_ENV_TEST_BAD", "nope");
        let got = parse_once(&CACHE, "IPT_ENV_TEST_BAD", |raw| {
            parse_positive("IPT_ENV_TEST_BAD", raw)
        });
        std::env::remove_var("IPT_ENV_TEST_BAD");
        assert_eq!(got, None);
    }
}
