//! A leveled stderr logger with an env-style `PGRID_LOG` filter.
//!
//! `PGRID_LOG` holds a comma-separated list of directives: a bare level
//! (`error|warn|info|debug|trace`) sets the default, and
//! `target=level` entries override it for any log target starting with
//! that prefix (`PGRID_LOG=warn,cluster=debug`).  Unset, the default is
//! `info` — the level the cluster binary's progress lines log at, so
//! converting its `eprintln!` calls kept their output.
//!
//! Use through the crate-level macros:
//!
//! ```
//! pgrid_obs::info!("cluster::worker", "shard {} wired", 3);
//! pgrid_obs::debug!("scenario::deployment", "minute {} sampled", 12);
//! ```
//!
//! Formatting only happens when the line is enabled.

use std::io::Write as _;
use std::sync::OnceLock;

/// Log severity, most severe first.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A failure the process cannot recover from on its own.
    Error,
    /// Something off-nominal the run survived.
    Warn,
    /// Coarse progress (the default level).
    Info,
    /// Per-phase detail.
    Debug,
    /// Per-message detail.
    Trace,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            "off" | "none" => None,
            _ => Some(Level::Info),
        }
    }
}

/// The parsed `PGRID_LOG` filter.
#[derive(Debug)]
struct Filter {
    /// Default max level; `None` silences everything without an override.
    default: Option<Level>,
    /// `(target_prefix, max_level)` overrides, most specific match wins.
    overrides: Vec<(String, Option<Level>)>,
}

impl Filter {
    fn parse(spec: &str) -> Filter {
        let mut filter = Filter {
            default: Some(Level::Info),
            overrides: Vec::new(),
        };
        for directive in spec.split(',') {
            let directive = directive.trim();
            if directive.is_empty() {
                continue;
            }
            match directive.split_once('=') {
                Some((target, level)) => filter
                    .overrides
                    .push((target.trim().to_string(), Level::parse(level))),
                None => filter.default = Level::parse(directive),
            }
        }
        // Longest prefix first, so the most specific override wins.
        filter
            .overrides
            .sort_by_key(|(t, _)| std::cmp::Reverse(t.len()));
        filter
    }

    fn max_level(&self, target: &str) -> Option<Level> {
        for (prefix, level) in &self.overrides {
            if target.starts_with(prefix.as_str()) {
                return *level;
            }
        }
        self.default
    }
}

fn filter() -> &'static Filter {
    static FILTER: OnceLock<Filter> = OnceLock::new();
    FILTER.get_or_init(|| Filter::parse(&std::env::var("PGRID_LOG").unwrap_or_default()))
}

/// Whether a line at `level` for `target` would be emitted — check before
/// building expensive arguments (the macros do this for you).
pub fn enabled(level: Level, target: &str) -> bool {
    matches!(filter().max_level(target), Some(max) if level <= max)
}

/// Writes one log line to stderr.  Use the crate macros instead of
/// calling this directly.
pub fn write(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    let since_epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    let secs = since_epoch.as_secs();
    let (h, m, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
    let millis = since_epoch.subsec_millis();
    let stderr = std::io::stderr();
    let mut out = stderr.lock();
    let _ = writeln!(
        out,
        "[{h:02}:{m:02}:{s:02}.{millis:03} {:5} {target}] {args}",
        level.as_str()
    );
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error, $target) {
            $crate::log::write($crate::log::Level::Error, $target, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn, $target) {
            $crate::log::write($crate::log::Level::Warn, $target, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info, $target) {
            $crate::log::write($crate::log::Level::Info, $target, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug, $target) {
            $crate::log::write($crate::log::Level::Debug, $target, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Trace, $target) {
            $crate::log::write($crate::log::Level::Trace, $target, ::core::format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parses_default_and_overrides() {
        let f = Filter::parse("warn,cluster=debug,cluster::worker=trace");
        assert_eq!(f.max_level("net::runtime"), Some(Level::Warn));
        assert_eq!(f.max_level("cluster::coordinator"), Some(Level::Debug));
        assert_eq!(f.max_level("cluster::worker"), Some(Level::Trace));
    }

    #[test]
    fn empty_spec_defaults_to_info() {
        let f = Filter::parse("");
        assert_eq!(f.max_level("anything"), Some(Level::Info));
    }

    #[test]
    fn off_silences_a_target() {
        let f = Filter::parse("info,bench=off");
        assert_eq!(f.max_level("bench::queries"), None);
        assert_eq!(f.max_level("net"), Some(Level::Info));
    }

    #[test]
    fn levels_order_most_severe_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Trace);
    }
}
