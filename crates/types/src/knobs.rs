//! The single choke point for `SNOWPRUNE_*` environment knobs.
//!
//! Every runtime knob the workspace reads from the environment is (a)
//! declared in [`REGISTRY`] and (b) read through one of the typed readers
//! in this module — `cargo xtask lint` enforces both mechanically, and
//! additionally requires every registered knob to appear in the README
//! knob documentation. Centralizing the reads gives all knobs the same
//! failure contract: a malformed value **panics with the variable name and
//! the offending value** (a typo'd CI matrix entry must fail loudly, not
//! silently run defaults), while an *unset* variable returns `None` —
//! absence is the documented "use the default" signal.
//!
//! The `criterion` compat shim keeps its own direct reads of
//! `SNOWPRUNE_BENCH_SAMPLES`/`SNOWPRUNE_BENCH_WARMUP_MS` (it mirrors an
//! external crate and must stay dependency-free); those names are still
//! registered here so the README coverage check applies to them.

/// How a knob's value is parsed, for documentation and error messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnobKind {
    /// A `usize` clamped to `>= 1` (worker counts, depths, batch sizes).
    UsizeMin1,
    /// A `usize` where `0` is meaningful (queue capacities).
    UsizeAny,
    /// A boolean toggle: `1`/`0`, `true`/`false`, `on`/`off`.
    Toggle,
    /// One of a fixed set of case-insensitive choices.
    Choice(&'static [&'static str]),
    /// A filesystem path, taken verbatim.
    Path,
}

/// One registered environment knob.
#[derive(Clone, Copy, Debug)]
pub struct KnobDef {
    /// The environment variable name (`SNOWPRUNE_*`).
    pub name: &'static str,
    /// How the value parses.
    pub kind: KnobKind,
    /// One-line summary of what the knob controls.
    pub summary: &'static str,
}

/// Every `SNOWPRUNE_*` environment knob the workspace reads.
pub const REGISTRY: &[KnobDef] = &[
    KnobDef {
        name: "SNOWPRUNE_SCAN_THREADS",
        kind: KnobKind::UsizeMin1,
        summary: "scan worker threads shared by a pool/session",
    },
    KnobDef {
        name: "SNOWPRUNE_PREFETCH_DEPTH",
        kind: KnobKind::UsizeMin1,
        summary: "partition loads in flight per scan lane",
    },
    KnobDef {
        name: "SNOWPRUNE_BATCH_ROWS",
        kind: KnobKind::UsizeMin1,
        summary: "rows per column-major batch on the vectorized spine",
    },
    KnobDef {
        name: "SNOWPRUNE_TENANT_MAX_CONCURRENT",
        kind: KnobKind::UsizeMin1,
        summary: "per-tenant in-flight query cap under admission control",
    },
    KnobDef {
        name: "SNOWPRUNE_ADMISSION_QUEUE_CAP",
        kind: KnobKind::UsizeAny,
        summary: "per-tenant queued-query cap behind the in-flight window",
    },
    KnobDef {
        name: "SNOWPRUNE_PREDICATE_CACHE",
        kind: KnobKind::Toggle,
        summary: "enable the §8.2 predicate cache",
    },
    KnobDef {
        name: "SNOWPRUNE_PREDICATE_CACHE_MODE",
        kind: KnobKind::Choice(&["exact", "shape"]),
        summary: "predicate-cache fingerprint mode",
    },
    KnobDef {
        name: "SNOWPRUNE_BENCH_DIR",
        kind: KnobKind::Path,
        summary: "directory benchmark snapshots are written to",
    },
    KnobDef {
        name: "SNOWPRUNE_BENCH_SAMPLES",
        kind: KnobKind::UsizeMin1,
        summary: "timed samples per benchmark (criterion shim)",
    },
    KnobDef {
        name: "SNOWPRUNE_BENCH_WARMUP_MS",
        kind: KnobKind::UsizeMin1,
        summary: "warm-up budget per benchmark in ms (criterion shim)",
    },
];

/// Look up a knob's registry entry by name.
pub fn lookup(name: &str) -> Option<&'static KnobDef> {
    REGISTRY.iter().find(|k| k.name == name)
}

/// Raw registered read: `None` when unset.
///
/// # Panics
/// When `name` is not in [`REGISTRY`] — adding a knob without registering
/// it is a programming error the lint also catches statically.
fn read(name: &str) -> Option<String> {
    assert!(
        lookup(name).is_some(),
        "environment knob {name} is not registered in snowprune_types::knobs::REGISTRY"
    );
    std::env::var(name).ok()
}

/// Read a `usize >= 1` knob.
///
/// # Panics
/// On a malformed value (non-integer or `< 1`), with the variable name and
/// the offending value in the message.
pub fn usize_min1(name: &str) -> Option<usize> {
    let raw = read(name)?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => panic!("{name}={raw:?} is not a valid value (expected an integer >= 1)"),
    }
}

/// Read a `usize` knob where `0` is meaningful.
///
/// # Panics
/// On a non-integer value, with the variable name and the offending value.
pub fn usize_any(name: &str) -> Option<usize> {
    let raw = read(name)?;
    match raw.trim().parse::<usize>() {
        Ok(n) => Some(n),
        Err(_) => panic!("{name}={raw:?} is not a valid value (expected a non-negative integer)"),
    }
}

/// Read a boolean toggle knob (`1`/`0`, `true`/`false`, `on`/`off`).
///
/// # Panics
/// On any other spelling, with the variable name and the offending value.
pub fn toggle(name: &str) -> Option<bool> {
    let raw = read(name)?;
    match raw.trim() {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => panic!("{name}={raw:?} is not a valid toggle (expected 1/0, true/false, or on/off)"),
    }
}

/// Read a fixed-choice knob, matching case-insensitively; returns the
/// canonical (registered) spelling.
///
/// # Panics
/// On a value outside `options`, with the variable name, the offending
/// value, and the accepted spellings.
pub fn choice(name: &str, options: &'static [&'static str]) -> Option<&'static str> {
    let raw = read(name)?;
    let lowered = raw.trim().to_ascii_lowercase();
    match options.iter().find(|o| **o == lowered) {
        Some(o) => Some(o),
        None => panic!(
            "{name}={raw:?} is not a valid value (expected one of: {})",
            options.join(", ")
        ),
    }
}

/// Read a path knob verbatim.
pub fn path(name: &str) -> Option<String> {
    read(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    // Test-only serialization of the process-global environment.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    fn env_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn with_var<R>(var: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
        let _guard = env_lock();
        match value {
            Some(v) => std::env::set_var(var, v),
            None => std::env::remove_var(var),
        }
        let out = f();
        std::env::remove_var(var);
        out
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        match std::panic::catch_unwind(f) {
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into()),
            Ok(()) => panic!("expected a panic"),
        }
    }

    #[test]
    fn every_registry_name_is_snowprune_prefixed_and_unique() {
        for def in REGISTRY {
            assert!(def.name.starts_with("SNOWPRUNE_"), "{}", def.name);
            assert!(!def.summary.is_empty(), "{}", def.name);
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn unset_knobs_read_as_none() {
        with_var("SNOWPRUNE_PREFETCH_DEPTH", None, || {
            assert_eq!(usize_min1("SNOWPRUNE_PREFETCH_DEPTH"), None);
        });
        with_var("SNOWPRUNE_PREDICATE_CACHE", None, || {
            assert_eq!(toggle("SNOWPRUNE_PREDICATE_CACHE"), None);
        });
    }

    #[test]
    fn well_formed_values_parse() {
        with_var("SNOWPRUNE_PREFETCH_DEPTH", Some(" 8 "), || {
            assert_eq!(usize_min1("SNOWPRUNE_PREFETCH_DEPTH"), Some(8));
        });
        with_var("SNOWPRUNE_ADMISSION_QUEUE_CAP", Some("0"), || {
            assert_eq!(usize_any("SNOWPRUNE_ADMISSION_QUEUE_CAP"), Some(0));
        });
        with_var("SNOWPRUNE_PREDICATE_CACHE", Some("off"), || {
            assert_eq!(toggle("SNOWPRUNE_PREDICATE_CACHE"), Some(false));
        });
        with_var("SNOWPRUNE_PREDICATE_CACHE_MODE", Some("Shape"), || {
            assert_eq!(
                choice("SNOWPRUNE_PREDICATE_CACHE_MODE", &["exact", "shape"]),
                Some("shape")
            );
        });
        with_var("SNOWPRUNE_BENCH_DIR", Some("/tmp/x"), || {
            assert_eq!(path("SNOWPRUNE_BENCH_DIR").as_deref(), Some("/tmp/x"));
        });
    }

    #[test]
    fn malformed_values_panic_with_name_and_value() {
        with_var("SNOWPRUNE_PREFETCH_DEPTH", Some("abc"), || {
            let m = panic_message(|| {
                usize_min1("SNOWPRUNE_PREFETCH_DEPTH");
            });
            assert!(m.contains("SNOWPRUNE_PREFETCH_DEPTH"), "{m}");
            assert!(m.contains("abc"), "{m}");
        });
        with_var("SNOWPRUNE_SCAN_THREADS", Some("0"), || {
            let m = panic_message(|| {
                usize_min1("SNOWPRUNE_SCAN_THREADS");
            });
            assert!(m.contains("SNOWPRUNE_SCAN_THREADS"), "{m}");
        });
        with_var("SNOWPRUNE_PREDICATE_CACHE", Some("maybe"), || {
            let m = panic_message(|| {
                toggle("SNOWPRUNE_PREDICATE_CACHE");
            });
            assert!(m.contains("SNOWPRUNE_PREDICATE_CACHE"), "{m}");
            assert!(m.contains("maybe"), "{m}");
        });
        with_var("SNOWPRUNE_PREDICATE_CACHE_MODE", Some("fuzzy"), || {
            let m = panic_message(|| {
                choice("SNOWPRUNE_PREDICATE_CACHE_MODE", &["exact", "shape"]);
            });
            assert!(m.contains("fuzzy"), "{m}");
            assert!(m.contains("exact"), "{m}");
        });
    }

    #[test]
    fn unregistered_reads_panic() {
        let m = panic_message(|| {
            usize_min1("SNOWPRUNE_NOT_A_KNOB");
        });
        assert!(m.contains("not registered"), "{m}");
    }
}
