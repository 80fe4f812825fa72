//! Readings: every counter, gauge and histogram a server exposes,
//! declared once as a row of a static table and rendered from it into
//! `stats`, `health`, a dump and the `metrics` exposition, where names
//! derive as `<prefix>_<key>`, plus `_total` for monotonic counts
//! (docs/OBSERVABILITY.md, "Readings").

use std::sync::atomic::{AtomicU64, Ordering};

use capsule_core::output::Json;
use capsule_core::stats::Histogram;
use capsule_core::MetricsRegistry;

/// How a reading is read off its owner, which also fixes its kind.
enum Read<T> {
    /// A monotonic count: `<key>_total` in `metrics`.
    Total(fn(&T) -> u64),
    /// A level that moves both ways (a gauge).
    Level(fn(&T) -> u64),
    /// A yes/no level: a JSON bool, 0 or 1 in `metrics`.
    Flag(fn(&T) -> bool),
    /// A latency histogram: an object in `stats`, the
    /// `_bucket`/`_count`/`_sum` family in `metrics`.
    Histogram(fn(&T) -> Histogram),
}

/// Which part of a rendering a reading belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Scalars at the top level of `stats`, `health` and a dump's `gauges`.
    Gauges,
    /// The `counters` object of `stats` and of a dump.
    Counters,
    /// Histograms, in `stats` after `counters`.
    Histograms,
}

/// One row of a readings table: the key in every JSON rendering and the
/// stem of its metric name, how it is read, where it renders, and
/// whether `metrics` carries it — not when a scrape itself moves it (a
/// scrape is a connection and a request), so that back-to-back scrapes
/// stay byte-identical.
pub struct Reading<T> {
    key: &'static str,
    read: Read<T>,
    part: Part,
    scraped: bool,
}

impl<T> Reading<T> {
    /// A monotonic count in the `counters` object.
    pub const fn counter(key: &'static str, read: fn(&T) -> u64) -> Self {
        Reading { key, read: Read::Total(read), part: Part::Counters, scraped: true }
    }

    /// A monotonic count shown at the top level.
    pub const fn total(key: &'static str, read: fn(&T) -> u64) -> Self {
        Reading { key, read: Read::Total(read), part: Part::Gauges, scraped: true }
    }

    /// A gauge.
    pub const fn gauge(key: &'static str, read: fn(&T) -> u64) -> Self {
        Reading { key, read: Read::Level(read), part: Part::Gauges, scraped: true }
    }

    /// A yes/no gauge.
    pub const fn flag(key: &'static str, read: fn(&T) -> bool) -> Self {
        Reading { key, read: Read::Flag(read), part: Part::Gauges, scraped: true }
    }

    /// A latency histogram.
    pub const fn histogram(key: &'static str, read: fn(&T) -> Histogram) -> Self {
        Reading { key, read: Read::Histogram(read), part: Part::Histograms, scraped: true }
    }

    /// The same row, left out of `metrics`.
    pub const fn unscraped(self) -> Self {
        Reading { scraped: false, ..self }
    }

    fn json(&self, owner: &T) -> Json {
        match &self.read {
            Read::Total(f) | Read::Level(f) => Json::from(f(owner)),
            Read::Flag(f) => Json::from(f(owner)),
            Read::Histogram(f) => f(owner).to_json(),
        }
    }
}

/// Pushes `owner`'s readings of `part` onto `out` in table order.
pub fn render<T>(out: &mut Json, part: Part, rows: &[Reading<T>], owner: &T) {
    for r in rows.iter().filter(|r| r.part == part) {
        out.push(r.key, r.json(owner));
    }
}

/// Records `owner`'s scraped readings in `m` under `prefix`, each
/// sample carrying `labels`.
pub fn scrape<T>(
    m: &mut MetricsRegistry,
    prefix: &str,
    labels: &[(&str, &str)],
    rows: &[Reading<T>],
    owner: &T,
) {
    for r in rows.iter().filter(|r| r.scraped) {
        let name = format!("{prefix}_{}", r.key);
        match &r.read {
            Read::Total(f) => m.set(&format!("{name}_total"), labels, f(owner)),
            Read::Level(f) => m.set(&name, labels, f(owner)),
            Read::Flag(f) => m.set(&name, labels, u64::from(f(owner))),
            Read::Histogram(f) => m.histogram(&name, labels, &f(owner)),
        }
    }
}

/// Reads an atomic counter; the `Relaxed` load every counter row uses.
pub fn load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}
