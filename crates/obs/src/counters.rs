//! Counter blocks and the tables that declare them.
//!
//! A counter family is written down once, as the rows of a
//! [`counter_table!`](crate::counter_table). Each row names one counter: its snapshot field
//! (which is also its JSON key), its Prometheus name and help text, and
//! its [`Kind`]. From those rows the macro writes the snapshot struct,
//! the [`Counters::TABLE`] every surface walks (snapshot, reset, JSON,
//! Prometheus, the server's `Stats` frame, every merge, the CLI text),
//! and an enum whose variants index the table and the family's
//! live [`Block`]. Adding a counter is adding a row.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a counter measures, which decides how it is exported and how
/// two instances of it combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count: Prometheus `counter`; instances sum.
    Counter,
    /// A level that moves both ways: Prometheus `gauge`; instances sum.
    Gauge,
    /// A high-water mark or tail estimate: Prometheus `gauge`; instances
    /// combine by their maximum (summing quantiles means nothing).
    Peak,
    /// A yes/no gauge held as 0 or 1: its snapshot field is a `bool` and
    /// its JSON value a boolean; instances combine by OR.
    Flag,
}

impl Kind {
    /// Two instances' values combined: a sum for a `Counter` or a
    /// `Gauge`, the maximum for a `Peak`, OR (the maximum of 0 and 1)
    /// for a `Flag`. The one rule every merge applies: snapshots of a
    /// process's registries, a router's `Stats` frames and its `ObsStats`
    /// documents.
    pub fn merge(self, a: u64, b: u64) -> u64 {
        match self {
            Kind::Counter | Kind::Gauge => a + b,
            Kind::Peak | Kind::Flag => a.max(b),
        }
    }
}

/// One row of a counter table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Field {
    /// Snapshot field name, also the JSON key.
    pub key: &'static str,
    /// Prometheus metric name; empty for a family no exposition carries.
    pub prom: &'static str,
    /// One-line description: the field's doc and the `# HELP` text.
    pub help: &'static str,
    /// Export type and merge rule.
    pub kind: Kind,
}

/// A fixed array of relaxed atomic counters, one per row of a family's
/// table. `const`-constructible, so it can back a `static`; every
/// operation is one relaxed atomic access, with no lock and no
/// allocation.
pub struct Block<const N: usize>([AtomicU64; N]);

impl<const N: usize> Block<N> {
    /// A zeroed block.
    pub const fn new() -> Self {
        Block([const { AtomicU64::new(0) }; N])
    }

    /// Add `n` to counter `i`.
    #[inline]
    pub fn add(&self, i: impl Into<usize>, n: u64) {
        self.0[i.into()].fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite counter `i` with `v`.
    #[inline]
    pub fn set(&self, i: impl Into<usize>, v: u64) {
        self.0[i.into()].store(v, Ordering::Relaxed);
    }

    /// Raise counter `i` to `v` if `v` is larger.
    #[inline]
    pub fn max(&self, i: impl Into<usize>, v: u64) {
        self.0[i.into()].fetch_max(v, Ordering::Relaxed);
    }

    /// Counter `i`'s current value.
    #[inline]
    pub fn get(&self, i: impl Into<usize>) -> u64 {
        self.0[i.into()].load(Ordering::Relaxed)
    }

    /// Every counter's current value, in table order.
    pub fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for c in &self.0 {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl<const N: usize> Default for Block<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// A snapshot struct whose counter fields a [`counter_table!`](crate::counter_table) declares.
pub trait Counters {
    /// One row per counter field, in declaration order.
    const TABLE: &'static [Field];

    /// The counter fields' values, in table order (a flag as 0 or 1).
    fn values(&self) -> Vec<u64>;

    /// Overwrite the counter fields from `values`, in table order.
    fn set_values(&mut self, values: &[u64]);

    /// `self` with its counter fields set from `values`.
    fn with_values(mut self, values: &[u64]) -> Self
    where
        Self: Sized,
    {
        self.set_values(values);
        self
    }

    /// Fold `other`'s counters into `self`, each by its kind's rule.
    fn merge(&mut self, other: &Self) {
        let merged: Vec<u64> = Self::TABLE
            .iter()
            .zip(self.values().into_iter().zip(other.values()))
            .map(|(f, (a, b))| f.kind.merge(a, b))
            .collect();
        self.set_values(&merged);
    }
}

/// A counter field's Rust type: `u64`, or `bool` for a [`Kind::Flag`].
#[doc(hidden)]
pub trait CounterValue {
    fn to_u64(&self) -> u64;
    fn from_u64(v: u64) -> Self;
}

impl CounterValue for u64 {
    fn to_u64(&self) -> u64 {
        *self
    }
    fn from_u64(v: u64) -> Self {
        v
    }
}

impl CounterValue for bool {
    fn to_u64(&self) -> u64 {
        *self as u64
    }
    fn from_u64(v: u64) -> Self {
        v != 0
    }
}

/// Declare a counter family once.
///
/// ```
/// cbir_obs::counter_table! {
///     /// Cache counters.
///     #[derive(Clone, Debug, Default, PartialEq, Eq)]
///     pub struct CacheCounters / CacheCounter {
///         /// Cache name (a label, not a counter).
///         pub name: &'static str,
///     }
///     Hits => hits: u64 = Counter "cache_hits_total" "Lookups answered from the cache.";
///     Full => full: bool = Flag "cache_full" "Whether the cache is at capacity.";
/// }
/// use cbir_obs::{Block, Counters};
/// let live: Block<{ CacheCounter::COUNT }> = Block::new();
/// live.add(CacheCounter::Hits, 3);
/// live.set(CacheCounter::Full, 1);
/// let snap = CacheCounters { name: "tiles", ..Default::default() }.with_values(&live.load());
/// assert_eq!((snap.hits, snap.full), (3, true));
/// assert_eq!(CacheCounters::TABLE[0].prom, "cache_hits_total");
/// ```
///
/// The struct gets the fields listed in braces (labels and other
/// non-counter parts), then one public field per row, documented by the
/// row's help text plus any `///` lines written above the row. The enum
/// (`CacheCounter` above) has one variant per row, converts into the
/// row's index, and has `COUNT`, the number of rows.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident / $id:ident {
            $( $(#[$xmeta:meta])* pub $x:ident: $xty:ty, )*
        }
        $(
            $(#[$fmeta:meta])*
            $variant:ident => $field:ident: $ty:ty = $kind:ident $prom:literal $help:literal;
        )+
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$xmeta])* pub $x: $xty, )*
            $( #[doc = $help] $(#[$fmeta])* pub $field: $ty, )+
        }

        #[doc = concat!("The counters of [`", stringify!($name), "`], in table order.")]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $id {
            $( #[doc = $help] $variant, )+
        }

        impl $id {
            /// Number of rows in the table.
            pub const COUNT: usize = [$(stringify!($field)),+].len();
        }

        impl From<$id> for usize {
            fn from(c: $id) -> usize {
                c as usize
            }
        }

        impl $crate::Counters for $name {
            const TABLE: &'static [$crate::Field] = &[$(
                $crate::Field {
                    key: stringify!($field),
                    prom: $prom,
                    help: $help,
                    kind: $crate::Kind::$kind,
                },
            )+];

            fn values(&self) -> Vec<u64> {
                vec![$( $crate::CounterValue::to_u64(&self.$field) ),+]
            }

            fn set_values(&mut self, values: &[u64]) {
                let mut v = values.iter().copied();
                $( self.$field = $crate::CounterValue::from_u64(v.next().unwrap_or(0)); )+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counter_table! {
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Probe / ProbeCounter {}
        Sent => sent: u64 = Counter "" "Sent.";
        Level => level: u64 = Gauge "" "Level.";
        Worst => worst: u64 = Peak "" "Worst.";
        Up => up: bool = Flag "" "Up.";
    }

    #[test]
    fn block_operations_and_table_order() {
        let b: Block<{ ProbeCounter::COUNT }> = Block::new();
        b.add(ProbeCounter::Sent, 2);
        b.add(ProbeCounter::Sent, 3);
        b.set(ProbeCounter::Level, 7);
        b.max(ProbeCounter::Worst, 9);
        b.max(ProbeCounter::Worst, 4);
        b.set(ProbeCounter::Up, 1);
        assert_eq!(b.load(), [5, 7, 9, 1]);
        assert_eq!(b.get(ProbeCounter::Worst), 9);
        let snap = Probe::default().with_values(&b.load());
        assert_eq!(
            snap,
            Probe {
                sent: 5,
                level: 7,
                worst: 9,
                up: true
            }
        );
        assert_eq!(snap.values(), vec![5, 7, 9, 1]);
        let keys: Vec<_> = Probe::TABLE.iter().map(|f| f.key).collect();
        assert_eq!(keys, ["sent", "level", "worst", "up"]);
        b.reset();
        assert_eq!(b.load(), [0; 4]);
    }

    #[test]
    fn merge_sums_counters_and_gauges_and_maxes_peaks_and_flags() {
        let mut a = Probe {
            sent: 1,
            level: 2,
            worst: 30,
            up: false,
        };
        a.merge(&Probe {
            sent: 10,
            level: 20,
            worst: 3,
            up: true,
        });
        assert_eq!(
            a,
            Probe {
                sent: 11,
                level: 22,
                worst: 30,
                up: true
            }
        );
    }
}
