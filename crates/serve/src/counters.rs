//! One declaration per counter set.
//!
//! A server's counters are named once, in a [`counter_set!`] invocation,
//! which declares the public snapshot struct (one `u64` field per
//! counter), the live mirror the threads bump, and the JSON rendering,
//! parsing and field-wise merge — all in declaration order, which is
//! the wire order. The daemon's [`Stats`](crate::Stats) and the fleet
//! router's `RouterStats` are the two sets.
//!
//! [`counter_set!`]: crate::counter_set

use std::sync::atomic::{AtomicU64, Ordering};

#[doc(hidden)]
pub use sampsim_util::json::Value;

/// One live monotonic counter. It publishes no other data, so relaxed
/// ordering suffices.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One counter member of a parsed JSON object: a missing, negative or
/// non-numeric member reads as zero.
#[doc(hidden)]
pub fn member(object: &Value, name: &str) -> u64 {
    match object.get(name).and_then(Value::as_f64) {
        Some(v) if v.is_finite() && v >= 0.0 => v as u64,
        _ => 0,
    }
}

/// Declares a counter set once:
///
/// ```text
/// counter_set! {
///     /// Docs of the snapshot struct.
///     pub struct Snapshot, live Live {
///         /// Docs of the counter.
///         name,
///         ...
///     }
/// }
/// ```
///
/// expands to `pub struct Snapshot { pub name: u64, ... }` with
/// `json_fields`, `from_fields` and `merge`, plus a private `Live` of
/// [`Counter`](crate::counters::Counter)s whose `snapshot` loads them
/// all.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $snapshot:ident, live $live:ident {
            $( $(#[$doc:meta])* $field:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snapshot {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl $snapshot {
            /// The counters as comma-separated JSON object members
            /// (`"name":value`), in declaration order.
            pub fn json_fields(&self) -> String {
                [$( format!(concat!("\"", stringify!($field), "\":{}"), self.$field) ),+]
                    .join(",")
            }

            /// Reads the counters from a parsed JSON object. Unknown
            /// members are ignored (forward compatibility); a missing
            /// one reads as zero.
            pub fn from_fields(object: &$crate::counters::Value) -> Self {
                $snapshot { $( $field: $crate::counters::member(object, stringify!($field)), )+ }
            }

            /// Adds another snapshot's counters into this one, field by
            /// field.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field += other.$field; )+
            }
        }

        #[derive(Default)]
        struct $live {
            $( $field: $crate::counters::Counter, )+
        }

        impl $live {
            fn snapshot(&self) -> $snapshot {
                $snapshot { $( $field: self.$field.get(), )+ }
            }
        }
    };
}
