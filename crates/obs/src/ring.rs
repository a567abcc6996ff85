//! The bounded lock-per-slot ring behind [`crate::Tracer`] and
//! [`crate::EventSink`].
//!
//! Pushing is one relaxed `fetch_add` plus one uncontended per-slot mutex;
//! when the ring is full the oldest record is overwritten instead of
//! blocking, and the overwrite is counted — a diagnostic side channel must
//! never block or grow without bound.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use dsig_core::recover;

/// A bounded ring of records that overwrites its oldest entry when full.
pub(crate) struct Ring<T> {
    slots: Vec<Mutex<Option<T>>>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity.max(1)` records.
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The ring capacity, in records.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of records overwritten before being taken.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores one record, overwriting (and counting) the oldest when full.
    pub(crate) fn push(&self, record: T) {
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        // Slot mutexes are uncontended unless two pushers land on the same
        // slot in one ring revolution; either way the lock is held for one
        // store. A poisoned slot still holds a whole record.
        let mut guard = recover(self.slots[slot].lock());
        if guard.is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        *guard = Some(record);
    }

    /// Takes every buffered record out of the ring, in slot order. Records
    /// pushed concurrently with the take land in the next one.
    pub(crate) fn take_all(&self) -> Vec<T> {
        self.slots
            .iter()
            .filter_map(|slot| recover(slot.lock()).take())
            .collect()
    }
}
