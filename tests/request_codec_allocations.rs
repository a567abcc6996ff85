//! Allocation counts of the screening-request codec (`DSRQ`), under a
//! counting global allocator: encoding writes every signature straight into
//! one exactly sized frame, and decoding allocates one entry list per
//! signature, which `Signature::new` merges in place.
//!
//! The allocator replaces the global one for this whole binary, so this file
//! holds a single test; only allocations made by the measuring thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use analog_signature::dsig::{Signature, SignatureEntry, ZoneCode};
use analog_signature::serve::proto;

/// Counts allocations and reallocations made while the calling thread's
/// `COUNTING` flag is set.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are `System`'s preconditions and `System`'s results
// are returned as they are; counting touches only an atomic and a
// thread-local flag, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`, as our caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded from our caller, who upholds `realloc`'s
        // contract for a block `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, value)
}

/// `count` signatures of 40 entries each; neighbouring codes differ, so no
/// entry merges away.
fn signatures(count: usize) -> Vec<Signature> {
    (0..count)
        .map(|s| {
            Signature::new(
                (0..40)
                    .map(|k| SignatureEntry {
                        code: ZoneCode(k),
                        duration: (1 + k as usize + s) as f64 * 1e-6,
                    })
                    .collect(),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn request_encoding_allocates_once_and_decoding_once_per_signature() {
    let one = signatures(1);
    let many = signatures(256);
    assert!(many.iter().all(|s| s.len() == 40));

    let (encode_one, _) = allocations_of(|| proto::encode_request(7, &one));
    let (encode_many, frame) = allocations_of(|| proto::encode_request(7, &many));
    assert!(
        encode_many <= 2 && encode_many == encode_one,
        "encoding 256 signatures made {encode_many} allocations, one signature {encode_one}"
    );

    let (decode_many, decoded) = allocations_of(|| proto::decode_request(&frame).unwrap());
    assert!(
        decode_many <= many.len() + 4,
        "decoding 256 signatures made {decode_many} allocations"
    );
    assert_eq!(decoded.golden_key, 7);
    assert_eq!(decoded.signatures, many);
}
