//! Counting global allocator.
//!
//! Every allocation on the benchmark's own thread is charged to the
//! layer it marked active with [`enter`] around each call into a layer.
//! Allocations on any other thread — in the traced drivers, only the
//! aggregation round's workers start threads — are charged to
//! [`Layer::Worker`], so a worker that outlives the round by a few
//! instructions cannot charge the layer the benchmark moved on to.
//! Counting is off until [`set_counting`] turns it on, so untraced runs
//! pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Where an allocation is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Benchmark glue: anything outside a traced layer call.
    Glue,
    /// World or daemon construction.
    Setup,
    /// `Kernel::run` outside actor callbacks, plus timer-wheel
    /// scheduling from inside them.
    Kernel,
    /// `WileMac::mcps_data` (template patch, SAP, `Medium::transmit`).
    Mac,
    /// `Medium::take_inbox` and `Medium::release_all`.
    Radio,
    /// `GatewayIngest::ingest_when`.
    Ingest,
    /// `GatewayReport::from_received`, `ReportQueue::push`/`drain_into`.
    Queue,
    /// `ClusterAggregator::round` and `evict_stale`.
    Agg,
    /// `fold_delivery`.
    Digest,
    /// `FrameDecoder::push`/`next_record`.
    Codec,
    /// `WireRecord::decode`.
    Wire,
    /// `GatewaydCore::offer`/`advance_to`/`finish`.
    Core,
    /// Any thread but the benchmark's own.
    Worker,
}

const LAYERS: usize = Layer::Worker as usize + 1;

static ACTIVE: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    // No destructor, so it stays readable while a thread exits.
    static OWN_THREAD: Cell<bool> = const { Cell::new(false) };
}
static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNTS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static BYTES: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];

/// The allocator installed as `#[global_allocator]`: the system
/// allocator plus per-layer tallies.
pub struct Counting;

impl Counting {
    #[inline]
    fn charge(bytes: usize) {
        if COUNTING.load(Relaxed) {
            let layer = if OWN_THREAD.with(Cell::get) {
                ACTIVE.load(Relaxed)
            } else {
                Layer::Worker as usize
            };
            COUNTS[layer].fetch_add(1, Relaxed);
            BYTES[layer].fetch_add(bytes as u64, Relaxed);
        }
    }
}

// SAFETY: every method forwards the caller's pointer and layout to
// `System` unchanged, so `System`'s guarantees carry over; the tallies
// touch only atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::charge(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::charge(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth counts as one allocation of the added bytes, so a
        // vector grown to n bytes is charged about n, not 2n.
        Self::charge(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Charge allocations from now on to `layer`.
#[inline]
pub fn enter(layer: Layer) {
    ACTIVE.store(layer as usize, Relaxed);
}

/// Turn counting on or off (it starts off). The calling thread becomes
/// the one whose allocations follow [`enter`].
pub fn set_counting(on: bool) {
    OWN_THREAD.with(|t| t.set(true));
    COUNTING.store(on, Relaxed);
}

/// Allocation calls and bytes charged to each layer so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    counts: [u64; LAYERS],
    bytes: [u64; LAYERS],
}

impl Tally {
    /// The current totals.
    pub fn now() -> Self {
        let mut t = Tally::default();
        for i in 0..LAYERS {
            t.counts[i] = COUNTS[i].load(Relaxed);
            t.bytes[i] = BYTES[i].load(Relaxed);
        }
        t
    }

    /// What was charged between `earlier` and `self`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut t = Tally::default();
        for i in 0..LAYERS {
            t.counts[i] = self.counts[i] - earlier.counts[i];
            t.bytes[i] = self.bytes[i] - earlier.bytes[i];
        }
        t
    }

    /// Allocation calls charged to `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.counts[layer as usize]
    }

    /// Bytes charged to `layer`.
    pub fn bytes(&self, layer: Layer) -> u64 {
        self.bytes[layer as usize]
    }
}
