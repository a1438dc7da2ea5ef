//! Offline stand-in for the `rayon` crate.
//!
//! No workspace code calls it any more: it stays a declared dependency of
//! `nmf_matrix` and `nmf_sparse` only until the benchmark's lock file
//! (`nmfbench/Cargo.lock`) is next regenerated, and then goes.
//!
//! Implements genuine data parallelism with `std::thread::scope` behind
//! the slice of rayon's API the workspace used:
//!
//! * `(0..n).into_par_iter().map(f).collect::<Vec<_>>()`
//! * `(0..n).into_par_iter().for_each(f)`
//! * `slice.par_chunks_mut(c).enumerate().for_each(f)`
//! * [`current_num_threads`]
//!
//! Instead of a work-stealing pool, each call splits its index range into
//! contiguous chunks, one per available core, and runs them on scoped
//! threads. For the regular, uniform-cost loops it served (row-parallel
//! GEMM/SpMM) static chunking is within noise of work stealing, and it
//! keeps the stand-in dependency-free. Small inputs (fewer items than
//! threads) run inline to avoid spawn overhead.

use std::num::NonZeroUsize;

/// Number of worker threads parallel calls will use.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Items-per-thread threshold below which parallel calls run inline.
const MIN_ITEMS_PER_THREAD: usize = 1;

fn thread_count(items: usize) -> usize {
    current_num_threads()
        .min(items / MIN_ITEMS_PER_THREAD.max(1))
        .max(1)
}

/// Runs `f(start..end)` for a partition of `0..n` into `t` near-equal
/// contiguous chunks, one scoped thread per chunk.
fn parallel_ranges<F: Fn(usize, usize) + Sync>(n: usize, f: F) {
    let t = thread_count(n);
    if t <= 1 || n <= 1 {
        f(0, n);
        return;
    }
    let base = n / t;
    let rem = n % t;
    std::thread::scope(|scope| {
        let f = &f;
        let mut start = 0;
        for i in 0..t {
            let len = base + usize::from(i < rem);
            let end = start + len;
            scope.spawn(move || f(start, end));
            start = end;
        }
    });
}

pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSliceMut,
    };
}

/// Conversion into a parallel iterator (ranges of `usize` only).
pub trait IntoParallelIterator {
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

/// Parallel iterator over a `usize` range.
pub struct ParRange {
    start: usize,
    end: usize,
}

/// Operations shared by the parallel iterators here.
pub trait ParallelIterator: Sized {
    type Item: Send;

    /// Applies `f` to every item in parallel.
    fn for_each<G: Fn(Self::Item) + Sync>(self, f: G);

    /// Lazily maps items through `f`.
    fn map<T: Send, G: Fn(Self::Item) -> T + Sync>(self, f: G) -> Mapped<Self, G> {
        Mapped { inner: self, f }
    }

    /// Collects into a container (only `Vec<Item>` is supported, in
    /// index order).
    fn collect<C: FromParallel<Self::Item>>(self) -> C
    where
        Self: IndexedCollect<Self::Item>,
    {
        C::from_indexed(self)
    }
}

/// Marker for iterators whose items can be collected positionally.
#[allow(clippy::len_without_is_empty)]
pub trait IndexedCollect<T: Send>: Sized {
    fn len(&self) -> usize;
    /// Writes item `i` through `out` for every `i` in parallel.
    fn fill(self, out: &mut [Option<T>]);
}

/// Containers collectible from an indexed parallel iterator.
pub trait FromParallel<T: Send> {
    fn from_indexed<I: IndexedCollect<T>>(iter: I) -> Self;
}

impl<T: Send> FromParallel<T> for Vec<T> {
    fn from_indexed<I: IndexedCollect<T>>(iter: I) -> Vec<T> {
        let n = iter.len();
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        iter.fill(&mut slots);
        slots
            .into_iter()
            .map(|s| s.expect("parallel collect slot unfilled"))
            .collect()
    }
}

impl ParallelIterator for ParRange {
    type Item = usize;
    fn for_each<G: Fn(usize) + Sync>(self, f: G) {
        let s = self.start;
        parallel_ranges(self.end - self.start, |lo, hi| {
            for i in lo..hi {
                f(s + i);
            }
        });
    }
}

impl IndexedCollect<usize> for ParRange {
    fn len(&self) -> usize {
        self.end - self.start
    }
    fn fill(self, out: &mut [Option<usize>]) {
        let s = self.start;
        let out_ptr = SendPtr(out.as_mut_ptr());
        parallel_ranges(self.end - self.start, |lo, hi| {
            for i in lo..hi {
                // Disjoint indices per chunk — no two threads touch the
                // same slot.
                unsafe { *out_ptr.at(i) = Some(s + i) };
            }
        });
    }
}

/// A mapped parallel iterator.
pub struct Mapped<I, G> {
    inner: I,
    f: G,
}

impl<I, G, T> ParallelIterator for Mapped<I, G>
where
    I: ParallelIterator,
    G: Fn(I::Item) -> T + Sync,
    T: Send,
{
    type Item = T;
    fn for_each<H: Fn(T) + Sync>(self, h: H) {
        let f = self.f;
        self.inner.for_each(move |x| h(f(x)));
    }
}

impl<I, G, T> IndexedCollect<T> for Mapped<I, G>
where
    I: IndexedCollect<I::Item> + ParallelIterator,
    G: Fn(I::Item) -> T + Sync,
    T: Send,
{
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn fill(self, out: &mut [Option<T>]) {
        // Fill the inner items, then map in parallel by index.
        let f = &self.f;
        let n = self.inner.len();
        let mut inner_slots: Vec<Option<I::Item>> = Vec::with_capacity(n);
        inner_slots.resize_with(n, || None);
        self.inner.fill(&mut inner_slots);
        let in_ptr = SendPtr(inner_slots.as_mut_ptr());
        let out_ptr = SendPtr(out.as_mut_ptr());
        parallel_ranges(n, |lo, hi| {
            for i in lo..hi {
                unsafe {
                    let item = (*in_ptr.at(i)).take().expect("inner slot unfilled");
                    *out_ptr.at(i) = Some(f(item));
                }
            }
        });
    }
}

/// Indexed variants (`enumerate`).
pub trait IndexedParallelIterator: ParallelIterator {
    fn enumerate(self) -> Enumerated<Self> {
        Enumerated { inner: self }
    }
}

/// An enumerated parallel iterator.
pub struct Enumerated<I> {
    inner: I,
}

/// Mutable parallel chunking of slices (`par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over mutable, non-overlapping chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn for_each<G: Fn(&'a mut [T]) + Sync>(self, f: G) {
        let mut chunks: Vec<&'a mut [T]> = self.slice.chunks_mut(self.chunk_size).collect();
        let n = chunks.len();
        let ptr = SendPtr(chunks.as_mut_ptr());
        parallel_ranges(n, |lo, hi| {
            for i in lo..hi {
                let chunk = unsafe { std::ptr::read(ptr.at(i)) };
                f(chunk);
            }
        });
        // The chunk references were duplicated out by `ptr::read`, but
        // `&mut [T]` has no drop glue, so dropping the Vec normally is
        // sound and frees its buffer.
    }
}

impl<T: Send> IndexedParallelIterator for ParChunksMut<'_, T> {}
impl IndexedParallelIterator for ParRange {}

impl<'a, T: Send> ParallelIterator for Enumerated<ParChunksMut<'a, T>> {
    type Item = (usize, &'a mut [T]);
    fn for_each<G: Fn((usize, &'a mut [T])) + Sync>(self, f: G) {
        let inner = self.inner;
        let mut chunks: Vec<&'a mut [T]> = inner.slice.chunks_mut(inner.chunk_size).collect();
        let n = chunks.len();
        let ptr = SendPtr(chunks.as_mut_ptr());
        parallel_ranges(n, |lo, hi| {
            for i in lo..hi {
                let chunk = unsafe { std::ptr::read(ptr.at(i)) };
                f((i, chunk));
            }
        });
        // See ParallelIterator::for_each above: plain drop is sound.
    }
}

impl ParallelIterator for Enumerated<ParRange> {
    type Item = (usize, usize);
    fn for_each<G: Fn((usize, usize)) + Sync>(self, f: G) {
        let s = self.inner.start;
        parallel_ranges(self.inner.end - self.inner.start, |lo, hi| {
            for i in lo..hi {
                f((i, s + i));
            }
        });
    }
}

/// Raw pointer wrapper asserting cross-thread use is safe because every
/// thread touches a disjoint index set.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to element `i`. Accessed through a method (not the field)
    /// so closures capture the `Sync` wrapper, not the raw pointer.
    fn at(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

/// Runs two closures, potentially in parallel, returning both results
/// (rayon's `join`).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon::join closure panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_for_each_visits_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        (0..100).into_par_iter().for_each(|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut v = vec![0usize; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(ci, chunk)| {
            for x in chunk {
                *x = ci;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i / 10);
        }
    }

    #[test]
    fn empty_range_is_fine() {
        let v: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".len());
        assert_eq!((a, b), (2, 1));
    }
}
