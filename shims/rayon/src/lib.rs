//! Offline stand-in for the `rayon` crate — now actually parallel.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors the exact parallel-iterator surface it uses. Earlier
//! revisions implemented it sequentially; this version executes on a
//! persistent worker pool (see [`pool`]) sized by `MGNN_THREADS` or
//! [`std::thread::available_parallelism`].
//!
//! # Determinism contract
//!
//! Every operation splits its input into chunks whose boundaries are a
//! **pure function of input length** ([`pool::chunk_len`]), maps or
//! folds each chunk in ascending index order, and combines per-chunk
//! results in chunk order. Consequently `map`, `for_each`, `fold` +
//! `reduce`, `collect`, `sum`, `partition_map`, `par_chunks_mut`, and
//! `par_sort_unstable` return bitwise-identical results at **any**
//! thread count — the engine's bitwise-`RunReport` reproducibility
//! oracle holds whether `MGNN_THREADS=1` or 64. Only wall-clock time
//! changes with the thread count.
//!
//! The wrappers preserve rayon's shapes (`fold` yields per-chunk
//! accumulators that `reduce` combines; `partition_map` splits by
//! [`iter::Either`]) so call sites stay source-compatible with real
//! rayon if it is ever swapped back in. Closures take rayon's `Fn +
//! Sync` bounds because they genuinely run concurrently.

pub mod pool;

pub use pool::current_num_threads;

pub mod iter {
    //! Parallel-iterator adapters over indexed sources.

    use crate::pool;

    /// Two-way branch used by [`Par::partition_map`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Either<L, R> {
        /// Goes to the first output collection.
        Left(L),
        /// Goes to the second output collection.
        Right(R),
    }

    /// An indexed source of items that can be driven range-by-range
    /// from multiple threads.
    ///
    /// `len()` is the size of the *index domain* used for chunking;
    /// `drive(lo, hi, sink)` emits the items of indices `lo..hi` into
    /// `sink` in ascending index order. Most sources emit exactly one
    /// item per index; [`FlatMapIter`] may emit any number per index
    /// (its `len()` is the outer length), which is why combination
    /// always happens through per-chunk buffers rather than fixed
    /// per-item slots.
    pub trait ParSource: Sync {
        /// Item type produced by this source.
        type Item: Send;

        /// Size of the index domain.
        fn len(&self) -> usize;

        /// Whether the index domain is empty.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Emit the items of indices `lo..hi`, in ascending order.
        fn drive(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(Self::Item));
    }

    /// Write handle for disjoint per-chunk result slots.
    struct SlotPtr<R>(*mut Option<R>);
    unsafe impl<R: Send> Sync for SlotPtr<R> {}

    impl<R> SlotPtr<R> {
        /// # Safety
        /// Each `idx` must be written by at most one thread, within
        /// the allocation, while the owner keeps the slots alive.
        unsafe fn write(&self, idx: usize, val: R) {
            *self.0.add(idx) = Some(val);
        }
    }

    /// Run `per_chunk(lo, hi)` over the deterministic chunk grid of an
    /// input of length `len` and return the results in chunk order.
    pub(crate) fn run_chunked<R: Send>(
        len: usize,
        per_chunk: impl Fn(usize, usize) -> R + Sync,
    ) -> Vec<R> {
        let nc = pool::num_chunks(len);
        let cl = pool::chunk_len(len);
        let mut slots: Vec<Option<R>> = (0..nc).map(|_| None).collect();
        let out = SlotPtr(slots.as_mut_ptr());
        pool::run(nc, &|c| {
            let lo = c * cl;
            let hi = (lo + cl).min(len);
            let r = per_chunk(lo, hi);
            // SAFETY: each chunk index writes only its own slot, and
            // `pool::run` joins all chunks before returning.
            unsafe { out.write(c, r) };
        });
        slots
            .into_iter()
            .map(|s| s.expect("pool executed every chunk"))
            .collect()
    }

    /// Parallel iterator over a [`ParSource`].
    pub struct Par<S>(pub(crate) S);

    /// Map adapter: applies `f` to each item.
    pub struct Map<S, F> {
        src: S,
        f: F,
    }

    impl<S: ParSource, O: Send, F: Fn(S::Item) -> O + Sync> ParSource for Map<S, F> {
        type Item = O;

        fn len(&self) -> usize {
            self.src.len()
        }

        fn drive(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(O)) {
            self.src.drive(lo, hi, &mut |x| sink((self.f)(x)));
        }
    }

    /// Flat-map adapter: each index may emit any number of items.
    pub struct FlatMapIter<S, F> {
        src: S,
        f: F,
    }

    impl<S, I, F> ParSource for FlatMapIter<S, F>
    where
        S: ParSource,
        I: IntoIterator,
        I::Item: Send,
        F: Fn(S::Item) -> I + Sync,
    {
        type Item = I::Item;

        fn len(&self) -> usize {
            self.src.len()
        }

        fn drive(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(I::Item)) {
            self.src.drive(lo, hi, &mut |x| {
                for y in (self.f)(x) {
                    sink(y);
                }
            });
        }
    }

    /// Enumerate adapter. Valid only over one-item-per-index sources
    /// (everything except [`FlatMapIter`], which no call site
    /// enumerates).
    pub struct Enumerate<S>(S);

    impl<S: ParSource> ParSource for Enumerate<S> {
        type Item = (usize, S::Item);

        fn len(&self) -> usize {
            self.0.len()
        }

        fn drive(&self, lo: usize, hi: usize, sink: &mut dyn FnMut((usize, S::Item))) {
            let mut idx = lo;
            self.0.drive(lo, hi, &mut |x| {
                sink((idx, x));
                idx += 1;
            });
        }
    }

    /// Per-chunk accumulators produced by [`Par::fold`], combined in
    /// chunk order by [`Folded::reduce`].
    pub struct Folded<T>(Vec<T>);

    impl<T> Folded<T> {
        /// Combine the per-chunk accumulators sequentially, in chunk
        /// order (or produce the identity when the input was empty).
        pub fn reduce<ID, F>(self, identity: ID, op: F) -> T
        where
            ID: Fn() -> T,
            F: FnMut(T, T) -> T,
        {
            let mut op = op;
            self.0.into_iter().reduce(&mut op).unwrap_or_else(identity)
        }
    }

    impl<S: ParSource> Par<S> {
        /// Map each item.
        pub fn map<O, F>(self, f: F) -> Par<Map<S, F>>
        where
            O: Send,
            F: Fn(S::Item) -> O + Sync,
        {
            Par(Map { src: self.0, f })
        }

        /// Flat-map through a serial iterator, as rayon's `flat_map_iter`.
        pub fn flat_map_iter<I, F>(self, f: F) -> Par<FlatMapIter<S, F>>
        where
            I: IntoIterator,
            I::Item: Send,
            F: Fn(S::Item) -> I + Sync,
        {
            Par(FlatMapIter { src: self.0, f })
        }

        /// Pair each item with its index.
        pub fn enumerate(self) -> Par<Enumerate<S>> {
            Par(Enumerate(self.0))
        }

        /// Consume with a side-effecting closure (run on the pool).
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(S::Item) + Sync,
        {
            let src = self.0;
            run_chunked(src.len(), |lo, hi| src.drive(lo, hi, &mut |x| f(x)));
        }

        /// Fold each chunk into its own accumulator, in index order.
        /// The accumulators come back in chunk order, so a subsequent
        /// [`Folded::reduce`] is bitwise-deterministic at any thread
        /// count.
        pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Folded<T>
        where
            T: Send,
            ID: Fn() -> T + Sync,
            F: Fn(T, S::Item) -> T + Sync,
        {
            let src = self.0;
            Folded(run_chunked(src.len(), |lo, hi| {
                let mut acc = Some(identity());
                src.drive(lo, hi, &mut |x| {
                    acc = Some(fold_op(acc.take().expect("accumulator present"), x));
                });
                acc.expect("accumulator present")
            }))
        }

        /// Collect into any `FromIterator` collection, in index order.
        pub fn collect<C: FromIterator<S::Item>>(self) -> C {
            let src = self.0;
            let parts = run_chunked(src.len(), |lo, hi| {
                let mut part = Vec::with_capacity(hi - lo);
                src.drive(lo, hi, &mut |x| part.push(x));
                part
            });
            parts.into_iter().flatten().collect()
        }

        /// Sum the items: per-chunk partial sums in index order,
        /// combined in chunk order.
        pub fn sum<Su>(self) -> Su
        where
            Su: std::iter::Sum<S::Item> + std::iter::Sum<Su> + Send,
        {
            let src = self.0;
            run_chunked(src.len(), |lo, hi| {
                let mut part = Vec::with_capacity(hi - lo);
                src.drive(lo, hi, &mut |x| part.push(x));
                part.into_iter().sum::<Su>()
            })
            .into_iter()
            .sum()
        }

        /// Split items into two collections according to `f`,
        /// preserving index order within each side.
        pub fn partition_map<A, B, CA, CB, F>(self, f: F) -> (CA, CB)
        where
            A: Send,
            B: Send,
            CA: Default + Extend<A>,
            CB: Default + Extend<B>,
            F: Fn(S::Item) -> Either<A, B> + Sync,
        {
            let src = self.0;
            let parts = run_chunked(src.len(), |lo, hi| {
                let mut left = Vec::new();
                let mut right = Vec::new();
                src.drive(lo, hi, &mut |x| match f(x) {
                    Either::Left(a) => left.push(a),
                    Either::Right(b) => right.push(b),
                });
                (left, right)
            });
            let mut left = CA::default();
            let mut right = CB::default();
            for (l, r) in parts {
                left.extend(l);
                right.extend(r);
            }
            (left, right)
        }
    }

    /// Conversion into a parallel iterator (by value).
    pub trait IntoParallelIterator {
        /// Item type.
        type Item: Send;
        /// Underlying indexed source.
        type Source: ParSource<Item = Self::Item>;

        /// Enter the parallel-iterator API.
        fn into_par_iter(self) -> Par<Self::Source>;
    }

    macro_rules! range_par_source {
        ($t:ty) => {
            impl ParSource for std::ops::Range<$t> {
                type Item = $t;

                fn len(&self) -> usize {
                    if self.end > self.start {
                        (self.end - self.start) as usize
                    } else {
                        0
                    }
                }

                fn drive(&self, lo: usize, hi: usize, sink: &mut dyn FnMut($t)) {
                    for i in lo..hi {
                        sink(self.start + i as $t);
                    }
                }
            }

            impl IntoParallelIterator for std::ops::Range<$t> {
                type Item = $t;
                type Source = std::ops::Range<$t>;

                fn into_par_iter(self) -> Par<Self::Source> {
                    Par(self)
                }
            }
        };
    }

    range_par_source!(usize);
    range_par_source!(u32);
    range_par_source!(u64);

    /// Borrowed-slice source (`par_iter`).
    pub struct SliceSource<'a, T>(&'a [T]);

    impl<'a, T: Sync> ParSource for SliceSource<'a, T> {
        type Item = &'a T;

        fn len(&self) -> usize {
            self.0.len()
        }

        fn drive(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(&'a T)) {
            for x in &self.0[lo..hi] {
                sink(x);
            }
        }
    }

    /// Conversion into a borrowing parallel iterator (`par_iter`).
    pub trait IntoParallelRefIterator<'a> {
        /// Borrowed item type.
        type Item: Send + 'a;
        /// Underlying indexed source.
        type Source: ParSource<Item = Self::Item>;

        /// Enter the parallel-iterator API by reference.
        fn par_iter(&'a self) -> Par<Self::Source>;
    }

    impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;
        type Source = SliceSource<'a, T>;

        fn par_iter(&'a self) -> Par<SliceSource<'a, T>> {
            Par(SliceSource(self))
        }
    }

    impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;
        type Source = SliceSource<'a, T>;

        fn par_iter(&'a self) -> Par<SliceSource<'a, T>> {
            Par(SliceSource(self.as_slice()))
        }
    }
}

pub mod slice {
    //! Slice extension traits (`par_chunks_mut`, `par_sort_unstable`).

    use crate::pool;

    struct SyncPtr<T>(*mut T);
    unsafe impl<T: Send> Sync for SyncPtr<T> {}

    impl<T> SyncPtr<T> {
        /// Offset pointer; `&self` receiver keeps closures capturing
        /// the Sync wrapper rather than the raw pointer field.
        fn at(&self, offset: usize) -> *mut T {
            unsafe { self.0.add(offset) }
        }
    }

    /// Parallel iterator over disjoint mutable chunks of a slice.
    pub struct ParChunksMut<'a, T> {
        data: &'a mut [T],
        size: usize,
    }

    /// [`ParChunksMut`] with indices attached.
    pub struct EnumChunksMut<'a, T> {
        data: &'a mut [T],
        size: usize,
    }

    impl<'a, T: Send> ParChunksMut<'a, T> {
        /// Pair each chunk with its index.
        pub fn enumerate(self) -> EnumChunksMut<'a, T> {
            EnumChunksMut {
                data: self.data,
                size: self.size,
            }
        }
    }

    impl<T: Send> EnumChunksMut<'_, T> {
        /// Run `f` on every `(index, chunk)` pair. Caller chunks are
        /// grouped into pool tasks by the same length-only policy as
        /// every other operation; each task reconstructs its disjoint
        /// chunks from the slice base pointer.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn((usize, &mut [T])) + Sync,
        {
            let len = self.data.len();
            let size = self.size;
            if len == 0 {
                return;
            }
            let caller_chunks = len.div_ceil(size);
            let base = SyncPtr(self.data.as_mut_ptr());
            let nc = pool::num_chunks(caller_chunks);
            let cl = pool::chunk_len(caller_chunks);
            pool::run(nc, &|c| {
                let lo = c * cl;
                let hi = (lo + cl).min(caller_chunks);
                for i in lo..hi {
                    let start = i * size;
                    let end = (start + size).min(len);
                    // SAFETY: caller chunks [i*size, i*size+size) are
                    // pairwise disjoint, each visited by exactly one
                    // pool task, and `pool::run` joins before the
                    // borrow of `self.data` ends.
                    let chunk =
                        unsafe { std::slice::from_raw_parts_mut(base.at(start), end - start) };
                    f((i, chunk));
                }
            });
        }
    }

    /// Mutable-slice extensions mirroring `rayon::slice::ParallelSliceMut`.
    pub trait ParallelSliceMut<T> {
        /// Mutable chunks of `size` elements (`size > 0`).
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;

        /// Unstable in-place sort: parallel per-chunk sorts followed by
        /// pairwise merges. Deterministic — the chunk grid and merge
        /// tree depend only on the slice length, and merges take from
        /// the left run on ties.
        fn par_sort_unstable(&mut self)
        where
            T: Ord + Copy + Sync;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
            assert!(size > 0, "chunk size must be non-zero");
            ParChunksMut { data: self, size }
        }

        fn par_sort_unstable(&mut self)
        where
            T: Ord + Copy + Sync,
        {
            let len = self.len();
            // Length-only cutoff: small slices sort inline. The path
            // choice must not depend on the thread count, or results
            // could differ across MGNN_THREADS for types whose equal
            // values are distinguishable.
            const SEQ_CUTOFF: usize = 4096;
            if len <= SEQ_CUTOFF {
                self.sort_unstable();
                return;
            }

            let cl = pool::chunk_len(len);
            let nc = pool::num_chunks(len);
            {
                let base = SyncPtr(self.as_mut_ptr());
                pool::run(nc, &|c| {
                    let lo = c * cl;
                    let hi = (lo + cl).min(len);
                    // SAFETY: chunk ranges are pairwise disjoint.
                    unsafe { std::slice::from_raw_parts_mut(base.at(lo), hi - lo) }.sort_unstable();
                });
            }

            // Iterative pairwise merges, ping-ponging through a
            // scratch buffer. Runs double in width each round; the
            // merge tree is a pure function of `len`.
            let mut scratch: Vec<T> = self.to_vec();
            let mut in_self = true;
            let mut width = cl;
            while width < len {
                let pairs = len.div_ceil(2 * width);
                {
                    let (src_ptr, dst_ptr) = if in_self {
                        (self.as_ptr(), scratch.as_mut_ptr())
                    } else {
                        (scratch.as_ptr(), self.as_mut_ptr())
                    };
                    let src = SyncPtr(src_ptr as *mut T);
                    let dst = SyncPtr(dst_ptr);
                    pool::run(pairs, &|p| {
                        let lo = p * 2 * width;
                        let mid = (lo + width).min(len);
                        let hi = (lo + 2 * width).min(len);
                        // SAFETY: pair output ranges [lo, hi) are
                        // pairwise disjoint; src is only read.
                        unsafe {
                            let left = std::slice::from_raw_parts(src.at(lo), mid - lo);
                            let right = std::slice::from_raw_parts(src.at(mid), hi - mid);
                            let out = std::slice::from_raw_parts_mut(dst.at(lo), hi - lo);
                            merge_left_first(left, right, out);
                        }
                    });
                }
                in_self = !in_self;
                width *= 2;
            }
            if !in_self {
                self.copy_from_slice(&scratch);
            }
        }
    }

    /// Stable two-run merge: ties take from `left` first.
    fn merge_left_first<T: Ord + Copy>(left: &[T], right: &[T], out: &mut [T]) {
        let (mut i, mut j) = (0, 0);
        for slot in out.iter_mut() {
            if i < left.len() && (j >= right.len() || left[i] <= right[j]) {
                *slot = left[i];
                i += 1;
            } else {
                *slot = right[j];
                j += 1;
            }
        }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::iter::{IntoParallelIterator, IntoParallelRefIterator};
    pub use super::slice::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use super::iter::{Either, IntoParallelIterator, IntoParallelRefIterator};
    use super::slice::ParallelSliceMut;

    #[test]
    fn map_collect_matches_serial() {
        let v: Vec<u32> = (0u32..10).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn fold_reduce_shape() {
        let total: Vec<f32> = (0usize..4)
            .into_par_iter()
            .fold(
                || vec![0.0f32; 3],
                |mut acc, k| {
                    for a in &mut acc {
                        *a += k as f32;
                    }
                    acc
                },
            )
            .reduce(
                || vec![0.0f32; 3],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            );
        assert_eq!(total, vec![6.0, 6.0, 6.0]);
    }

    #[test]
    fn partition_map_splits() {
        let v = vec![1u32, 2, 3, 4, 5];
        let (even, odd): (Vec<u32>, Vec<u32>) = v.par_iter().partition_map(|&x| {
            if x % 2 == 0 {
                Either::Left(x)
            } else {
                Either::Right(x)
            }
        });
        assert_eq!(even, vec![2, 4]);
        assert_eq!(odd, vec![1, 3, 5]);
    }

    #[test]
    fn chunks_and_sort() {
        let mut v = vec![5u32, 3, 1, 4, 2];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
        let mut w = vec![0u32; 6];
        w.par_chunks_mut(2).enumerate().for_each(|(i, c)| {
            for x in c {
                *x = i as u32;
            }
        });
        assert_eq!(w, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn large_sort_takes_merge_path() {
        // 40 000 elements > the sequential cutoff, with duplicates.
        let mut v: Vec<u32> = (0..40_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 977)
            .collect();
        let mut reference = v.clone();
        reference.sort_unstable();
        v.par_sort_unstable();
        assert_eq!(v, reference);
    }

    #[test]
    fn flat_map_iter_preserves_order() {
        let v: Vec<u32> = (0u32..100)
            .into_par_iter()
            .flat_map_iter(|x| (0..x % 3).map(move |k| x * 10 + k))
            .collect();
        let expected: Vec<u32> = (0u32..100)
            .flat_map(|x| (0..x % 3).map(move |k| x * 10 + k))
            .collect();
        assert_eq!(v, expected);
    }
}
