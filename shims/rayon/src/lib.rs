//! Offline stand-in for the `rayon` crate — now actually parallel.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors the exact parallel-iterator surface it uses, and no more:
//! `into_par_iter` over a `usize` range with `map`, `fold` + `reduce`
//! and `collect`, and `par_chunks_mut(..).enumerate()
//! .for_each(..)` over a mutable slice. Earlier revisions implemented it
//! sequentially; this version executes on a persistent worker pool (see
//! [`pool`]) sized by `MGNN_THREADS` or
//! [`std::thread::available_parallelism`].
//!
//! # Determinism contract
//!
//! Every operation splits its input into chunks whose boundaries are a
//! **pure function of input length** ([`pool::chunk_len`]), maps or
//! folds each chunk in ascending index order, and combines per-chunk
//! results in chunk order. Consequently every operation above returns
//! bitwise-identical results at **any**
//! thread count — the engine's bitwise-`RunReport` reproducibility
//! oracle holds whether `MGNN_THREADS=1` or 64. Only wall-clock time
//! changes with the thread count.
//!
//! # Hand-out
//!
//! Only [`pool`] holds `unsafe` code: it lends each call's borrowed
//! closure to the persistent workers. The rest is safe code over std
//! locks. Each chunk's result goes into its own `Mutex<Option<R>>`
//! slot, locked once by the task that ran the chunk, and
//! `par_chunks_mut` hands each task the next piece of the slice from one
//! `Mutex`-guarded `chunks_mut` iterator.
//!
//! The wrappers preserve rayon's shapes (`fold` yields per-chunk
//! accumulators that `reduce` combines) so call sites stay
//! source-compatible with real rayon if it is ever swapped back in.
//! Closures take rayon's `Fn + Sync` bounds because they genuinely run
//! concurrently.

#![deny(unsafe_code)]

#[allow(unsafe_code)] // A job's borrow is lent to the workers with its lifetime erased.
pub mod pool;

pub use pool::current_num_threads;

pub mod iter {
    //! Parallel-iterator adapters over indexed sources.

    use crate::pool;
    use std::sync::Mutex;

    /// An indexed source of items that can be driven range-by-range
    /// from multiple threads.
    ///
    /// `len()` is the size of the *index domain* used for chunking;
    /// `drive(lo, hi, sink)` emits the item of each index of `lo..hi`
    /// into `sink`, one per index, in ascending index order.
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

    /// Run `per_chunk(lo, hi)` over the deterministic chunk grid of an
    /// input of length `len`, each result into its own chunk's slot.
    fn run_chunked<R: Send>(
        len: usize,
        per_chunk: impl Fn(usize, usize) -> R + Sync,
    ) -> Vec<Mutex<Option<R>>> {
        let cl = pool::chunk_len(len);
        let slots: Vec<Mutex<Option<R>>> = (0..pool::num_chunks(len))
            .map(|_| Mutex::new(None))
            .collect();
        pool::run(slots.len(), &|c| {
            let lo = c * cl;
            let r = per_chunk(lo, (lo + cl).min(len));
            *slots[c].lock().expect("nothing panics holding a slot") = Some(r);
        });
        slots
    }

    /// The results of [`run_chunked`] in chunk order, read out of the
    /// slots in place, so the slots stay the call's one allocation.
    fn in_chunk_order<R>(slots: Vec<Mutex<Option<R>>>) -> impl Iterator<Item = R> {
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("nothing panics holding a slot"))
            .map(|r| r.expect("pool executed every chunk"))
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

    /// Per-chunk accumulators produced by [`Par::fold`], combined in
    /// chunk order by [`Folded::reduce`].
    pub struct Folded<T>(Vec<Mutex<Option<T>>>);

    impl<T> Folded<T> {
        /// Combine the per-chunk accumulators sequentially, in chunk
        /// order (or produce the identity when the input was empty).
        pub fn reduce<ID, F>(self, identity: ID, op: F) -> T
        where
            ID: Fn() -> T,
            F: FnMut(T, T) -> T,
        {
            let mut op = op;
            in_chunk_order(self.0)
                .reduce(&mut op)
                .unwrap_or_else(identity)
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
            in_chunk_order(parts).flatten().collect()
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

    impl ParSource for std::ops::Range<usize> {
        type Item = usize;

        fn len(&self) -> usize {
            self.end.saturating_sub(self.start)
        }

        fn drive(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(usize)) {
            for i in lo..hi {
                sink(self.start + i);
            }
        }
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Item = usize;
        type Source = std::ops::Range<usize>;

        fn into_par_iter(self) -> Par<Self::Source> {
            Par(self)
        }
    }
}

pub mod slice {
    //! Slice extension traits (`par_chunks_mut`).

    use crate::pool;
    use std::sync::Mutex;

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
        /// every other operation: each task takes the next piece of
        /// `chunk_len` caller chunks from one shared iterator and walks
        /// it in ascending index order.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn((usize, &mut [T])) + Sync,
        {
            let size = self.size;
            let caller_chunks = self.data.len().div_ceil(size);
            let cl = pool::chunk_len(caller_chunks);
            let pieces = Mutex::new(self.data.chunks_mut(cl * size).enumerate());
            pool::run(pool::num_chunks(caller_chunks), &|_| {
                // The guard drops with this statement: `f` runs unlocked.
                let next = pieces
                    .lock()
                    .expect("nothing panics holding the pieces")
                    .next();
                let (p, piece) = next.expect("one piece per task");
                for (j, chunk) in piece.chunks_mut(size).enumerate() {
                    f((p * cl + j, chunk));
                }
            });
        }
    }

    /// Mutable-slice extensions mirroring `rayon::slice::ParallelSliceMut`.
    pub trait ParallelSliceMut<T> {
        /// Mutable chunks of `size` elements (`size > 0`).
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
            assert!(size > 0, "chunk size must be non-zero");
            ParChunksMut { data: self, size }
        }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::iter::IntoParallelIterator;
    pub use super::slice::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use super::iter::IntoParallelIterator;
    use super::slice::ParallelSliceMut;

    #[test]
    fn map_collect_matches_serial() {
        let v: Vec<usize> = (0..10).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10).map(|x| x * 2).collect::<Vec<usize>>());
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
    fn chunks_mut_enumerates_in_order() {
        let mut w = vec![0u32; 6];
        w.par_chunks_mut(2).enumerate().for_each(|(i, c)| {
            for x in c {
                *x = i as u32;
            }
        });
        assert_eq!(w, vec![0, 0, 1, 1, 2, 2]);
    }
}
